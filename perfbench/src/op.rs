//! One operation: one guest program from `DaisySystem::builder()`
//! through `load` to its `sc` stop and the result check (plus, on
//! `paper_repro`, the 604E comparator and the oracle).

use crate::setup::Prog;
use daisy::oracle::{self, OracleResult};
use daisy::stats::RunStats;
use daisy::system::DaisySystem;
use daisy::DaisyError;
use daisy_baseline::ppc604e::{self, P604Config};
use daisy_cachesim::Hierarchy;
use daisy_ppc::interp::StopReason;
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_vliw::machine::MachineConfig;
use std::time::Instant;

/// The benchmark's workloads (see `perfbench/README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Native tier, infinite cache, unbounded code area; all nine.
    NativeSteady,
    /// Native tier with the code area at half each program's footprint.
    CodeThrash,
    /// Finite-cache DAISY, the 604E model and the oracle; all nine.
    PaperRepro,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "native_steady" => Some(Workload::NativeSteady),
            "code_thrash" => Some(Workload::CodeThrash),
            "paper_repro" => Some(Workload::PaperRepro),
            _ => None,
        }
    }

    /// How a run sums up each program's op times. `native_steady` runs
    /// about 1,500 ops of 1–10 ms per program in a run, and its fastest
    /// op rides out the host's load; the others run a few dozen ops of
    /// 30 ms to 9 s per program, too few for the fastest to be steady,
    /// so they take the median (see README.md, "Spread on a shared host").
    pub fn typical(self) -> Typical {
        match self {
            Workload::NativeSteady => Typical::Fastest,
            Workload::CodeThrash | Workload::PaperRepro => Typical::Median,
        }
    }

    /// The builder settings its ops use.
    pub fn config(self) -> Config {
        match self {
            Workload::NativeSteady => Config::Native,
            Workload::CodeThrash => Config::NativeBounded,
            Workload::PaperRepro => Config::FiniteCache,
        }
    }
}

/// Which of a program's op times over a run stands for the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Typical {
    Fastest,
    Median,
}

/// Builder settings of an op's DAISY system; builder defaults otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// `native_execution(true)`.
    Native,
    /// `native_execution(true)` and `code_capacity` from set-up.
    NativeBounded,
    /// `cache(Hierarchy::paper_default())`.
    FiniteCache,
    /// Nothing changed: packed engine, infinite cache.
    Defaults,
}

/// Where a recorder attributes host time. Every span of an op falls in
/// exactly one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// System build and load, result checks, VMM interpretation steps.
    System,
    /// Steps that translated a group (Pathlist scheduling).
    Sched,
    /// Steps that compiled or flushed native host code.
    JitCompile,
    /// Steps that ran native host code (including bails to packed).
    JitExec,
    /// Steps that only ran the packed engine.
    Packed,
    /// The 604E timing model.
    Baseline,
    /// The oracle scheduler.
    Oracle,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::System,
        Layer::Sched,
        Layer::JitCompile,
        Layer::JitExec,
        Layer::Packed,
        Layer::Baseline,
        Layer::Oracle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::System => "system",
            Layer::Sched => "sched",
            Layer::JitCompile => "jit.compile",
            Layer::JitExec => "jit.exec",
            Layer::Packed => "engine.packed",
            Layer::Baseline => "baseline",
            Layer::Oracle => "oracle",
        }
    }
}

/// How an op reaches its stop, and where its host time goes.
pub trait Recorder {
    /// Runs `sys` to a stop or to `max_cycles`, as `DaisySystem::run`.
    fn drive(
        &mut self,
        sys: &mut DaisySystem<PpcIsa>,
        max_cycles: u64,
    ) -> Result<StopReason, DaisyError>;
    /// Closes the span that began at the previous mark, in `layer`.
    fn mark(&mut self, layer: Layer);
}

/// Calls `DaisySystem::run` and times only the whole op.
pub struct Untraced {
    start: Instant,
}

impl Untraced {
    /// Starts timing an op.
    pub fn new() -> Untraced {
        Untraced { start: Instant::now() }
    }

    /// Wall time since [`Untraced::new`].
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Recorder for Untraced {
    fn drive(
        &mut self,
        sys: &mut DaisySystem<PpcIsa>,
        max_cycles: u64,
    ) -> Result<StopReason, DaisyError> {
        sys.run(max_cycles)
    }

    fn mark(&mut self, _: Layer) {}
}

/// Simulated results, which must repeat exactly for a program and
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSig {
    pub stats: RunStats,
    /// `(604E cycles, oracle result)` on `paper_repro`.
    pub comparators: Option<(u64, OracleResult)>,
}

/// The system for `p` under `config`.
pub fn build(p: &Prog, config: Config) -> DaisySystem<PpcIsa> {
    let b = DaisySystem::<PpcIsa>::builder().mem_size(p.w.mem_size);
    match config {
        Config::Native => b.native_execution(true),
        Config::NativeBounded => {
            b.native_execution(true).code_capacity(p.capacity.expect("capacity probed at set-up"))
        }
        Config::FiniteCache => b.cache(Hierarchy::paper_default()),
        Config::Defaults => b,
    }
    .build()
}

/// The DAISY part of an op: build, load, run to `sc`, check. Returns
/// the finished system for the caller to read counters from.
pub fn daisy_run(
    p: &Prog,
    config: Config,
    rec: &mut impl Recorder,
) -> Result<DaisySystem<PpcIsa>, String> {
    daisy_run_corrupt(p, config, rec, false)
}

fn daisy_run_corrupt(
    p: &Prog,
    config: Config,
    rec: &mut impl Recorder,
    corrupt: bool,
) -> Result<DaisySystem<PpcIsa>, String> {
    let name = p.w.name;
    let mut sys = build(p, config);
    sys.load(&p.image).map_err(|e| format!("{name}: load: {e:?}"))?;
    if matches!(config, Config::Native | Config::NativeBounded) && !sys.native_enabled() {
        return Err("the native x86-64 tier is unavailable on this host".into());
    }
    rec.mark(Layer::System);
    let stop = rec.drive(&mut sys, 50 * p.w.max_instrs).map_err(|e| format!("{name}: {e}"))?;
    if corrupt {
        // Self-test hook: a wrong guest result must fail the op.
        sys.cpu.gpr[3] ^= 1;
    }
    let checked = check(p, stop, &sys);
    rec.mark(Layer::System);
    checked.map(|()| sys)
}

fn check(p: &Prog, stop: StopReason, sys: &DaisySystem<PpcIsa>) -> Result<(), String> {
    let name = p.w.name;
    if stop != StopReason::Syscall {
        return Err(format!("{name}: stopped with {stop:?}"));
    }
    p.w.check(&sys.cpu, &sys.mem).map_err(|e| format!("{name}: result check: {e}"))?;
    if let Some(r) = (0..32).find(|&r| sys.cpu.gpr[r] != p.gprs[r]) {
        return Err(format!(
            "{name}: r{r} = {:#x}, reference interpreter has {:#x}",
            sys.cpu.gpr[r], p.gprs[r]
        ));
    }
    Ok(())
}

/// A whole op. `corrupt` flips a guest register before the check.
pub fn run(
    p: &Prog,
    kind: Workload,
    rec: &mut impl Recorder,
    corrupt: bool,
) -> Result<(DaisySystem<PpcIsa>, SimSig), String> {
    let sys = daisy_run_corrupt(p, kind.config(), rec, corrupt)?;
    let mut sig = SimSig { stats: sys.stats, comparators: None };
    if kind == Workload::PaperRepro {
        let p604 = p604(p);
        rec.mark(Layer::Baseline);
        let oracle = oracle(p);
        rec.mark(Layer::Oracle);
        let (p604, oracle) = (p604?, oracle?);
        sig.comparators = Some((p604.cycles, oracle));
    }
    Ok((sys, sig))
}

/// The 604E comparator, as `repro` runs it for Table 5.3.
pub fn p604(p: &Prog) -> Result<ppc604e::P604Result, String> {
    let r = ppc604e::run(
        &p.image,
        p.w.mem_size,
        &P604Config::default(),
        Hierarchy::paper_default(),
        p.w.max_instrs,
    );
    if r.stop != StopReason::Syscall || r.instrs != p.instrs {
        return Err(format!("{}: 604E model: {:?} after {} instrs", p.w.name, r.stop, r.instrs));
    }
    Ok(r)
}

/// The big-machine oracle, as `repro` runs it for Chapter 6.
pub fn oracle(p: &Prog) -> Result<OracleResult, String> {
    let mut mem = Memory::new(p.w.mem_size);
    p.image.load_into(&mut mem).map_err(|e| format!("{}: load: {e:?}", p.w.name))?;
    let (r, stop) = oracle::run_oracle_to_stop::<PpcIsa>(
        &mut mem,
        p.image.entry,
        Some(MachineConfig::big()),
        p.w.max_instrs,
    );
    if stop != StopReason::Syscall || r.instrs != p.instrs {
        return Err(format!("{}: oracle: {stop:?} after {} instrs", p.w.name, r.instrs));
    }
    Ok(r)
}
