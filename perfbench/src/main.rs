//! Seeded benchmark of the DAISY reproduction. One closed-loop client
//! runs operations back to back: each op is one guest program from
//! `DaisySystem::builder()` to its final `sc` and result check. See
//! `perfbench/README.md` for the workloads, the metrics and how the
//! layers are timed.
//!
//! ```text
//! daisy-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod op;
mod setup;
mod trace;

use op::{Config, Layer, SimSig, Typical, Untraced, Workload};
use setup::Prog;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use trace::Traced;

/// Seconds between repeated set-ups; `setup_s` is their median.
const SETUP_EVERY_S: f64 = 2.0;
/// Minimum host time spent re-translating one program's live entries.
const XLATE_MIN_NS: u64 = 5_000_000;

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Self-test: corrupt the guest result of this op (0-based).
    corrupt_op: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        name: String::new(),
        workload: Workload::NativeSteady,
        seed: 0,
        seconds: 10.0,
        trace: false,
        corrupt_op: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                a.name = value;
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad.clone())? != 0,
            "--corrupt-op" => a.corrupt_op = Some(value.parse().map_err(|_| bad.clone())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.name.is_empty() {
        return Err("usage: --workload <native_steady|code_thrash|paper_repro> --seed <n> \
                    --seconds <s> --trace <0|1> [--corrupt-op <n>]"
            .into());
    }
    Ok(a)
}

/// The seeded op order: each pass draws the workload's programs in a
/// fresh permutation (SplitMix64 + Fisher–Yates).
struct Order(u64);

impl Order {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pass(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        v
    }
}

/// Timings of the successful ops of one phase.
struct Phase {
    passes: u64,
    typical: Typical,
    /// Per program: the wall time of each successful op, in ns.
    op_ns: Vec<Vec<u64>>,
}

impl Phase {
    fn new(programs: usize, typical: Typical) -> Phase {
        Phase { passes: 0, typical, op_ns: vec![Vec::new(); programs] }
    }

    /// Each program's typical op time in ns; 0 for a program without a
    /// successful op (the run fails then anyway).
    fn typical_ns(&self) -> Vec<f64> {
        self.op_ns
            .iter()
            .map(|ns| {
                let mut v: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
                match self.typical {
                    Typical::Fastest => v.iter().copied().reduce(f64::min).unwrap_or(0.0),
                    Typical::Median => median(&mut v),
                }
            })
            .collect()
    }

    /// Guest instructions of one pass ÷ the time of one pass with each
    /// program's op at its typical time; 0 if a program has none.
    fn mips(&self, progs: &[Prog]) -> f64 {
        let ns = self.typical_ns();
        if ns.contains(&0.0) {
            return 0.0;
        }
        progs.iter().map(|p| p.instrs).sum::<u64>() as f64 * 1e3 / ns.iter().sum::<f64>()
    }

    /// Median over the programs of typical op time ÷ guest instructions.
    fn ns_per_instr_p50(&self, progs: &[Prog]) -> f64 {
        let ns = self.typical_ns();
        median(&mut progs.iter().zip(ns).map(|(p, ns)| ns / p.instrs as f64).collect::<Vec<_>>())
    }

    /// Op wall time ÷ guest instructions, per successful op.
    fn ns_per_instr_all(&self, progs: &[Prog]) -> Vec<f64> {
        let mut v = Vec::new();
        for (p, ns) in progs.iter().zip(&self.op_ns) {
            v.extend(ns.iter().map(|&n| n as f64 / p.instrs as f64));
        }
        v
    }

    /// Guest instructions per host second over every successful op.
    fn all_ops_mips(&self, progs: &[Prog]) -> f64 {
        let instrs: u64 =
            progs.iter().zip(&self.op_ns).map(|(p, ns)| p.instrs * ns.len() as u64).sum();
        let ns: u64 = self.op_ns.iter().flatten().sum();
        instrs as f64 * 1e3 / ns.max(1) as f64
    }
}

/// Attempted and failed ops over the whole run, and the simulated
/// results each program must repeat.
struct Ledger {
    attempted: u64,
    failed: u64,
    sigs: HashMap<usize, SimSig>,
    /// FNV-1a over the program order, to show a seed's op sequence.
    sequence: u64,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger { attempted: 0, failed: 0, sigs: HashMap::new(), sequence: 0xcbf2_9ce4_8422_2325 }
    }

    fn fail(&mut self, e: &str) {
        self.failed += 1;
        eprintln!("perfbench: op {} failed: {e}", self.attempted - 1);
    }

    fn note(&mut self, prog: usize) {
        self.sequence = (self.sequence ^ prog as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// Counters summed over traced ops.
#[derive(Default)]
struct Counters {
    instrs: u64,
    vliws: u64,
    vliws_native: u64,
    interp_instrs: u64,
    stall_cycles: u64,
    cycles: u64,
    dispatches: u64,
    chained: u64,
    compiles: u64,
    flushes: u64,
    bails: u64,
    ibtc_hits: u64,
    parcels_compiled: u64,
    cast_outs: u64,
    pages_translated: u64,
    groups_translated: u64,
    instrs_scheduled: u64,
    degradations: u64,
    /// `(accesses, misses)` per level, by name.
    cache: HashMap<String, (u64, u64)>,
}

impl Counters {
    fn add(&mut self, p: &Prog, sys: &daisy::DaisySystem<daisy_ppc::PpcIsa>) {
        let s = &sys.stats;
        let n = sys.native_stats().unwrap_or_default();
        let v = &sys.vmm.stats;
        self.instrs += p.instrs;
        self.vliws += s.vliws_executed;
        self.vliws_native += n.vliws_native;
        self.interp_instrs += s.interp_instrs;
        self.stall_cycles += s.stall_cycles;
        self.cycles += s.cycles();
        self.dispatches += s.total_dispatches();
        self.chained += s.chain.chained_dispatches;
        self.compiles += n.compiles;
        self.flushes += n.flushes;
        self.bails += n.bails;
        self.ibtc_hits += n.ibtc_hits;
        self.parcels_compiled += n.parcels_compiled;
        self.cast_outs += v.cast_outs;
        self.pages_translated += v.pages_translated;
        self.groups_translated += v.groups_translated;
        self.instrs_scheduled += sys.vmm.cost.instrs_scheduled;
        self.degradations += sys.degradations().len() as u64;
        for (name, c) in sys.cache.level_stats() {
            let e = self.cache.entry(name).or_default();
            e.0 += c.accesses;
            e.1 += c.misses;
        }
    }
}

/// State of the traced phase.
struct Tracing {
    rec: Traced,
    /// `paper_repro`: each traced op's program again with an infinite
    /// cache, to split the cache simulator out of the step time.
    companion: Traced,
    counters: Counters,
    xlate_done: Vec<bool>,
    xlate_ns: u64,
    xlate_instrs: u64,
}

impl Tracing {
    /// Reads a finished traced op's counters and runs the isolated
    /// layer timings that need its system. None of this is op time.
    fn absorb(
        &mut self,
        p: &Prog,
        i: usize,
        kind: Workload,
        sys: &daisy::DaisySystem<daisy_ppc::PpcIsa>,
    ) -> Result<(), String> {
        self.counters.add(p, sys);
        if !self.xlate_done[i] {
            self.xlate_done[i] = true;
            let live = sys.vmm.live_entries();
            let t0 = Instant::now();
            loop {
                for &entry in &live {
                    let (group, cost) = daisy::sched::translate_group::<daisy_ppc::PpcIsa>(
                        &sys.vmm.cfg,
                        &sys.mem,
                        entry,
                    );
                    std::hint::black_box(group);
                    self.xlate_instrs += cost.instrs_scheduled;
                }
                if live.is_empty() || t0.elapsed().as_nanos() as u64 >= XLATE_MIN_NS {
                    break;
                }
            }
            self.xlate_ns += t0.elapsed().as_nanos() as u64;
        }
        if kind == Workload::PaperRepro {
            self.companion.begin_op(p.w.name);
            op::daisy_run(p, Config::Defaults, &mut self.companion)?;
            self.companion.end_op();
        }
        Ok(())
    }
}

/// The set-ups of a run. The first one's programs are used; repeats
/// are timed and must build the same programs.
struct Setups {
    kind: Workload,
    /// Wall time of each set-up, in seconds.
    durations: Vec<f64>,
    last: Instant,
    built: Vec<(&'static str, u64, Option<u64>)>,
}

impl Setups {
    fn first(kind: Workload) -> Result<(Setups, Vec<Prog>), String> {
        let t0 = Instant::now();
        let progs = setup::set_up(kind)?;
        let s = Setups {
            kind,
            durations: vec![t0.elapsed().as_secs_f64()],
            last: Instant::now(),
            built: Setups::summary(&progs),
        };
        Ok((s, progs))
    }

    fn summary(progs: &[Prog]) -> Vec<(&'static str, u64, Option<u64>)> {
        progs.iter().map(|p| (p.w.name, p.instrs, p.capacity)).collect()
    }

    /// Sets up again if `SETUP_EVERY_S` have gone since the last one.
    fn repeat_when_due(&mut self) -> Result<(), String> {
        if self.last.elapsed().as_secs_f64() < SETUP_EVERY_S {
            return Ok(());
        }
        let t0 = Instant::now();
        let progs = setup::set_up(self.kind)?;
        self.durations.push(t0.elapsed().as_secs_f64());
        self.last = Instant::now();
        if Setups::summary(&progs) != self.built {
            return Err("a repeated set-up built different programs".into());
        }
        Ok(())
    }
}

/// One run: the workload's programs, their seeded order and the ledger
/// of op outcomes, shared by the run's phases.
struct Run<'a> {
    progs: &'a [Prog],
    kind: Workload,
    order: Order,
    ledger: Ledger,
    corrupt_op: Option<u64>,
}

impl Run<'_> {
    /// Runs one pass: every program once, in the seeded order.
    fn pass(&mut self, phase: &mut Phase, mut tracing: Option<&mut Tracing>) {
        let (progs, kind) = (self.progs, self.kind);
        for i in self.order.pass(progs.len()) {
            let p = &progs[i];
            let ledger = &mut self.ledger;
            let corrupt = self.corrupt_op == Some(ledger.attempted);
            ledger.attempted += 1;
            ledger.note(i);
            let (done, wall_ns) = match tracing.as_deref_mut() {
                None => {
                    let mut untraced = Untraced::new();
                    let done = guarded(|| op::run(p, kind, &mut untraced, corrupt));
                    (done, untraced.elapsed_ns())
                }
                Some(t) => {
                    t.rec.begin_op(p.w.name);
                    let done = guarded(|| op::run(p, kind, &mut t.rec, corrupt));
                    (done, t.rec.end_op())
                }
            };
            let (sys, sig) = match done {
                Ok(d) => d,
                Err(e) => {
                    ledger.fail(&e);
                    continue;
                }
            };
            let expected = *ledger.sigs.entry(i).or_insert(sig);
            if sig != expected {
                ledger.fail(&format!("{}: simulated counters differ from its first op", p.w.name));
                continue;
            }
            phase.op_ns[i].push(wall_ns);
            if let Some(t) = tracing.as_deref_mut() {
                if let Err(e) = guarded(|| t.absorb(p, i, kind, &sys)) {
                    ledger.fail(&e);
                }
            }
        }
        phase.passes += 1;
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten ops beyond it: `(value,
/// percentile, ops beyond)`; the maximum when there are ten ops or fewer.
fn tail(v: &mut [f64]) -> (f64, f64, usize) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n > 10 {
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64, 10)
    } else {
        (v.last().copied().unwrap_or(0.0), 100.0, 0)
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn json(correct: bool, ledger: &Ledger, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when any check failed.
fn bench(a: &Args) -> Result<bool, String> {
    let (mut setups, progs) = Setups::first(a.workload)?;
    let names: Vec<&str> = progs.iter().map(|p| p.w.name).collect();
    println!("workload {} seed {} programs {}", a.name, a.seed, names.join(","));
    let mut run = Run {
        progs: &progs,
        kind: a.workload,
        order: Order(a.seed),
        ledger: Ledger::new(),
        corrupt_op: a.corrupt_op,
    };

    let start = Instant::now();
    let (metrics, traced_ok) = if a.trace {
        let mut t = Tracing {
            rec: Traced::new(),
            companion: Traced::new(),
            counters: Counters::default(),
            xlate_done: vec![false; progs.len()],
            xlate_ns: 0,
            xlate_instrs: 0,
        };
        // Untraced and traced passes alternate, so both see the same host.
        let typical = a.workload.typical();
        let (mut untraced, mut traced) =
            (Phase::new(progs.len(), typical), Phase::new(progs.len(), typical));
        while traced.passes == 0 || start.elapsed().as_secs_f64() < a.seconds {
            run.pass(&mut untraced, None);
            run.pass(&mut traced, Some(&mut t));
        }
        let iso = isolated(&progs)?;
        let path = Path::new(".bench_out").join(format!("trace-{}-seed{}.tsv", a.name, a.seed));
        t.rec.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        layer_metrics(&progs, a.workload, &untraced, &traced, &t, &iso)
    } else {
        let mut phase = Phase::new(progs.len(), a.workload.typical());
        while phase.passes == 0 || start.elapsed().as_secs_f64() < a.seconds {
            run.pass(&mut phase, None);
            setups.repeat_when_due()?;
        }
        for (p, ns) in progs.iter().zip(phase.typical_ns()) {
            println!(
                "program {} instrs {} ns_per_instr {}",
                p.w.name,
                p.instrs,
                ns / p.instrs as f64
            );
        }
        // Figures over every op, for information: on a shared host they
        // follow its load more than the program (see README.md).
        let mut all = phase.ns_per_instr_all(&progs);
        let p50 = median(&mut all);
        let (tail, pct, beyond) = tail(&mut all);
        println!(
            "all {} ops ({} passes, {} set-ups): {} Minstr/s, op ns/instr p50 {p50}, p{pct:.3} \
             {tail} ({beyond} ops beyond it)",
            all.len(),
            phase.passes,
            setups.durations.len(),
            phase.all_ops_mips(&progs)
        );
        let m = vec![
            ("guest_mips".into(), phase.mips(&progs), "Minstr/s"),
            ("ns_per_instr_p50".into(), phase.ns_per_instr_p50(&progs), "ns"),
            ("setup_s".into(), median(&mut setups.durations), "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ];
        (m, true)
    };
    let ledger = run.ledger;
    println!("op_sequence_fnv {:016x}", ledger.sequence);
    let failed_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!("failed_ops_frac {failed_frac} fraction ({} of {})", ledger.failed, ledger.attempted);
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    let correct = ledger.failed == 0 && traced_ok;
    println!("{}", json(correct, &ledger, &metrics));
    Ok(correct)
}

/// Layer calls timed on their own, once per program of the workload.
#[derive(Default)]
struct Isolated {
    instrs: u64,
    interp_ns: u64,
    oracle_ns: u64,
    oracle_instrs: u64,
    oracle_cycles: u64,
    p604_ns: u64,
    p604_cycles: u64,
}

fn isolated(progs: &[Prog]) -> Result<Isolated, String> {
    let mut iso = Isolated::default();
    for p in progs {
        iso.instrs += p.instrs;
        let mut mem = daisy_ppc::Memory::new(p.w.mem_size);
        p.image.load_into(&mut mem).map_err(|e| format!("{}: load: {e:?}", p.w.name))?;
        let mut cpu = daisy_ppc::Cpu::new(p.image.entry);
        let t0 = Instant::now();
        cpu.run(&mut mem, p.w.max_instrs).map_err(|e| format!("{}: {e:?}", p.w.name))?;
        iso.interp_ns += t0.elapsed().as_nanos() as u64;
        if cpu.ninstrs != p.instrs {
            return Err(format!("{}: reference count changed", p.w.name));
        }
        let t0 = Instant::now();
        let o = op::oracle(p)?;
        iso.oracle_ns += t0.elapsed().as_nanos() as u64;
        iso.oracle_instrs += o.instrs;
        iso.oracle_cycles += o.cycles;
        let t0 = Instant::now();
        let r = op::p604(p)?;
        iso.p604_ns += t0.elapsed().as_nanos() as u64;
        iso.p604_cycles += r.cycles;
    }
    Ok(iso)
}

/// The per-layer metrics of a traced run, and whether the cache
/// simulator's split came out non-negative.
fn layer_metrics(
    progs: &[Prog],
    kind: Workload,
    untraced: &Phase,
    traced: &Phase,
    t: &Tracing,
    iso: &Isolated,
) -> (Metrics, bool) {
    let (untraced_mips, traced_mips) = (untraced.mips(progs), traced.mips(progs));
    let passes = traced.passes.max(1) as f64;
    let c = &t.counters;
    let ms = |ns: f64| ns / 1e6 / passes;
    let per_pass = |n: u64| n as f64 / passes;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // On `paper_repro` each DAISY layer's self time is its time in the
    // infinite-cache companion ops; the cache simulator gets the rest of
    // the finite-cache ops' time in those layers.
    let daisy = [Layer::System, Layer::Sched, Layer::JitCompile, Layer::JitExec, Layer::Packed];
    let split = kind == Workload::PaperRepro;
    let self_ns = |l: Layer| {
        let rec = if split && daisy.contains(&l) { &t.companion } else { &t.rec };
        rec.layer_ns[l as usize] as f64
    };
    let cachesim: f64 = if split {
        daisy.iter().map(|&l| t.rec.layer_ns[l as usize] as f64 - self_ns(l)).sum()
    } else {
        0.0
    };
    let ok = cachesim >= 0.0;
    if !ok {
        eprintln!("perfbench: the finite-cache ops took less time than the infinite-cache ones");
    }
    println!(
        "traced passes {} ops {} steps {}; untraced passes {}",
        traced.passes,
        traced.op_ns.iter().map(Vec::len).sum::<usize>(),
        t.rec.steps,
        untraced.passes
    );
    let mut m: Metrics = vec![
        ("jit.exec_self_ms".into(), ms(self_ns(Layer::JitExec)), "ms"),
        ("jit.compile_self_ms".into(), ms(self_ns(Layer::JitCompile)), "ms"),
        ("jit.coverage".into(), ratio(c.vliws_native, c.vliws), "fraction"),
        ("jit.ibtc_hits".into(), per_pass(c.ibtc_hits), "count"),
        ("jit.bails".into(), per_pass(c.bails), "count"),
        ("jit.compiles".into(), per_pass(c.compiles), "count"),
        ("jit.flushes".into(), per_pass(c.flushes), "count"),
        ("jit.parcels_compiled".into(), per_pass(c.parcels_compiled), "count"),
        ("sched.groups_translated".into(), per_pass(c.groups_translated), "count"),
        ("sched.instrs_scheduled".into(), per_pass(c.instrs_scheduled), "count"),
        ("sched.ns_per_instr_scheduled".into(), ratio(t.xlate_ns, t.xlate_instrs), "ns"),
        ("sched.self_ms".into(), ms(self_ns(Layer::Sched)), "ms"),
        ("vmm.cast_outs".into(), per_pass(c.cast_outs), "count"),
        ("vmm.pages_translated".into(), per_pass(c.pages_translated), "count"),
        ("vmm.dispatches".into(), per_pass(c.dispatches), "count"),
        ("vmm.chained_frac".into(), ratio(c.chained, c.dispatches), "fraction"),
        (
            "vmm.retranslation_frac".into(),
            ratio(t.rec.retranslations, t.rec.translations),
            "fraction",
        ),
        ("engine.vliws".into(), per_pass(c.vliws - c.vliws_native), "count"),
        ("engine.packed_self_ms".into(), ms(self_ns(Layer::Packed)), "ms"),
        ("cachesim.accesses".into(), per_pass(c.cache.values().map(|l| l.0).sum()), "count"),
    ];
    for (name, _) in daisy_cachesim::Hierarchy::paper_default().level_stats() {
        let (acc, miss) = c.cache.get(&name).copied().unwrap_or_default();
        let rate = if acc == 0 { 0.0 } else { 100.0 * miss as f64 / acc as f64 };
        m.push((format!("cachesim.miss_rate.{}", name.replace(' ', "_")), rate, "%"));
    }
    m.extend([
        ("cachesim.stall_cycles".into(), per_pass(c.stall_cycles), "count"),
        ("cachesim.self_ms".into(), ms(cachesim), "ms"),
        ("oracle.ns_per_instr".into(), ratio(iso.oracle_ns, iso.instrs), "ns"),
        ("oracle.self_ms".into(), ms(self_ns(Layer::Oracle)), "ms"),
        ("baseline.p604_ns_per_instr".into(), ratio(iso.p604_ns, iso.instrs), "ns"),
        ("baseline.self_ms".into(), ms(self_ns(Layer::Baseline)), "ms"),
        ("interp.ns_per_instr".into(), ratio(iso.interp_ns, iso.instrs), "ns"),
        ("system.degradations".into(), per_pass(c.degradations), "count"),
        ("system.interp_instrs".into(), per_pass(c.interp_instrs), "count"),
        ("system.self_ms".into(), ms(self_ns(Layer::System)), "ms"),
        ("sim.vliws".into(), per_pass(c.vliws), "count"),
        ("sim.ilp".into(), ratio(c.instrs, c.vliws + c.interp_instrs), "instr/vliw"),
        ("sim.finite_ilp".into(), ratio(c.instrs, c.cycles), "instr/cycle"),
        ("sim.p604_ipc".into(), ratio(iso.instrs, iso.p604_cycles), "instr/cycle"),
        ("sim.oracle_ilp".into(), ratio(iso.oracle_instrs, iso.oracle_cycles), "instr/cycle"),
        ("trace.guest_mips".into(), traced_mips, "Minstr/s"),
        ("trace.untraced_guest_mips".into(), untraced_mips, "Minstr/s"),
        ("trace.overhead_frac".into(), untraced_mips / traced_mips - 1.0, "fraction"),
        ("trace.steps".into(), per_pass(t.rec.steps), "count"),
    ]);
    (m, ok)
}
