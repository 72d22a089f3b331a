//! The traced recorder: drives `DaisySystem::step` itself and records
//! one span per step, tagged by which public counters moved during it.
//! Spans stay in memory and are written out when the run ends.

use crate::op::{Layer, Recorder};
use daisy::system::DaisySystem;
use daisy::DaisyError;
use daisy_ppc::interp::StopReason;
use daisy_ppc::PpcIsa;
use std::collections::HashSet;
use std::io::Write;
use std::time::Instant;

/// Spans kept in memory at most; later ones are still timed and
/// counted, only not written out.
const MAX_SPANS: usize = 1 << 20;

/// Layer index of an op's root span.
const ROOT: u8 = u8::MAX;

/// A span: a run of consecutive steps (or one non-step section) of one
/// op that fell in the same layer.
struct Span {
    op: u32,
    layer: u8,
    start_ns: u64,
    end_ns: u64,
    steps: u32,
}

/// The public counters a step is tagged by.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Probe {
    groups_translated: u64,
    compiles: u64,
    flushes: u64,
    bails: u64,
    vliws_native: u64,
    interp_instrs: u64,
}

impl Probe {
    fn of(sys: &DaisySystem<PpcIsa>) -> Probe {
        let native = sys.native_stats().unwrap_or_default();
        Probe {
            groups_translated: sys.vmm.stats.groups_translated,
            compiles: native.compiles,
            flushes: native.flushes,
            bails: native.bails,
            vliws_native: native.vliws_native,
            interp_instrs: sys.stats.interp_instrs,
        }
    }

    /// The layer a step belongs to, by the first counter that moved in
    /// the order compile, translate, flush, bail, interpret, native.
    fn layer(before: Probe, after: Probe) -> Layer {
        if after.compiles != before.compiles {
            Layer::JitCompile
        } else if after.groups_translated != before.groups_translated {
            Layer::Sched
        } else if after.flushes != before.flushes {
            Layer::JitCompile
        } else if after.bails != before.bails || after.vliws_native != before.vliws_native {
            Layer::JitExec
        } else if after.interp_instrs != before.interp_instrs {
            Layer::System
        } else {
            Layer::Packed
        }
    }
}

/// Span recorder and per-layer accumulator for the traced ops of a run.
pub struct Traced {
    origin: Instant,
    last: Instant,
    op: u32,
    op_start: Instant,
    in_step: bool,
    spans: Vec<Span>,
    dropped: u64,
    /// Host time per layer ([`Layer::ALL`] order), over all traced ops.
    pub layer_ns: [u64; Layer::ALL.len()],
    /// Steps driven.
    pub steps: u64,
    /// Group translations seen, and how many re-translated an entry
    /// already translated earlier in the same op.
    pub translations: u64,
    pub retranslations: u64,
    translated: HashSet<u32>,
    programs: Vec<&'static str>,
}

impl Traced {
    pub fn new() -> Traced {
        let now = Instant::now();
        Traced {
            origin: now,
            last: now,
            op: 0,
            op_start: now,
            in_step: false,
            spans: Vec::new(),
            dropped: 0,
            layer_ns: [0; Layer::ALL.len()],
            steps: 0,
            translations: 0,
            retranslations: 0,
            translated: HashSet::new(),
            programs: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens the root span of an op of `program`.
    pub fn begin_op(&mut self, program: &'static str) {
        self.programs.push(program);
        self.op = (self.programs.len() - 1) as u32;
        self.translated.clear();
        self.op_start = Instant::now();
        self.last = self.op_start;
    }

    /// Closes the op's root span; returns its wall time in ns.
    pub fn end_op(&mut self) -> u64 {
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(self.op_start), self.ns(end));
        self.push(Span { op: self.op, layer: ROOT, start_ns, end_ns, steps: 0 });
        end_ns - start_ns
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Writes every span as tab-separated text.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# spans dropped past the in-memory cap: {}", self.dropped)?;
        writeln!(out, "op\tprogram\tlayer\tstart_ns\tend_ns\tsteps")?;
        for s in &self.spans {
            let layer = Layer::ALL.get(usize::from(s.layer)).map_or("op", |l| l.name());
            writeln!(
                out,
                "{}\t{}\t{layer}\t{}\t{}\t{}",
                s.op, self.programs[s.op as usize], s.start_ns, s.end_ns, s.steps
            )?;
        }
        out.flush()
    }
}

impl Recorder for Traced {
    fn drive(
        &mut self,
        sys: &mut DaisySystem<PpcIsa>,
        max_cycles: u64,
    ) -> Result<StopReason, DaisyError> {
        // The loop `DaisySystem::run` performs, one span per step. Nothing
        // runs between steps, so one step's `after` is the next's `before`.
        let mut before = Probe::of(sys);
        loop {
            if sys.stats.cycles() >= max_cycles {
                return Ok(StopReason::MaxInstrs);
            }
            let pc = sys.cpu.pc;
            let stepped = sys.step();
            let after = Probe::of(sys);
            let moved = after.groups_translated - before.groups_translated;
            if moved > 0 {
                self.translations += moved;
                self.retranslations += moved - u64::from(self.translated.insert(pc));
            }
            self.steps += 1;
            self.in_step = true;
            self.mark(Probe::layer(before, after));
            self.in_step = false;
            before = after;
            if let Some(stop) = stepped? {
                return Ok(stop);
            }
        }
    }

    fn mark(&mut self, layer: Layer) {
        let now = Instant::now();
        let d = now.duration_since(self.last).as_nanos() as u64;
        let (start_ns, end_ns) = (self.ns(self.last), self.ns(now));
        self.last = now;
        let idx = layer as u8;
        self.layer_ns[usize::from(idx)] += d;
        let steps = u32::from(self.in_step);
        // Consecutive steps of one layer coalesce into one span.
        if let Some(s) = self.spans.last_mut() {
            if self.in_step
                && s.steps > 0
                && s.op == self.op
                && s.layer == idx
                && s.end_ns == start_ns
            {
                s.end_ns = end_ns;
                s.steps += 1;
                return;
            }
        }
        self.push(Span { op: self.op, layer: idx, start_ns, end_ns, steps });
    }
}
