//! Set-up: assemble the guest programs, run the reference interpreter
//! for their instruction counts and final registers, probe translated
//! code footprints, pick each workload's programs and warm up.

use crate::op::{self, Config, Workload};
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::Program;

/// One guest program, ready to run as an operation.
pub struct Prog {
    /// The workload from `daisy_workloads` (name, memory size, budget,
    /// result checker).
    pub w: daisy_workloads::Workload,
    /// The assembled guest image — all the program under test receives.
    pub image: Program,
    /// Guest instructions to the final `sc`, counted by the reference
    /// interpreter.
    pub instrs: u64,
    /// The reference interpreter's final general-purpose registers.
    pub gprs: [u32; 32],
    /// Translated-code area bound (`code_thrash` only).
    pub capacity: Option<u64>,
}

/// Runs `Cpu::run` on a fresh copy of `image`; returns the CPU.
pub fn reference(w: &daisy_workloads::Workload, image: &Program) -> Result<Cpu, String> {
    let mut mem = Memory::new(w.mem_size);
    image.load_into(&mut mem).map_err(|e| format!("{}: load: {e:?}", w.name))?;
    let mut cpu = Cpu::new(image.entry);
    let stop = cpu.run(&mut mem, w.max_instrs).map_err(|e| format!("{}: {e:?}", w.name))?;
    if stop != StopReason::Syscall {
        return Err(format!("{}: reference stopped with {stop:?}", w.name));
    }
    w.check(&cpu, &mem).map_err(|e| format!("{}: reference check: {e}", w.name))?;
    Ok(cpu)
}

/// Builds every program of `kind` from scratch, warmed up.
pub fn set_up(kind: Workload) -> Result<Vec<Prog>, String> {
    let mut progs = Vec::new();
    for w in daisy_workloads::all() {
        let image = w.program();
        let cpu = reference(&w, &image)?;
        progs.push(Prog { w, image, instrs: cpu.ninstrs, gprs: cpu.gpr, capacity: None });
    }
    match kind {
        Workload::NativeSteady | Workload::PaperRepro => {
            // Warm-up: the DAISY part of one op per program, checked.
            for p in &progs {
                op::daisy_run(p, kind.config(), &mut op::Untraced::new())?;
            }
        }
        Workload::CodeThrash => {
            // The footprint probe and the cast-out selection run the
            // same system and double as the warm-up.
            for p in &mut progs {
                let sys = op::daisy_run(p, Config::Native, &mut op::Untraced::new())?;
                p.capacity = Some(sys.vmm.stats.code_bytes_total / 2);
            }
            let keep = progs.iter().map(casts_out).collect::<Result<Vec<_>, _>>()?;
            let mut keep = keep.into_iter();
            progs.retain(|_| keep.next().unwrap_or(false));
            if progs.is_empty() {
                return Err("code_thrash: no program casts out at half its footprint".into());
            }
        }
    }
    Ok(progs)
}

/// Whether `p` casts out a translated page under its `code_thrash`
/// capacity: steps until the first cast-out or the final stop.
fn casts_out(p: &Prog) -> Result<bool, String> {
    let mut sys = op::build(p, Config::NativeBounded);
    sys.load(&p.image).map_err(|e| format!("{}: load: {e:?}", p.w.name))?;
    let budget = 50 * p.w.max_instrs;
    while sys.stats.cycles() < budget {
        if sys.vmm.stats.cast_outs > 0 {
            return Ok(true);
        }
        if sys.step().map_err(|e| format!("{}: {e}", p.w.name))?.is_some() {
            break;
        }
    }
    Ok(sys.vmm.stats.cast_outs > 0)
}
