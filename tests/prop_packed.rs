//! The packed execution format is an *observation-preserving* lowering:
//! running any program with the packed engine must leave exactly the
//! architected state and memory image the reference interpreter
//! (`Cpu::run`) leaves. These tests pin that over randomized programs,
//! under fault injection, on all nine paper workloads, and over the
//! packed form of the chain-link protocol (slot-indexed links must
//! still sever on invalidation).

use daisy::sched::TranslatorConfig;
use daisy::stats::RunStats;
use daisy::system::DaisySystem;
use daisy_cachesim::Hierarchy;
use daisy_ppc::asm::{Asm, Program};
use daisy_ppc::encode::encode;
use daisy_ppc::insn::{bo, Insn};
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::reg::{CrBit, CrField, Gpr};
use daisy_ppc::PpcIsa;
use daisy_vliw::machine::MachineConfig;
use proptest::prelude::*;

const DATA: u32 = 0x8000;
const SLOTS: u32 = 64;

/// One step of a generated program; constrained to terminate and to
/// touch only the data window (same discipline as `prop_equivalence`).
#[derive(Debug, Clone)]
enum Step {
    Alu { op: u8, rt: u8, ra: u8, rb: u8, rc: bool },
    AddImm { rt: u8, ra: u8, imm: i16 },
    Carry { op: u8, rt: u8, ra: u8, rb: u8 },
    Shift { op: u8, rt: u8, ra: u8, sh: u8 },
    Cmp { bf: u8, signed: bool, ra: u8, rb: u8 },
    Load { width: u8, rt: u8, slot: u8 },
    Store { width: u8, rs: u8, slot: u8 },
    LoadIdx { rt: u8, ridx: u8 },
    StoreIdx { rs: u8, ridx: u8 },
    SkipIf { bf: u8, bit: u8, want: bool, skip: u8 },
    CtrLoop { count: u8, body_rt: u8 },
    Call { rt: u8, ra: u8, rb: u8 },
    Trap,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8, 0u8..12, 0u8..12, 0u8..12, any::<bool>())
            .prop_map(|(op, rt, ra, rb, rc)| Step::Alu { op, rt, ra, rb, rc }),
        (0u8..12, 0u8..12, any::<i16>()).prop_map(|(rt, ra, imm)| Step::AddImm { rt, ra, imm }),
        (0u8..4, 0u8..12, 0u8..12, 0u8..12).prop_map(|(op, rt, ra, rb)| Step::Carry {
            op,
            rt,
            ra,
            rb
        }),
        (0u8..4, 0u8..12, 0u8..12, 0u8..32).prop_map(|(op, rt, ra, sh)| Step::Shift {
            op,
            rt,
            ra,
            sh
        }),
        (0u8..4, any::<bool>(), 0u8..12, 0u8..12).prop_map(|(bf, signed, ra, rb)| Step::Cmp {
            bf,
            signed,
            ra,
            rb
        }),
        (0u8..3, 0u8..12, 0u8..64).prop_map(|(width, rt, slot)| Step::Load { width, rt, slot }),
        (0u8..3, 0u8..12, 0u8..64).prop_map(|(width, rs, slot)| Step::Store { width, rs, slot }),
        (0u8..12, 0u8..12).prop_map(|(rt, ridx)| Step::LoadIdx { rt, ridx }),
        (0u8..12, 0u8..12).prop_map(|(rs, ridx)| Step::StoreIdx { rs, ridx }),
        (0u8..4, 0u8..4, any::<bool>(), 1u8..6).prop_map(|(bf, bit, want, skip)| Step::SkipIf {
            bf,
            bit,
            want,
            skip
        }),
        (1u8..6, 0u8..12).prop_map(|(count, body_rt)| Step::CtrLoop { count, body_rt }),
        (0u8..12, 0u8..12, 0u8..12).prop_map(|(rt, ra, rb)| Step::Call { rt, ra, rb }),
        Just(Step::Trap),
    ]
}

fn emit(a: &mut Asm, steps: &[Step]) {
    let base = Gpr(20);
    let idx = Gpr(21);
    a.li32(base, DATA);
    a.li(idx, 0);
    let mut label = 0usize;
    let mut fresh = || {
        label += 1;
        format!("l{label}")
    };
    for s in steps {
        match *s {
            Step::Alu { op, rt, ra, rb, rc } => {
                let (rt, ra, rb) = (Gpr(rt), Gpr(ra), Gpr(rb));
                use daisy_ppc::insn::ArithOp;
                match op {
                    0 => a.emit(Insn::Arith { op: ArithOp::Add, rt, ra, rb, oe: false, rc }),
                    1 => a.emit(Insn::Arith { op: ArithOp::Subf, rt, ra, rb, oe: false, rc }),
                    2 => a.emit(Insn::Arith { op: ArithOp::Mullw, rt, ra, rb, oe: false, rc }),
                    3 => a.emit(Insn::Arith { op: ArithOp::Divwu, rt, ra, rb, oe: false, rc }),
                    4 => a.and(rt, ra, rb),
                    5 => a.or(rt, ra, rb),
                    6 => a.xor(rt, ra, rb),
                    _ => a.nor(rt, ra, rb),
                }
            }
            Step::AddImm { rt, ra, imm } => a.addi(Gpr(rt), Gpr(ra), imm),
            Step::Carry { op, rt, ra, rb } => match op {
                0 => a.addc(Gpr(rt), Gpr(ra), Gpr(rb)),
                1 => a.adde(Gpr(rt), Gpr(ra), Gpr(rb)),
                2 => a.subfc(Gpr(rt), Gpr(ra), Gpr(rb)),
                _ => a.addic(Gpr(rt), Gpr(ra), 0x77),
            },
            Step::Shift { op, rt, ra, sh } => match op {
                0 => a.slwi(Gpr(rt), Gpr(ra), sh & 31),
                1 => a.srwi(Gpr(rt), Gpr(ra), sh & 31),
                2 => a.srawi(Gpr(rt), Gpr(ra), sh & 31),
                _ => a.rlwinm(Gpr(rt), Gpr(ra), sh & 31, (sh / 2) & 31, 31),
            },
            Step::Cmp { bf, signed, ra, rb } => {
                a.emit(Insn::Cmp { bf: CrField(bf), signed, ra: Gpr(ra), rb: Gpr(rb) });
            }
            Step::Load { width, rt, slot } => {
                let d = i16::from(slot) * 4;
                match width {
                    0 => a.lbz(Gpr(rt), d, base),
                    1 => a.lhz(Gpr(rt), d, base),
                    _ => a.lwz(Gpr(rt), d, base),
                }
            }
            Step::Store { width, rs, slot } => {
                let d = i16::from(slot) * 4;
                match width {
                    0 => a.stb(Gpr(rs), d, base),
                    1 => a.sth(Gpr(rs), d, base),
                    _ => a.stw(Gpr(rs), d, base),
                }
            }
            Step::LoadIdx { rt, ridx } => {
                a.rlwinm(idx, Gpr(ridx), 2, 32 - 8, 29);
                a.lwzx(Gpr(rt), base, idx);
            }
            Step::StoreIdx { rs, ridx } => {
                a.rlwinm(idx, Gpr(ridx), 2, 32 - 8, 29);
                a.stwx(Gpr(rs), base, idx);
            }
            Step::SkipIf { bf, bit, want, skip } => {
                let l = fresh();
                let b = if want { bo::IF_TRUE } else { bo::IF_FALSE };
                a.bc(b, CrBit::new(CrField(bf), bit), &l);
                for i in 0..skip {
                    a.addi(Gpr(i % 12), Gpr((i + 1) % 12), 13);
                }
                a.label(&l);
            }
            Step::CtrLoop { count, body_rt } => {
                let l = fresh();
                a.li(Gpr(9), i16::from(count));
                a.mtctr(Gpr(9));
                a.label(&l);
                a.addi(Gpr(body_rt), Gpr(body_rt), 3);
                a.xor(Gpr((body_rt + 1) % 12), Gpr(body_rt), Gpr(9));
                a.bdnz(&l);
            }
            Step::Call { rt, ra, rb } => {
                let over = fresh();
                let func = fresh();
                a.b(&over);
                a.label(&func);
                a.add(Gpr(rt), Gpr(ra), Gpr(rb));
                a.blr();
                a.label(&over);
                a.bl(&func);
            }
            Step::Trap => {
                // Never fires, but schedules and checks the parcel.
                a.emit(Insn::Tw { to: 16, ra: Gpr(0), rb: Gpr(0) });
            }
        }
    }
    a.sc();
}

/// Pre-fills the data window and seeds the first twelve GPRs — the
/// same initial state for every run of a program.
fn seed_state(mem: &mut Memory, cpu: &mut Cpu, seeds: &[u32]) {
    for i in 0..SLOTS {
        mem.write_u32(DATA + 4 * i, i.wrapping_mul(0x9E37_79B9)).unwrap();
    }
    for (i, s) in seeds.iter().enumerate().take(12) {
        cpu.gpr[i] = *s;
    }
}

/// Runs one program on the packed engine and on the reference
/// interpreter from identical initial state, returning
/// `(packed system, (oracle cpu, oracle memory))`.
fn run_against_oracle(
    prog: &Program,
    seeds: &[u32],
    cfg: TranslatorConfig,
    cache: &Hierarchy,
) -> (DaisySystem<PpcIsa>, (Cpu, Memory)) {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x2_0000)
        .translator(cfg)
        .cache(cache.clone())
        .build();
    sys.load(prog).unwrap();
    seed_state(&mut sys.mem, &mut sys.cpu, seeds);
    let stop = sys.run(100_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);

    let mut mem = Memory::new(0x2_0000);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    seed_state(&mut mem, &mut cpu, seeds);
    let stop = cpu.run(&mut mem, 1_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    (sys, (cpu, mem))
}

/// The packed run must leave exactly the oracle's architected state
/// and memory image.
fn assert_matches_oracle(packed: &DaisySystem<PpcIsa>, (cpu, mem): &(Cpu, Memory), ctx: &str) {
    assert_eq!(packed.cpu.gpr, cpu.gpr, "{ctx}: GPRs diverged");
    assert_eq!(packed.cpu.cr, cpu.cr, "{ctx}: CR diverged");
    assert_eq!(packed.cpu.lr, cpu.lr, "{ctx}: LR diverged");
    assert_eq!(packed.cpu.ctr, cpu.ctr, "{ctx}: CTR diverged");
    assert_eq!(packed.cpu.xer, cpu.xer, "{ctx}: XER diverged");
    assert_eq!(packed.cpu.pc, cpu.pc, "{ctx}: PC diverged");
    let size = mem.size();
    assert_eq!(
        packed.mem.read_bytes(0, size).unwrap(),
        mem.read_bytes(0, size).unwrap(),
        "{ctx}: memory image diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default machine, infinite cache: random programs.
    #[test]
    fn packed_engine_matches_interpreter(
        steps in prop::collection::vec(step(), 1..40),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let mut a = Asm::new(0x1000);
        emit(&mut a, &steps);
        let prog = a.finish().expect("generated program assembles");
        let (packed, oracle) =
            run_against_oracle(&prog, &seeds, TranslatorConfig::default(), &Hierarchy::infinite());
        assert_matches_oracle(&packed, &oracle, "default config");
    }

    /// Injection equivalence: randomized programs under fault-injection
    /// campaigns must stay bit-exact against the interpreter oracle on
    /// the packed engine — the packed lowering adds no failure modes
    /// under adversarial perturbation.
    #[test]
    fn packed_engine_survives_injection(
        steps in prop::collection::vec(step(), 1..20),
        seed in 0u64..1024,
    ) {
        use daisy::inject::{run_campaign_on_program, CampaignConfig, FaultKind};

        let mut a = Asm::new(0x1000);
        emit(&mut a, &steps);
        let prog = a.finish().expect("generated program assembles");
        for kind in [FaultKind::IllegalOp, FaultKind::InterruptStorm, FaultKind::ChainSever] {
            let cfg = CampaignConfig::new(kind, seed);
            run_campaign_on_program::<PpcIsa>(&prog, 0x2_0000, 1_000_000, &cfg)
                .unwrap_or_else(|e| panic!("injection broke the packed engine: {e}"));
        }
    }

    /// The smallest paper machine, tiny translation pages, and a
    /// *finite* cache hierarchy: exercises VLIW splitting, cross-page
    /// dispatch, and the packed engine's per-access cache-probe paths.
    #[test]
    fn packed_engine_matches_on_small_machine_finite_cache(
        steps in prop::collection::vec(step(), 1..24),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let cfg = TranslatorConfig {
            machine: MachineConfig::paper_configs()[0].clone(),
            page_size: 256,
            ..TranslatorConfig::default()
        };
        let mut a = Asm::new(0x1000);
        emit(&mut a, &steps);
        let prog = a.finish().expect("generated program assembles");
        let (packed, oracle) = run_against_oracle(&prog, &seeds, cfg, &Hierarchy::paper_default());
        assert_matches_oracle(&packed, &oracle, "4-issue, 256-byte pages, finite cache");
    }
}

/// All nine paper workloads, packed engine vs the reference
/// interpreter: architected state and memory must be bit-exact and
/// each workload's own result check must pass. This is the acceptance
/// bar for the packed format stated directly as a test.
#[test]
fn workloads_bit_exact_across_engines() {
    for w in daisy_workloads::all() {
        let prog = w.program();
        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
        sys.load(&prog).unwrap();
        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{}: did not finish", w.name);
        w.check(&sys.cpu, &sys.mem)
            .unwrap_or_else(|e| panic!("{}: wrong guest result: {e}", w.name));

        let mut mem = Memory::new(w.mem_size);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        let stop = cpu.run(&mut mem, w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{}: reference run did not finish", w.name);
        assert_matches_oracle(&sys, &(cpu, mem), w.name);
    }
}

/// The packed chain-link protocol under self-modifying code: links are
/// installed against packed slot indices, and invalidating the patch
/// page must sever them before the next dispatch — with the final
/// state still matching the reference interpreter.
#[test]
fn packed_links_sever_on_invalidation() {
    const PAGE: u32 = 256;
    const TABLE: u32 = 0x8000;
    let imms: Vec<i16> = (1..=8).collect();

    // A loop that rewrites one of its own instructions each iteration
    // (patch site parked on the next 4 KiB invalidation unit, so the
    // storing group survives to observe the sever).
    let mut a = Asm::new(0x1F00);
    for r in [0u8, 1, 2, 3, 6] {
        a.li(Gpr(r), i16::from(r) + 1);
    }
    a.li(Gpr(7), 0);
    a.li32(Gpr(9), TABLE);
    a.li(Gpr(8), 0);
    a.li(Gpr(31), imms.len() as i16);
    a.mtctr(Gpr(31));
    a.label("loop");
    a.lwzx(Gpr(4), Gpr(9), Gpr(8));
    a.la(Gpr(3), "patch");
    a.stw(Gpr(4), 0, Gpr(3));
    while !a.here().is_multiple_of(PAGE) {
        a.nop();
    }
    a.label("patch");
    a.li(Gpr(5), 0);
    a.add(Gpr(7), Gpr(7), Gpr(5));
    a.addi(Gpr(8), Gpr(8), 4);
    a.bdnz("loop");
    a.sc();
    let words: Vec<u32> =
        imms.iter().map(|&si| encode(&Insn::Addi { rt: Gpr(5), ra: Gpr(0), si })).collect();
    a.data_words(TABLE, &words);
    let prog = a.finish().expect("selfmod program assembles");

    let cfg = TranslatorConfig { page_size: PAGE, ..TranslatorConfig::default() };
    let mut packed =
        DaisySystem::<PpcIsa>::builder().mem_size(0x2_0000).translator(cfg).chaining(true).build();
    packed.load(&prog).unwrap();
    let stop = packed.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);

    let mut mem = Memory::new(0x2_0000);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    let stop = cpu.run(&mut mem, 1_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);

    let want: u32 = imms.iter().map(|&i| i as u32).sum();
    assert_eq!(packed.cpu.gpr[7], want, "accumulator saw a stale patch");
    assert!(packed.stats.chain.link_installs >= 1, "hot exits should get links");
    assert!(
        packed.stats.chain.severs >= 1,
        "invalidating the patch page must sever packed slot links; stats: {:?}",
        packed.stats.chain
    );
    assert_matches_oracle(&packed, &(cpu, mem), "selfmod");
}

/// `RunStats` equality elsewhere in the suite is meaningful only if the
/// type actually compares every counter; guard against a field being
/// dropped from the comparison by a future manual `PartialEq` impl.
#[test]
fn runstats_equality_covers_counters() {
    let mut a = RunStats::default();
    let b = RunStats::default();
    assert_eq!(a, b);
    a.issue_histogram[3] = 1;
    assert_ne!(a, b);
}
