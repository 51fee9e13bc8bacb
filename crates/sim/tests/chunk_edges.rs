//! Chunk-boundary edge cases for the fast execution engine: the events
//! that bound (or interrupt) a chunk must land on exactly the same
//! instruction boundary as on the reference interpreter — a timer tick
//! due right after a chunk's last instruction, an interrupt accepted
//! mid-shadow, a step limit exhausted at a boundary, and a halt sitting
//! next to a packed pair or inside a delay shadow — plus the window
//! semantics of the one fast entry point, [`Machine::run_fenced`].

use mips_asm::assemble;
use mips_core::{
    AluOp, AluPiece, Instr, JumpPiece, MemMode, MemPiece, MviPiece, Operand, ProgramBuilder, Reg,
    Target, WordAddr,
};
use mips_sim::machine::INTCTRL_ADDR;
use mips_sim::{Engine, Machine, MachineConfig, SimError};

/// Full-state comparison between two machines that ran the same
/// program: every architectural register, the pipeline-visible state,
/// the profile, the output stream, and all of memory.
fn assert_agree(fast: &Machine, reference: &Machine, what: &str) {
    for r in Reg::ALL {
        assert_eq!(fast.reg(r), reference.reg(r), "{what}: register {r:?}");
    }
    assert_eq!(fast.pc(), reference.pc(), "{what}: pc");
    assert_eq!(
        fast.surprise().raw(),
        reference.surprise().raw(),
        "{what}: surprise register"
    );
    assert_eq!(fast.ret_addrs(), reference.ret_addrs(), "{what}: ret chain");
    assert_eq!(fast.halted(), reference.halted(), "{what}: halted");
    assert_eq!(fast.output(), reference.output(), "{what}: output bytes");
    assert_eq!(fast.profile(), reference.profile(), "{what}: profile");
    assert_eq!(
        fast.mem().snapshot(),
        reference.mem().snapshot(),
        "{what}: memory"
    );
    assert_eq!(
        (fast.mem().reads, fast.mem().writes),
        (reference.mem().reads, reference.mem().writes),
        "{what}: memory cycle counters"
    );
}

fn os_machine(src: &str) -> Machine {
    let p = assemble(src).unwrap();
    Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    )
}

/// Handler counts ticks at word 300 and acknowledges; main loops.
fn ticking_source() -> String {
    format!(
        "
        handler:
            ld @300,r1
            lim #{intc},r2
            add r1,#1,r1
            st r1,@300
            ld 0(r2),r3        ; highest-pending device + 1
            nop
            sub r3,#1,r3
            st r3,0(r2)        ; acknowledge
            rfe
        main:
            rsp surprise,r1
            or r1,#4,r1        ; interrupt-enable
            wsp r1,surprise
            mvi #0,r4
            mvi #100,r9
        loop:
            add r4,#1,r4
            bne r4,r9,loop
            nop
            halt
        ",
        intc = INTCTRL_ADDR
    )
}

/// The chunk length is computed from `next_fire`, so every tick lands
/// exactly on the boundary after a chunk's last instruction. The whole
/// tick/handler/resume trajectory must match the reference engine for a
/// range of periods.
#[test]
fn timer_fires_on_the_last_instruction_of_a_chunk() {
    for period in [17u64, 23, 50, 64, 101] {
        let run = |engine: Engine| {
            let mut m = os_machine(&ticking_source());
            m.set_engine(engine);
            m.attach_timer(period, 0);
            let main = m.program().symbol("main").unwrap();
            m.jump_to(main);
            m.run().unwrap();
            m
        };
        let fast = run(Engine::Fast);
        let reference = run(Engine::Reference);
        assert!(
            fast.profile().exceptions > 0,
            "period {period}: ticks fired"
        );
        assert_agree(&fast, &reference, &format!("timer period {period}"));
    }
}

/// A period shorter than the dispatch-plus-handler path starves user
/// progress (documented machine behavior): the run must starve on both
/// engines identically — same `StepLimit` error, same state.
#[test]
fn starvation_period_is_conformant_too() {
    let limit = 20_000u64;
    let run = |engine: Engine| {
        let p = assemble(&ticking_source()).unwrap();
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                native_traps: false,
                step_limit: limit,
                ..MachineConfig::default()
            },
        );
        m.set_engine(engine);
        m.attach_timer(1, 0);
        let main = m.program().symbol("main").unwrap();
        m.jump_to(main);
        let err = m.run().unwrap_err();
        (m, err)
    };
    let (fast, fast_err) = run(Engine::Fast);
    let (reference, ref_err) = run(Engine::Reference);
    assert_eq!(fast_err, SimError::StepLimit { limit });
    assert_eq!(fast_err, ref_err);
    assert_agree(&fast, &reference, "starvation");
}

/// An interrupt raised while an indirect jump's two shadow slots are
/// pending: the fenced burst must refuse to start (the dispatch is the
/// reference step's job), and the step that takes the interrupt must
/// capture the same three-address resume chain as the reference
/// interpreter; the replay must execute each slot exactly once.
#[test]
fn interrupt_raised_mid_shadow_replays_exactly() {
    let src = "
        handler:
            nop
            rfe
        main:
            rsp surprise,r1
            or r1,#4,r1
            wsp r1,surprise
            mvi #11,r4         ; address of `target`
            jmpi (r4)
            add r5,#1,r5       ; shadow slot 1 (the offender on resume)
            add r6,#1,r6       ; shadow slot 2
            halt               ; fall-through: never reached
            mvi #9,r8
        target:
            add r7,#1,r7
            halt
        ";
    let mut m = os_machine(src);
    m.set_engine(Engine::Fast);
    let main = m.program().symbol("main").unwrap();
    let target = m.program().symbol("target").unwrap();
    assert_eq!(target, 11, "the source's `mvi` names this address");
    let slot1 = main + 5;
    m.jump_to(main);
    // Single-instruction bursts position the machine mid-shadow.
    while m.pc() != slot1 {
        m.run_steps(1).unwrap();
    }
    m.set_irq_line(true);
    // The fenced burst stops before the boundary: nothing executed,
    // nothing dispatched.
    let before = m.profile().clone();
    assert_eq!(m.run_fenced(1, 0, u32::MAX), 0, "pending interrupt");
    assert_eq!(m.profile(), &before, "the burst touched nothing");
    assert_eq!(m.pc(), slot1);
    // One reference step dispatches and runs the handler's first word.
    m.step().unwrap();
    m.set_irq_line(false);
    assert_eq!(m.profile().exceptions, 1, "interrupt accepted mid-shadow");
    assert_eq!(m.profile().instructions, before.instructions + 1);
    assert_eq!(
        m.ret_addrs(),
        [slot1, slot1 + 1, target],
        "offender, successor, then the pending indirect target"
    );
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R5), 1, "first shadow slot executed once");
    assert_eq!(m.reg(Reg::R6), 1, "second shadow slot executed once");
    assert_eq!(m.reg(Reg::R7), 1, "indirect target reached");
    assert_eq!(m.reg(Reg::R8), 0, "fall-through after the shadow skipped");
    assert_eq!(m.profile().exceptions, 1, "no spurious replays");
}

/// `len` straight-line increments of r1, then `halt`: one block the
/// verifier certifies whole.
fn straight_line(len: usize) -> mips_core::Program {
    let mut b = ProgramBuilder::new();
    for _ in 0..len {
        b.push(Instr::alu(AluPiece::new(
            AluOp::Add,
            Reg::R1.into(),
            Operand::Small(1),
            Reg::R1,
        )));
    }
    b.push(Instr::Halt);
    b.finish().unwrap()
}

/// The window's upper edge is exact: a burst stops on the boundary
/// before `hi` with the same state the reference engine has there, and
/// a burst whose pc starts outside the window runs nothing.
#[test]
fn fenced_burst_stops_exactly_at_hi() {
    for hi in [1u32, 7, 19] {
        let mut fast = Machine::new(straight_line(20));
        fast.set_engine(Engine::Fast);
        assert_eq!(fast.run_fenced(1_000, 0, hi), hi as u64, "hi {hi}");
        assert_eq!(fast.pc(), hi);
        let mut reference = Machine::new(straight_line(20));
        for _ in 0..hi {
            reference.step().unwrap();
        }
        assert_agree(&fast, &reference, &format!("fence at {hi}"));
        // At (or past) the edge nothing more runs.
        assert_eq!(fast.run_fenced(1_000, 0, hi), 0);
        assert_eq!(fast.run_fenced(1_000, hi + 1, 40), 0, "pc below lo");
        assert_eq!(fast.pc(), hi);
    }
    // The budget still bounds a burst inside the window.
    let mut m = Machine::new(straight_line(20));
    m.set_engine(Engine::Fast);
    assert_eq!(m.run_fenced(5, 0, u32::MAX), 5);
    assert_eq!(m.reg(Reg::R1), 5);
}

/// A certified block that would cross `hi` is refused and the window
/// runs instruction by instruction; the same block inside the window
/// runs certified.
#[test]
fn certified_blocks_never_cross_hi() {
    let whole = {
        let mut m = Machine::new(straight_line(20));
        m.set_engine(Engine::Fast);
        assert_eq!(m.run_fenced(1_000, 0, 20), 20);
        m
    };
    assert_eq!(whole.cert_elided(), 20, "the block is certified whole");
    let mut m = Machine::new(straight_line(20));
    m.set_engine(Engine::Fast);
    assert_eq!(m.run_fenced(1_000, 0, 19), 19);
    assert_eq!(m.cert_elided(), 0, "the block would cross hi");
    assert_eq!(m.pc(), 19);
    assert_eq!(m.reg(Reg::R1), 19);
}

/// Every whole-run fallback makes the burst return 0 without executing
/// or dispatching anything: the reference engine, a due timer tick,
/// and a pending interrupt with interrupts enabled.
#[test]
fn whole_run_fallbacks_return_zero_without_stepping() {
    // Reference engine.
    let mut m = Machine::new(straight_line(20));
    assert_eq!(m.run_fenced(10, 0, u32::MAX), 0);
    assert_eq!(m.profile().instructions, 0);

    // A due timer tick: the first burst ends on the tick boundary, the
    // next refuses to start until a reference step fires it.
    let mut m = os_machine(&ticking_source());
    m.set_engine(Engine::Fast);
    m.attach_timer(5, 0);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    // `rsp` is a special-register op: one reference step each.
    while m.profile().instructions < 3 {
        if m.run_fenced(1, 0, u32::MAX) == 0 {
            m.step().unwrap();
        }
    }
    assert_eq!(m.run_fenced(100, 0, u32::MAX), 2, "the tick bounds it");
    let (pc, before) = (m.pc(), m.profile().clone());
    assert_eq!(m.run_fenced(100, 0, u32::MAX), 0, "timer due");
    assert_eq!((m.pc(), m.profile()), (pc, &before));

    // A pending interrupt with interrupts enabled.
    let mut m = os_machine(&ticking_source());
    m.set_engine(Engine::Fast);
    m.jump_to(main);
    while m.profile().instructions < 3 {
        if m.run_fenced(1, 0, u32::MAX) == 0 {
            m.step().unwrap();
        }
    }
    m.set_irq_line(true);
    let (pc, before) = (m.pc(), m.profile().clone());
    assert_eq!(m.run_fenced(100, 0, u32::MAX), 0, "interrupt pending");
    assert_eq!((m.pc(), m.profile()), (pc, &before));
    m.set_irq_line(false);
    assert!(m.run_fenced(100, 0, u32::MAX) > 0, "line dropped: runs");
}

/// Driving a ticking program to its halt with fenced bursts and single
/// reference steps: no burst ever changes `profile.exceptions` (every
/// dispatch happens in a step), and the end state equals the reference
/// run's.
#[test]
fn fenced_bursts_never_dispatch() {
    for period in [17u64, 64] {
        let mut fast = os_machine(&ticking_source());
        fast.set_engine(Engine::Fast);
        fast.attach_timer(period, 0);
        let main = fast.program().symbol("main").unwrap();
        fast.jump_to(main);
        let mut bursts = 0;
        while !fast.halted() {
            let exceptions = fast.profile().exceptions;
            let k = fast.run_fenced(u64::MAX, 0, u32::MAX);
            assert_eq!(fast.profile().exceptions, exceptions, "period {period}");
            if k == 0 {
                fast.step().unwrap();
            } else {
                bursts += 1;
            }
        }
        assert!(
            bursts > 0 && fast.profile().exceptions > 0,
            "period {period}"
        );
        let mut reference = os_machine(&ticking_source());
        reference.attach_timer(period, 0);
        reference.jump_to(main);
        reference.run().unwrap();
        assert_agree(&fast, &reference, &format!("fenced drive, period {period}"));
    }
}

fn forever_loop() -> mips_core::Program {
    let mut b = ProgramBuilder::new();
    let l = b.fresh_label();
    b.define(l).unwrap();
    b.push(Instr::alu(AluPiece::new(
        AluOp::Add,
        Reg::R1.into(),
        Operand::Small(1),
        Reg::R1,
    )));
    b.push(Instr::Jump(JumpPiece {
        target: Target::Label(l),
    }));
    b.push(Instr::NOP);
    b.finish().unwrap()
}

/// The step limit is part of the chunk-length computation: the fast
/// engine must stop on exactly the same instruction count, with the
/// same error and the same partial state, as the reference engine.
#[test]
fn step_limit_hits_exactly_at_a_chunk_boundary() {
    let limit = 1000u64;
    let run = |engine: Engine| {
        let mut m = Machine::with_config(
            forever_loop(),
            MachineConfig {
                step_limit: limit,
                ..MachineConfig::default()
            },
        );
        m.set_engine(engine);
        let err = m.run().unwrap_err();
        (m, err)
    };
    let (fast, fast_err) = run(Engine::Fast);
    let (reference, ref_err) = run(Engine::Reference);
    assert_eq!(fast_err, SimError::StepLimit { limit });
    assert_eq!(fast_err, ref_err);
    assert_eq!(fast.profile().instructions, limit);
    assert_agree(&fast, &reference, "step limit");
}

/// Driving up to the limit in counted bursts: `run_steps` must deliver
/// every budgeted instruction, and only the step *past* the limit
/// errors.
#[test]
fn run_steps_stops_on_the_budget_not_before() {
    let limit = 1000u64;
    let mut m = Machine::with_config(
        forever_loop(),
        MachineConfig {
            step_limit: limit,
            ..MachineConfig::default()
        },
    );
    m.set_engine(Engine::Fast);
    assert_eq!(m.run_steps(999).unwrap(), 999);
    assert_eq!(m.profile().instructions, 999);
    assert_eq!(m.run_steps(1).unwrap(), 1);
    assert_eq!(m.profile().instructions, limit);
    assert_eq!(m.run_steps(1), Err(SimError::StepLimit { limit }));
}

/// A halt right after a packed pair (the pair executes fast, the halt
/// falls back) and a halt inside a branch delay shadow (the machine
/// halts with a transfer still pending) must leave identical state on
/// both engines.
#[test]
fn halt_beside_a_packed_pair_and_inside_a_shadow() {
    // mvi r1; packed {st r1,@100 | add r1+#2 -> r2}; halt
    let packed = {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Mvi(MviPiece {
            imm: 7,
            dst: Reg::R1,
        }));
        b.push(Instr::Op {
            alu: Some(AluPiece::new(
                AluOp::Add,
                Reg::R1.into(),
                Operand::Small(2),
                Reg::R2,
            )),
            mem: Some(MemPiece::store(
                MemMode::Absolute(WordAddr::new(100)),
                Reg::R1,
            )),
        });
        b.push(Instr::Halt);
        b.finish().unwrap()
    };
    // jmp over; halt in the delay slot executes and stops the machine.
    let shadowed = {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Jump(JumpPiece {
            target: Target::Abs(3),
        }));
        b.push(Instr::Halt);
        b.push(Instr::NOP);
        b.push(Instr::NOP);
        b.finish().unwrap()
    };
    for (name, program) in [("packed", packed), ("shadow", shadowed)] {
        let run = |engine: Engine| {
            let mut m = Machine::new(program.clone());
            m.set_engine(engine);
            m.run().unwrap();
            m
        };
        let fast = run(Engine::Fast);
        let reference = run(Engine::Reference);
        assert!(fast.halted(), "{name}: halted");
        assert_agree(&fast, &reference, name);
    }
    // Sanity: the packed program really recorded a packed pair.
    let mut m = Machine::new({
        let mut b = ProgramBuilder::new();
        b.push(Instr::Mvi(MviPiece {
            imm: 7,
            dst: Reg::R1,
        }));
        b.push(Instr::Op {
            alu: Some(AluPiece::new(
                AluOp::Add,
                Reg::R1.into(),
                Operand::Small(2),
                Reg::R2,
            )),
            mem: Some(MemPiece::store(
                MemMode::Absolute(WordAddr::new(100)),
                Reg::R1,
            )),
        });
        b.push(Instr::Halt);
        b.finish().unwrap()
    });
    m.set_engine(Engine::Fast);
    m.run().unwrap();
    assert_eq!(m.profile().packed, 1);
    assert_eq!(m.mem().peek(100), 7);
    assert_eq!(m.reg(Reg::R2), 9);
}
