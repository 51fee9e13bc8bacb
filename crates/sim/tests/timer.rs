//! The deterministic interval timer and interrupt replay through the
//! three saved return addresses (paper §3.2–§3.3): tick arrival is a
//! pure function of the executed-instruction count, and an interrupt
//! accepted while a delayed transfer is still pending resumes the
//! offender, its successor, and the branch target in order.

use mips_asm::assemble;
use mips_core::Reg;
use mips_sim::machine::INTCTRL_ADDR;
use mips_sim::{Machine, MachineConfig};

fn machine(src: &str) -> Machine {
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

#[test]
fn timer_ticks_are_deterministic() {
    let run_once = || {
        let mut m = machine(&ticking_source());
        m.attach_timer(50, 0);
        let main = m.program().symbol("main").unwrap();
        m.jump_to(main);
        m.run().unwrap();
        (m.mem().peek(300), m.profile().exceptions, m.reg(Reg::R4))
    };
    let (ticks_a, exc_a, r4_a) = run_once();
    let (ticks_b, exc_b, r4_b) = run_once();
    assert!(ticks_a > 0, "the timer fired");
    assert_eq!(ticks_a as u64, exc_a, "every exception was a tick");
    assert_eq!(r4_a, 100, "the interrupted loop still completed");
    assert_eq!(
        (ticks_a, exc_a, r4_a),
        (ticks_b, exc_b, r4_b),
        "tick arrival is a pure function of instruction count"
    );
}

#[test]
fn tick_while_disabled_is_sticky_and_taken_on_enable() {
    // Interrupts stay off for the whole first loop; the tick raised
    // meanwhile is level-triggered and must be accepted at the first
    // enabled instruction boundary.
    let src = format!(
        "
        handler:
            ld @300,r1
            lim #{intc},r2
            add r1,#1,r1
            st r1,@300
            ld 0(r2),r3
            nop
            sub r3,#1,r3
            st r3,0(r2)
            rfe
        main:
            mvi #0,r4
            mvi #30,r9
        quiet:
            add r4,#1,r4       ; ~90 instructions with interrupts off
            bne r4,r9,quiet
            nop
            rsp surprise,r1
            or r1,#4,r1
            wsp r1,surprise
            nop
            nop
            halt
        ",
        intc = INTCTRL_ADDR
    );
    let mut m = machine(&src);
    m.attach_timer(10_000, 0); // fires never during this short run
    m.attach_timer(20, 0); // reconfigure: fires during `quiet`
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    assert!(
        m.mem().peek(300) >= 1,
        "the deferred tick was taken after enable"
    );
    assert!(
        !m.int_ctrl().unwrap().line_asserted(),
        "handler acknowledged"
    );
}

#[test]
fn interrupt_mid_indirect_shadow_replays_via_three_return_addresses() {
    // Inject the interrupt exactly when the two shadow slots of an
    // indirect jump are pending: ret0 = offender (first slot), ret1 = its
    // successor (second slot), ret2 = the branch target. After rfe all
    // three execute, in order, exactly once (§3.3).
    let src = "
        handler:
            rfe
        main:
            rsp surprise,r1
            or r1,#4,r1
            wsp r1,surprise
            mvi #10,r4         ; address of `target`
            jmpi (r4)
            add r5,#1,r5       ; shadow slot 1 (the offender on resume)
            add r6,#1,r6       ; shadow slot 2
            halt               ; fall-through: never reached
            mvi #9,r8
        target:
            add r7,#1,r7
            halt
        ";
    let p = assemble(src).unwrap();
    let target = p.symbol("target").unwrap();
    assert_eq!(target, 10, "layout assumption for the jmpi register");
    let mut m = Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    let main = m.program().symbol("main").unwrap();
    let slot1 = main + 5;
    m.jump_to(main);
    // Execute until the jmpi has issued and both shadow slots are pending.
    while m.pc() != slot1 {
        m.step().unwrap();
    }
    m.set_irq_line(true);
    m.step().unwrap(); // samples the line: dispatch + first handler word
    m.set_irq_line(false);
    assert_eq!(m.profile().exceptions, 1, "interrupt accepted mid-shadow");
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
