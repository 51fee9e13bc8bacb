//! Systems-support integration tests (paper §3): software exception
//! dispatch at address zero, the surprise register, demand paging through
//! the off-chip map unit, the single interrupt line with external
//! prioritization, privilege enforcement, and return-from-exception in
//! branch shadows — all with handlers written in real MIPS assembly.

use mips::asm::assemble;
use mips::core::Reg;
use mips::sim::machine::{INTCTRL_ADDR, MAPUNIT_ADDR};
use mips::sim::{Cause, Machine, MachineConfig, PageMap};

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

#[test]
fn trap_dispatches_to_vector_and_rfe_resumes() {
    let mut m = machine(
        "
        handler:
            rsp surprise,r1
            st r1,@100
            rfe
        main:
            mvi #7,r2
            trap #42
            add r2,#1,r2
            halt
        ",
    );
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R2), 8, "execution resumed after the trap");
    let saved = mips::sim::Surprise::from_raw(m.mem().peek(100));
    assert_eq!(saved.cause(), Cause::Trap);
    assert_eq!(
        saved.detail(),
        42,
        "the 12-bit trap code reaches the handler"
    );
    assert_eq!(m.profile().exceptions, 1);
}

#[test]
fn demand_paging_via_map_unit_restarts_the_faulting_store() {
    // The handler reads the faulting mapped address from the map-unit
    // port, identity-maps the page, and returns; the store restarts.
    let src = format!(
        "
        handler:
            lim #{mapu},r1
            ld 0(r1),r2        ; faulting mapped address
            nop
            srl r2,#12,r3      ; virtual page number
            st r3,0(r1)        ; select page
            st r3,1(r1)        ; map to the identity frame
            rfe
        main:
            mvi #99,r4
            lim #20480,r5      ; word 0x5000 (page 5), unmapped
            st r4,(r5)
            ld (r5),r6
            nop
            halt
        ",
        mapu = MAPUNIT_ADDR
    );
    let p = assemble(&src).unwrap();
    let mut m = Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    m.attach_page_map(PageMap::new());
    m.surprise_mut().set_map_enable(true);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R6), 99, "store restarted after mapping");
    // One fault for the store; the load hits the now-resident page.
    assert_eq!(m.profile().exceptions, 1);
    assert_eq!(m.mem().peek(20480), 99, "identity frame holds the value");
}

#[test]
fn interrupt_line_dispatches_and_handler_acknowledges() {
    let src = format!(
        "
        handler:
            lim #{intc},r1
            ld 0(r1),r2        ; highest-priority device + 1
            nop
            st r2,@101
            sub r2,#1,r3
            st r3,0(r1)        ; acknowledge
            rfe
        main:
            rsp surprise,r1
            or r1,#4,r1        ; set the interrupt-enable bit
            wsp r1,surprise
            mvi #0,r4
        loop:
            add r4,#1,r4
            bne r4,#10,loop
            nop
            halt
        ",
        intc = INTCTRL_ADDR
    );
    let p = assemble(&src).unwrap();
    let mut m = Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    m.attach_int_ctrl();
    m.int_ctrl_mut().unwrap().raise(3);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    assert_eq!(m.mem().peek(101), 4, "device 3 reported as 3+1");
    assert!(!m.int_ctrl().unwrap().line_asserted(), "acknowledged");
    assert_eq!(m.reg(Reg::R4), 10, "the loop still completed");
    assert_eq!(m.profile().exceptions, 1, "one interrupt only");
}

#[test]
fn user_mode_cannot_touch_the_surprise_register() {
    let mut m = machine(
        "
        handler:
            rsp surprise,r1
            st r1,@102
            halt
        main:
            mvi #0,r1
            wsp r1,surprise    ; drop to user mode (clears supervisor bit)
            rsp surprise,r2    ; privileged: faults
            halt
        ",
    );
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    let saved = mips::sim::Surprise::from_raw(m.mem().peek(102));
    assert_eq!(saved.cause(), Cause::Privilege);
    assert!(!saved.prev_supervisor(), "came from user mode");
}

#[test]
fn user_mode_cannot_touch_devices() {
    let src = format!(
        "
        handler:
            rsp surprise,r1
            st r1,@103
            halt
        main:
            mvi #0,r1
            wsp r1,surprise    ; user mode
            lim #{mapu},r2
            ld 0(r2),r3        ; peripheral access: privileged
            nop
            halt
        ",
        mapu = MAPUNIT_ADDR
    );
    let p = assemble(&src).unwrap();
    let mut m = Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    m.attach_page_map(PageMap::new());
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    let saved = mips::sim::Surprise::from_raw(m.mem().peek(103));
    assert_eq!(saved.cause(), Cause::Privilege);
}

#[test]
fn exception_in_indirect_jump_shadow_resumes_via_three_addresses() {
    // "When an instruction following an indirect jump incurs an exception,
    // the first three instructions to be executed in order to resume the
    // code sequence are: the offending instruction, its successor, and
    // then the target of the branch." (§3.3)
    let src = "
        handler:
            rfe
        main:
            mvi #7,r4          ; address of `target`
            jmpi (r4)
            trap #1
            add r5,#1,r5
            halt
            mvi #9,r6
        target:
            add r7,#1,r7
            halt
        ";
    let p = assemble(src).unwrap();
    let target = p.symbol("target").unwrap();
    let mut m = Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    assert_eq!(target, 7, "layout assumption for the jmpi register");
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R5), 1, "second shadow slot executed after rfe");
    assert_eq!(
        m.reg(Reg::R7),
        1,
        "indirect target reached after the shadow"
    );
    assert_eq!(m.reg(Reg::R6), 0, "fall-through after shadow was skipped");
}

#[test]
fn overflow_trap_skips_via_ret0_manipulation() {
    let mut m = machine(
        "
        handler:
            rsp surprise,r1
            st r1,@104
            rsp ret0,r2
            add r2,#1,r2       ; skip the overflowing instruction
            wsp r2,ret0
            rsp ret1,r3
            add r3,#1,r3
            wsp r3,ret1
            rsp ret2,r3
            add r3,#1,r3
            wsp r3,ret2
            rfe
        main:
            rsp surprise,r1
            mvi #16,r9         ; overflow-trap enable bit
            or r1,r9,r1
            wsp r1,surprise
            lim #16777215,r4
            sll r4,#7,r4       ; large positive value
            mul r4,r4,r5       ; overflows: trapped, then skipped
            mvi #3,r6
            halt
        ",
    );
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    let saved = mips::sim::Surprise::from_raw(m.mem().peek(104));
    assert_eq!(saved.cause(), Cause::Overflow);
    assert_eq!(m.reg(Reg::R5), 0, "overflow write was inhibited");
    assert_eq!(m.reg(Reg::R6), 3, "execution continued after the skip");
}

#[test]
fn nested_exceptions_serialize() {
    // A page fault inside the trap handler: the second dispatch must
    // overwrite the previous-state fields coherently and still resume.
    let src = format!(
        "
        handler:
            rsp surprise,r1
            srl r1,#8,r2
            and r2,#15,r2      ; exception cause code
            beq r2,#3,pf       ; page fault?
            nop
            bra back
            nop
        pf:
            lim #{mapu},r3
            ld 0(r3),r2
            nop
            srl r2,#12,r4
            st r4,0(r3)
            st r4,1(r3)
            rfe
        back:
            ; first-level trap handler: save dispatch state, re-enable
            ; mapping ('each exception handler can … resume memory mapping
            ; as it chooses'), touch an unmapped page (nested fault),
            ; restore, return.
            rsp surprise,r5
            rsp ret0,r6
            rsp ret1,r7
            rsp ret2,r8
            mvi #64,r11        ; map-enable bit
            or r5,r11,r12
            wsp r12,surprise
            lim #24576,r9      ; page 6, unmapped: nested fault here
            st r9,(r9)
            wsp r6,ret0
            wsp r7,ret1
            wsp r8,ret2
            wsp r5,surprise
            rfe
        main:
            trap #5
            add r10,#1,r10
            halt
        ",
        mapu = MAPUNIT_ADDR
    );
    let p = assemble(&src).unwrap();
    let mut m = Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    m.attach_page_map(PageMap::new());
    // Mapping is off at the trap; the handler enables it only through the
    // nested store? Simpler: enable mapping for user code.
    m.surprise_mut().set_map_enable(true);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R10), 1, "resumed after nested exceptions");
    assert_eq!(m.profile().exceptions, 2);
}
