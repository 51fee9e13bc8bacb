//! The systems story of paper §3, as a runnable demo: a miniature
//! operating system written in MIPS assembly — resident dispatch code at
//! physical address zero, a demand-paging fault handler driving the
//! off-chip map unit, an interrupt handler querying the external
//! prioritization logic, and trap-based system calls — hosting a user
//! program that touches unmapped pages while a device interrupts it.
//!
//! ```text
//! cargo run --example os_demand_paging
//! ```

use mips::asm::assemble;
use mips::core::Reg;
use mips::sim::machine::{CONSOLE_ADDR, INTCTRL_ADDR, MAPUNIT_ADDR};
use mips::sim::{Machine, MachineConfig, PageMap};

fn main() {
    let source = format!(
        "
        ; ---- resident dispatch (physical address 0, the paper's ROM) ----
        ; 'The standard dispatch routine … saves the surprise register and
        ; a small number of the general purpose registers' (§3.3); kernel
        ; counters live in low physical memory.
        dispatch:
            st r1,@80              ; save the registers the kernel uses
            st r2,@81
            st r3,@82
            st r4,@83
            st r5,@84
            rsp surprise,r1
            srl r1,#8,r2
            and r2,#15,r2          ; exception cause code
            beq r2,#3,pagefault
            nop
            beq r2,#1,interrupt
            nop
            beq r2,#4,syscall
            nop
            halt                   ; unknown cause: stop

        pagefault:
            lim #{mapu},r3
            ld 0(r3),r4            ; faulting mapped address
            nop
            srl r4,#12,r5          ; virtual page number
            st r5,0(r3)            ; select page
            st r5,1(r3)            ; map it (identity frame)
            ld @90,r5              ; count page faults at @90
            nop
            add r5,#1,r5
            st r5,@90
            bra resume
            nop

        interrupt:
            lim #{intc},r3
            ld 0(r3),r4            ; which device? (id + 1)
            nop
            sub r4,#1,r4
            st r4,0(r3)            ; acknowledge it
            ld @91,r5              ; count interrupts at @91
            nop
            add r5,#1,r5
            st r5,@91
            bra resume
            nop

        syscall:
            ; trap #1: print the user's r1 on the console peripheral
            ; (counted at @92)
            lim #{console},r3
            ld @80,r4          ; the user's saved r1
            ld @92,r5
            mvi #48,r2         ; ord('0')
            add r4,r2,r4       ; tiny itoa: single digits only
            st r4,0(r3)        ; write to the console device
            add r5,#1,r5
            st r5,@92
            bra resume
            nop

        resume:
            ld @80,r1              ; restore user registers
            ld @81,r2
            ld @82,r3
            ld @83,r4
            ld @84,r5
            nop                    ; cover the last load's delay
            rfe

        ; ---- user program ----
        user:
            rsp surprise,r1
            or r1,#4,r1            ; enable interrupts
            wsp r1,surprise
            mvi #0,r2              ; loop counter
            mvi #0,r6              ; checksum
        loop:
            ; touch a fresh page each iteration: 0x5000, 0x6000, ...
            add r2,#5,r3
            sll r3,#12,r3
            st r2,(r3)             ; demand-paged store
            ld (r3),r4             ; read it back
            nop
            add r6,r4,r6
            add r4,#0,r1           ; syscall argument
            trap #1                ; monitor call: print r1
            add r2,#1,r2
            bne r2,#6,loop
            nop
            halt
        ",
        mapu = MAPUNIT_ADDR,
        intc = INTCTRL_ADDR,
        console = CONSOLE_ADDR
    );

    let program = assemble(&source).expect("assembles");
    let mut machine = Machine::with_config(
        program,
        MachineConfig {
            native_traps: false, // traps go through the dispatch code
            ..MachineConfig::default()
        },
    );
    machine.attach_page_map(PageMap::new());
    machine.attach_console();
    machine.attach_int_ctrl();
    machine.surprise_mut().set_map_enable(true);

    let user = machine.program().symbol("user").unwrap();
    machine.jump_to(user);

    // Let a device interrupt the user program a few times.
    let mut raised = 0;
    loop {
        if machine.profile().instructions.is_multiple_of(97) && raised < 3 {
            machine.int_ctrl_mut().unwrap().raise(2);
            raised += 1;
        }
        match machine.step() {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    let printed: String = machine.console().iter().map(|&w| w as u8 as char).collect();
    println!("console output           = {printed:?}");
    let faults = machine.mem().peek(90);
    let interrupts = machine.mem().peek(91);
    let syscalls = machine.mem().peek(92);
    println!("user loop checksum    r6 = {}", machine.reg(Reg::R6));
    println!("page faults serviced     = {faults}");
    println!("interrupts serviced      = {interrupts}");
    println!("system calls serviced    = {syscalls}");
    println!(
        "exceptions dispatched    = {}",
        machine.profile().exceptions
    );
    println!("---\n{}", machine.profile());
    assert_eq!(machine.reg(Reg::R6), 1 + 2 + 3 + 4 + 5);
    assert_eq!(faults, 6, "one fault per fresh page");
    assert_eq!(syscalls, 6, "one syscall per iteration");
    assert!(interrupts >= 1, "the device got served");
    assert_eq!(printed, "012345", "the syscall printed each loop index");
    println!("demand paging, interrupts, system calls, and console I/O all serviced by MIPS code.");
}
