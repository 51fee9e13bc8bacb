//! §3.2 — context switches.
//!
//! Two claims, both executable:
//!
//! 1. "The dual instruction/data memory interface implies that a sequence
//!    of save register instructions could completely utilize the memory
//!    bandwidth for storing register contents" — a straight-line
//!    register-save sequence uses its data-memory cycle on *every* slot.
//! 2. "The addition of the on-chip segmentation means that most context
//!    switches do not require changes to the memory map" — two processes
//!    with different PIDs run against the *same* page map and never see
//!    each other's data.

use mips::asm::assemble;
use mips::core::Reg;
use mips::sim::{Machine, MachineConfig, PageMap};

#[test]
fn register_save_sequence_saturates_memory_bandwidth() {
    // The classic context-switch register dump: sixteen stores,
    // back to back.
    let mut src = String::from("main:\n");
    for r in 0..16 {
        src.push_str(&format!("    st r{r},@{}\n", 300 + r));
    }
    src.push_str("    halt\n");
    let p = assemble(&src).unwrap();
    let mut m = Machine::new(p);
    for i in 0..16 {
        m.set_reg(Reg::from_index(i).unwrap(), 0xAA00 + i as u32);
    }
    m.run().unwrap();
    for i in 0..16u32 {
        assert_eq!(m.mem().peek(300 + i), 0xAA00 + i);
    }
    let prof = m.profile();
    // Every slot except the final halt makes a data reference: the save
    // runs at full data-memory bandwidth, "as fast or faster than a
    // microcoded move-multiple instruction".
    assert_eq!(prof.mem_cycles_used, 16);
    assert_eq!(prof.mem_cycles_free, 1, "only the halt slot is free");
}

#[test]
fn pid_switch_isolates_processes_without_touching_the_map() {
    // One program image; the "kernel" (the test) runs it twice under
    // different PIDs with the same page map resident throughout.
    let p = assemble(
        "
        main:
            ld @16,r2          ; read the process's counter (low address)
            nop
            add r2,#1,r2
            st r2,@16
            halt
        ",
    )
    .unwrap();

    let run_as = |pid: u32, map: &PageMap| -> (u32, PageMap) {
        let mut m = Machine::with_config(
            p.clone(),
            MachineConfig {
                native_traps: true,
                ..MachineConfig::default()
            },
        );
        m.attach_page_map(map.clone());
        {
            let seg = m.segmentation_mut();
            seg.pid = pid;
            seg.pid_bits = 8;
            seg.low_limit = 0x1000;
            seg.high_base = 0xffff_f000;
        }
        m.surprise_mut().set_map_enable(true);
        // Seed each process's private counter in its own frame. With
        // pid_bits = 8, process `pid`'s word 16 maps to 16-bit space
        // pid<<16 | 16; the identity map places it at the same physical
        // address — distinct per pid.
        let phys = (pid << 16) | 16;
        m.mem_mut().poke(phys, pid * 100);
        m.run().unwrap();
        let out = m.mem().peek(phys);
        let map_now = m.page_map().unwrap().clone();
        (out, map_now)
    };

    // Identity map covering both processes' pages (pid in the tag keeps
    // one map for many processes, as the paper describes).
    let mut map = PageMap::new();
    for page in 0..64 {
        map.map(page, page);
    }
    let before = map.clone();

    let (c1, map_after_1) = run_as(1, &map);
    let (c2, map_after_2) = run_as(2, &map);
    assert_eq!(c1, 101, "process 1 incremented its own counter");
    assert_eq!(c2, 201, "process 2 incremented its own counter");
    // The context switch changed only the PID register: the map is
    // untouched.
    assert_eq!(map_after_1, before);
    assert_eq!(map_after_2, before);
}

#[test]
fn surprise_register_is_the_whole_miscellaneous_state() {
    // "All the miscellaneous state of the processor is encapsulated into
    // a single surprise register": saving and restoring it (plus the GPRs
    // and return addresses) is a complete context switch. Round-trip the
    // raw value through a register and back.
    let p = assemble(
        "
        main:
            rsp surprise,r1
            st r1,@40
            ld @40,r2
            nop
            wsp r2,surprise
            rsp surprise,r3
            halt
        ",
    )
    .unwrap();
    let mut m = Machine::new(p);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R1), m.reg(Reg::R3));
}
