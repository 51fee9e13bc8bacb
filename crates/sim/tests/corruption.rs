//! State-corruption edge cases: what the machine does when its control
//! state is *already* garbage at the moment an exception arrives, when
//! software reads an MMIO register that doesn't exist, and when a
//! page-map entry points past the end of physical memory. All three are
//! chaos-campaign preconditions: each must end in defined, typed
//! behavior — never a host panic.

use mips_asm::assemble;
use mips_sim::machine::{INTCTRL_ADDR, MAPUNIT_ADDR};
use mips_sim::{Cause, Machine, MachineConfig, PageMap, SimError, Surprise};

/// Garbage in the surprise register's cause/detail field must not
/// confuse a *later* interrupt dispatch: the shift stack saves the
/// corrupt word into the previous-state bits, the new cause field is
/// written fresh, and `rfe` restores the corruption untouched (the
/// hardware faithfully preserves even garbage — deciding what it means
/// is software's job).
#[test]
fn corrupted_surprise_cause_bits_survive_an_interrupt() {
    let src = format!(
        "
        handler:
            rsp surprise,r1
            st r1,@100
            lim #{intctrl},r4
            ld 0(r4),r5
            nop
            sub r5,#1,r5
            st r5,0(r4)        ; ack the pending device
            rfe
            nop
        main:
            mvi #0,r2
            mvi #40,r3
        spin:
            add r2,#1,r2
            beq r2,r3,done
            nop
            bra spin
            nop
        done:
            halt
        ",
        intctrl = INTCTRL_ADDR
    );
    let p = assemble(&src).unwrap();
    let mut m = Machine::with_config(
        p,
        MachineConfig {
            native_traps: false,
            ..MachineConfig::default()
        },
    );
    m.attach_timer(25, 0);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    // User mode with interrupts on — and garbage in the cause/detail
    // bits (a prior fault's leftovers, or a chaos flip).
    *m.surprise_mut() = Surprise::from_raw(0b1010_1010_0000_0000 | 0x4);
    // The loop finishes and its user-mode `halt` stops the machine with
    // a typed error (halt is not a user instruction when traps
    // dispatch) — by then the handler has run many times.
    let err = m.run().expect_err("user-mode halt is typed");
    assert!(
        matches!(err, SimError::HaltInUserMode { .. }),
        "got {err:?}"
    );

    let saved = Surprise::from_raw(m.mem().peek(100));
    assert_eq!(
        saved.cause(),
        Cause::Interrupt,
        "fresh cause overwrites garbage"
    );
    assert!(saved.supervisor(), "dispatch entered supervisor mode");
    assert!(
        !saved.int_enable(),
        "dispatch disabled interrupts despite the corrupt word"
    );
}

/// Reading an MMIO offset the device never defined (the map unit's
/// third register is write-only) returns zero — a defined value, not
/// garbage and not a fault.
#[test]
fn unmapped_mmio_port_offset_reads_zero() {
    let src = format!(
        "
        lim #{base},r1
        ld 2(r1),r2        ; +2 is write-only (unmap); read must be 0
        nop
        st r2,@100
        ld 1(r1),r3        ; +1 reads resident-page count
        nop
        st r3,@101
        halt
        ",
        base = MAPUNIT_ADDR
    );
    let p = assemble(&src).unwrap();
    let mut m = Machine::new(p);
    m.attach_page_map(PageMap::new());
    m.page_map_mut().unwrap().map(7, 7);
    m.run().unwrap();
    assert_eq!(m.mem().peek(100), 0, "undefined MMIO offset reads as zero");
    assert_eq!(m.mem().peek(101), 1, "defined offset still works");
}

/// A page-map entry whose frame number points past physical memory (a
/// corrupted entry, not a missing one) must fault like any other page
/// miss — cause, detail, and map-unit latch all filled in — instead of
/// silently reading or writing out-of-bounds "memory".
#[test]
fn out_of_range_page_map_entry_faults_like_a_miss() {
    let src = format!(
        "
        handler:
            rsp surprise,r1
            st r1,@100
            lim #{mapu},r2
            ld 0(r2),r3
            nop
            st r3,@101
            halt
        main:
            lim #4096,r1
            st r1,0(r1)        ; page 1: resident, but frame is wild
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
    // Frame 0x1000 = first frame past the 24-bit physical space.
    m.page_map_mut().unwrap().map(1, 0x1000);
    m.surprise_mut().set_map_enable(true);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    m.run().unwrap();

    let saved = Surprise::from_raw(m.mem().peek(100));
    assert_eq!(
        saved.cause(),
        Cause::PageFault,
        "an out-of-range frame is a page fault, not a silent wrap"
    );
    assert_eq!(
        m.mem().peek(101),
        4096,
        "the map unit latches the mapped address of the wild access"
    );
}
