//! The machine owns its devices: a host-side change made through the
//! machine's accessors (`page_map_mut`, `nic_mut`, `console_mut`) is
//! what the guest's very next access observes — there is no second
//! copy of any device state for the two sides to disagree about.

use mips_asm::assemble;
use mips_core::Reg;
use mips_sim::machine::{CONSOLE_ADDR, MAPUNIT_ADDR, NIC_ADDR};
use mips_sim::nic::regs;
use mips_sim::{Machine, PageMap, Segmentation, PAGE_WORDS, TX_RING};

/// Runs `m` until its pc reaches the program label `label`.
fn step_to(m: &mut Machine, label: &str) {
    let at = m.program().symbol(label).unwrap();
    while m.pc() != at {
        assert!(m.step().unwrap(), "halted before `{label}`");
    }
}

#[test]
fn a_host_remap_is_seen_by_the_next_guest_load() {
    let va = 5 * PAGE_WORDS + 3;
    let src = format!(
        "
            lim #{va},r2
            ld 0(r2),r3
            nop
        again:
            ld 0(r2),r4
            nop
            halt
        "
    );
    let mut m = Machine::new(assemble(&src).unwrap());
    m.attach_page_map(PageMap::new());
    m.page_map_mut().unwrap().map(5, 5);
    *m.segmentation_mut() = Segmentation {
        pid: 0,
        pid_bits: 0,
        low_limit: u32::MAX,
        high_base: u32::MAX,
    };
    m.surprise_mut().set_map_enable(true);
    m.mem_mut().poke(5 * PAGE_WORDS + 3, 11);
    m.mem_mut().poke(9 * PAGE_WORDS + 3, 22);

    step_to(&mut m, "again");
    m.page_map_mut().unwrap().map(5, 9);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R3), 11, "first load through the original entry");
    assert_eq!(m.reg(Reg::R4), 22, "second load through the host's remap");
}

#[test]
fn a_host_collect_frees_tx_slots_for_the_next_guest_read() {
    let src = format!(
        "
            lim #{nic},r2
            mvi #1,r5
            st r5,{txbuf}(r2)
            st r5,{txcommit}(r2)
            ld {txcommit}(r2),r3
            nop
        again:
            ld {txcommit}(r2),r4
            nop
            halt
        ",
        nic = NIC_ADDR,
        txbuf = regs::TX_BUF,
        txcommit = regs::TX_COMMIT,
    );
    let mut m = Machine::new(assemble(&src).unwrap());
    m.attach_nic(0);

    step_to(&mut m, "again");
    assert_eq!(m.nic().unwrap().tx_depth(), 1);
    let frames = m.nic_mut().unwrap().collect();
    assert_eq!(frames.len(), 1);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R3), TX_RING as u32 - 1, "one slot taken");
    assert_eq!(m.reg(Reg::R4), TX_RING as u32, "the host drained the ring");
}

#[test]
fn a_host_console_trim_is_seen_by_the_next_guest_read() {
    let src = format!(
        "
            lim #{con},r2
            mvi #65,r1
            st r1,0(r2)
            mvi #66,r1
            st r1,0(r2)
        again:
            ld 0(r2),r3
            nop
            halt
        ",
        con = CONSOLE_ADDR,
    );
    let mut m = Machine::new(assemble(&src).unwrap());
    m.attach_console();

    step_to(&mut m, "again");
    assert_eq!(m.console(), &[65, 66]);
    m.console_mut().unwrap().truncate(1);
    m.run().unwrap();
    assert_eq!(m.reg(Reg::R3), 1, "the guest counts the trimmed log");
    assert_eq!(m.console(), &[65]);
}

/// The map unit's page-select latch is device state the guest relies
/// on between its two stores (`select page`, then `map to frame`), so a
/// snapshot taken between them must carry it: restoring and replaying
/// must bind the page the guest selected, not whatever the latch held
/// when the restore happened.
#[test]
fn a_snapshot_between_select_and_map_keeps_the_selected_page() {
    let src = format!(
        "
            lim #{map},r1
            mvi #5,r2
            st r2,0(r1)        ; select page 5
        mid:
            st r2,1(r1)        ; map it to frame 5
            mvi #9,r3
            st r3,0(r1)        ; select page 9
            st r3,1(r1)        ; map it to frame 9
            halt
        ",
        map = MAPUNIT_ADDR,
    );
    let program = assemble(&src).unwrap();
    let mut m = Machine::new(program.clone());
    m.attach_page_map(PageMap::new());
    step_to(&mut m, "mid");
    let snap = m.snapshot();
    m.run().unwrap();
    let done = m.snapshot();

    // Replay on the same machine, whose latch now holds page 9...
    m.restore(&snap).unwrap();
    m.run().unwrap();
    assert_eq!(m.snapshot(), done, "replay binds page 5 -> frame 5 again");

    // ...and on a fresh machine through the byte codec.
    let mut fresh = Machine::new(program);
    fresh.attach_page_map(PageMap::new());
    fresh.restore_from_bytes(&snap.to_bytes()).unwrap();
    fresh.run().unwrap();
    assert_eq!(fresh.snapshot(), done, "the latch survives the codec");
}
