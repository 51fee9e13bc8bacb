//! NIC edge cases at machine level: guest-visible TX/RX through the
//! MMIO window, backpressure on a full RX ring (never a silent drop),
//! a delivery doorbell accepted mid-branch-shadow and replayed exactly
//! through the saved return chain, and snapshot/restore round-trips
//! with frames in flight in both rings.

use mips_asm::assemble;
use mips_core::Reg;
use mips_sim::machine::{INTCTRL_ADDR, NIC_ADDR};
use mips_sim::nic::regs;
use mips_sim::{Frame, Machine, MachineConfig, NIC_DEVICE, RX_RING};

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

fn frame(src: u32, dst: u32, words: &[u32]) -> Frame {
    Frame {
        src,
        dst,
        payload: words.to_vec(),
    }
}

#[test]
fn guest_commits_a_frame_and_a_peer_guest_reads_it() {
    // Machine A stages and commits one frame; the host (standing in for
    // the fabric) collects it and delivers to machine B, whose guest
    // polls STATUS, reads the head frame, and acknowledges it.
    let sender = format!(
        "
        main:
            lim #{nic},r2
            mvi #1,r3
            st r3,{txdst}(r2)
            mvi #42,r4
            st r4,{txbuf}(r2)
            mvi #1,r5
            st r5,{txcommit}(r2)
            halt
        ",
        nic = NIC_ADDR,
        txdst = regs::TX_DST,
        txbuf = regs::TX_BUF,
        txcommit = regs::TX_COMMIT,
    );
    let receiver = format!(
        "
        main:
            lim #{nic},r2
        poll:
            ld {status}(r2),r1
            nop
            and r1,#1,r1
            beq r1,#0,poll
            nop
            ld {rxsrc}(r2),r6
            ld {rxbuf}(r2),r7
            mvi #0,r3
            st r3,{rxack}(r2)
            halt
        ",
        nic = NIC_ADDR,
        status = regs::STATUS,
        rxsrc = regs::RX_SRC,
        rxbuf = regs::RX_BUF,
        rxack = regs::RX_ACK,
    );

    let mut a = machine(&sender);
    a.attach_nic(0);
    a.run().unwrap();
    let collected = a.nic_mut().unwrap().collect();
    assert_eq!(collected, vec![frame(0, 1, &[42])]);

    let mut b = machine(&receiver);
    b.attach_nic(1);
    for f in collected {
        b.nic_deliver(f).unwrap();
    }
    assert_eq!(
        b.int_ctrl().unwrap().highest_pending(),
        Some(NIC_DEVICE),
        "delivery rang the doorbell"
    );
    b.run().unwrap();
    assert_eq!(b.reg(Reg::R6), 0, "source node seen by the guest");
    assert_eq!(b.reg(Reg::R7), 42, "payload seen by the guest");
    assert_eq!(
        b.nic().unwrap().rx_depth(),
        0,
        "guest acknowledged the frame"
    );
}

#[test]
fn full_rx_ring_backpressures_and_a_guest_ack_reopens_it() {
    let src = format!(
        "
        main:
            lim #{nic},r2
            mvi #0,r3
            st r3,{rxack}(r2)
            halt
        ",
        nic = NIC_ADDR,
        rxack = regs::RX_ACK,
    );
    let mut m = machine(&src);
    m.attach_nic(1);
    for i in 0..RX_RING as u32 {
        m.nic_deliver(frame(0, 1, &[i])).unwrap();
    }
    let refused = m.nic_deliver(frame(0, 1, &[99])).unwrap_err();
    assert_eq!(refused, frame(0, 1, &[99]), "refused intact, not dropped");
    assert_eq!(m.nic().unwrap().rx_depth(), RX_RING);

    m.run().unwrap(); // the guest acks exactly one frame
    assert_eq!(m.nic().unwrap().rx_depth(), RX_RING - 1);
    m.nic_deliver(refused).unwrap();
    assert_eq!(m.nic().unwrap().rx_depth(), RX_RING);
}

#[test]
fn delivery_doorbell_mid_branch_shadow_resumes_exactly() {
    // The fabric delivers while the guest's `bne` shadow slot is still
    // pending: the doorbell interrupt dispatches mid-shadow, the handler
    // consumes the frame, and `rfe` replays the shadow through the saved
    // return chain — the interrupted loop still counts to exactly 100.
    let src = format!(
        "
        handler:
            lim #{intc},r10
            ld {status:}(r10),r11
            nop
            sub r11,#1,r11
            st r11,0(r10)
            lim #{nic},r10
            ld {rxbuf}(r10),r12
            mvi #0,r13
            st r12,@300
            st r13,{rxack}(r10)
            rfe
        main:
            rsp surprise,r1
            or r1,#4,r1
            wsp r1,surprise
            mvi #0,r4
            mvi #100,r9
        loop:
            add r4,#1,r4
            bne r4,r9,loop
            nop
            halt
        ",
        intc = INTCTRL_ADDR,
        nic = NIC_ADDR,
        status = 0,
        rxbuf = regs::RX_BUF,
        rxack = regs::RX_ACK,
    );
    let mut m = machine(&src);
    m.attach_nic(1);
    let main = m.program().symbol("main").unwrap();
    m.jump_to(main);
    // Step until a branch shadow is live inside the counting loop.
    while m.pipeline_quiescent() || m.reg(Reg::R4) < 3 {
        m.step().unwrap();
    }
    assert!(!m.pipeline_quiescent(), "a transfer shadow is pending");
    m.nic_deliver(frame(0, 1, &[77])).unwrap();
    m.run().unwrap();
    assert_eq!(m.profile().exceptions, 1, "the doorbell was accepted once");
    assert_eq!(m.mem().peek(300), 77, "the handler consumed the frame");
    assert_eq!(m.reg(Reg::R4), 100, "the interrupted loop still completed");
    assert_eq!(
        m.nic().unwrap().rx_depth(),
        0,
        "the handler acknowledged it"
    );
}

const LOOPY: &str = "
    mvi #0,r1
    mvi #10,r2
loop:
    add r1,#1,r1
    st r1,@64
    bne r1,r2,loop
    nop
    halt
";

#[test]
fn snapshot_round_trips_with_frames_in_flight_in_both_rings() {
    let mut a = machine(LOOPY);
    a.attach_nic(3);
    for _ in 0..4 {
        a.step().unwrap();
    }
    // One committed frame waiting for fabric collection...
    a.bus_write(NIC_ADDR + regs::TX_DST, 7);
    a.bus_write(NIC_ADDR + regs::TX_BUF, 0x1234);
    a.bus_write(NIC_ADDR + regs::TX_BUF + 1, 0x5678);
    a.bus_write(NIC_ADDR + regs::TX_COMMIT, 2);
    // ...and two delivered frames waiting for the guest.
    a.nic_deliver(frame(1, 3, &[5])).unwrap();
    a.nic_deliver(frame(2, 3, &[6, 7])).unwrap();

    let snap = a.snapshot();
    let bytes = snap.to_bytes();
    let decoded = mips_sim::Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(decoded, snap, "in-flight frames survive the byte codec");

    let mut b = machine(LOOPY);
    b.attach_nic(0);
    b.restore(&snap).unwrap();
    assert_eq!(b.snapshot().to_bytes(), bytes, "byte-identical re-capture");
    assert_eq!(
        b.nic_mut().unwrap().collect(),
        vec![frame(3, 7, &[0x1234, 0x5678])],
        "the committed frame re-appears on the restored node"
    );
    assert_eq!(b.nic().unwrap().rx_depth(), 2, "both deliveries restored");
    // And the trajectory continues in lock-step.
    while !a.halted() {
        a.step().unwrap();
        b.step().unwrap();
        assert_eq!(a.pc(), b.pc());
    }
    assert_eq!(a.reg(Reg::R1), b.reg(Reg::R1));
}

#[test]
fn nic_attachment_mismatch_is_a_typed_restore_error() {
    let mut with_nic = machine(LOOPY);
    with_nic.attach_nic(0);
    let snap = with_nic.snapshot();

    let mut without = machine(LOOPY);
    without.attach_int_ctrl(); // match the controller attach_nic installs
    let err = without.restore(&snap).unwrap_err();
    assert!(
        matches!(err, mips_sim::SimError::BadSnapshot { ref reason } if reason.contains("NIC")),
        "got: {err:?}"
    );

    let plain = machine(LOOPY).snapshot();
    let err = with_nic.restore(&plain).unwrap_err();
    assert!(matches!(err, mips_sim::SimError::BadSnapshot { .. }));
}
