//! The network interface: a framed packet device on the MMIO bus.
//!
//! The NIC is the guest-visible half of the deterministic cluster
//! fabric (`mips-net`). It is deliberately dumb — two bounded rings
//! and a staging buffer — so that *every* interesting behaviour
//! (latency, ordering, loss, partitions) lives in the host fabric
//! where it is a pure function of `(topology, seed)`:
//!
//! * **TX path** — the guest latches a destination in `TX_DST`,
//!   writes up to [`MAX_FRAME_WORDS`] payload words into the TX
//!   buffer window, then writes the payload length to `TX_COMMIT`.
//!   A committed frame moves into the bounded TX ring, where the
//!   fabric collects it at the next exchange. A commit against a
//!   full ring is **refused** (nothing is silently dropped): the
//!   sticky `TX_ERR` count increments and the frame stays un-sent —
//!   the guest sees `TX_READY` clear in `STATUS` and retries.
//! * **RX path** — the fabric delivers frames into the bounded RX
//!   ring with [`Machine::nic_deliver`](crate::Machine::nic_deliver). A delivery against a full ring is
//!   refused back to the fabric (`deliver` returns the frame), which
//!   **retains** it for a later exchange — backpressure, never a
//!   silent drop. The head frame is visible through `RX_LEN` /
//!   `RX_SRC` and the RX buffer window; writing `RX_ACK` pops it.
//! * **Interrupts** — each accepted delivery raises
//!   [`NIC_DEVICE`](crate::machine::NIC_DEVICE) on the machine's
//!   interrupt controller (when one is attached), level-triggered
//!   and sticky until software acknowledges it through the
//!   controller port — the same doorbell discipline as the timer.
//!
//! All NIC state (rings, staging buffer, latches, sticky error
//! count) is architectural and round-trips through `mips-snap`
//! images, so a supervisor can checkpoint and restore a node with
//! frames in flight.

use std::collections::VecDeque;

/// Maximum payload words per frame.
pub const MAX_FRAME_WORDS: usize = 16;
/// TX ring capacity (committed frames awaiting fabric collection).
pub const TX_RING: usize = 8;
/// RX ring capacity (delivered frames awaiting guest consumption).
pub const RX_RING: usize = 8;

/// Word offsets of the NIC registers within its MMIO window.
pub mod regs {
    /// (ro) bit 0: RX frame available; bit 1: TX ring has space.
    pub const STATUS: u32 = 0;
    /// (ro) this node's fabric address.
    pub const NODE: u32 = 1;
    /// (rw) latched destination node for the next commit.
    pub const TX_DST: u32 = 2;
    /// (wo) commit `value` staged words as one frame; (ro) free TX slots.
    pub const TX_COMMIT: u32 = 3;
    /// (ro) payload length of the head RX frame (0 when empty).
    pub const RX_LEN: u32 = 4;
    /// (ro) source node of the head RX frame (`!0` when empty).
    pub const RX_SRC: u32 = 5;
    /// (wo) pop the head RX frame; (ro) RX ring depth.
    pub const RX_ACK: u32 = 6;
    /// (ro) sticky count of refused TX commits; write clears.
    pub const TX_ERR: u32 = 7;
    /// (rw) base of the 16-word TX staging window.
    pub const TX_BUF: u32 = 16;
    /// (ro) base of the 16-word RX head-frame window.
    pub const RX_BUF: u32 = 32;
}

/// Words in the NIC MMIO window (registers + both buffer windows).
pub const NIC_WINDOW: u32 = 48;

/// One framed packet on the fabric: source node, destination node,
/// and 1..=[`MAX_FRAME_WORDS`] payload words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub src: u32,
    pub dst: u32,
    pub payload: Vec<u32>,
}

/// NIC device state, owned by the [`Machine`](crate::Machine) it is
/// attached to; see the [module docs](self) for the
/// TX/RX/backpressure contract.
#[derive(Debug)]
pub struct Nic {
    node: u32,
    tx: VecDeque<Frame>,
    rx: VecDeque<Frame>,
    tx_dst: u32,
    tx_buf: [u32; MAX_FRAME_WORDS],
    tx_err: u32,
}

impl Nic {
    /// Creates a NIC for fabric address `node`.
    pub(crate) fn new(node: u32) -> Nic {
        Nic {
            node,
            tx: VecDeque::new(),
            rx: VecDeque::new(),
            tx_dst: 0,
            tx_buf: [0; MAX_FRAME_WORDS],
            tx_err: 0,
        }
    }

    /// This NIC's fabric address.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Frames committed by the guest and not yet collected.
    pub fn tx_depth(&self) -> usize {
        self.tx.len()
    }

    /// Frames delivered and not yet consumed.
    pub fn rx_depth(&self) -> usize {
        self.rx.len()
    }

    /// Sticky count of refused TX commits.
    pub fn tx_err(&self) -> u32 {
        self.tx_err
    }

    /// Drains every committed frame, in commit order. The fabric calls
    /// this once per exchange.
    pub fn collect(&mut self) -> Vec<Frame> {
        self.tx.drain(..).collect()
    }

    /// Delivers a frame into the RX ring; a full ring hands it back.
    /// The machine raises the doorbell ([`crate::Machine::nic_deliver`]).
    pub(crate) fn deliver(&mut self, frame: Frame) -> Result<(), Frame> {
        if self.rx.len() >= RX_RING {
            return Err(frame);
        }
        self.rx.push_back(frame);
        Ok(())
    }

    fn status(&self) -> u32 {
        let rx_avail = !self.rx.is_empty() as u32;
        let tx_ready = ((self.tx.len() < TX_RING) as u32) << 1;
        rx_avail | tx_ready
    }

    fn commit(&mut self, len: u32) {
        let len = len as usize;
        if len == 0 || len > MAX_FRAME_WORDS || self.tx.len() >= TX_RING {
            self.tx_err = self.tx_err.wrapping_add(1);
            return;
        }
        self.tx.push_back(Frame {
            src: self.node,
            dst: self.tx_dst,
            payload: self.tx_buf[..len].to_vec(),
        });
    }

    /// Reads the register at window offset `off`.
    pub(crate) fn read(&self, off: u32) -> u32 {
        match off {
            regs::STATUS => self.status(),
            regs::NODE => self.node,
            regs::TX_DST => self.tx_dst,
            regs::TX_COMMIT => (TX_RING - self.tx.len()) as u32,
            regs::RX_LEN => self.rx.front().map_or(0, |f| f.payload.len() as u32),
            regs::RX_SRC => self.rx.front().map_or(!0, |f| f.src),
            regs::RX_ACK => self.rx.len() as u32,
            regs::TX_ERR => self.tx_err,
            o if (regs::TX_BUF..regs::TX_BUF + MAX_FRAME_WORDS as u32).contains(&o) => {
                self.tx_buf[(o - regs::TX_BUF) as usize]
            }
            o if (regs::RX_BUF..regs::RX_BUF + MAX_FRAME_WORDS as u32).contains(&o) => self
                .rx
                .front()
                .and_then(|f| f.payload.get((o - regs::RX_BUF) as usize).copied())
                .unwrap_or(0),
            _ => 0,
        }
    }

    /// Writes the register at window offset `off`.
    pub(crate) fn write(&mut self, off: u32, value: u32) {
        match off {
            regs::TX_DST => self.tx_dst = value,
            regs::TX_COMMIT => self.commit(value),
            regs::RX_ACK => {
                self.rx.pop_front();
            }
            regs::TX_ERR => self.tx_err = 0,
            o if (regs::TX_BUF..regs::TX_BUF + MAX_FRAME_WORDS as u32).contains(&o) => {
                self.tx_buf[(o - regs::TX_BUF) as usize] = value;
            }
            _ => {}
        }
    }

    /// Captured state for `mips-snap` images, in a fixed order.
    pub(crate) fn snap_state(&self) -> NicSnap {
        NicSnap {
            node: self.node,
            tx_dst: self.tx_dst,
            tx_err: self.tx_err,
            tx_buf: self.tx_buf,
            tx: self.tx.iter().cloned().collect(),
            rx: self.rx.iter().cloned().collect(),
        }
    }

    /// Restores captured state (rings, staging buffer, latches).
    pub(crate) fn restore_state(&mut self, s: &NicSnap) {
        self.node = s.node;
        self.tx_dst = s.tx_dst;
        self.tx_err = s.tx_err;
        self.tx_buf = s.tx_buf;
        self.tx = s.tx.iter().cloned().collect();
        self.rx = s.rx.iter().cloned().collect();
    }
}

/// The NIC's restorable state as captured into snapshots.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NicSnap {
    pub(crate) node: u32,
    pub(crate) tx_dst: u32,
    pub(crate) tx_err: u32,
    pub(crate) tx_buf: [u32; MAX_FRAME_WORDS],
    pub(crate) tx: Vec<Frame>,
    pub(crate) rx: Vec<Frame>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: u32, dst: u32, words: &[u32]) -> Frame {
        Frame {
            src,
            dst,
            payload: words.to_vec(),
        }
    }

    #[test]
    fn commit_builds_frames_from_the_staging_window() {
        let mut n = Nic::new(3);
        n.write(regs::TX_DST, 7);
        n.write(regs::TX_BUF, 0xAA);
        n.write(regs::TX_BUF + 1, 0xBB);
        n.write(regs::TX_COMMIT, 2);
        assert_eq!(n.collect(), vec![frame(3, 7, &[0xAA, 0xBB])]);
        assert!(n.collect().is_empty(), "collect drains");
    }

    #[test]
    fn full_tx_ring_refuses_and_counts_sticky() {
        let mut n = Nic::new(0);
        n.write(regs::TX_BUF, 1);
        for _ in 0..TX_RING {
            n.write(regs::TX_COMMIT, 1);
        }
        assert_eq!(n.read(regs::STATUS) & 2, 0, "TX_READY clear when full");
        n.write(regs::TX_COMMIT, 1);
        assert_eq!(n.read(regs::TX_ERR), 1);
        assert_eq!(n.tx_depth(), TX_RING, "refused commit adds nothing");
        n.write(regs::TX_ERR, 0);
        assert_eq!(n.read(regs::TX_ERR), 0, "sticky count clears on write");
    }

    #[test]
    fn zero_and_oversize_commits_are_refused() {
        let mut n = Nic::new(0);
        n.write(regs::TX_COMMIT, 0);
        n.write(regs::TX_COMMIT, MAX_FRAME_WORDS as u32 + 1);
        assert_eq!(n.tx_err(), 2);
        assert_eq!(n.tx_depth(), 0);
    }

    #[test]
    fn delivery_backpressures_instead_of_dropping() {
        let mut n = Nic::new(1);
        for i in 0..RX_RING as u32 {
            assert!(n.deliver(frame(0, 1, &[i])).is_ok());
        }
        let refused = n.deliver(frame(0, 1, &[99])).unwrap_err();
        assert_eq!(refused, frame(0, 1, &[99]), "frame comes back intact");
        assert_eq!(n.rx_depth(), RX_RING);
        // Pop one and the refused frame fits again.
        n.write(regs::RX_ACK, 0);
        assert!(n.deliver(refused).is_ok());
    }

    #[test]
    fn rx_head_is_readable_then_acked() {
        let mut n = Nic::new(1);
        n.deliver(frame(5, 1, &[10, 20])).unwrap();
        n.deliver(frame(6, 1, &[30])).unwrap();
        assert_eq!(n.read(regs::RX_LEN), 2);
        assert_eq!(n.read(regs::RX_SRC), 5);
        assert_eq!(n.read(regs::RX_BUF), 10);
        assert_eq!(n.read(regs::RX_BUF + 1), 20);
        assert_eq!(n.read(regs::RX_BUF + 2), 0, "past payload reads zero");
        n.write(regs::RX_ACK, 0);
        assert_eq!(n.read(regs::RX_SRC), 6);
        assert_eq!(n.read(regs::RX_LEN), 1);
        n.write(regs::RX_ACK, 0);
        assert_eq!(n.read(regs::RX_LEN), 0);
        assert_eq!(n.read(regs::RX_SRC), !0);
    }

    #[test]
    fn snap_state_round_trips() {
        let mut n = Nic::new(4);
        n.write(regs::TX_DST, 9);
        n.write(regs::TX_BUF, 0x11);
        n.write(regs::TX_COMMIT, 1);
        n.deliver(frame(2, 4, &[7, 8])).unwrap();
        let snap = n.snap_state();
        let mut o = Nic::new(0);
        o.restore_state(&snap);
        assert_eq!(o.snap_state(), snap);
        assert_eq!(o.collect(), vec![frame(4, 9, &[0x11])]);
        assert_eq!(o.read(regs::RX_SRC), 2);
    }
}
