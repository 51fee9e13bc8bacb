//! Deterministic whole-machine checkpoints: the `mips-snap/v3` format.
//!
//! A [`Snapshot`] captures the **complete architectural state** of a
//! [`Machine`] — registers, special registers, the surprise register,
//! the delayed-transfer shadow (pending branches and the in-flight
//! load), segmentation, the page map, memory contents, DMA queue,
//! interrupt-controller state, timer phase, console output, and every
//! profile counter — such that `restore(snapshot(m))` produces a
//! machine whose subsequent trajectory is lock-step identical to the
//! original on **either** engine ([`crate::Engine::Reference`] or
//! [`crate::Engine::Fast`]).
//!
//! What a snapshot deliberately does *not* capture:
//!
//! * the **program text** and its refclass sidecar — images restore
//!   onto a machine running the *same* program (a length fingerprint
//!   and a config fingerprint are checked, and a mismatch is a typed
//!   [`SimError::BadSnapshot`], never a silent divergence);
//! * **host diagnostics** — the hazard record log and an armed
//!   snapshot point are host-side observation state, not machine
//!   state;
//! * **device attachment and the console log** — which devices are
//!   attached is machine shape (a mismatch is a typed error), and the
//!   console device's word log is a host-facing record that a host
//!   rolling a run back trims itself ([`Machine::console_mut`]). The
//!   device state the guest observes (interrupt-controller pending
//!   mask, page map, the map unit's fault-address and page-select
//!   latches, DMA queue/log, NIC rings and staging buffer) is captured
//!   explicitly.
//!
//! The byte encoding ([`Snapshot::to_bytes`]) is versioned (magic
//! `mips-snap/v3`; v3 added the page-select latch after the
//! fault-address latch), little-endian, sorts every map it serializes, and
//! ends in an FNV-1a checksum — so identical machine states produce
//! identical bytes across runs, engines, and hosts, and CI can diff
//! the artifact. [`Snapshot::from_bytes`] is total: corrupted headers,
//! truncation, checksum damage, and shape mismatches all come back as
//! [`SimError::BadSnapshot`].
//!
//! Snapshots are taken at instruction boundaries. For batched
//! execution, [`Machine::arm_snapshot`] pins a boundary in advance:
//! the fast engine caps its chunks so the boundary lands exactly and
//! bails to reference steps at a due snapshot point, the same pattern
//! it uses for due timer ticks.

use crate::error::SimError;
use crate::machine::{Machine, PendingBranch, Timer};
use crate::mem::{Dma, IntCtrl};
use crate::mmu::PageMap;
use crate::nic::{Frame, Nic, NicSnap, MAX_FRAME_WORDS};
use crate::profile::Profile;
use crate::surprise::Surprise;
use mips_core::Reg;

/// Magic prefix of every serialized snapshot; doubles as the format
/// version.
pub const SNAP_MAGIC: &[u8; 12] = b"mips-snap/v3";

/// A complete architectural checkpoint of a [`Machine`]. See the
/// [module docs](self) for the capture contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) cfg_flags: u8,
    pub(crate) program_len: u32,
    pub(crate) regs: [u32; Reg::COUNT],
    pub(crate) lo: u32,
    pub(crate) pc: u32,
    pub(crate) surprise: u32,
    pub(crate) seg: [u32; 4],
    pub(crate) ret: [u32; 3],
    pub(crate) fault_addr: u32,
    pub(crate) map_select: u32,
    pub(crate) halted: bool,
    pub(crate) irq_line: bool,
    pub(crate) load_in_flight: Option<(u8, u32)>,
    pub(crate) pending: Vec<(u32, u32, bool)>,
    pub(crate) timer: Option<(u64, u32, u64)>,
    pub(crate) int_ctrl: Option<u32>,
    pub(crate) profile: Profile,
    pub(crate) mem_reads: u64,
    pub(crate) mem_writes: u64,
    pub(crate) output: Vec<u8>,
    pub(crate) dma_read_log: Vec<u32>,
    pub(crate) dma_queue: Vec<(u8, u32, u32)>,
    pub(crate) page_map: Option<Vec<(u32, u32)>>,
    pub(crate) nic: Option<NicSnap>,
    pub(crate) mem_words: Vec<(u32, u32)>,
}

impl Snapshot {
    /// Instruction count at the captured boundary.
    pub fn instructions(&self) -> u64 {
        self.profile.instructions
    }

    /// Serializes to the byte-stable `mips-snap/v3` encoding: identical
    /// snapshots always produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(256 + 8 * self.mem_words.len());
        w.extend_from_slice(SNAP_MAGIC);
        w.push(self.cfg_flags);
        put32(&mut w, self.program_len);
        for &r in &self.regs {
            put32(&mut w, r);
        }
        put32(&mut w, self.lo);
        put32(&mut w, self.pc);
        put32(&mut w, self.surprise);
        for &s in &self.seg {
            put32(&mut w, s);
        }
        for &r in &self.ret {
            put32(&mut w, r);
        }
        put32(&mut w, self.fault_addr);
        put32(&mut w, self.map_select);
        w.push(self.halted as u8);
        w.push(self.irq_line as u8);
        match self.load_in_flight {
            Some((reg, value)) => {
                w.push(1);
                w.push(reg);
                put32(&mut w, value);
            }
            None => {
                w.push(0);
                w.push(0);
                put32(&mut w, 0);
            }
        }
        w.push(self.pending.len() as u8);
        for &(slots, target, indirect) in &self.pending {
            put32(&mut w, slots);
            put32(&mut w, target);
            w.push(indirect as u8);
        }
        match self.timer {
            Some((period, device, next_fire)) => {
                w.push(1);
                put64(&mut w, period);
                put32(&mut w, device);
                put64(&mut w, next_fire);
            }
            None => {
                w.push(0);
                put64(&mut w, 0);
                put32(&mut w, 0);
                put64(&mut w, 0);
            }
        }
        match self.int_ctrl {
            Some(pending) => {
                w.push(1);
                put32(&mut w, pending);
            }
            None => {
                w.push(0);
                put32(&mut w, 0);
            }
        }
        for v in profile_words(&self.profile) {
            put64(&mut w, v);
        }
        put64(&mut w, self.mem_reads);
        put64(&mut w, self.mem_writes);
        put32(&mut w, self.output.len() as u32);
        w.extend_from_slice(&self.output);
        put32(&mut w, self.dma_read_log.len() as u32);
        for &v in &self.dma_read_log {
            put32(&mut w, v);
        }
        put32(&mut w, self.dma_queue.len() as u32);
        for &(tag, addr, value) in &self.dma_queue {
            w.push(tag);
            put32(&mut w, addr);
            put32(&mut w, value);
        }
        match &self.page_map {
            Some(pages) => {
                w.push(1);
                put32(&mut w, pages.len() as u32);
                for &(page, frame) in pages {
                    put32(&mut w, page);
                    put32(&mut w, frame);
                }
            }
            None => {
                w.push(0);
                put32(&mut w, 0);
            }
        }
        match &self.nic {
            Some(n) => {
                w.push(1);
                put32(&mut w, n.node);
                put32(&mut w, n.tx_dst);
                put32(&mut w, n.tx_err);
                for &v in &n.tx_buf {
                    put32(&mut w, v);
                }
                for ring in [&n.tx, &n.rx] {
                    put32(&mut w, ring.len() as u32);
                    for f in ring {
                        put32(&mut w, f.src);
                        put32(&mut w, f.dst);
                        put32(&mut w, f.payload.len() as u32);
                        for &v in &f.payload {
                            put32(&mut w, v);
                        }
                    }
                }
            }
            None => w.push(0),
        }
        put32(&mut w, self.mem_words.len() as u32);
        for &(addr, value) in &self.mem_words {
            put32(&mut w, addr);
            put32(&mut w, value);
        }
        let sum = fnv32(&w);
        put32(&mut w, sum);
        w
    }

    /// Decodes a `mips-snap/v3` image. Total over arbitrary bytes: a
    /// corrupted header, truncated body, damaged checksum, or trailing
    /// garbage returns [`SimError::BadSnapshot`] — never a panic.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSnapshot`] with a human-readable reason.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SimError> {
        if bytes.len() < SNAP_MAGIC.len() + 4 {
            return Err(bad("image shorter than header"));
        }
        if &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(bad("corrupted header (magic is not `mips-snap/v3`)"));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 4);
        let declared = u32::from_le_bytes(sum_bytes.try_into().unwrap());
        if fnv32(body) != declared {
            return Err(bad("checksum mismatch (image is corrupted)"));
        }
        let mut r = Reader {
            bytes: body,
            at: SNAP_MAGIC.len(),
        };
        let cfg_flags = r.u8()?;
        let program_len = r.u32()?;
        let mut regs = [0u32; Reg::COUNT];
        for slot in &mut regs {
            *slot = r.u32()?;
        }
        let lo = r.u32()?;
        let pc = r.u32()?;
        let surprise = r.u32()?;
        let mut seg = [0u32; 4];
        for slot in &mut seg {
            *slot = r.u32()?;
        }
        let mut ret = [0u32; 3];
        for slot in &mut ret {
            *slot = r.u32()?;
        }
        let fault_addr = r.u32()?;
        let map_select = r.u32()?;
        let halted = r.flag()?;
        let irq_line = r.flag()?;
        let load_present = r.flag()?;
        let load_reg = r.u8()?;
        let load_value = r.u32()?;
        let load_in_flight = load_present.then_some((load_reg, load_value));
        if load_present && Reg::from_index(load_reg as usize).is_none() {
            return Err(bad("in-flight load names a register out of range"));
        }
        let npending = r.u8()? as usize;
        if npending > 2 {
            return Err(bad("more than two pending transfers"));
        }
        let mut pending = Vec::with_capacity(npending);
        for _ in 0..npending {
            let slots = r.u32()?;
            let target = r.u32()?;
            let indirect = r.flag()?;
            if slots == 0 {
                return Err(bad("pending transfer with zero delay slots"));
            }
            pending.push((slots, target, indirect));
        }
        let timer_present = r.flag()?;
        let timer = (r.u64()?, r.u32()?, r.u64()?);
        let timer = timer_present.then_some(timer);
        let ctrl_present = r.flag()?;
        let ctrl_pending = r.u32()?;
        let int_ctrl = ctrl_present.then_some(ctrl_pending);
        let mut pw = [0u64; PROFILE_WORDS];
        for slot in &mut pw {
            *slot = r.u64()?;
        }
        let profile = profile_from_words(&pw);
        let mem_reads = r.u64()?;
        let mem_writes = r.u64()?;
        let output = r.blob()?;
        let dma_read_log = r.u32_list()?;
        let ndma = r.len32()?;
        let mut dma_queue = Vec::with_capacity(ndma);
        for _ in 0..ndma {
            let tag = r.u8()?;
            if tag > 1 {
                return Err(bad("unknown DMA transfer tag"));
            }
            dma_queue.push((tag, r.u32()?, r.u32()?));
        }
        let map_present = r.flag()?;
        let npages = r.len32()?;
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            pages.push((r.u32()?, r.u32()?));
        }
        let page_map = map_present.then_some(pages);
        let nic = if r.flag()? {
            let node = r.u32()?;
            let tx_dst = r.u32()?;
            let tx_err = r.u32()?;
            let mut tx_buf = [0u32; MAX_FRAME_WORDS];
            for slot in &mut tx_buf {
                *slot = r.u32()?;
            }
            let mut rings = [Vec::new(), Vec::new()];
            for ring in &mut rings {
                let n = r.len32()?;
                for _ in 0..n {
                    let src = r.u32()?;
                    let dst = r.u32()?;
                    let plen = r.len32()?;
                    if plen == 0 || plen > MAX_FRAME_WORDS {
                        return Err(bad("NIC frame payload length out of range"));
                    }
                    let mut payload = Vec::with_capacity(plen);
                    for _ in 0..plen {
                        payload.push(r.u32()?);
                    }
                    ring.push(Frame { src, dst, payload });
                }
            }
            let [tx, rx] = rings;
            Some(NicSnap {
                node,
                tx_dst,
                tx_err,
                tx_buf,
                tx,
                rx,
            })
        } else {
            None
        };
        let nwords = r.len32()?;
        let mut mem_words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            mem_words.push((r.u32()?, r.u32()?));
        }
        if r.at != r.bytes.len() {
            return Err(bad("trailing bytes after the captured state"));
        }
        Ok(Snapshot {
            cfg_flags,
            program_len,
            regs,
            lo,
            pc,
            surprise,
            seg,
            ret,
            fault_addr,
            map_select,
            halted,
            irq_line,
            load_in_flight,
            pending,
            timer,
            int_ctrl,
            profile,
            mem_reads,
            mem_writes,
            output,
            dma_read_log,
            dma_queue,
            page_map,
            nic,
            mem_words,
        })
    }
}

impl Machine {
    /// Captures a [`Snapshot`] of the complete architectural state at
    /// the current instruction boundary. Pure observation: the machine
    /// is not perturbed, and capturing the same state twice yields
    /// byte-identical serializations.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cfg_flags: (self.cfg.byte_addressed as u8) | ((self.cfg.native_traps as u8) << 1),
            program_len: self.program.instrs().len() as u32,
            regs: self.regs,
            lo: self.lo,
            pc: self.pc,
            surprise: self.surprise.raw(),
            seg: [
                self.seg.pid,
                self.seg.pid_bits,
                self.seg.low_limit,
                self.seg.high_base,
            ],
            ret: self.ret,
            fault_addr: self.fault_addr,
            map_select: self.map_select,
            halted: self.halted,
            irq_line: self.irq_line,
            load_in_flight: self.load_in_flight.map(|(r, v)| (r.index() as u8, v)),
            pending: self
                .pending
                .entries()
                .iter()
                .map(|b| (b.slots, b.target, b.indirect))
                .collect(),
            timer: self.timer.map(|t| (t.period, t.device, t.next_fire)),
            int_ctrl: self.int_ctrl.as_ref().map(IntCtrl::pending_raw),
            profile: self.profile.clone(),
            mem_reads: self.mem.reads,
            mem_writes: self.mem.writes,
            output: self.output.clone(),
            dma_read_log: self.mem.dma_read_log().to_vec(),
            dma_queue: self
                .mem
                .dma_queue_entries()
                .into_iter()
                .map(|d| match d {
                    Dma::Write { addr, value } => (0u8, addr, value),
                    Dma::Read { addr } => (1u8, addr, 0),
                })
                .collect(),
            page_map: self.page_map.as_ref().map(PageMap::resident_pages),
            nic: self.nic.as_ref().map(Nic::snap_state),
            mem_words: self.mem.snapshot(),
        }
    }

    /// Convenience: [`Machine::snapshot`] straight to `mips-snap/v3`
    /// bytes.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot().to_bytes()
    }

    /// Restores the machine to the captured state. The machine must be
    /// running the same program the snapshot was taken from and have
    /// the same attachments (page map, interrupt controller) — shape
    /// mismatches are typed errors and leave the machine **unmodified**.
    /// After a successful restore, the subsequent trajectory is
    /// lock-step identical to the original's on either engine.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSnapshot`] when the image does not fit this
    /// machine.
    pub fn restore(&mut self, s: &Snapshot) -> Result<(), SimError> {
        let my_flags = (self.cfg.byte_addressed as u8) | ((self.cfg.native_traps as u8) << 1);
        if s.cfg_flags != my_flags {
            return Err(bad("machine configuration differs from the captured one"));
        }
        if s.program_len != self.program.instrs().len() as u32 {
            return Err(bad("program length differs from the captured one"));
        }
        if s.int_ctrl.is_some() != self.int_ctrl.is_some() {
            return Err(bad("interrupt-controller attachment differs"));
        }
        if s.page_map.is_some() != self.page_map.is_some() {
            return Err(bad("page-map attachment differs"));
        }
        if s.nic.is_some() != self.nic.is_some() {
            return Err(bad("NIC attachment differs"));
        }
        let load_in_flight = match s.load_in_flight {
            Some((r, v)) => match Reg::from_index(r as usize) {
                Some(reg) => Some((reg, v)),
                None => return Err(bad("in-flight load names a register out of range")),
            },
            None => None,
        };
        // All checks passed: from here on every write must land.
        self.regs = s.regs;
        self.lo = s.lo;
        self.pc = s.pc;
        self.surprise = Surprise::from_raw(s.surprise);
        self.seg.pid = s.seg[0];
        self.seg.pid_bits = s.seg[1];
        self.seg.low_limit = s.seg[2];
        self.seg.high_base = s.seg[3];
        self.ret = s.ret;
        self.fault_addr = s.fault_addr;
        self.map_select = s.map_select;
        self.halted = s.halted;
        self.irq_line = s.irq_line;
        self.load_in_flight = load_in_flight;
        self.pending.clear();
        for &(slots, target, indirect) in &s.pending {
            self.pending.push(PendingBranch {
                slots,
                target,
                indirect,
            });
        }
        self.timer = s.timer.map(|(period, device, next_fire)| Timer {
            period,
            device,
            next_fire,
        });
        if let (Some(ctrl), Some(pending)) = (&mut self.int_ctrl, s.int_ctrl) {
            ctrl.set_pending_raw(pending);
        }
        self.profile = s.profile.clone();
        self.output = s.output.clone();
        self.mem.clear_ram();
        for &(addr, value) in &s.mem_words {
            self.mem.poke(addr, value);
        }
        self.mem.reads = s.mem_reads;
        self.mem.writes = s.mem_writes;
        self.mem.restore_dma(
            s.dma_queue
                .iter()
                .map(|&(tag, addr, value)| match tag {
                    0 => Dma::Write { addr, value },
                    _ => Dma::Read { addr },
                })
                .collect(),
            s.dma_read_log.clone(),
        );
        if let (Some(pm), Some(pages)) = (&mut self.page_map, &s.page_map) {
            pm.clear();
            for &(page, frame) in pages {
                pm.map(page, frame);
            }
        }
        if let (Some(nic), Some(state)) = (&mut self.nic, &s.nic) {
            nic.restore_state(state);
        }
        Ok(())
    }

    /// Convenience: decode + [`Machine::restore`] in one call.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSnapshot`] on a corrupted image or a shape
    /// mismatch.
    pub fn restore_from_bytes(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        self.restore(&Snapshot::from_bytes(bytes)?)
    }
}

fn bad(reason: &str) -> SimError {
    SimError::BadSnapshot {
        reason: reason.to_string(),
    }
}

fn put32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// 32-bit FNV-1a over the serialized body.
fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Number of `u64` words a [`Profile`] flattens to.
const PROFILE_WORDS: usize = 23;

/// Flattens every profile counter in a fixed, documented order. A new
/// counter must bump the format version.
fn profile_words(p: &Profile) -> [u64; PROFILE_WORDS] {
    [
        p.instructions,
        p.nops,
        p.packed,
        p.mem_cycles_used,
        p.mem_cycles_free,
        p.dma_serviced,
        p.loads,
        p.stores,
        p.word_data.loads,
        p.word_data.stores,
        p.char_word.loads,
        p.char_word.stores,
        p.char_byte.loads,
        p.char_byte.stores,
        p.other_byte.loads,
        p.other_byte.stores,
        p.unclassified.loads,
        p.unclassified.stores,
        p.branches,
        p.branches_taken,
        p.traps,
        p.exceptions,
        p.long_immediates,
    ]
}

#[allow(clippy::field_reassign_with_default)] // mirrors profile_words' flat order
fn profile_from_words(w: &[u64; PROFILE_WORDS]) -> Profile {
    let mut p = Profile::default();
    p.instructions = w[0];
    p.nops = w[1];
    p.packed = w[2];
    p.mem_cycles_used = w[3];
    p.mem_cycles_free = w[4];
    p.dma_serviced = w[5];
    p.loads = w[6];
    p.stores = w[7];
    p.word_data.loads = w[8];
    p.word_data.stores = w[9];
    p.char_word.loads = w[10];
    p.char_word.stores = w[11];
    p.char_byte.loads = w[12];
    p.char_byte.stores = w[13];
    p.other_byte.loads = w[14];
    p.other_byte.stores = w[15];
    p.unclassified.loads = w[16];
    p.unclassified.stores = w[17];
    p.branches = w[18];
    p.branches_taken = w[19];
    p.traps = w[20];
    p.exceptions = w[21];
    p.long_immediates = w[22];
    p
}

/// Little-endian reader whose every access is bounds-checked; any
/// overrun is a typed truncation error.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SimError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(SimError::BadSnapshot {
                reason: format!("truncated at byte {}", self.at),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    fn flag(&mut self) -> Result<bool, SimError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("flag byte is neither 0 nor 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix, sanity-capped by the bytes actually remaining
    /// so a hostile length cannot drive a huge allocation.
    fn len32(&mut self) -> Result<usize, SimError> {
        let n = self.u32()? as usize;
        if n > self.bytes.len() - self.at {
            return Err(bad("length prefix exceeds the image size"));
        }
        Ok(n)
    }

    fn blob(&mut self) -> Result<Vec<u8>, SimError> {
        let n = self.len32()?;
        Ok(self.take(n)?.to_vec())
    }

    fn u32_list(&mut self) -> Result<Vec<u32>, SimError> {
        let n = self.len32()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_asm::assemble;

    fn machine(src: &str) -> Machine {
        let program = assemble(src).expect("assembles");
        Machine::new(program)
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
    fn round_trip_preserves_trajectory() {
        let mut a = machine(LOOPY);
        for _ in 0..7 {
            a.step().unwrap();
        }
        let snap = a.snapshot();
        let mut b = machine(LOOPY);
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot(), snap, "restore must reproduce the capture");
        for _ in 0..20 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra, rb);
            assert_eq!(a.snapshot(), b.snapshot());
            if a.halted() {
                break;
            }
        }
    }

    #[test]
    fn bytes_are_stable_and_round_trip() {
        let mut m = machine(LOOPY);
        for _ in 0..5 {
            m.step().unwrap();
        }
        let snap = m.snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(bytes, snap.to_bytes(), "serialization must be pure");
        assert_eq!(&bytes[..12], SNAP_MAGIC);
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn corrupted_header_is_a_typed_error() {
        let m = machine(LOOPY);
        let mut bytes = m.snapshot_bytes();
        bytes[0] = b'X';
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SimError::BadSnapshot { ref reason } if reason.contains("header")));
        // And through the restore path too.
        let mut n = machine(LOOPY);
        assert!(matches!(
            n.restore_from_bytes(&bytes),
            Err(SimError::BadSnapshot { .. })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let m = machine(LOOPY);
        let bytes = m.snapshot_bytes();
        for cut in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SimError::BadSnapshot { .. }),
                "cut at {cut} must be typed"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let m = machine(LOOPY);
        let mut bytes = m.snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, SimError::BadSnapshot { ref reason } if reason.contains("checksum")),
            "got: {err}"
        );
    }

    #[test]
    fn shape_mismatches_are_typed_and_leave_machine_unmodified() {
        let mut m = machine(LOOPY);
        m.step().unwrap();
        let snap = m.snapshot();
        let mut other = machine("mvi #1,r1\nhalt");
        let before = other.snapshot();
        let err = other.restore(&snap).unwrap_err();
        assert!(matches!(err, SimError::BadSnapshot { ref reason } if reason.contains("program")));
        assert_eq!(other.snapshot(), before, "failed restore must not write");
    }

    #[test]
    fn captures_mid_shadow_state_exactly() {
        // Step until a branch shadow is live, snapshot there, and check
        // the restored machine resolves the branch identically.
        let mut a = machine(LOOPY);
        while a.pipeline_quiescent() {
            a.step().unwrap();
        }
        assert!(!a.pipeline_quiescent());
        let snap = a.snapshot();
        assert!(!snap.pending.is_empty() || snap.load_in_flight.is_some());
        let mut b = machine(LOOPY);
        b.restore(&snap).unwrap();
        while !a.halted() {
            a.step().unwrap();
            b.step().unwrap();
            assert_eq!(a.pc(), b.pc());
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
