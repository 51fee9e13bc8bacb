//! The host fast path: a predecoded, chunked execution engine.
//!
//! The paper's discipline — make the frequent case cheap, fall back to
//! software for the rare one — applied to the simulator itself. The
//! reference interpreter ([`Machine::step`]) re-decodes the [`Instr`]
//! tree, samples the timer and the interrupt line, and consults the
//! hazard checkers on **every** instruction. The fast engine instead:
//!
//! * **predecodes** the program once into a dense array of
//!   execute-ready ops with branch targets resolved, the packed ALU
//!   piece inlined, and the per-pc [`RefClass`] sidecar baked in;
//! * **hoists the boundary sample**: the next armed event (timer tick,
//!   step limit, caller budget) bounds a chunk, and the in-chunk loop
//!   executes with no timer, interrupt, or limit checks at all;
//! * uses **fixed scratch** — the in-flight load, the two-slot pending
//!   branch set, and direct profile-counter increments; nothing
//!   allocates per instruction.
//!
//! On top of the chunked loop sit the verifier's **block
//! certificates** ([`mips_verify::dataflow::cert`]): a static proof
//! that a straight-line block cannot fault, overflow-trap, or touch a
//! device, given a short list of preconditions re-checked against the
//! live register file at block entry. Certified blocks execute with the
//! per-instruction bailout tests removed entirely
//! (`Machine::run_cert_block`); everything observable — registers,
//! memory, profile counters, the load-shadow commit order — is
//! replicated bit for bit, and the elision is visible only through the
//! host-side [`Machine::cert_elided`] statistic.
//!
//! Every burst enters through one function, [`Machine::run_fenced`]:
//! it runs chunks while the pc stays inside a caller-chosen window
//! `[lo, hi)`, tested in the hot loop with a single wrapping compare.
//! A certified block that would run past `hi` is refused, so a burst
//! never executes an instruction fetched outside its window. The OS
//! runtime fences user bursts at the kernel-text boundary and kernel
//! bursts at the edges of one cost section, which keeps its per-section
//! attribution exact with one add per burst.
//!
//! Anything outside the common case **stops the burst** *before*
//! performing any side effect, so the caller's one `step()` replays the
//! instruction with full fidelity and the trajectory is bit-identical
//! to a pure reference run. The fast engine itself never steps the
//! reference interpreter and never dispatches an exception. Stop
//! triggers:
//!
//! * slow opcodes: `trap`, the special-register file, `rfe`, `halt`,
//!   unresolved (unlinked) targets;
//! * any exception-raising condition: translation fault, misalignment,
//!   byte access on the word machine, ALU overflow with the trap
//!   enabled, a runaway pc;
//! * any access that lands in a device window (MMIO has side effects);
//! * a pc outside the window;
//! * whole-run fallbacks, under which `run_fenced` returns 0 without
//!   executing anything: the [`Engine::Reference`] engine,
//!   [`crate::MachineConfig::check_hazards`] (hazard recording is
//!   per-step by definition), pending DMA transfers, a timer tick due
//!   at the current boundary, a due snapshot point, the step limit
//!   reached, and a pending interrupt with interrupts enabled.
//!
//! The conformance contract — identical registers, memory, output,
//! profile counters, and [`SimError`]s at every instruction-count
//! observation point — is enforced by the differential lock-step suite
//! (`tests/fast_conformance.rs`, `tests/chunk_edges.rs`, and the os-
//! and chaos-level suites).

use crate::error::SimError;
use crate::machine::{Machine, PendingBranch};
use mips_core::delay::{BRANCH_DELAY, INDIRECT_DELAY};
use mips_core::word::{extract_byte, insert_byte};
use mips_core::{
    AluPiece, Cond, Instr, MemMode, MemPiece, Operand, Program, RefClass, Reg, Width, MEM_WORDS,
};
use std::sync::Arc;

/// Which execution engine drives [`Machine::run`] and the batched
/// entry points. The per-step [`Machine::step`] is always the
/// reference interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The per-step reference interpreter: full fidelity, hooks and
    /// hazard recording at every instruction boundary.
    #[default]
    Reference,
    /// The predecoded chunked loop; falls back to the reference
    /// interpreter wherever fidelity demands it.
    Fast,
}

/// Upper bound on instructions per chunk; boundary work (timer fire,
/// interrupt sample, budget arithmetic) is amortized over this many
/// instructions in the best case.
const FAST_CHUNK: u64 = 1 << 16;

/// One predecoded instruction. Everything the hot loop needs is inline:
/// resolved targets, the packed ALU piece, the refclass sidecar entry.
#[derive(Debug, Clone, Copy)]
enum FastOp {
    /// Needs the reference interpreter (trap/special/rfe/halt/unlinked).
    Slow,
    Nop,
    Alu(AluPiece),
    LoadImm {
        value: u32,
        dst: Reg,
    },
    Load {
        mode: MemMode,
        dst: Reg,
        width: Width,
        alu: Option<AluPiece>,
        refclass: Option<RefClass>,
    },
    Store {
        mode: MemMode,
        src: Reg,
        width: Width,
        alu: Option<AluPiece>,
        refclass: Option<RefClass>,
    },
    SetCond {
        cond: Cond,
        a: Operand,
        b: Operand,
        dst: Reg,
    },
    Mvi {
        imm: u8,
        dst: Reg,
    },
    CmpBranch {
        cond: Cond,
        a: Operand,
        b: Operand,
        target: u32,
    },
    Jump {
        target: u32,
    },
    Call {
        target: u32,
        link: Reg,
    },
    JumpInd {
        base: Reg,
        disp: i32,
    },
    Lea {
        addr: u32,
        dst: Reg,
    },
}

/// An entry-relative address window a certificate must check at block
/// entry: every certified reference through `reg` lands in
/// `[entry(reg) + dmin, entry(reg) + dmax]`, evaluated in 64-bit
/// arithmetic (see [`mips_verify::dataflow::cert`] for the soundness
/// argument).
#[derive(Debug, Clone, Copy)]
struct FastWindow {
    reg: Reg,
    dmin: i64,
    dmax: i64,
}

/// A predecoded block certificate: the runtime-checkable preconditions
/// of a [`mips_verify::BlockCert`], flattened for the gate.
#[derive(Debug)]
struct FastCert {
    /// Instructions covered, starting at the pc this cert is indexed by.
    len: u32,
    /// Block contains an overflow-capable ALU op: certified only while
    /// the overflow trap is disabled.
    can_ovf: bool,
    /// Block references data memory: certified only on the word machine
    /// with mapping off, and only when every address check passes.
    has_mem: bool,
    /// Highest constant physical address referenced (pre-masked exactly
    /// as the unmapped `translate` masks); 0 when there are none, which
    /// passes the device-floor comparison vacuously.
    const_hi: u32,
    /// Entry-relative windows, one per anchoring register.
    windows: Box<[FastWindow]>,
}

/// The predecoded image of a [`Program`] plus its refclass sidecar and
/// the block certificates proved by `mips-verify`.
#[derive(Debug)]
pub struct FastProgram {
    ops: Vec<FastOp>,
    /// Certificates, referenced by `cert_index`.
    certs: Vec<FastCert>,
    /// Per-pc certificate handle: `index + 1` into `certs` for a block
    /// starting at that pc, 0 for none.
    cert_index: Vec<u32>,
}

impl FastProgram {
    /// Predecodes `program`; instructions the fast loop cannot execute
    /// exactly become [`FastOp::Slow`]. Block certificates from the
    /// verifier are attached to their start pcs; as a defensive measure
    /// the decoder re-checks that every covered op is one the certified
    /// executor handles, so a drifting analysis can only lose speed,
    /// never soundness.
    pub(crate) fn predecode(program: &Program, refclass: &[Option<RefClass>]) -> FastProgram {
        let ops: Vec<FastOp> = program
            .instrs()
            .iter()
            .enumerate()
            .map(|(pc, ins)| Self::decode_one(ins, refclass.get(pc).copied().flatten()))
            .collect();
        let mut certs = Vec::new();
        let mut cert_index = vec![0u32; ops.len()];
        for c in mips_verify::certify(program) {
            let start = c.start as usize;
            let end = start + c.len as usize;
            if end > ops.len() || !ops[start..end].iter().all(Self::cert_op_ok) {
                continue;
            }
            cert_index[start] = certs.len() as u32 + 1;
            certs.push(FastCert {
                len: c.len,
                can_ovf: c.can_ovf,
                has_mem: c.has_mem,
                const_hi: c.const_hi.unwrap_or(0),
                windows: c
                    .windows
                    .iter()
                    .map(|w| FastWindow {
                        reg: w.reg,
                        dmin: w.dmin,
                        dmax: w.dmax,
                    })
                    .collect(),
            });
        }
        FastProgram {
            ops,
            certs,
            cert_index,
        }
    }

    /// The ops the certified executor ([`Machine::run_cert_block`]) can
    /// run without bailout tests.
    fn cert_op_ok(op: &FastOp) -> bool {
        match *op {
            FastOp::Nop
            | FastOp::Alu(_)
            | FastOp::LoadImm { .. }
            | FastOp::SetCond { .. }
            | FastOp::Mvi { .. }
            | FastOp::Lea { .. } => true,
            FastOp::Load { mode, width, .. } | FastOp::Store { mode, width, .. } => {
                width == Width::Word && matches!(mode, MemMode::Absolute(_) | MemMode::Based { .. })
            }
            FastOp::Slow
            | FastOp::CmpBranch { .. }
            | FastOp::Jump { .. }
            | FastOp::Call { .. }
            | FastOp::JumpInd { .. } => false,
        }
    }

    /// The certificate for a block starting exactly at `pc`, if any.
    #[inline(always)]
    fn cert_at(&self, pc: u32) -> Option<&FastCert> {
        match self.cert_index.get(pc as usize) {
            Some(&i) if i != 0 => Some(&self.certs[i as usize - 1]),
            _ => None,
        }
    }

    fn decode_one(ins: &Instr, refclass: Option<RefClass>) -> FastOp {
        match *ins {
            Instr::Op {
                alu: None,
                mem: None,
            } => FastOp::Nop,
            Instr::Op {
                alu: Some(a),
                mem: None,
            } => FastOp::Alu(a),
            Instr::Op {
                alu,
                mem: Some(mem),
            } => match mem {
                // A packed ALU piece beside a long immediate is not a
                // valid encoding; the reference path defines its commit
                // order, so defer to it.
                MemPiece::LoadImm { value, dst } => {
                    if alu.is_some() {
                        FastOp::Slow
                    } else {
                        FastOp::LoadImm { value, dst }
                    }
                }
                MemPiece::Load { mode, dst, width } => FastOp::Load {
                    mode,
                    dst,
                    width,
                    alu,
                    refclass,
                },
                MemPiece::Store { mode, src, width } => FastOp::Store {
                    mode,
                    src,
                    width,
                    alu,
                    refclass,
                },
            },
            Instr::SetCond(p) => FastOp::SetCond {
                cond: p.cond,
                a: p.a,
                b: p.b,
                dst: p.dst,
            },
            Instr::Mvi(p) => FastOp::Mvi {
                imm: p.imm,
                dst: p.dst,
            },
            Instr::CmpBranch(p) => match p.target.abs() {
                Some(target) => FastOp::CmpBranch {
                    cond: p.cond,
                    a: p.a,
                    b: p.b,
                    target,
                },
                None => FastOp::Slow,
            },
            Instr::Jump(p) => match p.target.abs() {
                Some(target) => FastOp::Jump { target },
                None => FastOp::Slow,
            },
            Instr::Call(p) => match p.target.abs() {
                Some(target) => FastOp::Call {
                    target,
                    link: p.link,
                },
                None => FastOp::Slow,
            },
            Instr::JumpInd(p) => FastOp::JumpInd {
                base: p.base,
                disp: p.disp,
            },
            Instr::Lea { target, dst } => match target.abs() {
                Some(addr) => FastOp::Lea { addr, dst },
                None => FastOp::Slow,
            },
            Instr::Trap(_) | Instr::Special(_) | Instr::Halt => FastOp::Slow,
        }
    }
}

impl Machine {
    /// Runs until `n` more instructions have executed (by the
    /// [`crate::Profile::instructions`] counter), the machine halts, or
    /// an error stops it — continuing straight through exception
    /// dispatches. Uses the selected [`Engine`]; on
    /// [`Engine::Reference`] this is exactly a counted `step()` loop.
    /// Returns the number of instructions executed. Note that a
    /// dispatch-only boundary (runaway-pc address error) executes zero
    /// instructions and does not count toward `n`.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_steps(&mut self, n: u64) -> Result<u64, SimError> {
        let start = self.profile.instructions;
        let goal = start.saturating_add(n);
        while !self.halted && self.profile.instructions < goal && !self.snapshot_due() {
            if self.run_fenced(goal - self.profile.instructions, 0, u32::MAX) == 0 {
                self.step()?;
            }
        }
        Ok(self.profile.instructions - start)
    }

    /// Runs up to `n` more instructions on the fast engine while the pc
    /// stays inside the window `[lo, hi)`, `lo <= hi`. Returns the number of instructions executed; the machine then
    /// sits at the boundary before the first instruction that is
    /// outside the window or needs the reference interpreter.
    ///
    /// This is the one fast entry point: [`Machine::run_steps`] and the
    /// OS runtime both call it and follow a 0 with one [`Machine::step`].
    /// It never steps the reference interpreter and never dispatches an
    /// exception, so every instruction it counts was fetched from inside
    /// the window — a host can attribute the whole burst to the window
    /// with one add. It returns 0 without executing anything whenever a
    /// whole-run fallback holds (see the module docs) or the machine has
    /// halted.
    pub fn run_fenced(&mut self, n: u64, lo: u32, hi: u32) -> u64 {
        if self.engine == Engine::Reference || self.cfg.check_hazards || self.halted {
            return 0;
        }
        let start = self.profile.instructions;
        let goal = start.saturating_add(n);
        let span = hi.wrapping_sub(lo);
        // Taken out of `self` for the burst so the hot loop borrows it
        // without reference counting; put back before returning.
        let image = match self.fast.take() {
            Some(f) => f,
            None => Arc::new(FastProgram::predecode(&self.program, &self.refclass)),
        };
        loop {
            let now = self.profile.instructions;
            // Whole-run fallbacks, re-checked at every chunk boundary:
            // DMA can steal any free cycle; a due timer tick must fire
            // inside `step()`'s own boundary sample (also covers
            // catch-up when the counter has run past `next_fire`); a
            // due snapshot point and the step limit are the caller's to
            // observe; and an accepted interrupt dispatches.
            // Interrupts are sampled here, once per chunk boundary: the
            // line only changes through device/MMIO traffic, `rfe`, or a
            // timer tick — all of which end a chunk.
            if now >= goal
                || now >= self.cfg.step_limit
                || self.mem.dma_pending() > 0
                || self.timer.as_ref().is_some_and(|t| t.next_fire <= now)
                || self.snapshot_due()
                || (self.surprise.int_enable() && self.interrupt_line())
                || self.pc.wrapping_sub(lo) >= span
            {
                break;
            }
            // The chunk ends at the next armed event, so the hot loop
            // never needs to sample the timer or the step limit.
            let mut chunk = (goal - now).min(self.cfg.step_limit - now).min(FAST_CHUNK);
            if let Some(t) = &self.timer {
                chunk = chunk.min(t.next_fire - now);
            }
            // An armed snapshot point bounds the chunk the same way:
            // the boundary lands exactly on `at`, never inside a chunk.
            if let Some(at) = self.snap_request {
                chunk = chunk.min(at - now);
            }
            if self.run_chunk(&image, chunk, lo, span) {
                // The next instruction needs full fidelity: a slow
                // opcode, a fault, a device access, or a runaway pc.
                // Nothing was committed for it yet, so the caller's
                // reference step replays it exactly.
                break;
            }
        }
        self.fast = Some(image);
        self.profile.instructions - start
    }

    /// Executes up to `n` predecoded instructions with no boundary
    /// checks, stopping early when the pc leaves the window of `span`
    /// words starting at `lo`. Returns true when it stopped on an
    /// instruction that needs the reference interpreter (machine state
    /// is still at the boundary *before* that instruction).
    fn run_chunk(&mut self, image: &FastProgram, n: u64, lo: u32, span: u32) -> bool {
        // Hoisted once per chunk: every instruction that can change
        // these (special-register writes, `rfe`, MMIO attach) is a slow
        // op or a device access, both of which end the chunk.
        let ovf_on = self.surprise.ovf_enable();
        let dev_floor = self.device_floor();
        let map_on = self.surprise.map_enable();
        let mut left = n;
        while left > 0 {
            let off = self.pc.wrapping_sub(lo);
            if off >= span {
                return false;
            }
            // A certificate at this pc whose preconditions hold lets the
            // whole block run with no per-instruction bailout tests. The
            // pipeline must be empty of shadow state: a pending branch
            // would redirect mid-block, and an in-flight load would make
            // the first instruction observe pre-commit state the proof
            // did not model. A block that would run past the window's
            // end is refused, so the fence stays exact.
            if self.pending.is_empty() && self.load_in_flight.is_none() {
                if let Some(cert) = image.cert_at(self.pc) {
                    if cert.len as u64 <= left
                        && cert.len <= span - off
                        && (!cert.can_ovf || !ovf_on)
                        && (!cert.has_mem || self.cert_mem_ok(cert, dev_floor, map_on))
                    {
                        left -= cert.len as u64;
                        self.run_cert_block(&image.ops, cert);
                        continue;
                    }
                }
            }
            left -= 1;
            let Some(&op) = image.ops.get(self.pc as usize) else {
                return true;
            };
            match op {
                FastOp::Slow => return true,
                FastOp::Nop => {
                    self.profile.nops += 1;
                    self.account_free();
                    self.commit_inflight();
                    self.advance_pc();
                }
                FastOp::Alu(p) => {
                    let (v, ovf) = p.op.eval(self.operand(p.a), self.operand(p.b), self.lo);
                    if ovf && ovf_on {
                        return true;
                    }
                    self.account_free();
                    self.commit_inflight();
                    self.regs[p.dst.index()] = v;
                    self.advance_pc();
                }
                FastOp::LoadImm { value, dst } => {
                    self.profile.long_immediates += 1;
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = value;
                    self.advance_pc();
                }
                FastOp::Load {
                    mode,
                    dst,
                    width,
                    alu,
                    refclass,
                } => {
                    // The ALU piece evaluates on pre-instruction state;
                    // an enabled overflow bails *before* the memory
                    // reference so the replay performs it exactly once.
                    let alu_result = alu.map(|p| {
                        let (v, ovf) = p.op.eval(self.operand(p.a), self.operand(p.b), self.lo);
                        (p.dst, v, ovf)
                    });
                    if ovf_on && matches!(alu_result, Some((_, _, true))) {
                        return true;
                    }
                    let ea = mode.effective(|r| self.regs[r.index()]);
                    let Some(v) = self.fast_load(ea, width, dev_floor) else {
                        return true;
                    };
                    self.profile.record_ref(refclass, false);
                    if alu.is_some() {
                        self.profile.packed += 1;
                    }
                    self.account_mem();
                    self.commit_inflight();
                    if let Some((d, w, _)) = alu_result {
                        self.regs[d.index()] = w;
                    }
                    self.load_in_flight = Some((dst, v));
                    self.advance_pc();
                }
                FastOp::Store {
                    mode,
                    src,
                    width,
                    alu,
                    refclass,
                } => {
                    let alu_result = alu.map(|p| {
                        let (v, ovf) = p.op.eval(self.operand(p.a), self.operand(p.b), self.lo);
                        (p.dst, v, ovf)
                    });
                    if ovf_on && matches!(alu_result, Some((_, _, true))) {
                        return true;
                    }
                    let ea = mode.effective(|r| self.regs[r.index()]);
                    let v = self.regs[src.index()];
                    if !self.fast_store(ea, v, width, dev_floor) {
                        return true;
                    }
                    self.profile.record_ref(refclass, true);
                    if alu.is_some() {
                        self.profile.packed += 1;
                    }
                    self.account_mem();
                    self.commit_inflight();
                    if let Some((d, w, _)) = alu_result {
                        self.regs[d.index()] = w;
                    }
                    self.advance_pc();
                }
                FastOp::SetCond { cond, a, b, dst } => {
                    let v = cond.eval(self.operand(a), self.operand(b)) as u32;
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = v;
                    self.advance_pc();
                }
                FastOp::Mvi { imm, dst } => {
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = imm as u32;
                    self.advance_pc();
                }
                FastOp::CmpBranch { cond, a, b, target } => {
                    self.profile.branches += 1;
                    let taken = cond.eval(self.operand(a), self.operand(b));
                    self.account_free();
                    self.commit_inflight();
                    if taken {
                        self.profile.branches_taken += 1;
                        self.branch_to(target, BRANCH_DELAY, false);
                    } else {
                        self.advance_pc();
                    }
                }
                FastOp::Jump { target } => {
                    self.profile.branches += 1;
                    self.profile.branches_taken += 1;
                    self.account_free();
                    self.commit_inflight();
                    self.branch_to(target, BRANCH_DELAY, false);
                }
                FastOp::Call { target, link } => {
                    self.profile.branches += 1;
                    self.profile.branches_taken += 1;
                    self.account_free();
                    self.commit_inflight();
                    self.regs[link.index()] = self.pc + 1 + BRANCH_DELAY;
                    self.branch_to(target, BRANCH_DELAY, false);
                }
                FastOp::JumpInd { base, disp } => {
                    self.profile.branches += 1;
                    self.profile.branches_taken += 1;
                    // The target reads pre-commit register state.
                    let target = self.regs[base.index()].wrapping_add(disp as u32);
                    self.account_free();
                    self.commit_inflight();
                    self.branch_to(target, INDIRECT_DELAY, true);
                }
                FastOp::Lea { addr, dst } => {
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = addr;
                    self.advance_pc();
                }
            }
        }
        false
    }

    /// The memory half of the certificate gate: with mapping off on the
    /// word machine, `translate` is exactly `ea & (MEM_WORDS - 1)` and
    /// cannot fault, so the only remaining hazard is a device window.
    /// When the device floor is at or past the top of the word space,
    /// no masked physical address can reach a device and nothing else
    /// needs checking; otherwise every constant address and every
    /// entry-relative window (evaluated in 64-bit arithmetic, so the
    /// in-range conclusion transfers through the mod-2³² wrap) must sit
    /// strictly below the floor.
    #[inline(always)]
    fn cert_mem_ok(&self, cert: &FastCert, dev_floor: u32, map_on: bool) -> bool {
        if self.cfg.byte_addressed || map_on {
            return false;
        }
        if dev_floor >= MEM_WORDS {
            return true;
        }
        if cert.const_hi >= dev_floor {
            return false;
        }
        cert.windows.iter().all(|w| {
            let entry = self.regs[w.reg.index()] as i64;
            entry + w.dmin >= 0 && entry + w.dmax < dev_floor as i64
        })
    }

    /// Executes one certified block with **no** per-instruction bailout
    /// tests: no overflow bail, no translate/device probe, no alignment
    /// or width check — the certificate plus the gate already proved
    /// none can fire. Profile accounting, load-shadow commit order, and
    /// memory masking replicate the checked path bit for bit, so every
    /// observation point stays identical to the reference interpreter.
    fn run_cert_block(&mut self, ops: &[FastOp], cert: &FastCert) {
        let end = self.pc + cert.len;
        while self.pc < end {
            match ops[self.pc as usize] {
                FastOp::Nop => {
                    self.profile.nops += 1;
                    self.account_free();
                    self.commit_inflight();
                    self.pc += 1;
                }
                FastOp::Alu(p) => {
                    let (v, _) = p.op.eval(self.operand(p.a), self.operand(p.b), self.lo);
                    self.account_free();
                    self.commit_inflight();
                    self.regs[p.dst.index()] = v;
                    self.pc += 1;
                }
                FastOp::LoadImm { value, dst } => {
                    self.profile.long_immediates += 1;
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = value;
                    self.pc += 1;
                }
                FastOp::Load {
                    mode,
                    dst,
                    alu,
                    refclass,
                    ..
                } => {
                    let alu_result = alu.map(|p| {
                        let (v, _) = p.op.eval(self.operand(p.a), self.operand(p.b), self.lo);
                        (p.dst, v)
                    });
                    let ea = mode.effective(|r| self.regs[r.index()]);
                    let v = self.mem.read(ea & (MEM_WORDS - 1));
                    self.profile.record_ref(refclass, false);
                    if alu.is_some() {
                        self.profile.packed += 1;
                    }
                    self.account_mem();
                    self.commit_inflight();
                    if let Some((d, w)) = alu_result {
                        self.regs[d.index()] = w;
                    }
                    self.load_in_flight = Some((dst, v));
                    self.pc += 1;
                }
                FastOp::Store {
                    mode,
                    src,
                    alu,
                    refclass,
                    ..
                } => {
                    let alu_result = alu.map(|p| {
                        let (v, _) = p.op.eval(self.operand(p.a), self.operand(p.b), self.lo);
                        (p.dst, v)
                    });
                    let ea = mode.effective(|r| self.regs[r.index()]);
                    let v = self.regs[src.index()];
                    self.mem.write(ea & (MEM_WORDS - 1), v);
                    self.profile.record_ref(refclass, true);
                    if alu.is_some() {
                        self.profile.packed += 1;
                    }
                    self.account_mem();
                    self.commit_inflight();
                    if let Some((d, w)) = alu_result {
                        self.regs[d.index()] = w;
                    }
                    self.pc += 1;
                }
                FastOp::SetCond { cond, a, b, dst } => {
                    let v = cond.eval(self.operand(a), self.operand(b)) as u32;
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = v;
                    self.pc += 1;
                }
                FastOp::Mvi { imm, dst } => {
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = imm as u32;
                    self.pc += 1;
                }
                FastOp::Lea { addr, dst } => {
                    self.account_free();
                    self.commit_inflight();
                    self.regs[dst.index()] = addr;
                    self.pc += 1;
                }
                // `predecode` refuses certificates covering anything
                // else, so this arm is statically dead.
                FastOp::Slow
                | FastOp::CmpBranch { .. }
                | FastOp::Jump { .. }
                | FastOp::Call { .. }
                | FastOp::JumpInd { .. } => {
                    unreachable!("uncertified op inside a certified block")
                }
            }
        }
        self.cert_elided += cert.len as u64;
    }

    /// Issue-slot accounting for a non-memory instruction. Chunks run
    /// with no DMA pending (a precondition checked at the boundary), so
    /// the free cycle has nothing to service.
    #[inline(always)]
    fn account_free(&mut self) {
        self.profile.instructions += 1;
        self.profile.mem_cycles_free += 1;
    }

    #[inline(always)]
    fn account_mem(&mut self) {
        self.profile.instructions += 1;
        self.profile.mem_cycles_used += 1;
    }

    /// Commits the previous instruction's in-flight load (writes from
    /// the current instruction come after and win ties).
    #[inline(always)]
    fn commit_inflight(&mut self) {
        if let Some((r, v)) = self.load_in_flight.take() {
            self.regs[r.index()] = v;
        }
    }

    #[inline(always)]
    fn advance_pc(&mut self) {
        if self.pending.is_empty() {
            self.pc += 1;
        } else {
            self.pc = self.pending.tick().unwrap_or(self.pc + 1);
        }
    }

    #[inline(always)]
    fn branch_to(&mut self, target: u32, delay: u32, indirect: bool) {
        let next = if self.pending.is_empty() {
            self.pc + 1
        } else {
            self.pending.tick().unwrap_or(self.pc + 1)
        };
        self.pending.push(PendingBranch {
            slots: delay,
            target,
            indirect,
        });
        self.pc = next;
    }

    /// Translate + device-window check with no side effects beyond the
    /// (idempotent) fault-address latch. `None` means bail.
    #[inline(always)]
    fn fast_pa(&mut self, va: u32, dev_floor: u32) -> Option<u32> {
        let pa = self.translate(va).ok()?;
        if pa >= dev_floor && self.is_device(pa) {
            return None;
        }
        Some(pa)
    }

    #[inline(always)]
    fn fast_load(&mut self, ea: u32, width: Width, dev_floor: u32) -> Option<u32> {
        if self.cfg.byte_addressed {
            match width {
                Width::Word => {
                    if ea & 3 != 0 {
                        return None;
                    }
                    let pa = self.fast_pa(ea >> 2, dev_floor)?;
                    Some(self.mem.read(pa))
                }
                Width::Byte => {
                    let pa = self.fast_pa(ea >> 2, dev_floor)?;
                    let w = self.mem.read(pa);
                    Some(extract_byte(w, ea & 3))
                }
            }
        } else {
            if width == Width::Byte {
                return None;
            }
            let pa = self.fast_pa(ea, dev_floor)?;
            Some(self.mem.read(pa))
        }
    }

    #[inline(always)]
    fn fast_store(&mut self, ea: u32, v: u32, width: Width, dev_floor: u32) -> bool {
        if self.cfg.byte_addressed {
            match width {
                Width::Word => {
                    if ea & 3 != 0 {
                        return false;
                    }
                    let Some(pa) = self.fast_pa(ea >> 2, dev_floor) else {
                        return false;
                    };
                    self.mem.write(pa, v);
                }
                Width::Byte => {
                    // Read-modify-write, as on the reference path.
                    let Some(pa) = self.fast_pa(ea >> 2, dev_floor) else {
                        return false;
                    };
                    let w = self.mem.read(pa);
                    self.mem.write(pa, insert_byte(w, ea & 3, v));
                }
            }
            true
        } else {
            if width == Width::Byte {
                return false;
            }
            let Some(pa) = self.fast_pa(ea, dev_floor) else {
                return false;
            };
            self.mem.write(pa, v);
            true
        }
    }
}
