//! The machine: an instruction-level simulator of the five-stage MIPS
//! pipe with its architecturally visible (and software-managed) delays.
//!
//! ## Timing model
//!
//! One instruction issues per cycle. The pipeline's visible effects are:
//!
//! * **ALU forwarding** — an ALU / set-conditionally / move-immediate
//!   result is visible to the very next instruction;
//! * **load delay** — a load's destination register still holds its old
//!   value for the next instruction ([`mips_core::delay::LOAD_DELAY`]);
//! * **delayed branches** — one slot for branches/jumps/calls, two for
//!   indirect jumps; delay-slot instructions always execute.
//!
//! There are **no interlocks**: reading a register too early yields the
//! stale value (and is recorded when [`MachineConfig::check_hazards`] is
//! on).
//!
//! ## Exceptions
//!
//! On any exception the machine completes the in-flight load ("an attempt
//! is made to complete any unfinished instructions"), saves the next three
//! execution addresses into `ret0..ret2` (enough to resume inside an
//! indirect jump's shadow), swaps the surprise register state, and jumps
//! to physical address zero where the resident dispatch code must live.
//! [`mips_core::SpecialOp::Rfe`] inverts all of this exactly.

use crate::error::SimError;
use crate::except::Cause;
use crate::fast::{Engine, FastProgram};
use crate::hazard::{Hazard, HazardKind};
use crate::mem::{IntCtrl, Memory};
use crate::mmu::{PageMap, Segmentation};
use crate::nic::{Frame, Nic};
use crate::profile::Profile;
use crate::surprise::Surprise;
use mips_core::delay::{BRANCH_DELAY, INDIRECT_DELAY};
use mips_core::word::MEM_WORDS;
use mips_core::{
    AluPiece, Instr, MemPiece, Operand, Program, RefClass, Reg, SpecialOp, SpecialReg, Width,
};
use std::sync::Arc;

/// Native trap-service codes (the "firmware" services used when
/// [`MachineConfig::native_traps`] is on; with it off these are ordinary
/// trap codes for the OS to interpret).
pub mod traps {
    /// Stop the program.
    pub const HALT: u16 = 0;
    /// Write the low byte of `r1` to the output stream.
    pub const PUTC: u16 = 1;
    /// Write `r1` as a signed decimal to the output stream.
    pub const PUTINT: u16 = 2;
}

/// Physical base address of the NIC port window
/// ([`crate::nic::NIC_WINDOW`] words).
pub const NIC_ADDR: u32 = MEM_WORDS - 64;
/// Interrupt-controller device line the NIC's delivery doorbell raises
/// (the timer conventionally takes line 0).
pub const NIC_DEVICE: u32 = 1;
/// Physical address of the interrupt-controller port (one word).
pub const INTCTRL_ADDR: u32 = MEM_WORDS - 16;
/// Physical base address of the page-map-unit port (three words).
pub const MAPUNIT_ADDR: u32 = MEM_WORDS - 8;
/// Physical address of the console output port (one word).
pub const CONSOLE_ADDR: u32 = MEM_WORDS - 4;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Model the §4.1 byte-addressed variant: effective addresses are byte
    /// addresses, byte-width accesses are legal, word accesses must be
    /// aligned.
    pub byte_addressed: bool,
    /// Service traps natively (firmware services) instead of dispatching
    /// them to the exception vector.
    pub native_traps: bool,
    /// Record software-interlock violations (load-use reads, control
    /// transfers inside another transfer's delay shadow).
    pub check_hazards: bool,
    /// Abort after this many instructions (runaway guard).
    pub step_limit: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            byte_addressed: false,
            native_traps: true,
            check_hazards: false,
            step_limit: 200_000_000,
        }
    }
}

/// Why `run` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction (or the HALT trap service) executed.
    Halt,
}

/// A deterministic interval timer: raises a device on the interrupt
/// controller every `period` executed instructions (the external timer
/// tick an operating system schedules by, §3.2's single interrupt line
/// with external prioritization).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timer {
    pub(crate) period: u64,
    pub(crate) device: u32,
    pub(crate) next_fire: u64,
}

/// A pending delayed branch: fires when `slots` reaches zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PendingBranch {
    pub(crate) slots: u32,
    pub(crate) target: u32,
    /// Came from an indirect jump (two-slot shadow) — distinguishes
    /// [`HazardKind::IndirectShadow`] from [`HazardKind::BranchInShadow`].
    pub(crate) indirect: bool,
}

/// The in-flight delayed-transfer state, held in two inline slots.
///
/// Two entries suffice: every transfer lands in slot 1 or 2, the set is
/// ticked before each push, and one push happens per step — so at most
/// one live entry can survive a tick. Keeping the set inline (rather
/// than in a `Vec`) makes `step()` allocation-free.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PendingSet {
    len: u8,
    slots: [PendingBranch; 2],
}

impl PendingSet {
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn push(&mut self, b: PendingBranch) {
        debug_assert!(self.len < 2, "the pipe holds at most two pending transfers");
        if (self.len as usize) < 2 {
            self.slots[self.len as usize] = b;
            self.len += 1;
        }
    }

    pub(crate) fn any_indirect(&self) -> bool {
        self.slots[..self.len as usize].iter().any(|b| b.indirect)
    }

    /// Live entries in push order (for snapshot capture).
    pub(crate) fn entries(&self) -> &[PendingBranch] {
        &self.slots[..self.len as usize]
    }

    /// Decrements every entry and drops those that reach zero. When an
    /// entry expires it *fires*; if two expire on the same tick the one
    /// pushed later wins (insertion order), matching the old `Vec` scan.
    /// Returns the winning redirect target, if any fired.
    pub(crate) fn tick(&mut self) -> Option<u32> {
        let mut fired = None;
        let mut kept = 0usize;
        for i in 0..self.len as usize {
            let mut b = self.slots[i];
            b.slots -= 1;
            if b.slots == 0 {
                fired = Some(b.target);
            } else {
                self.slots[kept] = b;
                kept += 1;
            }
        }
        self.len = kept as u8;
        fired
    }
}

/// One step's immediate register writes: at most a non-delayed memory
/// result plus one ALU-class result — two fixed slots, no per-step heap.
#[derive(Clone, Copy, Default)]
struct WriteSet {
    len: u8,
    slots: [(usize, u32); 2],
}

impl WriteSet {
    fn push(&mut self, (r, v): (Reg, u32)) {
        debug_assert!(self.len < 2, "an instruction commits at most two writes");
        if (self.len as usize) < 2 {
            self.slots[self.len as usize] = (r.index(), v);
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[(usize, u32)] {
        &self.slots[..self.len as usize]
    }
}

/// The MIPS machine.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) program: Program,
    pub(crate) refclass: Vec<Option<RefClass>>,
    pub(crate) regs: [u32; Reg::COUNT],
    pub(crate) lo: u32,
    pub(crate) pc: u32,
    pub(crate) surprise: Surprise,
    pub(crate) seg: Segmentation,
    pub(crate) ret: [u32; 3],
    pub(crate) load_in_flight: Option<(Reg, u32)>,
    pub(crate) pending: PendingSet,
    pub(crate) mem: Memory,
    /// The off-chip page map, when the map unit is attached.
    pub(crate) page_map: Option<PageMap>,
    /// The map unit's fault-address latch (the mapped address of the
    /// last translation fault).
    pub(crate) fault_addr: u32,
    /// The map unit's page-select latch: the virtual page a following
    /// map write binds.
    pub(crate) map_select: u32,
    pub(crate) int_ctrl: Option<IntCtrl>,
    pub(crate) nic: Option<Nic>,
    /// The console's word log, when the console is attached.
    pub(crate) console: Option<Vec<u32>>,
    pub(crate) irq_line: bool,
    pub(crate) timer: Option<Timer>,
    pub(crate) halted: bool,
    pub(crate) profile: Profile,
    pub(crate) hazards: Vec<Hazard>,
    pub(crate) output: Vec<u8>,
    pub(crate) engine: Engine,
    /// Predecoded fast-path image, built lazily and invalidated when the
    /// refclass sidecar changes (the program itself is immutable).
    pub(crate) fast: Option<Arc<FastProgram>>,
    /// Armed snapshot point (absolute instruction count): the batched
    /// entry points stop here so the host can capture a [`crate::Snapshot`]
    /// at a chunk boundary. Host-side control state, not architectural —
    /// excluded from snapshots.
    pub(crate) snap_request: Option<u64>,
    /// Instructions executed under a block certificate with the
    /// per-instruction bailout tests elided. A host statistic about the
    /// fast engine, not architectural state — excluded from [`Profile`]
    /// (which is a conformance observation point) and from snapshots.
    pub(crate) cert_elided: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.pc)
            .field("halted", &self.halted)
            .field("surprise", &self.surprise)
            .field("instructions", &self.profile.instructions)
            .finish()
    }
}

/// What instruction execution asked the control unit to do.
enum Flow {
    Next,
    Branch { delay: u32, target: u32 },
    JumpNow { pc: u32, pending: PendingSet },
    Exception { cause: Cause, detail: u16 },
    Halt,
}

impl Machine {
    /// Creates a machine with default configuration running `program`.
    pub fn new(program: Program) -> Machine {
        Machine::with_config(program, MachineConfig::default())
    }

    /// Creates a machine with explicit configuration.
    pub fn with_config(program: Program, cfg: MachineConfig) -> Machine {
        Machine {
            cfg,
            program,
            refclass: Vec::new(),
            regs: [0; Reg::COUNT],
            lo: 0,
            pc: 0,
            surprise: Surprise::reset(),
            seg: Segmentation::default(),
            ret: [0; 3],
            load_in_flight: None,
            pending: PendingSet::default(),
            mem: Memory::new(),
            page_map: None,
            fault_addr: 0,
            map_select: 0,
            int_ctrl: None,
            nic: None,
            console: None,
            irq_line: false,
            timer: None,
            halted: false,
            profile: Profile::default(),
            hazards: Vec::new(),
            output: Vec::new(),
            engine: Engine::Reference,
            fast: None,
            snap_request: None,
            cert_elided: 0,
        }
    }

    /// True when no delayed transfer is in flight and no load is pending
    /// its delay slot — the pipeline has no shadow state, so the machine
    /// is at a *safe boundary* for checkpoint policies that refuse to
    /// capture mid-shadow state (see [`crate::Snapshot`]; the snapshot
    /// format itself captures shadow state exactly, this predicate only
    /// serves policies that want boundary-aligned checkpoints).
    pub fn pipeline_quiescent(&self) -> bool {
        self.pending.is_empty() && self.load_in_flight.is_none()
    }

    /// Clears the halted latch so a host runtime can resume a machine
    /// that executed `halt` (pair with [`Machine::jump_to`] to re-enter
    /// at a chosen entry point). Architectural state is untouched.
    pub fn clear_halt(&mut self) {
        self.halted = false;
    }

    /// Arms a snapshot point at absolute instruction count `at`: the
    /// batched entry points ([`Machine::run_steps`] /
    /// [`Machine::run_fenced`]) stop at that boundary, and the fast
    /// engine caps its chunks so the boundary lands exactly (returning
    /// to reference steps once due, the same pattern as a due timer
    /// tick). The per-step [`Machine::step`] is unaffected. Call [`Machine::snapshot`] at the boundary, then
    /// re-arm or [`Machine::disarm_snapshot`].
    pub fn arm_snapshot(&mut self, at: u64) {
        self.snap_request = Some(at);
    }

    /// Removes an armed snapshot point.
    pub fn disarm_snapshot(&mut self) {
        self.snap_request = None;
    }

    /// True when an armed snapshot point has been reached.
    pub fn snapshot_due(&self) -> bool {
        self.snap_request
            .is_some_and(|at| self.profile.instructions >= at)
    }

    /// Attaches the per-instruction data-reference classification sidecar
    /// (usually produced by the reorganizer) for Tables 7–8 profiling.
    pub fn set_refclass_map(&mut self, map: Vec<Option<RefClass>>) {
        self.refclass = map;
        // The sidecar is baked into the predecoded image.
        self.fast = None;
    }

    /// Selects the execution engine used by [`Machine::run`],
    /// [`Machine::run_steps`], and [`Machine::run_fenced`]. The per-step
    /// [`Machine::step`] is always the reference interpreter.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The selected execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Instructions the fast engine executed under a block certificate,
    /// i.e. with every per-instruction safety check (overflow bail,
    /// translation, device-window probe, alignment) statically elided.
    /// Always zero on the reference engine. A host-side statistic: it is
    /// not part of [`crate::Profile`] and does not survive snapshots.
    pub fn cert_elided(&self) -> u64 {
        self.cert_elided
    }

    /// Installs the off-chip page-map unit and its MMIO window. Mapping
    /// takes effect when the surprise register's map-enable bit is set.
    pub fn attach_page_map(&mut self, map: PageMap) {
        self.page_map = Some(map);
    }

    /// Installs the external interrupt controller and its MMIO window.
    pub fn attach_int_ctrl(&mut self) {
        self.int_ctrl = Some(IntCtrl::default());
    }

    /// Installs the console output peripheral; what the guest writes to
    /// it is read back with [`Machine::console`].
    pub fn attach_console(&mut self) {
        self.console = Some(Vec::new());
    }

    /// Asserts/deasserts the raw interrupt line (alternative to a
    /// controller).
    pub fn set_irq_line(&mut self, on: bool) {
        self.irq_line = on;
    }

    /// Attaches a deterministic interval timer: `device` is raised on the
    /// interrupt controller every `period` executed instructions
    /// (installing the controller if absent). The raise is level-triggered
    /// and sticky until software acknowledges it through the controller
    /// port, so a tick that lands while interrupts are disabled is taken
    /// at the next enabled instruction boundary. Periods shorter than the
    /// software's dispatch-plus-handler path will starve user progress —
    /// exactly as on the real machine.
    pub fn attach_timer(&mut self, period: u64, device: u32) {
        self.int_ctrl.get_or_insert_with(IntCtrl::default);
        let period = period.max(1);
        self.timer = Some(Timer {
            period,
            device,
            next_fire: period,
        });
    }

    /// Installs the network interface for fabric address `node` and its
    /// MMIO window, installing the interrupt controller if absent so
    /// deliveries can raise the [`NIC_DEVICE`] doorbell. The host fabric
    /// collects committed frames through [`Machine::nic_mut`] and
    /// delivers incoming ones with [`Machine::nic_deliver`].
    pub fn attach_nic(&mut self, node: u32) {
        self.int_ctrl.get_or_insert_with(IntCtrl::default);
        self.nic = Some(Nic::new(node));
    }

    /// The attached NIC, if any.
    pub fn nic(&self) -> Option<&Nic> {
        self.nic.as_ref()
    }

    /// The attached NIC, mutably (the host fabric collects the TX ring
    /// through it).
    pub fn nic_mut(&mut self) -> Option<&mut Nic> {
        self.nic.as_mut()
    }

    /// Delivers a frame into the NIC's RX ring and raises the
    /// [`NIC_DEVICE`] doorbell. A full ring (or a machine without a
    /// NIC) refuses the delivery and hands the frame back — the caller
    /// must retain it (backpressure; the NIC never drops silently).
    ///
    /// # Errors
    ///
    /// The frame itself, when it was not accepted.
    pub fn nic_deliver(&mut self, frame: Frame) -> Result<(), Frame> {
        let Some(nic) = self.nic.as_mut() else {
            return Err(frame);
        };
        nic.deliver(frame)?;
        if let Some(ctrl) = self.int_ctrl.as_mut() {
            ctrl.raise(NIC_DEVICE);
        }
        Ok(())
    }

    /// The three exception return addresses `ret0..ret2` (privileged
    /// state; host-side introspection for tests and OS runtimes).
    pub fn ret_addrs(&self) -> [u32; 3] {
        self.ret
    }

    /// The attached interrupt controller, if any.
    pub fn int_ctrl(&self) -> Option<&IntCtrl> {
        self.int_ctrl.as_ref()
    }

    /// The attached interrupt controller, mutably (fault injectors raise
    /// and drop device requests through it).
    pub fn int_ctrl_mut(&mut self) -> Option<&mut IntCtrl> {
        self.int_ctrl.as_mut()
    }

    /// The attached page map, if any.
    pub fn page_map(&self) -> Option<&PageMap> {
        self.page_map.as_ref()
    }

    /// The attached page map, mutably (fault injectors corrupt entries
    /// and supervisors drop mappings through it; the guest's next
    /// translation sees the change).
    pub fn page_map_mut(&mut self) -> Option<&mut PageMap> {
        self.page_map.as_mut()
    }

    /// Every word the guest wrote to the console, in order (empty when
    /// no console is attached).
    pub fn console(&self) -> &[u32] {
        self.console.as_deref().unwrap_or_default()
    }

    /// The console's word log, mutably (a host rolling a run back
    /// truncates or edits it; snapshots do not capture it).
    pub fn console_mut(&mut self) -> Option<&mut Vec<u32>> {
        self.console.as_mut()
    }

    /// Raises an exception from outside the instruction stream, exactly
    /// as the hardware would at the current instruction boundary: the
    /// in-flight load commits, the resume chain is saved, the surprise
    /// register slides, and execution vectors to address zero. Restart
    /// semantics follow [`Cause::restarts_offender`]. This is the host's
    /// fault-injection hook (a watchdog squeeze, a simulated machine
    /// check) — guest code cannot reach it.
    ///
    /// # Errors
    ///
    /// [`SimError::DoubleFault`] when no handler code is loaded at
    /// address zero.
    pub fn raise_exception(&mut self, cause: Cause, detail: u16) -> Result<(), SimError> {
        let restart = cause.restarts_offender() || cause == Cause::Overflow;
        self.dispatch_exception(cause, detail, restart)
    }

    /// Reads a general register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a general register.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r.index()] = v;
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Redirects execution (clears pending pipeline state; a test/loader
    /// convenience, not an instruction).
    pub fn jump_to(&mut self, pc: u32) {
        self.pc = pc;
        self.pending.clear();
        self.load_in_flight = None;
    }

    /// The surprise register.
    pub fn surprise(&self) -> Surprise {
        self.surprise
    }

    /// Mutable surprise-register access (test/OS setup).
    pub fn surprise_mut(&mut self) -> &mut Surprise {
        &mut self.surprise
    }

    /// The segmentation registers.
    pub fn segmentation(&self) -> Segmentation {
        self.seg
    }

    /// Mutable segmentation access (test/OS setup).
    pub fn segmentation_mut(&mut self) -> &mut Segmentation {
        &mut self.seg
    }

    /// Data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory (loader).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execution statistics.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Recorded hazards (only populated with
    /// [`MachineConfig::check_hazards`]).
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Bytes written by the PUTC/PUTINT trap services.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Output as (lossy) UTF-8.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// True once a halt has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    #[inline(always)]
    pub(crate) fn operand(&self, o: Operand) -> u32 {
        match o {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Small(v) => v as u32,
        }
    }

    pub(crate) fn interrupt_line(&self) -> bool {
        self.irq_line || self.int_ctrl.as_ref().is_some_and(IntCtrl::line_asserted)
    }

    /// Translates a data address to a physical word address, latching
    /// the fault address on a miss.
    pub(crate) fn translate(&mut self, va: u32) -> Result<u32, (Cause, u16)> {
        if !self.surprise.map_enable() {
            return Ok(va & (MEM_WORDS - 1));
        }
        let mapped = match self.seg.translate(va) {
            Some(m) => m,
            None => {
                self.fault_addr = va;
                return Err((Cause::PageFault, va as u16));
            }
        };
        match &self.page_map {
            Some(pm) => match pm.translate(mapped) {
                // A corrupted map entry can point past physical memory;
                // the bus has no word there, so the access faults like a
                // missing page and the fault handler gets to re-map it.
                Some(pa) if pa < MEM_WORDS => Ok(pa),
                _ => {
                    self.fault_addr = mapped;
                    Err((Cause::PageFault, mapped as u16))
                }
            },
            None => Ok(mapped),
        }
    }

    /// Computes the next three execution addresses starting at `start`
    /// with branch state `pending` (the saved return-address chain).
    fn resume_chain(start: u32, pending: PendingSet) -> [u32; 3] {
        let mut chain = [0u32; 3];
        let mut pc = start;
        let mut pend = pending;
        for slot in &mut chain {
            *slot = pc;
            pc = pend.tick().unwrap_or(pc + 1);
        }
        chain
    }

    /// One address-advance step: where does execution go after executing
    /// the instruction at `pc` given `pending`, and what is the remaining
    /// branch state?
    fn advance(pc: u32, pending: PendingSet) -> (u32, PendingSet) {
        let mut pend = pending;
        let next = pend.tick().unwrap_or(pc + 1);
        (next, pend)
    }

    /// Dispatches an exception: completes the in-flight load, saves the
    /// resume chain, swaps the surprise register, and vectors to address
    /// zero.
    pub(crate) fn dispatch_exception(
        &mut self,
        cause: Cause,
        detail: u16,
        resume_at_offender: bool,
    ) -> Result<(), SimError> {
        // Complete unfinished instructions: the in-flight load commits.
        if let Some((r, v)) = self.load_in_flight.take() {
            self.regs[r.index()] = v;
        }
        let chain_start = if resume_at_offender {
            self.pc
        } else {
            // Resume after the current instruction.
            let (next, pend) = Self::advance(self.pc, self.pending);
            self.pending = pend;
            next
        };
        self.ret = Self::resume_chain(chain_start, self.pending);
        self.pending.clear();
        self.surprise.enter_exception(cause, detail);
        self.profile.exceptions += 1;
        if self.program.fetch(0).is_none() {
            return Err(SimError::DoubleFault { pc: self.pc });
        }
        self.pc = 0;
        Ok(())
    }

    fn check_read_hazards(&mut self, instr: &Instr) {
        if !self.cfg.check_hazards {
            return;
        }
        if let Some((r, _)) = self.load_in_flight {
            if instr.reads().contains(&r) {
                self.hazards.push(Hazard {
                    pc: self.pc,
                    kind: HazardKind::LoadUse { reg: r },
                });
            }
        }
    }

    /// Records a control transfer issuing inside a pending transfer's
    /// delay shadow (same predicate as `mips-verify` V002/V003: any
    /// delayed transfer or non-falling-through instruction in a shadow
    /// slot).
    fn check_control_hazards(&mut self, instr: &Instr) {
        if !self.cfg.check_hazards || self.pending.is_empty() {
            return;
        }
        if instr.is_delayed_transfer() || !instr.falls_through() {
            let kind = if self.pending.any_indirect() {
                HazardKind::IndirectShadow
            } else {
                HazardKind::BranchInShadow
            };
            self.hazards.push(Hazard { pc: self.pc, kind });
        }
    }

    /// Records the issue of a structurally illegal instruction word (the
    /// dynamic twin of `mips-verify` V006): the machine executes it with
    /// a defined commit order, real hardware would not.
    fn check_structural_hazards(&mut self, instr: &Instr) {
        if self.cfg.check_hazards && !instr.is_valid() {
            self.hazards.push(Hazard {
                pc: self.pc,
                kind: HazardKind::IllegalInstr,
            });
        }
    }

    /// Performs a memory piece. Returns the load commit (if any) or the
    /// fault. Stores and the "extra read" of byte stores are performed
    /// here.
    fn exec_mem(&mut self, m: &MemPiece) -> Result<Option<(Reg, u32)>, (Cause, u16)> {
        match m {
            MemPiece::LoadImm { value, dst } => {
                self.profile.long_immediates += 1;
                // Long immediates behave like ALU results: no load delay.
                // Returning them as immediate writes is handled by caller.
                Ok(Some((*dst, *value)))
            }
            MemPiece::Load { mode, dst, width } => {
                let ea = mode.effective(|r| self.regs[r.index()]);
                let v = self.mem_load(ea, *width)?;
                Ok(Some((*dst, v)))
            }
            MemPiece::Store { mode, src, width } => {
                let ea = mode.effective(|r| self.regs[r.index()]);
                let v = self.regs[src.index()];
                self.mem_store(ea, v, *width)?;
                Ok(None)
            }
        }
    }

    fn device_guard(&self, pa: u32) -> Result<(), (Cause, u16)> {
        if self.is_device(pa) && !self.surprise.supervisor() {
            return Err((Cause::Privilege, pa as u16));
        }
        Ok(())
    }

    fn mem_load(&mut self, ea: u32, width: Width) -> Result<u32, (Cause, u16)> {
        if self.cfg.byte_addressed {
            match width {
                Width::Word => {
                    if ea & 3 != 0 {
                        return Err((Cause::AddressError, ea as u16));
                    }
                    let pa = self.translate(ea >> 2)?;
                    self.device_guard(pa)?;
                    Ok(self.bus_read(pa))
                }
                Width::Byte => {
                    let pa = self.translate(ea >> 2)?;
                    self.device_guard(pa)?;
                    let w = self.bus_read(pa);
                    Ok(mips_core::word::extract_byte(w, ea & 3))
                }
            }
        } else {
            if width == Width::Byte {
                return Err((Cause::Illegal, 0));
            }
            let pa = self.translate(ea)?;
            self.device_guard(pa)?;
            Ok(self.bus_read(pa))
        }
    }

    fn mem_store(&mut self, ea: u32, v: u32, width: Width) -> Result<(), (Cause, u16)> {
        if self.cfg.byte_addressed {
            match width {
                Width::Word => {
                    if ea & 3 != 0 {
                        return Err((Cause::AddressError, ea as u16));
                    }
                    let pa = self.translate(ea >> 2)?;
                    self.device_guard(pa)?;
                    self.bus_write(pa, v);
                }
                Width::Byte => {
                    // Byte stores need the extra read the paper charges
                    // against byte addressing: read-modify-write the word.
                    let pa = self.translate(ea >> 2)?;
                    self.device_guard(pa)?;
                    let w = self.bus_read(pa);
                    self.bus_write(pa, mips_core::word::insert_byte(w, ea & 3, v));
                }
            }
        } else {
            if width == Width::Byte {
                return Err((Cause::Illegal, 0));
            }
            let pa = self.translate(ea)?;
            self.device_guard(pa)?;
            self.bus_write(pa, v);
        }
        Ok(())
    }

    fn read_special(&self, sr: SpecialReg) -> u32 {
        match sr {
            SpecialReg::Surprise => self.surprise.raw(),
            SpecialReg::Lo => self.lo,
            SpecialReg::Pid => self.seg.pid,
            SpecialReg::PidBits => self.seg.pid_bits,
            SpecialReg::LowLimit => self.seg.low_limit,
            SpecialReg::HighBase => self.seg.high_base,
            SpecialReg::Ret0 => self.ret[0],
            SpecialReg::Ret1 => self.ret[1],
            SpecialReg::Ret2 => self.ret[2],
        }
    }

    fn write_special(&mut self, sr: SpecialReg, v: u32) {
        match sr {
            SpecialReg::Surprise => self.surprise = Surprise::from_raw(v),
            SpecialReg::Lo => self.lo = v,
            SpecialReg::Pid => self.seg.pid = v,
            SpecialReg::PidBits => self.seg.pid_bits = v.min(Segmentation::MAX_PID_BITS),
            SpecialReg::LowLimit => self.seg.low_limit = v,
            SpecialReg::HighBase => self.seg.high_base = v,
            SpecialReg::Ret0 => self.ret[0] = v,
            SpecialReg::Ret1 => self.ret[1] = v,
            SpecialReg::Ret2 => self.ret[2] = v,
        }
    }

    fn service_trap(&mut self, code: u16) -> Flow {
        match code {
            traps::HALT => Flow::Halt,
            traps::PUTC => {
                self.output.push(self.regs[Reg::R1.index()] as u8);
                Flow::Next
            }
            traps::PUTINT => {
                let s = (self.regs[Reg::R1.index()] as i32).to_string();
                self.output.extend_from_slice(s.as_bytes());
                Flow::Next
            }
            _ => Flow::Next,
        }
    }

    /// Executes one instruction. Returns `Ok(true)` to continue,
    /// `Ok(false)` on halt.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn step(&mut self) -> Result<bool, SimError> {
        if self.halted {
            return Ok(false);
        }
        if self.profile.instructions >= self.cfg.step_limit {
            return Err(SimError::StepLimit {
                limit: self.cfg.step_limit,
            });
        }

        // The timer is part of the instruction-boundary sample: its raise
        // is visible to the very interrupt check below, keeping tick
        // arrival a pure function of the executed-instruction count.
        if let (Some(t), Some(ctrl)) = (&mut self.timer, &mut self.int_ctrl) {
            if self.profile.instructions >= t.next_fire {
                ctrl.raise(t.device);
                t.next_fire += t.period;
            }
        }

        // Interrupts are sampled at instruction boundaries.
        if self.surprise.int_enable() && self.interrupt_line() {
            self.dispatch_exception(Cause::Interrupt, 0, true)?;
        }

        let Some(&instr) = self.program.fetch(self.pc) else {
            if self.cfg.native_traps {
                return Err(SimError::PcOutOfRange { pc: self.pc });
            }
            // With resident dispatch code a runaway pc is the kernel's
            // problem, not the host's: the fetch raises an address-error
            // exception and the OS decides (typically: kill the process,
            // keep the system up).
            self.dispatch_exception(Cause::AddressError, self.pc as u16, true)?;
            return Ok(true);
        };

        self.check_read_hazards(&instr);
        self.check_control_hazards(&instr);
        self.check_structural_hazards(&instr);

        // Execute. Immediate writes commit at end of step; a load's write
        // is held one extra step.
        let mut writes_now = WriteSet::default();
        let mut new_load: Option<(Reg, u32)> = None;
        let mut flow = Flow::Next;

        match &instr {
            Instr::Op { alu, mem } => {
                if instr.is_nop() {
                    self.profile.nops += 1;
                }
                if instr.is_packed_pair() {
                    self.profile.packed += 1;
                }
                // Evaluate the ALU piece on pre-instruction state.
                let alu_result: Option<(Reg, u32, bool)> =
                    alu.as_ref().map(|AluPiece { op, a, b, dst }| {
                        let (v, ovf) = op.eval(self.operand(*a), self.operand(*b), self.lo);
                        (*dst, v, ovf)
                    });
                // The memory reference commits before any register write.
                let mut fault: Option<(Cause, u16)> = None;
                if let Some(m) = mem {
                    match self.exec_mem(m) {
                        Ok(Some((dst, v))) => {
                            if m.is_delayed_load() {
                                new_load = Some((dst, v));
                            } else {
                                writes_now.push((dst, v));
                            }
                        }
                        Ok(None) => {}
                        Err(e) => fault = Some(e),
                    }
                    if m.references_memory() && fault.is_none() {
                        self.profile.record_ref(
                            self.refclass.get(self.pc as usize).copied().flatten(),
                            matches!(m, MemPiece::Store { .. }),
                        );
                    }
                }
                match fault {
                    Some((cause, detail)) => {
                        // Register writes suppressed; instruction restarts.
                        new_load = None;
                        flow = Flow::Exception { cause, detail };
                    }
                    None => {
                        if let Some((dst, v, ovf)) = alu_result {
                            if ovf && self.surprise.ovf_enable() {
                                // Result write inhibited; overflow trap.
                                flow = Flow::Exception {
                                    cause: Cause::Overflow,
                                    detail: 0,
                                };
                            } else {
                                writes_now.push((dst, v));
                            }
                        }
                    }
                }
            }
            Instr::SetCond(p) => {
                let v = p.cond.eval(self.operand(p.a), self.operand(p.b)) as u32;
                writes_now.push((p.dst, v));
            }
            Instr::Mvi(p) => writes_now.push((p.dst, p.imm as u32)),
            Instr::CmpBranch(p) => {
                self.profile.branches += 1;
                if p.cond.eval(self.operand(p.a), self.operand(p.b)) {
                    self.profile.branches_taken += 1;
                    let Some(target) = p.target.abs() else {
                        return Err(SimError::UnresolvedTarget { pc: self.pc });
                    };
                    flow = Flow::Branch {
                        delay: BRANCH_DELAY,
                        target,
                    };
                }
            }
            Instr::Jump(p) => {
                self.profile.branches += 1;
                self.profile.branches_taken += 1;
                let Some(target) = p.target.abs() else {
                    return Err(SimError::UnresolvedTarget { pc: self.pc });
                };
                flow = Flow::Branch {
                    delay: BRANCH_DELAY,
                    target,
                };
            }
            Instr::Call(p) => {
                self.profile.branches += 1;
                self.profile.branches_taken += 1;
                let Some(target) = p.target.abs() else {
                    return Err(SimError::UnresolvedTarget { pc: self.pc });
                };
                writes_now.push((p.link, self.pc + 1 + BRANCH_DELAY));
                flow = Flow::Branch {
                    delay: BRANCH_DELAY,
                    target,
                };
            }
            Instr::JumpInd(p) => {
                self.profile.branches += 1;
                self.profile.branches_taken += 1;
                let target = self.regs[p.base.index()].wrapping_add(p.disp as u32);
                flow = Flow::Branch {
                    delay: INDIRECT_DELAY,
                    target,
                };
            }
            Instr::Lea { target, dst } => {
                let Some(addr) = target.abs() else {
                    return Err(SimError::UnresolvedTarget { pc: self.pc });
                };
                writes_now.push((*dst, addr));
            }
            Instr::Trap(p) => {
                self.profile.traps += 1;
                if self.cfg.native_traps {
                    // A real trap drains the pipe before the handler runs:
                    // the service observes post-commit register state.
                    if let Some((r, v)) = self.load_in_flight.take() {
                        self.regs[r.index()] = v;
                    }
                    flow = self.service_trap(p.code);
                } else {
                    flow = Flow::Exception {
                        cause: Cause::Trap,
                        detail: p.code,
                    };
                }
            }
            Instr::Special(op) => match op {
                SpecialOp::Read { sr, dst } => {
                    if sr.privileged() && !self.surprise.supervisor() {
                        flow = Flow::Exception {
                            cause: Cause::Privilege,
                            detail: sr.code() as u16,
                        };
                    } else {
                        writes_now.push((*dst, self.read_special(*sr)));
                    }
                }
                SpecialOp::Write { sr, src } => {
                    if sr.privileged() && !self.surprise.supervisor() {
                        flow = Flow::Exception {
                            cause: Cause::Privilege,
                            detail: sr.code() as u16,
                        };
                    } else {
                        let v = self.operand(*src);
                        self.write_special(*sr, v);
                    }
                }
                SpecialOp::Rfe => {
                    if !self.surprise.supervisor() {
                        flow = Flow::Exception {
                            cause: Cause::Privilege,
                            detail: 0,
                        };
                    } else {
                        self.surprise.leave_exception();
                        // Rebuild the pipeline branch state from the chain.
                        let mut pend = PendingSet::default();
                        if self.ret[1] != self.ret[0] + 1 {
                            pend.push(PendingBranch {
                                slots: 1,
                                target: self.ret[1],
                                indirect: false,
                            });
                        }
                        if self.ret[2] != self.ret[1] + 1 {
                            // Only an indirect jump reaches two slots deep.
                            pend.push(PendingBranch {
                                slots: 2,
                                target: self.ret[2],
                                indirect: true,
                            });
                        }
                        flow = Flow::JumpNow {
                            pc: self.ret[0],
                            pending: pend,
                        };
                    }
                }
            },
            Instr::Halt => {
                if self.surprise.supervisor() || self.cfg.native_traps {
                    flow = Flow::Halt;
                } else {
                    return Err(SimError::HaltInUserMode { pc: self.pc });
                }
            }
        }

        // Memory-cycle accounting (every issue slot has a data cycle).
        self.profile.instructions += 1;
        if instr.references_memory() {
            self.profile.mem_cycles_used += 1;
        } else {
            self.profile.mem_cycles_free += 1;
            if self.mem.service_dma() {
                self.profile.dma_serviced += 1;
            }
        }

        // Commit: previous load first, then this instruction's writes
        // (a later instruction's write to the same register wins).
        match &flow {
            Flow::Exception { .. } => {
                // dispatch_exception commits the in-flight load itself and
                // suppresses this instruction's writes.
            }
            _ => {
                if let Some((r, v)) = self.load_in_flight.take() {
                    self.regs[r.index()] = v;
                }
                for &(r, v) in writes_now.as_slice() {
                    self.regs[r] = v;
                }
                self.load_in_flight = new_load;
            }
        }

        // Control.
        match flow {
            Flow::Next => {
                let (next, pend) = Self::advance(self.pc, self.pending);
                self.pending = pend;
                self.pc = next;
            }
            Flow::Branch { delay, target } => {
                let (next, mut pend) = Self::advance(self.pc, self.pending);
                pend.push(PendingBranch {
                    slots: delay,
                    target,
                    indirect: delay == INDIRECT_DELAY,
                });
                self.pending = pend;
                self.pc = next;
            }
            Flow::JumpNow { pc, pending } => {
                self.pc = pc;
                self.pending = pending;
            }
            Flow::Exception { cause, detail } => {
                let restart = cause.restarts_offender() || cause == Cause::Overflow;
                self.dispatch_exception(cause, detail, restart)?;
            }
            Flow::Halt => {
                self.halted = true;
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Runs until halt, on the selected [`Engine`].
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from [`Machine::step`].
    pub fn run(&mut self) -> Result<StopReason, SimError> {
        match self.engine {
            Engine::Reference => while self.step()? {},
            Engine::Fast => {
                while !self.halted {
                    self.run_steps(u64::MAX)?;
                }
            }
        }
        Ok(StopReason::Halt)
    }

    /// Calls a named procedure with the software calling convention
    /// (arguments in `r1..`, result in `r1`, return via `r15`): requires
    /// the program to define `name` and a `__halt` symbol pointing at a
    /// halt instruction.
    ///
    /// # Errors
    ///
    /// [`SimError::UndefinedSymbol`] if `name` or `__halt` is not defined;
    /// otherwise any [`SimError`] from the run itself.
    ///
    /// # Panics
    ///
    /// Panics if more than 4 arguments are passed (an API misuse, not a
    /// program property).
    pub fn run_fn(&mut self, name: &str, args: &[u32]) -> Result<u32, SimError> {
        assert!(args.len() <= 4, "at most 4 register arguments");
        let entry = self
            .program
            .symbol(name)
            .ok_or_else(|| SimError::UndefinedSymbol {
                name: name.to_string(),
            })?;
        let halt = self
            .program
            .symbol("__halt")
            .ok_or_else(|| SimError::UndefinedSymbol {
                name: "__halt".to_string(),
            })?;
        for (i, &a) in args.iter().enumerate() {
            self.regs[1 + i] = a;
        }
        self.set_reg(Reg::RA, halt);
        self.jump_to(entry);
        self.halted = false;
        self.run()?;
        Ok(self.reg(Reg::R1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_core::{
        AluOp, CmpBranchPiece, Cond, Instr, JumpIndPiece, JumpPiece, MemMode, MviPiece,
        ProgramBuilder, SetCondPiece, Target, TrapPiece, WordAddr,
    };

    fn prog(instrs: Vec<Instr>) -> Program {
        let mut b = ProgramBuilder::new();
        for i in instrs {
            b.push(i);
        }
        b.finish().unwrap()
    }

    fn mvi(v: u8, d: Reg) -> Instr {
        Instr::Mvi(MviPiece { imm: v, dst: d })
    }

    fn add(a: Operand, b: Operand, d: Reg) -> Instr {
        Instr::alu(AluPiece::new(AluOp::Add, a, b, d))
    }

    fn ld_abs(addr: u32, d: Reg) -> Instr {
        Instr::mem(MemPiece::load(MemMode::Absolute(WordAddr::new(addr)), d))
    }

    fn st_abs(s: Reg, addr: u32) -> Instr {
        Instr::mem(MemPiece::store(MemMode::Absolute(WordAddr::new(addr)), s))
    }

    #[test]
    fn alu_results_forward_to_next_instruction() {
        let p = prog(vec![
            mvi(5, Reg::R1),
            add(Reg::R1.into(), Operand::Small(3), Reg::R2),
            add(Reg::R2.into(), Reg::R2.into(), Reg::R3),
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R2), 8);
        assert_eq!(m.reg(Reg::R3), 16);
    }

    #[test]
    fn load_delay_exposes_stale_value() {
        // r1 = 7 (old); load r1 from mem (42); the NEXT instruction still
        // sees 7; the one after sees 42.
        let p = prog(vec![
            ld_abs(100, Reg::R1),
            add(Reg::R1.into(), Operand::Small(0), Reg::R2), // stale: 7
            add(Reg::R1.into(), Operand::Small(0), Reg::R3), // fresh: 42
            Instr::Halt,
        ]);
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                check_hazards: true,
                ..MachineConfig::default()
            },
        );
        m.set_reg(Reg::R1, 7);
        m.mem_mut().poke(100, 42);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R2), 7, "delay slot reads the old value");
        assert_eq!(m.reg(Reg::R3), 42);
        assert_eq!(m.hazards().len(), 1);
        assert_eq!(m.hazards()[0].pc, 1);
    }

    #[test]
    fn jump_in_branch_delay_slot_records_hazard() {
        let p = prog(vec![
            Instr::Jump(JumpPiece {
                target: Target::Abs(3),
            }),
            Instr::Jump(JumpPiece {
                target: Target::Abs(4),
            }), // in the first jump's shadow
            Instr::NOP,
            mvi(1, Reg::R1), // first target; second fires after it
            Instr::Halt,
        ]);
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                check_hazards: true,
                ..MachineConfig::default()
            },
        );
        m.run().unwrap();
        assert_eq!(
            m.hazards(),
            &[Hazard {
                pc: 1,
                kind: HazardKind::BranchInShadow
            }]
        );
    }

    #[test]
    fn branch_in_indirect_shadow_records_hazard() {
        let p = prog(vec![
            mvi(5, Reg::R4),
            Instr::JumpInd(JumpIndPiece {
                base: Reg::R4,
                disp: 0,
            }),
            Instr::Jump(JumpPiece {
                target: Target::Abs(5),
            }), // first indirect shadow slot
            Instr::NOP,
            Instr::NOP,
            Instr::Halt,
        ]);
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                check_hazards: true,
                ..MachineConfig::default()
            },
        );
        m.run().unwrap();
        assert_eq!(
            m.hazards(),
            &[Hazard {
                pc: 2,
                kind: HazardKind::IndirectShadow
            }]
        );
    }

    #[test]
    fn clean_delay_slots_record_no_control_hazard() {
        let p = prog(vec![
            Instr::Jump(JumpPiece {
                target: Target::Abs(2),
            }),
            mvi(1, Reg::R1), // ordinary delay-slot instruction
            Instr::Halt,
        ]);
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                check_hazards: true,
                ..MachineConfig::default()
            },
        );
        m.run().unwrap();
        assert!(m.hazards().is_empty());
    }

    #[test]
    fn alu_write_in_delay_slot_beats_load_commit() {
        // load r1; next instruction writes r1 itself: the program order
        // write (later instruction) must win.
        let p = prog(vec![
            ld_abs(100, Reg::R1),
            mvi(9, Reg::R1),
            add(Reg::R1.into(), Operand::Small(0), Reg::R2),
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        m.mem_mut().poke(100, 42);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R2), 9);
        assert_eq!(m.reg(Reg::R1), 9);
    }

    #[test]
    fn delayed_branch_executes_slot() {
        let mut b = ProgramBuilder::new();
        let l = b.fresh_label();
        b.push(mvi(0, Reg::R1));
        b.push(Instr::Jump(JumpPiece {
            target: Target::Label(l),
        }));
        b.push(mvi(1, Reg::R2)); // delay slot: executes
        b.push(mvi(1, Reg::R3)); // skipped
        b.define(l).unwrap();
        b.push(Instr::Halt);
        let mut m = Machine::new(b.finish().unwrap());
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R2), 1);
        assert_eq!(m.reg(Reg::R3), 0);
    }

    #[test]
    fn untaken_branch_falls_through() {
        let p = prog(vec![
            Instr::CmpBranch(CmpBranchPiece::new(
                Cond::Eq,
                Operand::Small(1),
                Operand::Small(2),
                Target::Abs(3),
            )),
            mvi(7, Reg::R1),
            Instr::Halt,
            mvi(9, Reg::R1),
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R1), 7);
        assert_eq!(m.profile().branches, 1);
        assert_eq!(m.profile().branches_taken, 0);
    }

    #[test]
    fn indirect_jump_has_two_delay_slots() {
        let p = prog(vec![
            mvi(6, Reg::R4),
            Instr::JumpInd(JumpIndPiece {
                base: Reg::R4,
                disp: 0,
            }),
            mvi(1, Reg::R1), // slot 1: executes
            mvi(2, Reg::R2), // slot 2: executes
            mvi(3, Reg::R3), // skipped
            mvi(9, Reg::R5), // skipped
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R1), 1);
        assert_eq!(m.reg(Reg::R2), 2);
        assert_eq!(m.reg(Reg::R3), 0);
        assert_eq!(m.reg(Reg::R5), 0);
    }

    #[test]
    fn call_links_past_delay_slot() {
        let mut b = ProgramBuilder::new();
        let f = b.fresh_label();
        b.push(Instr::Call(mips_core::CallPiece {
            target: Target::Label(f),
            link: Reg::RA,
        }));
        b.push(mvi(1, Reg::R2)); // delay slot
        b.push(mvi(3, Reg::R3)); // return lands here
        b.push(Instr::Halt);
        b.define(f).unwrap();
        b.push(Instr::JumpInd(JumpIndPiece {
            base: Reg::RA,
            disp: 0,
        }));
        b.push(Instr::NOP);
        b.push(Instr::NOP);
        let mut m = Machine::new(b.finish().unwrap());
        m.run().unwrap();
        assert_eq!(m.reg(Reg::RA), 2);
        assert_eq!(m.reg(Reg::R2), 1);
        assert_eq!(m.reg(Reg::R3), 3);
    }

    #[test]
    fn set_conditionally() {
        let p = prog(vec![
            mvi(13, Reg::R1),
            Instr::SetCond(SetCondPiece::new(
                Cond::Eq,
                Reg::R1.into(),
                Operand::Small(13),
                Reg::R2,
            )),
            Instr::SetCond(SetCondPiece::new(
                Cond::Lt,
                Reg::R1.into(),
                Operand::Small(13),
                Reg::R3,
            )),
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R2), 1);
        assert_eq!(m.reg(Reg::R3), 0);
    }

    #[test]
    fn store_and_load_round_trip_memory() {
        let p = prog(vec![
            mvi(77, Reg::R1),
            st_abs(Reg::R1, 500),
            ld_abs(500, Reg::R2),
            Instr::NOP, // load delay
            add(Reg::R2.into(), Operand::Small(1), Reg::R3),
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R3), 78);
        assert_eq!(m.mem().peek(500), 77);
    }

    #[test]
    fn free_cycle_accounting_and_dma() {
        let p = prog(vec![
            mvi(1, Reg::R1),     // free
            st_abs(Reg::R1, 10), // used
            mvi(2, Reg::R2),     // free
            Instr::Halt,         // free
        ]);
        let mut m = Machine::new(p);
        m.mem_mut()
            .queue_dma(crate::mem::Dma::Write { addr: 9, value: 99 });
        m.run().unwrap();
        assert_eq!(m.profile().mem_cycles_used, 1);
        assert_eq!(m.profile().mem_cycles_free, 3);
        assert_eq!(m.profile().dma_serviced, 1);
        assert_eq!(m.mem().peek(9), 99);
    }

    #[test]
    fn native_trap_services() {
        let p = prog(vec![
            mvi(b'h', Reg::R1),
            Instr::Trap(TrapPiece { code: traps::PUTC }),
            mvi(42, Reg::R1),
            Instr::Trap(TrapPiece {
                code: traps::PUTINT,
            }),
            Instr::Trap(TrapPiece { code: traps::HALT }),
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.output_string(), "h42");
        assert!(m.halted());
    }

    #[test]
    fn overflow_trap_disabled_wraps() {
        let p = prog(vec![
            Instr::mem(MemPiece::LoadImm {
                value: 0xffffff,
                dst: Reg::R1,
            }),
            Instr::alu(AluPiece::new(
                AluOp::Mul,
                Reg::R1.into(),
                Reg::R1.into(),
                Reg::R2,
            )),
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R2), 0xffffffu32.wrapping_mul(0xffffff));
    }

    #[test]
    fn step_limit_catches_runaway() {
        let mut b = ProgramBuilder::new();
        let l = b.fresh_label();
        b.define(l).unwrap();
        b.push(Instr::Jump(JumpPiece {
            target: Target::Label(l),
        }));
        b.push(Instr::NOP);
        let mut m = Machine::with_config(
            b.finish().unwrap(),
            MachineConfig {
                step_limit: 100,
                ..MachineConfig::default()
            },
        );
        assert_eq!(m.run(), Err(SimError::StepLimit { limit: 100 }));
    }

    #[test]
    fn pc_out_of_range_detected() {
        let p = prog(vec![mvi(1, Reg::R1)]);
        let mut m = Machine::new(p);
        assert_eq!(m.run(), Err(SimError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn long_immediate_has_no_load_delay() {
        let p = prog(vec![
            Instr::mem(MemPiece::LoadImm {
                value: 300,
                dst: Reg::R1,
            }),
            add(Reg::R1.into(), Operand::Small(1), Reg::R2), // no delay
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R2), 301);
        assert_eq!(m.profile().long_immediates, 1);
        // long immediate leaves its memory cycle free
        assert_eq!(m.profile().mem_cycles_used, 0);
    }

    #[test]
    fn byte_access_illegal_on_word_machine() {
        let p = prog(vec![
            Instr::mem(MemPiece::Load {
                mode: MemMode::Absolute(WordAddr::new(4)),
                dst: Reg::R1,
                width: Width::Byte,
            }),
            Instr::Halt,
        ]);
        let mut m = Machine::new(p);
        // No handler at 0 — the illegal access double-faults.
        m.jump_to(0);
        // instruction 0 IS the bad one; dispatch finds code at 0 (itself)
        // so it would loop; but fetch(0) exists so no DoubleFault. Use a
        // program whose vector is absent instead: easier to just observe
        // the exception counter after one step.
        m.step().unwrap();
        assert_eq!(m.profile().exceptions, 1);
        assert_eq!(m.surprise().cause(), Cause::Illegal);
    }

    #[test]
    fn byte_machine_byte_store_costs_extra_read() {
        let p = prog(vec![
            mvi(0xAB, Reg::R1),
            mvi(6, Reg::R2), // byte address 6 = word 1, byte 2
            Instr::mem(MemPiece::Store {
                mode: MemMode::Based {
                    base: Reg::R2,
                    disp: 0,
                },
                src: Reg::R1,
                width: Width::Byte,
            }),
            Instr::mem(MemPiece::Load {
                mode: MemMode::Based {
                    base: Reg::R2,
                    disp: 0,
                },
                dst: Reg::R3,
                width: Width::Byte,
            }),
            Instr::NOP,
            Instr::Halt,
        ]);
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                byte_addressed: true,
                ..MachineConfig::default()
            },
        );
        m.run().unwrap();
        assert_eq!(m.reg(Reg::R3), 0xAB);
        assert_eq!(m.mem().peek(1), 0x00AB_0000);
        // byte store = read + write; byte load = read
        assert_eq!(m.mem().reads, 2);
        assert_eq!(m.mem().writes, 1);
    }

    #[test]
    fn misaligned_word_access_faults_on_byte_machine() {
        let p = prog(vec![
            mvi(5, Reg::R2),
            Instr::mem(MemPiece::Load {
                mode: MemMode::Based {
                    base: Reg::R2,
                    disp: 0,
                },
                dst: Reg::R1,
                width: Width::Word,
            }),
            Instr::Halt,
        ]);
        let mut m = Machine::with_config(
            p,
            MachineConfig {
                byte_addressed: true,
                ..MachineConfig::default()
            },
        );
        let _ = m.step();
        let _ = m.step();
        assert_eq!(m.surprise().cause(), Cause::AddressError);
    }

    #[test]
    fn run_fn_calling_convention() {
        // double:  r1 = r1 + r1; return
        let mut b = ProgramBuilder::new();
        b.define_symbol("double");
        b.push(add(Reg::R1.into(), Reg::R1.into(), Reg::R1));
        b.push(Instr::JumpInd(JumpIndPiece {
            base: Reg::RA,
            disp: 0,
        }));
        b.push(Instr::NOP);
        b.push(Instr::NOP);
        b.define_symbol("__halt");
        b.push(Instr::Halt);
        let mut m = Machine::new(b.finish().unwrap());
        assert_eq!(m.run_fn("double", &[21]).unwrap(), 42);
    }
}

#[cfg(test)]
mod lea_tests {
    use super::*;
    use mips_core::{Instr, ProgramBuilder, Target};

    #[test]
    fn lea_loads_the_code_address_and_feeds_jmpi() {
        // A two-entry branch table dispatched through lea + jmpi.
        let mut b = ProgramBuilder::new();
        let table = b.fresh_label();
        let arm0 = b.fresh_label();
        let arm1 = b.fresh_label();
        // r2 = index (set below), r3 = table base
        b.push(Instr::Lea {
            target: Target::Label(table),
            dst: Reg::R3,
        });
        b.push(Instr::alu(mips_core::AluPiece::new(
            mips_core::AluOp::Sll,
            Reg::R2.into(),
            mips_core::Operand::Small(1),
            Reg::R2,
        )));
        b.push(Instr::alu(mips_core::AluPiece::new(
            mips_core::AluOp::Add,
            Reg::R2.into(),
            Reg::R3.into(),
            Reg::R2,
        )));
        b.push(Instr::JumpInd(mips_core::JumpIndPiece {
            base: Reg::R2,
            disp: 0,
        }));
        b.push(Instr::NOP);
        b.push(Instr::NOP);
        b.define(table).unwrap();
        b.push(Instr::Jump(mips_core::JumpPiece {
            target: Target::Label(arm0),
        }));
        b.push(Instr::NOP);
        b.push(Instr::Jump(mips_core::JumpPiece {
            target: Target::Label(arm1),
        }));
        b.push(Instr::NOP);
        b.define(arm0).unwrap();
        b.push(Instr::Mvi(mips_core::MviPiece {
            imm: 10,
            dst: Reg::R5,
        }));
        b.push(Instr::Halt);
        b.define(arm1).unwrap();
        b.push(Instr::Mvi(mips_core::MviPiece {
            imm: 20,
            dst: Reg::R5,
        }));
        b.push(Instr::Halt);
        let p = b.finish().unwrap();

        for (idx, want) in [(0u32, 10u32), (1, 20)] {
            let mut m = Machine::new(p.clone());
            m.set_reg(Reg::R2, idx);
            m.run().unwrap();
            assert_eq!(m.reg(Reg::R5), want, "arm {idx}");
        }
    }
}
