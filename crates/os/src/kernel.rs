//! Host side of the OS: boot the guest kernel, load processes, run.
//!
//! The host never executes kernel logic itself — scheduling, paging,
//! and syscalls all happen in the guest assembly. What the host does
//! is linker-and-firmware work: assemble `kernel.s`, relocate each
//! user program into the shared instruction space behind it, seed the
//! process control blocks the way real firmware seeds boot state, and
//! read the results back out of kernel memory afterwards.
//!
//! Single-machine runs go through [`Kernel::run_until_idle`] /
//! [`Kernel::run_with_hook`]. Cluster drivers instead call
//! [`Kernel::start`] once per node and interleave the returned
//! [`KernelRun`]s with [`KernelRun::run_slice`], ferrying NIC frames
//! between nodes in the gaps — the same loop, cut at an instruction
//! budget instead of run-to-completion.

use crate::layout::{self, pcb, sys};
use crate::supervise::{LoopState, RecoveryEvent, Supervisor, SupervisorConfig};
use mips_asm::assemble;
use mips_core::{Instr, Program, Reg, Target, TrapPiece};
use mips_sim::{Cause, Engine, Machine, MachineConfig, PageMap, SimError, Snapshot, Surprise};
use std::fmt;

/// The guest kernel's source, assembled at [`kernel_program`].
pub const KERNEL_SRC: &str = include_str!("asm/kernel.s");

/// Assembles the guest kernel.
///
/// # Panics
///
/// Panics if the checked-in kernel source does not assemble — a build
/// invariant, covered by tests.
pub fn kernel_program() -> Program {
    assemble(KERNEL_SRC).expect("kernel.s assembles")
}

/// Errors from the OS runtime.
#[derive(Debug)]
pub enum OsError {
    /// Too many processes for the pid field / PCB table.
    TooManyProcs,
    /// A spawned program was empty.
    EmptyProgram,
    /// The underlying machine faulted in a way the kernel cannot see
    /// (step limit, double fault).
    Sim(SimError),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::TooManyProcs => {
                write!(f, "at most {} processes", layout::MAX_PROCS)
            }
            OsError::EmptyProgram => write!(f, "cannot spawn an empty program"),
            OsError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for OsError {}

/// Tunable knobs for a kernel run.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Instructions between timer ticks. Must comfortably exceed the
    /// kernel's tick path (~150 instructions) or the system livelocks
    /// servicing its own timer.
    pub time_slice: u64,
    /// Resident page frames shared by all processes (demand-paging
    /// budget), `2..=`[`layout::MAX_FRAMES`].
    pub frames: u32,
    /// Machine step limit (runaway guard).
    pub step_limit: u64,
    /// Watchdog: cumulative user-mode instruction budget per process.
    /// A process that exceeds it is presumed wedged and killed through
    /// an injected illegal-instruction exception (detail
    /// [`WATCHDOG_DETAIL`]); its pid lands in
    /// [`RunReport::watchdog_kills`]. `None` disables the watchdog.
    pub watchdog: Option<u64>,
    /// Execution engine for the underlying machine. With
    /// [`Engine::Fast`], hook-free runs ([`Kernel::run_until_idle`])
    /// run in fast-engine bursts: user-mode stretches fenced at the
    /// kernel-text boundary, and kernel text fenced at the edges of one
    /// cost section, so each burst is charged to one bucket. Supervised
    /// runs keep kernel text per-step (the supervisor observes every
    /// kernel instruction boundary), and runs with a hook attached
    /// always step the reference interpreter so the hook's pre-step
    /// observation point is preserved. The [`RunReport`], systems cost
    /// included, is identical either way.
    pub engine: Engine,
    /// Checkpoint/restart supervision. When set, the host periodically
    /// checkpoints every process at a safe boundary and rolls a killed
    /// process back to its last checkpoint instead of leaving it dead —
    /// see [`crate::supervise`]. `None` (the default) keeps the PR 3
    /// behaviour: detected faults stay kills.
    pub supervisor: Option<SupervisorConfig>,
    /// Attach a NIC at this fabric node address. The guest gains the
    /// `send`/`recv`/`poll` syscalls' device, and the host fabric
    /// reaches the rings through [`KernelRun::machine_mut`]
    /// ([`Machine::nic_mut`], [`Machine::nic_deliver`]). `None` (the
    /// default) boots no NIC.
    pub nic: Option<u32>,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            time_slice: 20_000,
            frames: 64,
            step_limit: 400_000_000,
            watchdog: None,
            engine: Engine::Reference,
            supervisor: None,
            nic: None,
        }
    }
}

/// Detail field of the watchdog's injected illegal-instruction
/// exception, distinguishing a watchdog kill from a genuine illegal
/// instruction in a machine-state dump.
pub const WATCHDOG_DETAIL: u16 = 0xD06;

/// How a process ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcStatus {
    /// Still runnable when the run stopped (only on error paths).
    Running,
    /// Called `exit`; the status word it passed.
    Exited(u32),
    /// Killed by a fatal exception of this cause.
    Killed(Cause),
}

/// Per-process outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcReport {
    /// Pid (1-based).
    pub pid: u32,
    /// Name given at `spawn`.
    pub name: String,
    /// Final state.
    pub status: ProcStatus,
    /// Everything the process wrote through the console syscalls, in
    /// its own order (demultiplexed by pid).
    pub output: Vec<u8>,
}

/// The kernel's own event counters, read back from kernel memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Timer interrupts taken.
    pub ticks: u64,
    /// Demand (hard) page faults.
    pub faults: u64,
    /// Soft faults: swept pages remapped on re-touch.
    pub soft_faults: u64,
    /// Frames evicted by the second-chance sweep.
    pub evictions: u64,
    /// Traps serviced.
    pub syscalls: u64,
    /// Process switch-ins.
    pub switches: u64,
    /// NIC delivery doorbells taken.
    pub net_irqs: u64,
    /// Frames committed by the `send` syscall.
    pub sends: u64,
    /// Frames consumed by the `recv` syscall.
    pub recvs: u64,
}

/// Instruction-cycle attribution by kernel section — the measured
/// price of running under an operating system instead of on bare
/// metal. Buckets follow the kernel's section labels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemsCost {
    /// User-mode instructions.
    pub user: u64,
    /// Register save on entry, PCB copies, restore before `rfe`.
    pub save_restore: u64,
    /// Cause decode and the fatal-exception path.
    pub dispatch: u64,
    /// System-call service bodies.
    pub syscall: u64,
    /// Timer acknowledge and clock bookkeeping.
    pub tick: u64,
    /// Scheduler scan.
    pub sched: u64,
    /// Page-fault handling: scan, map, sweep, evict.
    pub paging: u64,
    /// Discarded work reclaimed by the supervisor: victim cycles
    /// between checkpoint and kill, plus everything unwound by a
    /// whole-machine rollback. Not part of [`SystemsCost::kernel_total`]
    /// — it is the price of *recovery*, not of running the kernel, and
    /// after a rollback the bucket sum can legitimately exceed
    /// [`RunReport::instructions`] (the machine's counter rewinds; the
    /// waste does not un-happen).
    pub recovery: u64,
}

impl SystemsCost {
    /// Total kernel-mode instructions.
    pub fn kernel_total(&self) -> u64 {
        self.save_restore + self.dispatch + self.syscall + self.tick + self.sched + self.paging
    }

    /// Kernel instructions per hundred total, i.e. the multiprogramming
    /// overhead.
    pub fn overhead_percent(&self) -> f64 {
        let total = self.user + self.kernel_total();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.kernel_total() as f64 / total as f64
    }
}

/// A controlled kernel panic: an exception arrived while the machine
/// was already executing kernel code — the software equivalent of a
/// double fault. The hardware would silently re-enter `dispatch` and
/// shred the save area; the host runtime instead stops the run and
/// reports the full machine state, which is the honest failure mode
/// for a kernel whose invariants hold *by construction* rather than by
/// interlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPanic {
    /// Kernel-text pc the faulting step started at.
    pub pc: u32,
    /// Instructions executed when the fault hit.
    pub instructions: u64,
    /// Cause of the nested exception.
    pub cause: Cause,
    /// Detail field of the nested exception.
    pub detail: u16,
    /// Raw surprise register after the nested dispatch.
    pub surprise: u32,
    /// Saved return-address chain after the nested dispatch.
    pub ret: [u32; 3],
    /// General registers at the fault.
    pub regs: [u32; 16],
    /// Pid the kernel believed was current.
    pub current_pid: u32,
}

impl fmt::Display for KernelPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel panic: {:?} (detail {:#x}) inside the exception handler at pc {}",
            self.cause, self.detail, self.pc
        )?;
        writeln!(
            f,
            "  instructions={} current_pid={} surprise={:#010x}",
            self.instructions, self.current_pid, self.surprise
        )?;
        writeln!(
            f,
            "  ret0={} ret1={} ret2={}",
            self.ret[0], self.ret[1], self.ret[2]
        )?;
        for (i, chunk) in self.regs.chunks(4).enumerate() {
            write!(f, " ")?;
            for (j, v) in chunk.iter().enumerate() {
                write!(f, " r{:<2}={v:#010x}", i * 4 + j)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Per-process outcomes, in spawn (pid) order.
    pub procs: Vec<ProcReport>,
    /// Kernel event counters.
    pub counters: Counters,
    /// Cycle attribution across kernel sections.
    pub cost: SystemsCost,
    /// Total instructions executed (user + kernel).
    pub instructions: u64,
    /// The chronological console stream as `(pid, byte)` pairs — the
    /// interleaving evidence (per-process bytes are in
    /// [`ProcReport::output`]).
    pub console: Vec<(u32, u8)>,
    /// A controlled kernel panic that cut the run short, if any
    /// (processes not yet finished report [`ProcStatus::Running`]).
    pub panic: Option<KernelPanic>,
    /// Pids killed by the watchdog, in kill order. Under supervision a
    /// restarted process can be killed again, so a pid may repeat.
    pub watchdog_kills: Vec<u32>,
    /// Recovery actions the supervisor took, in event order (empty
    /// without [`KernelConfig::supervisor`]).
    pub recoveries: Vec<RecoveryEvent>,
    /// Pids that exhausted their restart budget and stay killed.
    pub quarantined: Vec<u32>,
}

struct Proc {
    name: String,
    program: Program,
}

/// The multiprogramming runtime: spawn programs, run them all
/// concurrently under the guest kernel.
pub struct Kernel {
    config: KernelConfig,
    procs: Vec<Proc>,
}

/// Which cost bucket a kernel section label belongs to.
const SECTIONS: [(&str, Bucket); 11] = [
    ("dispatch", Bucket::SaveRestore),
    ("decode", Bucket::Dispatch),
    ("svc", Bucket::Syscall),
    ("tick", Bucket::Tick),
    ("fault", Bucket::Paging),
    ("kill", Bucket::Dispatch),
    ("preempt", Bucket::SaveRestore),
    ("sched", Bucket::Sched),
    ("found", Bucket::SaveRestore),
    ("boot", Bucket::Sched),
    ("resume", Bucket::SaveRestore),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    SaveRestore,
    Dispatch,
    Syscall,
    Tick,
    Sched,
    Paging,
}

/// One kernel cost section: the text `[start, end)` and the bucket its
/// instructions are charged to.
#[derive(Debug, Clone, Copy)]
struct Section {
    start: u32,
    end: u32,
    bucket: Bucket,
}

/// The per-kernel-pc section table: entry `pc` is the section holding
/// kernel word `pc`. `starts` are the section labels' addresses; words
/// before the first label belong to `dispatch` (address 0).
fn section_table(mut starts: Vec<(u32, Bucket)>, klen: u32) -> Vec<Section> {
    starts.sort_by_key(|&(a, _)| a);
    if starts.first().is_none_or(|&(a, _)| a > 0) {
        starts.insert(0, (0, Bucket::SaveRestore));
    }
    let mut table = Vec::with_capacity(klen as usize);
    for (i, &(start, bucket)) in starts.iter().enumerate() {
        let end = starts.get(i + 1).map_or(klen, |&(a, _)| a);
        let s = Section { start, end, bucket };
        table.extend((start..end).map(|_| s));
    }
    table
}

fn charge(cost: &mut SystemsCost, b: Bucket, n: u64) {
    match b {
        Bucket::SaveRestore => cost.save_restore += n,
        Bucket::Dispatch => cost.dispatch += n,
        Bucket::Syscall => cost.syscall += n,
        Bucket::Tick => cost.tick += n,
        Bucket::Sched => cost.sched += n,
        Bucket::Paging => cost.paging += n,
    }
}

impl Kernel {
    /// A kernel with default configuration and no processes.
    pub fn boot() -> Kernel {
        Kernel::with_config(KernelConfig::default())
    }

    /// A kernel with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is unrunnable: a time slice too
    /// short for the kernel's own tick path, or a frame budget that
    /// cannot hold a working set.
    pub fn with_config(config: KernelConfig) -> Kernel {
        assert!(config.time_slice >= 512, "time slice livelocks the kernel");
        assert!(
            (2..=layout::MAX_FRAMES).contains(&config.frames),
            "frame budget out of range"
        );
        Kernel {
            config,
            procs: Vec::new(),
        }
    }

    /// Registers a program as a process. Returns its pid (1-based).
    ///
    /// The program runs exactly as compiled for bare metal: `Halt`
    /// instructions are rewritten to `trap #0` (exit) at load, and the
    /// native trap services become kernel syscalls with the same codes.
    ///
    /// # Errors
    ///
    /// [`OsError::TooManyProcs`] past [`layout::MAX_PROCS`];
    /// [`OsError::EmptyProgram`] for an empty program.
    pub fn spawn(&mut self, name: &str, program: Program) -> Result<u32, OsError> {
        if self.procs.len() as u32 >= layout::MAX_PROCS {
            return Err(OsError::TooManyProcs);
        }
        if program.is_empty() {
            return Err(OsError::EmptyProgram);
        }
        self.procs.push(Proc {
            name: name.to_string(),
            program,
        });
        Ok(self.procs.len() as u32)
    }

    /// Builds the combined image, boots the machine, and runs until
    /// the kernel halts with nothing left to schedule.
    ///
    /// # Errors
    ///
    /// [`OsError::Sim`] if the machine stops for a reason the kernel
    /// cannot handle (step limit exceeded, double fault).
    pub fn run_until_idle(&mut self) -> Result<RunReport, OsError> {
        self.run_inner(None)
    }

    /// Like [`Kernel::run_until_idle`], but calls `hook` with the live
    /// machine before every step — the seam fault injectors (and other
    /// instrumentation) attach to, mirroring the simulator's own
    /// timer-injection hook. The hook may flip registers, corrupt
    /// memory, raise or drop interrupt requests; the kernel hardening
    /// below (double-fault panic, watchdog) is what stands between
    /// those faults and a host panic.
    ///
    /// # Errors
    ///
    /// [`OsError::Sim`] if the machine stops for a reason the kernel
    /// cannot handle (step limit exceeded, double fault). A *controlled*
    /// kernel panic is not an error: the run returns with
    /// [`RunReport::panic`] set and the machine-state dump inside.
    pub fn run_with_hook<F>(&mut self, mut hook: F) -> Result<RunReport, OsError>
    where
        F: FnMut(&mut Machine),
    {
        self.run_inner(Some(&mut hook))
    }

    /// The shared run loop. `hook` is `None` for plain runs — the only
    /// shape eligible for fast user-mode bursts, since a hook demands a
    /// per-step observation point.
    fn run_inner(
        &mut self,
        mut hook: Option<&mut dyn FnMut(&mut Machine)>,
    ) -> Result<RunReport, OsError> {
        let mut run = self.start()?;
        loop {
            // Reborrow the hook each lap so the loop doesn't pin it.
            if run.run_slice(u64::MAX, hook.as_deref_mut())? {
                break;
            }
        }
        Ok(run.report())
    }

    /// Builds the combined image and boots the machine, returning a
    /// stepwise runtime instead of running to completion. Cluster
    /// drivers call this once per node, then interleave the
    /// [`KernelRun`]s with [`KernelRun::run_slice`] round-robin,
    /// moving NIC frames between nodes in the gaps.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` reserves the
    /// boot path's right to report image-construction failures.
    pub fn start(&self) -> Result<KernelRun, OsError> {
        let kernel = kernel_program();
        let klen = kernel.len() as u32;

        // Link: kernel at 0, then each process image, entry recorded.
        let mut image: Vec<Instr> = kernel.instrs().to_vec();
        let mut entries = Vec::with_capacity(self.procs.len());
        for p in &self.procs {
            let off = image.len() as u32;
            entries.push(off);
            image.extend(relocate(&p.program, off));
        }
        let mut program = Program::new(image);
        for (name, addr) in kernel.symbols() {
            program.define_symbol(name, addr);
        }

        let mut m = Machine::with_config(
            program,
            MachineConfig {
                native_traps: false, // traps vector to the kernel
                step_limit: self.config.step_limit,
                ..MachineConfig::default()
            },
        );
        m.set_engine(self.config.engine);
        m.attach_page_map(PageMap::new());
        m.attach_timer(self.config.time_slice, 0);
        if let Some(node) = self.config.nic {
            m.attach_nic(node);
        }
        // The kernel writes `(pid << 8) | byte` console words; the host
        // demultiplexes them afterwards.
        m.attach_console();

        // Segmentation geometry is global; the kernel switches spaces
        // by rewriting only the pid register.
        {
            let seg = m.segmentation_mut();
            seg.pid = 0;
            seg.pid_bits = layout::PID_BITS;
            seg.low_limit = layout::LOW_LIMIT;
            seg.high_base = layout::HIGH_BASE;
        }

        // Seed kernel globals and one PCB per process.
        let mem = m.mem_mut();
        mem.poke(layout::NPROCS, self.procs.len() as u32);
        mem.poke(layout::NFRAMES, self.config.frames);
        for (i, entry) in entries.iter().enumerate() {
            let base = layout::PCB_BASE + (i as u32 + 1) * layout::PCB_STRIDE;
            mem.poke(base + pcb::STATE, pcb::STATE_RUNNABLE);
            mem.poke(base + pcb::ENTRY, *entry);
            mem.poke(base + pcb::RET0, *entry);
            mem.poke(base + pcb::RET0 + 1, *entry + 1);
            mem.poke(base + pcb::RET0 + 2, *entry + 2);
            mem.poke(base + pcb::SURPRISE, layout::USER_SURPRISE);
            mem.poke(base + pcb::BRK, layout::INITIAL_BRK);
            // r0..r15 start at zero; the compiled prologue sets its
            // own stack pointer.
        }

        // Map every kernel word to its cost section for attribution.
        let sections = section_table(
            SECTIONS
                .iter()
                .map(|&(name, b)| (m.program().symbol(name).expect("kernel section"), b))
                .collect(),
            klen,
        );

        let st = LoopState {
            cost: SystemsCost::default(),
            user_spent: vec![0; self.procs.len() + 1],
            watchdog_kills: Vec::new(),
            watchdog_fired: vec![false; self.procs.len() + 1],
            cur_pid: 0,
            pid_stale: true,
        };
        let sup = self
            .config
            .supervisor
            .map(|cfg| Supervisor::new(cfg, self.procs.len(), klen));

        Ok(KernelRun {
            m,
            klen,
            names: self.procs.iter().map(|p| p.name.clone()).collect(),
            config: self.config.clone(),
            sections,
            st,
            sup,
            panic: None,
            recoveries: Vec::new(),
            quarantined: Vec::new(),
            done: false,
        })
    }
}

/// A booted kernel machine that runs in instruction-budgeted slices —
/// the seam cluster drivers schedule nodes through. Between slices the
/// caller may inspect or mutate the live machine (deliver NIC frames,
/// collect the TX ring), take a [`NodeCheckpoint`], or roll back to
/// one: the deterministic-replay contract is that identical slice
/// budgets and identical between-slice mutations reproduce the run
/// byte-for-byte.
pub struct KernelRun {
    m: Machine,
    klen: u32,
    names: Vec<String>,
    config: KernelConfig,
    /// Per-kernel-pc cost sections (length `klen`).
    sections: Vec<Section>,
    st: LoopState,
    sup: Option<Supervisor>,
    panic: Option<KernelPanic>,
    recoveries: Vec<RecoveryEvent>,
    quarantined: Vec<u32>,
    done: bool,
}

/// Everything needed to roll a [`KernelRun`] back to an earlier point:
/// the machine snapshot (registers, memory, devices — NIC rings
/// included), the console high-water mark, and the host-side loop
/// bookkeeping. Taken with [`KernelRun::checkpoint`], applied with
/// [`KernelRun::restore`]; the cluster layer uses these to revive
/// killed nodes.
#[derive(Clone)]
pub struct NodeCheckpoint {
    snap: Snapshot,
    console_len: usize,
    st: LoopState,
    panic: Option<KernelPanic>,
    done: bool,
}

impl KernelRun {
    /// The live machine, e.g. for reading [`Machine::nic`] between
    /// slices.
    pub fn machine(&self) -> &Machine {
        &self.m
    }

    /// Mutable access to the live machine, e.g. for delivering frames
    /// into the NIC between slices.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.m
    }

    /// Whether the run has finished (kernel idle, panic, or supervisor
    /// stop). Further [`KernelRun::run_slice`] calls return
    /// immediately.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Runs up to `budget` further instructions (`u64::MAX` = to
    /// completion). Returns `Ok(true)` when the kernel has finished —
    /// idle, controlled panic, or supervisor stop — and `Ok(false)`
    /// when the budget ran out first. `hook`, when present, observes
    /// the machine before every step and pins execution to the
    /// reference interpreter, exactly as in [`Kernel::run_with_hook`].
    ///
    /// # Errors
    ///
    /// [`OsError::Sim`] if the machine stops for a reason the kernel
    /// cannot handle (step limit exceeded, double fault).
    pub fn run_slice(
        &mut self,
        budget: u64,
        mut hook: Option<&mut (dyn FnMut(&mut Machine) + '_)>,
    ) -> Result<bool, OsError> {
        if self.done {
            return Ok(true);
        }
        let klen = self.klen;
        let slice_start = self.m.profile().instructions;
        // Run, attributing each executed instruction to a section.
        // An interrupt dispatches before fetch, so the instruction a
        // step actually executes is the kernel's entry word, not the
        // one at the sampled pc; traps and faults dispatch *after*
        // executing (or suppressing) the instruction at the sampled pc.
        // A fetch of an out-of-range pc dispatches without executing
        // anything (the instruction count stands still).
        loop {
            if self.m.profile().instructions.saturating_sub(slice_start) >= budget {
                return Ok(false);
            }
            if let Some(h) = hook.as_deref_mut() {
                h(&mut self.m);
            }
            if let Some(s) = self.sup.as_mut() {
                s.observe(&mut self.m, &mut self.st);
            }
            if self.st.pid_stale && self.m.pc() >= klen {
                // The kernel just handed off to user code; re-read who.
                self.st.cur_pid = self.m.mem().peek(layout::CURRENT);
                self.st.pid_stale = false;
            }
            if let Some(wd_budget) = self.config.watchdog {
                if self.m.pc() >= klen
                    && !self.m.surprise().supervisor()
                    && (self.st.cur_pid as usize) < self.st.user_spent.len()
                    && self.st.cur_pid > 0
                    && self.st.user_spent[self.st.cur_pid as usize] >= wd_budget
                    && !self.st.watchdog_fired[self.st.cur_pid as usize]
                {
                    // The process outlived its budget: squeeze the
                    // machine with an exception the kernel's decode
                    // treats as fatal — kill-and-continue, not a halt.
                    // The fired latch (cleared by a supervised restart,
                    // which also refunds the budget) keeps the squeeze
                    // from repeating while the kill is in flight.
                    self.st.watchdog_fired[self.st.cur_pid as usize] = true;
                    self.st.watchdog_kills.push(self.st.cur_pid);
                    self.m
                        .raise_exception(Cause::Illegal, WATCHDOG_DETAIL)
                        .map_err(OsError::Sim)?;
                }
            }
            // Hook-free runs burst on the fast path, fenced so that
            // every instruction a burst executes belongs to one cost
            // bucket and is charged with one add. A burst never
            // dispatches an exception and stops before any instruction
            // the fast engine cannot run; a burst of 0 falls through
            // to the per-step attribution below.
            if hook.is_none() && self.config.engine == Engine::Fast {
                let pc = self.m.pc();
                let spent = self.m.profile().instructions.saturating_sub(slice_start);
                let mut cap = budget.saturating_sub(spent).max(1);
                if pc >= klen {
                    // User mode, fenced at the kernel-text boundary and
                    // capped by the watchdog budget. The burst refuses a
                    // due-but-deferred snapshot point (non-quiescent
                    // pipeline, or a restart waiting out its backoff),
                    // which pins execution to the per-step path until
                    // the supervisor clears it.
                    if !self.m.surprise().supervisor() {
                        let cur = self.st.cur_pid as usize;
                        if let (Some(wd_budget), Some(&used)) =
                            (self.config.watchdog, self.st.user_spent.get(cur))
                        {
                            if cur > 0 {
                                cap = cap.min(wd_budget.saturating_sub(used).max(1));
                            }
                        }
                        let k = self.m.run_fenced(cap, klen, u32::MAX);
                        if k > 0 {
                            self.st.cost.user += k;
                            if let Some(used) = self.st.user_spent.get_mut(cur) {
                                *used += k;
                            }
                            continue;
                        }
                    }
                } else if self.sup.is_none() {
                    // Kernel text, fenced at the edges of the section
                    // holding pc. Supervised runs stay per-step here:
                    // the supervisor scans for kills at every kernel
                    // instruction boundary.
                    let s = self.sections[pc as usize];
                    let k = self.m.run_fenced(cap, s.start, s.end);
                    if k > 0 {
                        charge(&mut self.st.cost, s.bucket, k);
                        self.st.pid_stale = true;
                        continue;
                    }
                }
            }
            let pc = self.m.pc();
            let sup_before = self.m.surprise().supervisor();
            let exceptions = self.m.profile().exceptions;
            let instructions = self.m.profile().instructions;
            let more = self.m.step().map_err(OsError::Sim)?;
            let faulted = self.m.profile().exceptions > exceptions;
            if self.m.profile().instructions > instructions {
                let dispatched_first = faulted && self.m.pc() == 1;
                let executed = if dispatched_first { 0 } else { pc };
                if executed >= klen {
                    self.st.cost.user += 1;
                    if let Some(used) = self.st.user_spent.get_mut(self.st.cur_pid as usize) {
                        *used += 1;
                    }
                } else {
                    charge(
                        &mut self.st.cost,
                        self.sections[executed as usize].bucket,
                        1,
                    );
                    self.st.pid_stale = true;
                }
            }
            if faulted && sup_before && pc < klen {
                // A fault *inside* the exception handler: the hardware
                // would re-enter dispatch and shred the save area. With
                // supervision, roll the whole machine back to the last
                // global snapshot and replay; otherwise (or past the
                // rollback budget) stop with a machine-state dump.
                if let Some(s) = self.sup.as_mut() {
                    if s.on_panic(&mut self.m, &mut self.st)
                        .map_err(OsError::Sim)?
                    {
                        continue;
                    }
                }
                let mut regs = [0u32; 16];
                for (i, slot) in regs.iter_mut().enumerate() {
                    *slot = self.m.reg(Reg::from_index(i).expect("16 registers"));
                }
                self.panic = Some(KernelPanic {
                    pc,
                    instructions: self.m.profile().instructions,
                    cause: self.m.surprise().cause(),
                    detail: self.m.surprise().detail(),
                    surprise: self.m.surprise().raw(),
                    ret: self.m.ret_addrs(),
                    regs,
                    current_pid: self.m.mem().peek(layout::CURRENT),
                });
                self.finish();
                return Ok(true);
            }
            if !more {
                let halted_for_good = match self.sup.as_mut() {
                    Some(s) => !s.on_halt(&mut self.m, &mut self.st),
                    None => true,
                };
                if halted_for_good {
                    self.finish();
                    return Ok(true);
                }
            }
        }
    }

    /// Seals the run: drains the supervisor and latches `done`.
    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let (recoveries, quarantined, discarded) = match self.sup.take() {
            Some(s) => s.finish(),
            None => (Vec::new(), Vec::new(), 0),
        };
        self.st.cost.recovery = discarded;
        self.recoveries = recoveries;
        self.quarantined = quarantined;
    }

    /// Captures the node for a later [`KernelRun::restore`]. Returns
    /// `None` while a supervisor is attached — its internal snapshots
    /// and budgets are not part of the capture, so a rollback would
    /// desynchronize them (cluster drivers run nodes unsupervised and
    /// do their own checkpointing, which is exactly this call).
    pub fn checkpoint(&self) -> Option<NodeCheckpoint> {
        if self.sup.is_some() {
            return None;
        }
        Some(NodeCheckpoint {
            snap: self.m.snapshot(),
            console_len: self.m.console().len(),
            st: self.st.clone(),
            panic: self.panic.clone(),
            done: self.done,
        })
    }

    /// Rolls the node back to a checkpoint: machine state (NIC rings
    /// included), console high-water mark, and loop bookkeeping all
    /// rewind, so re-running the same slices with the same deliveries
    /// reproduces the original trajectory byte-for-byte.
    ///
    /// # Errors
    ///
    /// [`OsError::Sim`] when the snapshot does not fit this machine
    /// (it was taken from a different node shape).
    pub fn restore(&mut self, cp: &NodeCheckpoint) -> Result<(), OsError> {
        self.m.restore(&cp.snap).map_err(OsError::Sim)?;
        if let Some(console) = self.m.console_mut() {
            console.truncate(cp.console_len);
        }
        self.st = cp.st.clone();
        self.panic = cp.panic.clone();
        self.done = cp.done;
        Ok(())
    }

    /// The run's results so far: final if [`KernelRun::is_done`],
    /// otherwise a mid-flight view (unfinished processes report
    /// [`ProcStatus::Running`]).
    pub fn report(&self) -> RunReport {
        let mem = self.m.mem();
        let counters = Counters {
            ticks: mem.peek(layout::KTICKS) as u64,
            faults: mem.peek(layout::KFAULTS) as u64,
            soft_faults: mem.peek(layout::KSOFT) as u64,
            evictions: mem.peek(layout::KEVICTS) as u64,
            syscalls: mem.peek(layout::KSYSCALLS) as u64,
            switches: mem.peek(layout::KSWITCHES) as u64,
            net_irqs: mem.peek(layout::KNETIRQ) as u64,
            sends: mem.peek(layout::KSENDS) as u64,
            recvs: mem.peek(layout::KRECVS) as u64,
        };
        let mut outputs: Vec<Vec<u8>> = vec![Vec::new(); self.names.len() + 1];
        let mut stream = Vec::with_capacity(self.m.console().len());
        for &word in self.m.console() {
            let pid = (word >> 8) as usize;
            let byte = (word & 0xff) as u8;
            stream.push((pid as u32, byte));
            if pid < outputs.len() {
                outputs[pid].push(byte);
            }
        }
        let procs = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let pid = i as u32 + 1;
                let base = layout::PCB_BASE + pid * layout::PCB_STRIDE;
                let code = mem.peek(base + pcb::CODE);
                let status = match mem.peek(base + pcb::STATE) {
                    pcb::STATE_EXITED => ProcStatus::Exited(code),
                    pcb::STATE_KILLED => ProcStatus::Killed(Surprise::from_raw(code).cause()),
                    _ => ProcStatus::Running,
                };
                ProcReport {
                    pid,
                    name: name.clone(),
                    status,
                    output: std::mem::take(&mut outputs[pid as usize]),
                }
            })
            .collect();
        RunReport {
            procs,
            counters,
            cost: self.st.cost,
            instructions: self.m.profile().instructions,
            console: stream,
            panic: self.panic.clone(),
            watchdog_kills: self.st.watchdog_kills.clone(),
            recoveries: self.recoveries.clone(),
            quarantined: self.quarantined.clone(),
        }
    }
}

/// Relocates a bare-metal program to load offset `off`: every resolved
/// absolute control-flow target shifts, and `halt` (a bare-metal
/// simulator convenience that would fault in user mode) becomes the
/// exit syscall.
fn relocate(p: &Program, off: u32) -> Vec<Instr> {
    p.instrs()
        .iter()
        .map(|&i| {
            if matches!(i, Instr::Halt) {
                return Instr::Trap(TrapPiece::new(sys::EXIT).expect("exit code fits"));
            }
            match i.target() {
                Some(Target::Abs(a)) => i.with_target(Target::Abs(a + off)),
                _ => i,
            }
        })
        .collect()
}

// Re-exported device addresses, for tests and documentation.
pub use mips_sim::machine::{
    CONSOLE_ADDR as CONSOLE, INTCTRL_ADDR as INTCTRL, MAPUNIT_ADDR as MAPUNIT, NIC_ADDR as NIC,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_assembles_and_names_every_section() {
        let k = kernel_program();
        assert_eq!(k.symbol("dispatch"), Some(0), "exception vector at zero");
        for (name, _) in SECTIONS {
            assert!(k.symbol(name).is_some(), "kernel.s defines `{name}:`");
        }
    }

    /// Every kernel word maps to exactly one section, sections tile the
    /// text without gaps, and each label's section carries its bucket —
    /// the table a fenced kernel burst charges with one add.
    #[test]
    fn section_table_tiles_kernel_text() {
        let k = kernel_program();
        let klen = k.len() as u32;
        let table = section_table(
            SECTIONS
                .iter()
                .map(|&(name, b)| (k.symbol(name).unwrap(), b))
                .collect(),
            klen,
        );
        assert_eq!(table.len(), klen as usize);
        for (pc, s) in table.iter().enumerate() {
            assert!((s.start..s.end).contains(&(pc as u32)), "pc {pc}");
            assert_eq!(table[s.start as usize].start, s.start);
            assert_eq!(table[s.end as usize - 1].end, s.end);
        }
        for (name, b) in SECTIONS {
            let s = table[k.symbol(name).unwrap() as usize];
            assert_eq!(s.start, k.symbol(name).unwrap(), "{name} starts a section");
            assert_eq!(s.bucket, b, "{name} bucket");
        }
        // Words before the first label would belong to `dispatch`.
        let t = section_table(vec![(4, Bucket::Tick)], 6);
        assert_eq!(
            (t[0].start, t[0].end, t[0].bucket),
            (0, 4, Bucket::SaveRestore)
        );
        assert_eq!((t[5].start, t[5].end, t[5].bucket), (4, 6, Bucket::Tick));
    }

    #[test]
    fn kernel_equ_device_addresses_match_the_machine() {
        // The `.equ` device constants in kernel.s must match the
        // simulator's MMIO map.
        for (name, addr) in [
            ("INTCTRL", INTCTRL),
            ("MAPUNIT", MAPUNIT),
            ("CONSOLE", CONSOLE),
            ("NIC", NIC),
        ] {
            let line = KERNEL_SRC
                .lines()
                .find(|l| l.trim_start().starts_with(&format!(".equ {name} ")))
                .unwrap_or_else(|| panic!("kernel.s defines .equ {name}"));
            let got: u32 = line
                .split(';')
                .next()
                .unwrap()
                .split_whitespace()
                .nth(2)
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(got, addr, ".equ {name} drifted from the machine");
        }
    }

    #[test]
    fn spawn_rejects_overflow_and_empty() {
        let mut k = Kernel::boot();
        assert!(matches!(
            k.spawn("empty", Program::new(vec![])),
            Err(OsError::EmptyProgram)
        ));
        let p = assemble("halt").unwrap();
        for i in 0..layout::MAX_PROCS {
            assert_eq!(k.spawn("p", p.clone()).unwrap(), i + 1);
        }
        assert!(matches!(k.spawn("p", p), Err(OsError::TooManyProcs)));
    }

    #[test]
    fn relocation_shifts_targets_and_rewrites_halt() {
        let p = assemble("main:\n bra main\n nop\n halt").unwrap();
        let r = relocate(&p, 100);
        assert_eq!(r[0].target(), Some(Target::Abs(100)));
        assert!(matches!(r[2], Instr::Trap(t) if t.code == sys::EXIT));
    }

    #[test]
    fn run_slice_budget_cuts_and_resumes_to_the_same_report() {
        // Slicing the run must not change what it computes: run the
        // same two-process workload to completion in one call and in
        // many small budgeted slices, then compare the full reports.
        let src = "
            mvi #0,r1
            mvi #40,r2
        loop:
            trap #1
            add r1,#1,r1
            bne r1,r2,loop
            nop
            halt
        ";
        let mut k = Kernel::boot();
        k.spawn("a", assemble(src).unwrap()).unwrap();
        k.spawn("b", assemble(src).unwrap()).unwrap();

        let whole = {
            let mut run = k.start().unwrap();
            assert!(run.run_slice(u64::MAX, None).unwrap());
            run.report()
        };
        let sliced = {
            let mut run = k.start().unwrap();
            let mut slices = 0u32;
            while !run.run_slice(1_000, None).unwrap() {
                slices += 1;
                assert!(slices < 10_000, "runaway");
            }
            assert!(slices > 2, "the budget actually cut the run");
            run.report()
        };
        assert_eq!(whole, sliced);
    }

    #[test]
    fn checkpoint_restore_replays_to_an_identical_report() {
        let src = "
            mvi #0,r1
            mvi #200,r2
        loop:
            trap #1
            add r1,#1,r1
            bne r1,r2,loop
            nop
            halt
        ";
        let mut k = Kernel::boot();
        k.spawn("p", assemble(src).unwrap()).unwrap();

        let mut run = k.start().unwrap();
        assert!(!run.run_slice(2_000, None).unwrap());
        let cp = run.checkpoint().expect("unsupervised runs checkpoint");
        while !run.run_slice(1_000, None).unwrap() {}
        let first = run.report();

        run.restore(&cp).unwrap();
        while !run.run_slice(1_000, None).unwrap() {}
        assert_eq!(run.report(), first, "replay from checkpoint diverged");
    }
}
