//! Supervised checkpoint/restart: turn detected faults into recovered
//! runs.
//!
//! The paper's answer to missing hardware is software that carries the
//! invariant; the kernel hardening layer (PR 3) made faults *loud* —
//! kill the victim, keep the siblings. This module closes the loop and
//! makes them *survivable*:
//!
//! * **per-process checkpoints** — at a fixed instruction cadence the
//!   supervisor captures each preempted process's full context (its
//!   PCB, its memory segment, its console position, its watchdog
//!   budget). A checkpoint is only taken at a *safe boundary*: the
//!   process must be runnable, not current, and its saved return chain
//!   must be sequential — a chain bent by a branch shadow means the
//!   preemption landed mid-transfer, and the checkpoint is deferred to
//!   the next cadence point rather than capturing half a control
//!   transfer;
//! * **supervised restart** — when the kernel kills a process (fatal
//!   exception, wild pointer, watchdog), the supervisor rolls the
//!   victim back to its last checkpoint after an exponential backoff
//!   (in kernel cycles), re-marks it runnable, and lets the guest
//!   scheduler pick it up again. Siblings never notice: their memory,
//!   page mappings, and console ordering are untouched. A victim that
//!   keeps dying is **quarantined** after
//!   [`RestartPolicy::max_restarts`] and stays killed;
//! * **whole-machine rollback** — a kernel panic (double fault inside
//!   the handler) normally ends the run; with supervision, the machine
//!   restores to the last global [`Snapshot`] and
//!   replays, bounded by [`RestartPolicy::max_panic_rollbacks`].
//!
//! Everything is deterministic: checkpoint points are a pure function
//! of the executed-instruction count (the fast engine stops its chunks
//! exactly there — see [`mips_sim::Machine::arm_snapshot`]), backoff
//! is measured in the same counter, and a supervised run replays
//! byte-identically from the same inputs on either engine.
//!
//! Discarded work (the victim's cycles between checkpoint and kill,
//! and everything unwound by a whole-machine rollback) is attributed
//! to [`SystemsCost::recovery`](crate::SystemsCost::recovery) — the
//! measured price of coming back.

use crate::kernel::SystemsCost;
use crate::layout::{self, pcb};
use mips_core::word::ADDR_BITS;
use mips_sim::{Machine, SimError, Snapshot, PAGE_WORDS};

/// When and how often a killed process comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restart budget per process; the kill that would exceed it
    /// quarantines the process instead (it stays killed).
    pub max_restarts: u32,
    /// Kernel cycles (executed instructions) between a kill and the
    /// restart, doubled on every attempt: attempt *n* waits
    /// `backoff << (n-1)`.
    pub backoff: u64,
    /// Whole-machine rollback budget for kernel panics; past it the
    /// panic ends the run exactly as it does unsupervised.
    pub max_panic_rollbacks: u32,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 3,
            backoff: 1_000,
            max_panic_rollbacks: 2,
        }
    }
}

/// Supervision knobs for a kernel run
/// ([`KernelConfig::supervisor`](crate::KernelConfig::supervisor)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Checkpoint cadence in executed instructions. Each cadence point
    /// refreshes the global snapshot and every per-process checkpoint
    /// whose safe-boundary conditions hold.
    pub checkpoint_every: u64,
    /// Restart policy applied to every process.
    pub policy: RestartPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            checkpoint_every: 100_000,
            policy: RestartPolicy::default(),
        }
    }
}

/// One recovery action taken by the supervisor, in event order
/// ([`RunReport::recoveries`](crate::RunReport::recoveries)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A killed process was rolled back to its checkpoint and
    /// re-marked runnable.
    Restart {
        /// The restarted pid.
        pid: u32,
        /// Which attempt this was (1-based).
        attempt: u32,
        /// Instruction count when the restart was applied.
        at: u64,
    },
    /// A process exhausted its restart budget and stays killed.
    Quarantine {
        /// The quarantined pid.
        pid: u32,
        /// Instruction count at the fatal kill.
        at: u64,
    },
    /// A kernel panic unwound the whole machine to the last global
    /// snapshot.
    Rollback {
        /// Instruction count at the panic.
        at: u64,
        /// Instruction count of the snapshot rolled back to.
        to: u64,
    },
}

/// The run-loop state the supervisor reads and rewrites. Owned by
/// [`crate::kernel::KernelRun`]; bundled so checkpoints can capture and
/// restore it alongside the machine.
#[derive(Debug, Clone)]
pub(crate) struct LoopState {
    pub(crate) cost: SystemsCost,
    pub(crate) user_spent: Vec<u64>,
    pub(crate) watchdog_kills: Vec<u32>,
    pub(crate) watchdog_fired: Vec<bool>,
    pub(crate) cur_pid: u32,
    pub(crate) pid_stale: bool,
}

/// Everything needed to put one process back where it was.
#[derive(Debug, Clone)]
struct ProcCheckpoint {
    /// The full PCB ([`layout::PCB_STRIDE`] words).
    pcb: Vec<u32>,
    /// Nonzero RAM words of the process's physical segment.
    words: Vec<(u32, u32)>,
    /// Console words the process had emitted at capture time.
    console_words: usize,
    /// Watchdog budget consumed at capture time.
    user_spent: u64,
}

/// Everything needed to put the whole run back where it was.
#[derive(Clone)]
struct GlobalCheckpoint {
    snap: Snapshot,
    console: Vec<u32>,
    cost: SystemsCost,
    user_spent: Vec<u64>,
    watchdog_kills: Vec<u32>,
    watchdog_fired: Vec<bool>,
    cur_pid: u32,
    pid_stale: bool,
    ckpt: Vec<Option<ProcCheckpoint>>,
    restarts: Vec<u32>,
    quarantined: Vec<bool>,
    restart_due: Vec<Option<u64>>,
    last_state: Vec<u32>,
    next_ckpt: u64,
    events_len: usize,
}

/// Low physical word of pid's segment (identity frames: mapped
/// addresses are physical addresses).
fn seg_base(pid: u32) -> u32 {
    pid << (ADDR_BITS - layout::PID_BITS)
}

/// True when the saved return chain is sequential — no branch or
/// indirect-jump shadow was live at preemption, so the PCB is a safe
/// rollback point.
fn ret_chain_sequential(pcb_words: &[u32]) -> bool {
    let r0 = pcb_words[pcb::RET0 as usize];
    let r1 = pcb_words[(pcb::RET0 + 1) as usize];
    let r2 = pcb_words[(pcb::RET0 + 2) as usize];
    r1 == r0.wrapping_add(1) && r2 == r0.wrapping_add(2)
}

/// The checkpoint/restart engine driven by `run_inner`. One instance
/// per run; all state is host-side and deterministic.
pub(crate) struct Supervisor {
    cfg: SupervisorConfig,
    nprocs: usize,
    klen: u32,
    booted: bool,
    next_ckpt: u64,
    ckpt: Vec<Option<ProcCheckpoint>>,
    restarts: Vec<u32>,
    quarantined: Vec<bool>,
    restart_due: Vec<Option<u64>>,
    last_state: Vec<u32>,
    global: Option<GlobalCheckpoint>,
    panic_rollbacks: u32,
    /// Total discarded work (monotone; never unwound by a rollback).
    discarded: u64,
    events: Vec<RecoveryEvent>,
}

impl Supervisor {
    pub(crate) fn new(cfg: SupervisorConfig, nprocs: usize, klen: u32) -> Supervisor {
        Supervisor {
            cfg,
            nprocs,
            klen,
            booted: false,
            next_ckpt: 0,
            ckpt: vec![None; nprocs + 1],
            restarts: vec![0; nprocs + 1],
            quarantined: vec![false; nprocs + 1],
            restart_due: vec![None; nprocs + 1],
            last_state: vec![pcb::STATE_RUNNABLE; nprocs + 1],
            global: None,
            panic_rollbacks: 0,
            discarded: 0,
            events: Vec::new(),
        }
    }

    /// The next instruction count at which the supervisor needs the
    /// run loop's attention (checkpoint cadence or a pending restart).
    fn next_event(&self) -> u64 {
        let mut at = self.next_ckpt;
        for due in self.restart_due.iter().flatten() {
            at = at.min(*due);
        }
        at
    }

    /// Called at the top of every run-loop iteration, at an
    /// instruction boundary. Takes due checkpoints, watches for kernel
    /// kills, applies due restarts, and re-arms the machine's snapshot
    /// point so fast-engine bursts stop exactly at the next event.
    pub(crate) fn observe(&mut self, m: &mut Machine, st: &mut LoopState) {
        let now = m.profile().instructions;
        if !self.booted || now >= self.next_ckpt {
            self.take_checkpoints(m, st, now);
        }
        // Kills happen in kernel text; scan only while we are there.
        if m.pc() < self.klen {
            self.scan_kills(m, now);
        }
        self.apply_due_restarts(m, st, now, false);
        m.arm_snapshot(self.next_event());
    }

    /// One cadence round: refresh the global snapshot and every
    /// per-process checkpoint whose safe-boundary conditions hold. The
    /// whole round defers (and retries at the next boundary) while a
    /// delayed transfer is in flight — a snapshot mid-shadow would be
    /// exact, but a *PCB* checkpoint taken from it could not be
    /// re-entered through the scheduler's sequential resume path.
    fn take_checkpoints(&mut self, m: &Machine, st: &LoopState, now: u64) {
        if !m.pipeline_quiescent() {
            return;
        }
        self.booted = true;
        let ram = m.mem().snapshot();
        let cur = m.mem().peek(layout::CURRENT);
        let console = m.console();
        for pid in 1..=self.nprocs as u32 {
            let idx = pid as usize;
            if self.quarantined[idx] || self.restart_due[idx].is_some() {
                continue;
            }
            let base = layout::PCB_BASE + pid * layout::PCB_STRIDE;
            if m.mem().peek(base + pcb::STATE) != pcb::STATE_RUNNABLE || pid == cur {
                continue; // not at rest: keep the previous checkpoint
            }
            let pcb_words: Vec<u32> = (0..layout::PCB_STRIDE)
                .map(|i| m.mem().peek(base + i))
                .collect();
            if !ret_chain_sequential(&pcb_words) {
                continue; // preempted mid-shadow: defer to next cadence
            }
            let (lo, hi) = (seg_base(pid), seg_base(pid + 1));
            self.ckpt[idx] = Some(ProcCheckpoint {
                pcb: pcb_words,
                words: ram
                    .iter()
                    .copied()
                    .filter(|&(a, _)| a >= lo && a < hi)
                    .collect(),
                console_words: console.iter().filter(|&&w| (w >> 8) == pid).count(),
                user_spent: st.user_spent[idx],
            });
        }
        self.global = Some(GlobalCheckpoint {
            snap: m.snapshot(),
            console: console.to_vec(),
            cost: st.cost,
            user_spent: st.user_spent.clone(),
            watchdog_kills: st.watchdog_kills.clone(),
            watchdog_fired: st.watchdog_fired.clone(),
            cur_pid: st.cur_pid,
            pid_stale: st.pid_stale,
            ckpt: self.ckpt.clone(),
            restarts: self.restarts.clone(),
            quarantined: self.quarantined.clone(),
            restart_due: self.restart_due.clone(),
            last_state: self.last_state.clone(),
            next_ckpt: now + self.cfg.checkpoint_every,
            events_len: self.events.len(),
        });
        self.next_ckpt = now + self.cfg.checkpoint_every;
    }

    /// Watches PCB state words for kernel kills and schedules a
    /// backed-off restart (or a quarantine) for each fresh one.
    fn scan_kills(&mut self, m: &Machine, now: u64) {
        for pid in 1..=self.nprocs as u32 {
            let idx = pid as usize;
            let base = layout::PCB_BASE + pid * layout::PCB_STRIDE;
            let state = m.mem().peek(base + pcb::STATE);
            if state == pcb::STATE_KILLED
                && self.last_state[idx] != pcb::STATE_KILLED
                && !self.quarantined[idx]
            {
                let attempt = self.restarts[idx] + 1;
                if attempt > self.cfg.policy.max_restarts || self.ckpt[idx].is_none() {
                    self.quarantined[idx] = true;
                    self.events.push(RecoveryEvent::Quarantine { pid, at: now });
                } else {
                    self.restarts[idx] = attempt;
                    let wait = self
                        .cfg
                        .policy
                        .backoff
                        .checked_shl(attempt - 1)
                        .unwrap_or(u64::MAX);
                    self.restart_due[idx] = Some(now.saturating_add(wait));
                }
            }
            self.last_state[idx] = state;
        }
    }

    /// Applies every restart whose backoff has elapsed (`force` skips
    /// the backoff — used when the machine has halted and no more
    /// kernel cycles will ever pass).
    fn apply_due_restarts(&mut self, m: &mut Machine, st: &mut LoopState, now: u64, force: bool) {
        for pid in 1..=self.nprocs as u32 {
            let idx = pid as usize;
            if self.restart_due[idx].is_some_and(|t| force || now >= t) {
                self.restart_due[idx] = None;
                self.restore_proc(m, st, pid, now);
            }
        }
    }

    /// Rolls one process back to its checkpoint: PCB, memory segment,
    /// page mappings (dropped; the kernel's soft-fault path remaps on
    /// touch), console prefix, and watchdog budget. Siblings are
    /// untouched.
    fn restore_proc(&mut self, m: &mut Machine, st: &mut LoopState, pid: u32, now: u64) {
        let idx = pid as usize;
        let ck = self.ckpt[idx]
            .clone()
            .expect("restart implies a checkpoint");
        let base = layout::PCB_BASE + pid * layout::PCB_STRIDE;
        for (i, &w) in ck.pcb.iter().enumerate() {
            m.mem_mut().poke(base + i as u32, w);
        }
        let (lo, hi) = (seg_base(pid), seg_base(pid + 1));
        let live: Vec<u32> = m
            .mem()
            .snapshot()
            .iter()
            .map(|&(a, _)| a)
            .filter(|&a| a >= lo && a < hi)
            .collect();
        for a in live {
            m.mem_mut().poke(a, 0);
        }
        for &(a, w) in &ck.words {
            m.mem_mut().poke(a, w);
        }
        if let Some(pm) = m.page_map_mut() {
            let page_shift = PAGE_WORDS.trailing_zeros();
            let victim: Vec<u32> = pm
                .resident_pages()
                .iter()
                .map(|&(p, _)| p)
                .filter(|&p| (p << page_shift) >= lo && (p << page_shift) < hi)
                .collect();
            for p in victim {
                pm.unmap(p);
            }
        }
        // Siblings keep every console word; the victim keeps only its
        // checkpoint prefix. Relative order is preserved.
        let mut kept = 0usize;
        if let Some(console) = m.console_mut() {
            console.retain(|&w| {
                if (w >> 8) != pid {
                    true
                } else {
                    kept += 1;
                    kept <= ck.console_words
                }
            });
        }
        // The victim's post-checkpoint cycles are discarded work.
        let waste = st.user_spent[idx] - ck.user_spent;
        st.cost.user -= waste;
        self.discarded += waste;
        st.user_spent[idx] = ck.user_spent;
        st.watchdog_fired[idx] = false;
        self.last_state[idx] = pcb::STATE_RUNNABLE;
        self.events.push(RecoveryEvent::Restart {
            pid,
            attempt: self.restarts[idx],
            at: now,
        });
    }

    /// Called when the machine halts. If restarts are still pending,
    /// applies them immediately (no more cycles will pass), clears the
    /// halt latch, and re-enters the guest scheduler — the machine is
    /// parked in supervisor mode inside `sched`, whose loop re-reads
    /// everything from kernel memory. Returns true when revived.
    pub(crate) fn on_halt(&mut self, m: &mut Machine, st: &mut LoopState) -> bool {
        if self.restart_due.iter().all(|d| d.is_none()) {
            return false;
        }
        let now = m.profile().instructions;
        self.apply_due_restarts(m, st, now, true);
        m.clear_halt();
        m.jump_to(m.program().symbol("sched").expect("kernel defines sched"));
        st.pid_stale = true;
        true
    }

    /// Called on a controlled kernel panic. Rolls the whole machine
    /// (and the run-loop state) back to the last global snapshot when
    /// the rollback budget allows. Returns true when the run should
    /// continue instead of reporting the panic.
    pub(crate) fn on_panic(
        &mut self,
        m: &mut Machine,
        st: &mut LoopState,
    ) -> Result<bool, SimError> {
        if self.panic_rollbacks >= self.cfg.policy.max_panic_rollbacks {
            return Ok(false);
        }
        let Some(g) = self.global.clone() else {
            return Ok(false);
        };
        let now = m.profile().instructions;
        m.restore(&g.snap)?;
        m.disarm_snapshot();
        if let Some(console) = m.console_mut() {
            *console = g.console;
        }
        st.cost = g.cost;
        st.user_spent = g.user_spent;
        st.watchdog_kills = g.watchdog_kills;
        st.watchdog_fired = g.watchdog_fired;
        st.cur_pid = g.cur_pid;
        st.pid_stale = g.pid_stale;
        self.ckpt = g.ckpt;
        self.restarts = g.restarts;
        self.quarantined = g.quarantined;
        self.restart_due = g.restart_due;
        self.last_state = g.last_state;
        self.next_ckpt = g.next_ckpt;
        self.events.truncate(g.events_len);
        // Everything between the snapshot and the panic is discarded.
        self.discarded += now - g.snap.instructions();
        self.events.push(RecoveryEvent::Rollback {
            at: now,
            to: g.snap.instructions(),
        });
        self.panic_rollbacks += 1;
        Ok(true)
    }

    /// Final accounting: (events, quarantined pids, total discarded
    /// cycles).
    pub(crate) fn finish(self) -> (Vec<RecoveryEvent>, Vec<u32>, u64) {
        let quarantined = (1..=self.nprocs as u32)
            .filter(|&p| self.quarantined[p as usize])
            .collect();
        (self.events, quarantined, self.discarded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ret_chain_detects_branch_shadows() {
        // A preemption with a sequential chain is a safe boundary...
        let mut pcb_words = vec![0u32; layout::PCB_STRIDE as usize];
        pcb_words[pcb::RET0 as usize] = 700;
        pcb_words[(pcb::RET0 + 1) as usize] = 701;
        pcb_words[(pcb::RET0 + 2) as usize] = 702;
        assert!(ret_chain_sequential(&pcb_words));
        // ...a bent chain means a transfer shadow was live (the shapes
        // `rfe` reconstructs as one- and two-slot pending transfers).
        pcb_words[(pcb::RET0 + 1) as usize] = 900;
        assert!(!ret_chain_sequential(&pcb_words));
        pcb_words[(pcb::RET0 + 1) as usize] = 701;
        pcb_words[(pcb::RET0 + 2) as usize] = 900;
        assert!(!ret_chain_sequential(&pcb_words));
    }

    #[test]
    fn seg_base_matches_the_pid_field() {
        assert_eq!(seg_base(0), 0);
        assert_eq!(seg_base(1), 1 << 20);
        assert_eq!(seg_base(2), 2 << 20);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RestartPolicy::default();
        let waits: Vec<u64> = (1..=3)
            .map(|a| p.backoff.checked_shl(a - 1).unwrap_or(u64::MAX))
            .collect();
        assert_eq!(waits, vec![1_000, 2_000, 4_000]);
    }
}
