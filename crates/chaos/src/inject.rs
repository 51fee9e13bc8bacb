//! The injector: fires a [`FaultPlan`] into a running machine.
//!
//! The injector is a pre-step hook (see
//! [`Kernel::run_with_hook`](mips_os::Kernel::run_with_hook)): before
//! each machine step it checks the instruction counter against the
//! plan and applies every fault that has come due. Faults that only
//! make sense against the victim's live register state
//! ([`FaultKind::needs_user_mode`]) are *armed* when their trigger
//! passes and fired the next time the **victim itself** is on the CPU
//! in user mode (pc past the kernel text, not supervisor, and the
//! kernel's `CURRENT` word naming the victim), so a fault scheduled to
//! land mid-kernel — or mid-sibling — corrupts the victim and nothing
//! else.
//!
//! Everything the injector does goes through the machine's public
//! surface — registers, the surprise register, physical memory, the
//! interrupt controller, and the MMIO ports — exactly the levers a
//! flaky piece of hardware would have.

use crate::fault::{FaultKind, FaultPlan, PageCorruption};
use mips_core::word::{ADDR_BITS, MEM_WORDS};
use mips_os::layout::PID_BITS;
use mips_sim::machine::{INTCTRL_ADDR, MAPUNIT_ADDR};
use mips_sim::{Machine, Surprise};

/// Bits of a process-local address below the inserted pid field.
const LOCAL_BITS: u32 = ADDR_BITS - PID_BITS;
/// Bits of a process-local *page number*.
const LOCAL_PAGE_BITS: u32 = LOCAL_BITS - 12;

/// One fault actually applied: `(instruction count, description)`.
pub type InjectionRecord = (u64, String);

/// Applies a [`FaultPlan`] to a machine, step by step.
pub struct Injector {
    plan: FaultPlan,
    klen: u32,
    /// Next not-yet-due fault in `plan.faults`.
    next: usize,
    /// Due faults waiting for a user-mode boundary.
    armed: Vec<FaultKind>,
    /// What actually fired, in order.
    log: Vec<InjectionRecord>,
}

impl Injector {
    /// An injector for a machine whose kernel text occupies `0..klen`
    /// (user-mode detection: `pc >= klen` and not supervisor).
    pub fn new(plan: FaultPlan, klen: u32) -> Injector {
        Injector {
            plan,
            klen,
            next: 0,
            armed: Vec::new(),
            log: Vec::new(),
        }
    }

    /// The pid the plan targets.
    pub fn victim(&self) -> u32 {
        self.plan.victim
    }

    /// Everything that fired so far.
    pub fn log(&self) -> &[InjectionRecord] {
        &self.log
    }

    /// Pre-step hook: fire every due fault.
    pub fn hook(&mut self, m: &mut Machine) {
        let now = m.profile().instructions;
        while self.next < self.plan.faults.len() && self.plan.faults[self.next].at <= now {
            let kind = self.plan.faults[self.next].kind;
            self.next += 1;
            if kind.needs_user_mode() {
                self.armed.push(kind);
            } else {
                self.apply(m, kind, now);
            }
        }
        if !self.armed.is_empty()
            && m.pc() >= self.klen
            && !m.surprise().supervisor()
            && m.mem().peek(mips_os::layout::CURRENT) == self.plan.victim
        {
            for kind in std::mem::take(&mut self.armed) {
                self.apply(m, kind, now);
            }
        }
    }

    fn apply(&mut self, m: &mut Machine, kind: FaultKind, now: u64) {
        let victim = self.plan.victim;
        match kind {
            FaultKind::RegFlip { reg, bit } => {
                m.set_reg(reg, m.reg(reg) ^ (1 << (bit & 31)));
            }
            FaultKind::SurpriseFlip { bit } => {
                let raw = m.surprise().raw() ^ (1 << (bit & 31));
                *m.surprise_mut() = Surprise::from_raw(raw);
            }
            FaultKind::MemFlip { local, bit } => {
                // Identity frames make the victim's mapped address its
                // physical address, resident or not.
                let pa = (victim << LOCAL_BITS) | (local & ((1 << LOCAL_BITS) - 1));
                if pa < MEM_WORDS - 16 {
                    let v = m.mem().peek(pa) ^ (1 << (bit & 31));
                    m.mem_mut().poke(pa, v);
                }
            }
            FaultKind::PageMapCorrupt { pick, mode } => {
                let Some(map) = m.page_map_mut() else {
                    self.log.push((now, format!("{kind} (no page map; no-op)")));
                    return;
                };
                let victims: Vec<(u32, u32)> = map
                    .resident_pages()
                    .into_iter()
                    .filter(|&(page, _)| page >> LOCAL_PAGE_BITS == victim)
                    .collect();
                if victims.is_empty() {
                    self.log
                        .push((now, format!("{kind} (victim not resident; no-op)")));
                    return;
                }
                let (page, frame) = victims[pick as usize % victims.len()];
                match mode {
                    PageCorruption::FrameFlip { bit } => {
                        map.map(page, frame ^ (1 << (bit as u32 % LOCAL_PAGE_BITS)));
                    }
                    PageCorruption::OutOfRange => {
                        map.map(page, frame | (MEM_WORDS >> 12));
                    }
                    PageCorruption::Unmap => {
                        map.unmap(page);
                    }
                }
                self.log.push((now, format!("{kind} on page {page:#x}")));
                return;
            }
            FaultKind::SpuriousInterrupt { device } => {
                if let Some(ctrl) = m.int_ctrl_mut() {
                    ctrl.raise(device);
                }
            }
            FaultKind::DroppedInterrupt => {
                if let Some(ctrl) = m.int_ctrl_mut() {
                    ctrl.clear(0);
                }
            }
            FaultKind::MmioAckGarbage { value } => {
                m.bus_write(INTCTRL_ADDR, value);
            }
            FaultKind::MmioMapGarbage {
                page_low,
                frame_low,
            } => {
                let page = (victim << LOCAL_PAGE_BITS) | u32::from(page_low);
                let frame = (victim << LOCAL_PAGE_BITS) | u32::from(frame_low);
                m.bus_write(MAPUNIT_ADDR, page);
                m.bus_write(MAPUNIT_ADDR + 1, frame);
            }
        }
        self.log.push((now, kind.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PlannedFault;
    use mips_core::Reg;

    /// A reg flip scheduled mid-kernel must defer to a user-mode
    /// boundary; a spurious interrupt fires immediately.
    #[test]
    fn user_mode_faults_defer_until_the_victim_runs() {
        let plan = FaultPlan {
            victim: 1,
            faults: vec![
                PlannedFault {
                    at: 0,
                    kind: FaultKind::RegFlip {
                        reg: Reg::R1,
                        bit: 0,
                    },
                },
                PlannedFault {
                    at: 0,
                    kind: FaultKind::DroppedInterrupt,
                },
            ],
        };
        let mut inj = Injector::new(plan, 100);
        let program = mips_asm::assemble("halt").unwrap();
        let mut m = Machine::new(program);
        // Machine boots at pc 0 (< klen): the reg flip arms, the
        // dropped interrupt fires.
        inj.hook(&mut m);
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.log()[0].1, "dropped-int");
        assert_eq!(inj.armed.len(), 1);
    }
}
