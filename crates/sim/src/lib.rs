//! # mips-sim — the five-stage MIPS pipeline simulator
//!
//! Executes [`mips_core::Program`]s with the paper's architecturally
//! visible pipeline behaviour and **no hardware interlocks**:
//!
//! * the instruction after a load observes the destination register's
//!   *old* value (one-slot load delay);
//! * branches are delayed by one instruction, indirect jumps by two — the
//!   delay-slot instructions always execute;
//! * there is no stalling anywhere: if software violates a constraint the
//!   machine faithfully computes with stale values. A diagnostic
//!   [`MachineConfig::check_hazards`] mode records violations instead of hiding
//!   them, which is how the test suite proves the reorganizer necessary.
//!
//! Systems support (paper §3) is fully modeled:
//!
//! * word-addressed memory with a dual instruction/data interface and
//!   *free memory cycle* accounting (§3.1) — unused data cycles service a
//!   DMA queue;
//! * on-chip segmentation (process-id insertion, two-half address space)
//!   plus an off-chip page-map unit reachable through MMIO (§3.1);
//! * the *surprise register* (§3.2) holding privilege, enable bits, and
//!   the exception cause fields;
//! * exceptions (§3.3): page faults, overflow traps, a single external
//!   interrupt line, 12-bit software traps; dispatch to physical address
//!   zero with three saved return addresses; `rfe` restores the pipeline
//!   state exactly, even inside an indirect jump's two-slot shadow.
//!
//! Two execution engines drive the same machine state: the per-step
//! reference interpreter ([`Machine::step`]) and a predecoded, chunked
//! fast path ([`Engine::Fast`], module [`fast`]) that batches
//! instructions between armed events and bails to the reference
//! interpreter whenever fidelity demands it. The two are lock-step
//! conformant: same registers, memory, output, profile counters, and
//! errors at every observation point.
//!
//! The complete architectural state checkpoints into a byte-stable,
//! versioned [`Snapshot`] (module [`snap`], format `mips-snap/v3`) and
//! restores with a lock-step-identical subsequent trajectory on either
//! engine — the substrate for the OS layer's supervised
//! checkpoint/restart.
//!
//! ## Example
//!
//! ```
//! use mips_core::{AluOp, AluPiece, Instr, Operand, ProgramBuilder, Reg};
//! use mips_sim::Machine;
//!
//! let mut b = ProgramBuilder::new();
//! b.push(Instr::Mvi(mips_core::MviPiece { imm: 20, dst: Reg::R1 }));
//! b.push(Instr::alu(AluPiece::new(AluOp::Add, Reg::R1.into(), Operand::Small(2), Reg::R1)));
//! b.push(Instr::Halt);
//! let program = b.finish().unwrap();
//!
//! let mut m = Machine::new(program);
//! m.run().unwrap();
//! assert_eq!(m.reg(Reg::R1), 22);
//! ```

pub mod error;
pub mod except;
pub mod fast;
pub mod hazard;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod nic;
pub mod profile;
pub mod snap;
pub mod surprise;

pub use error::SimError;
pub use except::Cause;
pub use fast::Engine;
pub use hazard::{Hazard, HazardKind};
pub use machine::{Machine, MachineConfig, StopReason};
pub use machine::{NIC_ADDR, NIC_DEVICE};
pub use mem::{IntCtrl, Memory};
pub use mmu::{PageMap, Segmentation, PAGE_WORDS};
pub use nic::{Frame, Nic, MAX_FRAME_WORDS, NIC_WINDOW, RX_RING, TX_RING};
pub use profile::Profile;
pub use snap::{Snapshot, SNAP_MAGIC};
pub use surprise::Surprise;
