//! # mips — facade for the Hardware/Software Tradeoffs reproduction
//!
//! Re-exports every subsystem of the reproduction of *Hennessy et al.,
//! "Hardware/Software Tradeoffs for Increased Performance"* (ASPLOS 1982)
//! under one roof:
//!
//! * [`core`] — the MIPS instruction-set model (no condition codes,
//!   word addressing, instruction pieces, delayed branches);
//! * [`sim`] — the five-stage pipeline simulator with software-imposed
//!   interlocks, segmentation, and the surprise-register exception
//!   system, driven by either of two lock-step-conformant engines (the
//!   per-step reference interpreter and a predecoded, chunked fast
//!   path — `sim::Engine`), with byte-stable whole-machine snapshots
//!   (`sim::Snapshot`, the `mips-snap/v3` format);
//! * [`asm`] — the assembler;
//! * [`reorg`] — the post-pass reorganizer (scheduling, packing, branch
//!   delay);
//! * [`ccm`] — condition-code baseline machines;
//! * [`hll`] — the Pasqal compiler with selectable boolean-evaluation
//!   strategies and data layouts;
//! * [`verify`] — the static pipeline-interlock verifier and lint pass
//!   (the `mips-lint` binary);
//! * [`os`] — the software kernel and multiprogramming runtime: exception
//!   dispatch, syscalls, preemptive scheduling, and demand paging on the
//!   simulated machine, plus checkpoint/restart supervision
//!   (`os::SupervisorConfig`) that rolls killed processes back to
//!   their last safe-boundary checkpoint under a backoff/quarantine
//!   policy;
//! * [`chaos`] — deterministic fault injection and the differential
//!   fuzz campaign (the `mips-chaos` binary): seed-replayable bit
//!   flips, interrupt mischief, and page-map corruption with a
//!   masked/recovered/isolated/detected/escaped taxonomy over the
//!   hardened, supervised kernel;
//! * [`analysis`] — the measurement tooling behind every table of the
//!   paper;
//! * [`workloads`] — the benchmark corpus (Fibonacci, Puzzle, text
//!   processing);
//! * [`fleet`] — the work-stealing executor that runs thousands of
//!   independent simulated machines on one host with byte-identical
//!   results at any worker count (`fleet::Fleet`, `fleet::FleetJob`);
//! * [`serve`] — the batch/open-loop serving front-end over the fleet:
//!   sharding, bounded-channel streaming, latency accounting, and the
//!   pinned `BENCH_fleet.json` scaling artifact with its `fleet_gate`
//!   CI gate;
//! * [`net`] — the deterministic network fabric: NIC-equipped guest
//!   kernels joined into clusters by a virtual-time list schedule,
//!   with partitions, per-frame fault interception, node-kill
//!   recovery from checkpoints, and distributed guest workloads whose
//!   output is byte-identical under faults (the `net_gate` CI gate).
//!
//! See the repository README for a tour and `examples/quickstart.rs` for
//! the compile → reorganize → simulate pipeline in ten lines.

pub use mips_analysis as analysis;
pub use mips_asm as asm;
pub use mips_ccm as ccm;
pub use mips_chaos as chaos;
pub use mips_core as core;
pub use mips_fleet as fleet;
pub use mips_hll as hll;
pub use mips_net as net;
pub use mips_os as os;
pub use mips_reorg as reorg;
pub use mips_serve as serve;
pub use mips_sim as sim;
pub use mips_verify as verify;
pub use mips_workloads as workloads;
