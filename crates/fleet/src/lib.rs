//! # mips-fleet — thousands of deterministic machines on one host
//!
//! The serving story of the reproduction: a single simulated machine is
//! fast, snapshot-able, supervised, and chaos-hardened; this crate runs
//! **many** of them. A [`Fleet`] is a work-stealing thread pool — one
//! deque per worker plus a shared injector, built on `std` threads
//! only — whose unit of work is a whole machine run: a [`FleetJob`]
//! carries everything a run needs (program, engine, kernel
//! configuration, supervision policy), executes on whichever worker
//! gets to it, and retires a byte-stable [`FleetResult`].
//!
//! ## The determinism contract
//!
//! Each job is **self-contained**: it owns its program and
//! configuration, builds its machine (and kernel) from scratch inside
//! the worker, and shares no mutable state with any other job. A
//! result is therefore a pure function of the job description, and a
//! batch of results — collected in job-id order — is **byte-identical
//! to serial execution regardless of worker count or steal order**
//! ([`run_ordered`] vs [`run_serial`], enforced by the
//! `determinism` test suite at 1/2/4/8 workers, including steal-storm
//! and skew mixes). Host timing never leaks into a result; latency is
//! measured outside the result stream by the `mips-serve` front-end.
//!
//! Migrating whole machines across workers needs every machine and
//! kernel to be `Send`. That holds by plain ownership: a
//! [`mips_sim::Machine`] owns its devices (page map, interrupt
//! controller, NIC, console) as ordinary fields, and hosts reach them
//! only through the machine, so no device sits behind a handle or a
//! lock. The compile-time assertions in `tests/send.rs` pin that
//! property.
//!
//! ## Pieces
//!
//! * [`pool`] — the generic executor: [`FleetWork`] (any send-able job
//!   with a deterministic `execute`), [`Fleet`] (streaming, bounded
//!   result channel, backpressure), [`run_ordered`]/[`run_serial`].
//! * [`job`] — the standard job type: [`FleetJob`]/[`JobSpec`]
//!   (bare-metal or kernel-hosted runs) retiring [`FleetResult`]s.
//! * [`vtime`] — a deterministic discrete-event replay of the fleet
//!   schedule in *virtual time* (cost = simulated instructions), the
//!   host-independent half of `BENCH_fleet.json`'s scaling curve.
//!
//! Chaos campaigns ride the same executor: `mips-chaos` implements
//! [`FleetWork`] for its per-case runs, so `mips-chaos --threads N`
//! fans a campaign out across workers and still emits a report
//! byte-identical to the sequential path.

pub mod job;
pub mod pool;
pub mod vtime;

pub use job::{run_job, FleetJob, FleetResult, JobSpec};
pub use pool::{run_ordered, run_serial, Fleet, FleetWork};
pub use vtime::{percentile, VirtualJob, VirtualSchedule};
