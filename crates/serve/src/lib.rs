//! # mips-serve — batch serving over the machine fleet
//!
//! The front-end that turns the [`mips_fleet`] executor into a
//! service: accept a list of workload-execution jobs, shard them
//! across the fleet, stream results back as they retire, and report
//! capacity honestly.
//!
//! * [`batch`] — closed-loop ([`run_batch`]) and open-loop
//!   ([`run_open_loop`]) execution with bounded-channel backpressure
//!   and per-job latency capture; results always return in submission
//!   order, byte-identical at every worker count.
//! * [`mix`] — the deterministic standard job mix drawn from the
//!   compiled workload corpus ([`standard_mix`]): what every serving
//!   number is quoted against.
//! * [`mod@bench`] — the `BENCH_fleet.json` artifact ([`measure_fleet`]):
//!   a byte-pinned virtual-time scaling curve (host-independent, CI
//!   diffs it exactly) plus honest wall-clock measurements (gated
//!   loosely, never byte-compared), and the [`gate`] the `fleet_gate`
//!   binary applies.
//!
//! Two binaries ship with the crate: `fleet_load`, the open-loop load
//! generator that prints the wall-clock table and regenerates the
//! artifact, and `fleet_gate`, the CI gate (exit 0 pass, 1
//! regression, 2 usage).

pub mod batch;
pub mod bench;
pub mod mix;

pub use batch::{run_batch, run_open_loop, BatchReport, DEFAULT_CAPACITY};
pub use bench::{
    bench_from_batch, deterministic_part, gate, measure_fleet, measured_threads, scaling_curve,
    FleetBench, FleetVerdict, Measured, ScalingPoint, BENCH_JOBS, BENCH_SEED, FLEET_SCHEMA,
    GATE_TOLERANCE, SCALING_WORKERS, SPEEDUP_FLOOR_AT_4,
};
pub use mix::{mix_pool, standard_mix, MIX_WORKLOADS};
