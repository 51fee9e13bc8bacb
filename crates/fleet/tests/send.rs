//! Compile-time proof of the Send audit.
//!
//! The fleet's worker threads move whole jobs — machines, kernels,
//! booted runs, results — across thread boundaries. The machine owns
//! its devices as plain fields, so `Send` holds with no lock at all.
//! These assertions fail to *compile* if anyone reintroduces a
//! non-`Send` handle (an `Rc`, a `RefCell`, a raw pointer) anywhere in
//! those types, which is how the audit stays done. (`mips-net`'s
//! `Cluster` is asserted in that crate's tests.)

use mips_fleet::{FleetJob, FleetResult};
use mips_os::{Kernel, KernelRun};
use mips_sim::Machine;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn fleet_types_cross_threads() {
    assert_send::<FleetJob>();
    assert_send::<FleetResult>();
    assert_sync::<FleetResult>();
}

#[test]
fn the_simulator_stack_crosses_threads() {
    assert_send::<Machine>();
    assert_send::<Kernel>();
    assert_send::<KernelRun>();
}
