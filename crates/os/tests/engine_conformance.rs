//! The fast execution engine under multiprogramming: a kernel run with
//! [`Engine::Fast`] must produce a [`RunReport`] *equal* to the
//! reference run — same per-process outputs and statuses, same kernel
//! counters, same instruction total, same systems-cost attribution,
//! same console interleaving, same watchdog kills. The fast path bursts
//! through user-mode stretches fenced at the kernel-text boundary and
//! through kernel text fenced at the edges of one cost section, falling
//! back to single reference steps wherever the fast engine stops, so
//! this equality exercises the burst/step seam at every timer slice,
//! syscall, page fault, and section boundary — and, with tiny slice
//! budgets, at slice cuts that land inside kernel sections.

use mips_hll::{compile_mips, CodegenOptions};
use mips_os::{Engine, Kernel, KernelConfig, ProcStatus, RunReport};
use mips_reorg::{reorganize, ReorgOptions};

fn build(source: &str) -> mips_core::Program {
    let lc = compile_mips(source, &CodegenOptions::standard()).expect("corpus compiles");
    reorganize(&lc, ReorgOptions::FULL)
        .expect("reorganizes")
        .program
}

fn run(config: KernelConfig, names: &[&str]) -> RunReport {
    let mut k = Kernel::with_config(config);
    for n in names {
        k.spawn(n, build(mips_workloads::get(n).unwrap().source))
            .unwrap();
    }
    k.run_until_idle().unwrap()
}

fn assert_reports_equal(config: KernelConfig, names: &[&str], what: &str) {
    let fast = run(
        KernelConfig {
            engine: Engine::Fast,
            ..config.clone()
        },
        names,
    );
    let reference = run(
        KernelConfig {
            engine: Engine::Reference,
            ..config
        },
        names,
    );
    assert_eq!(fast.procs, reference.procs, "{what}: per-process reports");
    assert_eq!(fast.counters, reference.counters, "{what}: counters");
    assert_eq!(fast.cost, reference.cost, "{what}: systems cost");
    assert_eq!(
        fast.instructions, reference.instructions,
        "{what}: instructions"
    );
    assert_eq!(fast.console, reference.console, "{what}: console stream");
    assert_eq!(fast, reference, "{what}: full report");
}

/// Three time-sliced workloads: the burst/step seam crosses a timer
/// dispatch every slice, and the report must not show it.
#[test]
fn time_sliced_multiprogramming_reports_identically() {
    assert_reports_equal(
        KernelConfig {
            time_slice: 2_000,
            ..KernelConfig::default()
        },
        &["fib", "hanoi", "sieve"],
        "three-way slice",
    );
}

/// Tight frames force eviction traffic; the paging path is all kernel
/// text (per-step on both engines) but entered from user bursts.
#[test]
fn demand_paging_pressure_reports_identically() {
    assert_reports_equal(
        KernelConfig {
            time_slice: 5_000,
            frames: 8,
            ..KernelConfig::default()
        },
        &["sort", "strings"],
        "paging pressure",
    );
}

/// The watchdog budget caps every user burst: the kill must land on
/// the same instruction boundary on both engines.
#[test]
fn watchdog_kill_lands_on_the_same_boundary() {
    let config = KernelConfig {
        time_slice: 2_000,
        watchdog: Some(40_000),
        ..KernelConfig::default()
    };
    let fast = run(
        KernelConfig {
            engine: Engine::Fast,
            ..config.clone()
        },
        &["hanoi", "fib"],
    );
    let reference = run(
        KernelConfig {
            engine: Engine::Reference,
            ..config
        },
        &["hanoi", "fib"],
    );
    assert_eq!(fast.watchdog_kills, reference.watchdog_kills);
    assert!(
        !fast.watchdog_kills.is_empty(),
        "budget chosen to trip the watchdog"
    );
    assert!(fast
        .procs
        .iter()
        .any(|p| matches!(p.status, ProcStatus::Killed(_))));
    assert_eq!(fast, reference, "watchdog: full report");
}

/// Drives [`mips_os::KernelRun::run_slice`] with a fixed small budget
/// until the kernel finishes, counting the slices it took.
fn run_sliced(config: KernelConfig, names: &[&str], budget: u64) -> (RunReport, u64) {
    let mut k = Kernel::with_config(config);
    for n in names {
        k.spawn(n, build(mips_workloads::get(n).unwrap().source))
            .unwrap();
    }
    let mut run = k.start().unwrap();
    let mut slices = 1;
    while !run.run_slice(budget, None).unwrap() {
        slices += 1;
    }
    (run.report(), slices)
}

/// Tiny odd slice budgets cut runs inside kernel sections, so fenced
/// kernel bursts end on the budget mid-section and resume there on
/// the next slice: the sliced fast report, cost included, must equal
/// the sliced reference report and the unsliced one.
#[test]
fn tiny_slice_budgets_cut_kernel_sections_identically() {
    let config = KernelConfig {
        time_slice: 2_000,
        frames: 8,
        ..KernelConfig::default()
    };
    let names = ["fib", "sort"];
    let whole = run(
        KernelConfig {
            engine: Engine::Reference,
            ..config.clone()
        },
        &names,
    );
    for budget in [1u64, 7, 33] {
        let (fast, fast_slices) = run_sliced(
            KernelConfig {
                engine: Engine::Fast,
                ..config.clone()
            },
            &names,
            budget,
        );
        let (reference, ref_slices) = run_sliced(
            KernelConfig {
                engine: Engine::Reference,
                ..config.clone()
            },
            &names,
            budget,
        );
        assert_eq!(fast.cost, reference.cost, "budget {budget}: systems cost");
        assert_eq!(fast, reference, "budget {budget}: full report");
        assert_eq!(fast_slices, ref_slices, "budget {budget}: slice count");
        assert_eq!(fast, whole, "budget {budget}: slicing is invisible");
    }
}
