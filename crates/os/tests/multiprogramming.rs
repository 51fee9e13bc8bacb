//! The acceptance bar for the systems layer: every compiled workload
//! runs as an isolated user process under the kernel — demand-paged,
//! segmented, preempted — and produces byte-identical output to its
//! bare-metal run; several workloads share the machine concurrently
//! without interference.

use mips_hll::{compile_mips, CodegenOptions};
use mips_os::{Kernel, KernelConfig, ProcStatus};
use mips_reorg::{reorganize, ReorgOptions};
use mips_sim::{Engine, Machine};

/// Compiles and reorganizes a workload exactly as the bench harness
/// does for bare metal.
fn build(source: &str) -> mips_core::Program {
    let lc = compile_mips(source, &CodegenOptions::standard()).expect("corpus compiles");
    reorganize(&lc, ReorgOptions::FULL)
        .expect("reorganizes")
        .program
}

/// Bare-metal reference: native traps, no kernel.
fn standalone_output(program: mips_core::Program) -> Vec<u8> {
    let mut m = Machine::new(program);
    m.run().expect("bare-metal run");
    m.output().to_vec()
}

#[test]
fn every_workload_is_byte_identical_under_the_kernel() {
    for w in mips_workloads::corpus() {
        let program = build(w.source);
        let expected = standalone_output(program.clone());

        let mut k = Kernel::boot();
        k.spawn(w.name, program).unwrap();
        let report = k.run_until_idle().unwrap();
        let p = &report.procs[0];
        assert!(
            matches!(p.status, ProcStatus::Exited(_)),
            "{} exits cleanly, got {:?}",
            w.name,
            p.status
        );
        assert_eq!(
            p.output, expected,
            "{}: output under the kernel differs from bare metal",
            w.name
        );
        assert!(
            report.counters.faults > 0,
            "{}: demand paging saw no faults",
            w.name
        );
        assert!(report.cost.user > 0 && report.cost.save_restore > 0);
    }
}

/// The serving mix, seven processes at a 1000-instruction slice in 12
/// frames. Preemptions land between the compiler's `wsp …,lo` and the
/// byte insert it sets up, so every output byte depends on the kernel
/// carrying each process's `lo` selector across context switches.
#[test]
fn the_serving_mix_sliced_every_thousand_instructions_matches_bare_metal() {
    let programs: Vec<_> = mips_serve::MIX_WORKLOADS
        .iter()
        .map(|&name| {
            let program = build(mips_workloads::get(name).expect("mix workload").source);
            (name, standalone_output(program.clone()), program)
        })
        .collect();
    for engine in [Engine::Fast, Engine::Reference] {
        let mut k = Kernel::with_config(KernelConfig {
            time_slice: 1000,
            frames: 12,
            engine,
            ..KernelConfig::default()
        });
        for (name, _, program) in &programs {
            k.spawn(name, program.clone()).unwrap();
        }
        let report = k.run_until_idle().unwrap();
        assert!(report.panic.is_none(), "{engine:?}: {:?}", report.panic);
        assert!(report.counters.switches > 20, "the slice really preempts");
        for (p, (name, expected, _)) in report.procs.iter().zip(&programs) {
            assert!(
                matches!(p.status, ProcStatus::Exited(_)),
                "{name} on {engine:?}: {:?}",
                p.status
            );
            assert_eq!(
                String::from_utf8_lossy(&p.output),
                String::from_utf8_lossy(expected),
                "{name} on {engine:?}: output under the kernel differs from bare metal"
            );
        }
    }
}

#[test]
fn three_workloads_time_slice_concurrently_without_interference() {
    let names = ["fib", "hanoi", "sieve"];
    let programs: Vec<_> = names
        .iter()
        .map(|n| build(mips_workloads::get(n).unwrap().source))
        .collect();
    let expected: Vec<_> = programs
        .iter()
        .map(|p| standalone_output(p.clone()))
        .collect();

    let mut k = Kernel::with_config(KernelConfig {
        time_slice: 2_000, // short slices force heavy interleaving
        ..KernelConfig::default()
    });
    for (n, p) in names.iter().zip(&programs) {
        k.spawn(n, p.clone()).unwrap();
    }
    let report = k.run_until_idle().unwrap();

    for ((p, want), n) in report.procs.iter().zip(&expected).zip(&names) {
        assert!(matches!(p.status, ProcStatus::Exited(_)), "{n} exits");
        assert_eq!(&p.output, want, "{n}: interference under multiprogramming");
    }
    assert!(
        report.counters.ticks > 10,
        "expected real preemption, got {} ticks",
        report.counters.ticks
    );
    assert!(
        report.counters.switches > names.len() as u64,
        "processes were not actually interleaved"
    );
    // The global console stream interleaves writers: more than one pid
    // must appear before the first process finishes.
    let writers: std::collections::BTreeSet<u32> =
        report.console.iter().map(|&(pid, _)| pid).collect();
    assert_eq!(writers.len(), names.len(), "all processes wrote output");
}

#[test]
fn multiprogram_runs_are_deterministic() {
    let run = || {
        let mut k = Kernel::with_config(KernelConfig {
            time_slice: 2_000,
            ..KernelConfig::default()
        });
        for n in ["fib", "hanoi", "sieve"] {
            k.spawn(n, build(mips_workloads::get(n).unwrap().source))
                .unwrap();
        }
        k.run_until_idle().unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.console, b.console, "tick arrival must be deterministic");
}

#[test]
fn a_full_house_of_processes_all_exit() {
    let src = "
    start:
        trap #5          ; r1 := pid
        mvi #48,r2
        add r1,r2,r1     ; pid as an ASCII digit
        trap #1
        trap #0
    ";
    let p = mips_asm::assemble(src).unwrap();
    let mut k = Kernel::boot();
    for i in 0..8 {
        k.spawn(&format!("p{i}"), p.clone()).unwrap();
    }
    let report = k.run_until_idle().unwrap();
    assert_eq!(report.procs.len(), 8);
    for (i, p) in report.procs.iter().enumerate() {
        assert!(matches!(p.status, ProcStatus::Exited(_)));
        // Each process sees its own pid through getpid: isolation of
        // the identity syscall across all eight address spaces.
        assert_eq!(p.output, format!("{}", i + 1).as_bytes());
    }
}
