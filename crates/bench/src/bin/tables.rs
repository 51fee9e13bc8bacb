//! Regenerates every table and figure of *Hardware/Software Tradeoffs for
//! Increased Performance* (ASPLOS 1982), printing measured values next to
//! the paper's published numbers.
//!
//! ```text
//! cargo run --release -p mips-bench --bin tables            # everything
//! cargo run --release -p mips-bench --bin tables table11    # one experiment
//! ```
//!
//! Experiments: `table1` … `table11`, `figure1` … `figure4`, `free`,
//! `wordwise`, `regalloc`, `systems`, `chaos`, `recovery`,
//! `failover` (the kill-anyone distributed campaign: WAL + leader
//! election under node kills drawn over the whole run), `throughput`
//! (the fast engine against the reference interpreter), and `fleet`
//! (the fleet scaling curve).
//!
//! The whole-paper sweep (no arguments, or `all`) writes no files.
//! Only an explicit `tables throughput` or `tables fleet` re-pins its
//! artifact in the current directory — `BENCH_throughput.json` or
//! `BENCH_fleet.json`, the baselines the CI gates compare against — so
//! a routine verification run never rewrites a checked-in baseline.

use mips_analysis as analysis;
use mips_hll::MachineTarget;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    let t0 = Instant::now();

    if want("table1") {
        section("Table 1");
        println!("{}", analysis::constants::analyze_corpus());
    }
    if want("table2") {
        section("Table 2");
        println!("{}", analysis::taxonomy::Taxonomy);
    }
    if want("table3") {
        section("Table 3");
        println!("{}", analysis::cc_usage::analyze_corpus());
    }

    let bool_stats = analysis::booleans::analyze_corpus();
    if want("table4") {
        section("Table 4");
        println!("{bool_stats}");
    }
    if want("table5") {
        section("Table 5");
        println!("{}", analysis::bool_cost::table5());
    }
    if want("table6") {
        section("Table 6");
        let t6 = analysis::bool_cost::table6(
            bool_stats.operators_per_compound().max(1.0),
            bool_stats.jump_pct() / 100.0,
        );
        println!("{t6}");
    }

    if want("table7") || want("table8") || want("table9") || want("table10") {
        let word = analysis::refs::measure(MachineTarget::Word, None);
        let byte = analysis::refs::measure(MachineTarget::Byte, None);
        if want("table7") {
            section("Table 7");
            println!("{word}");
        }
        if want("table8") {
            section("Table 8");
            println!("{byte}");
        }
        let t9 = analysis::byte_cost::table9();
        if want("table9") {
            section("Table 9");
            println!("{t9}");
        }
        if want("table10") {
            section("Table 10");
            println!("{}", analysis::byte_cost::table10(&t9, &word, &byte));
        }
    }

    if want("table11") {
        section("Table 11");
        println!("{}", analysis::table11::measure());
    }

    if want("figure1") {
        section("Figure 1");
        println!("{}", analysis::figures::figure1());
    }
    if want("figure2") {
        section("Figure 2");
        println!("{}", analysis::figures::figure2());
    }
    if want("figure3") {
        section("Figure 3");
        println!("{}", analysis::figures::figure3());
    }
    if want("figure4") {
        section("Figure 4");
        println!("{}", analysis::figures::figure4());
    }

    if want("wordwise") {
        section("Word-at-a-time string processing (§4.1)");
        println!("{}", analysis::word_at_a_time::measure());
    }

    if want("regalloc") {
        section("Register allocation payoff (§2.2)");
        println!(
            "{}",
            analysis::regalloc::sweep(&[
                "sort",
                "queens",
                "strings",
                "formatter",
                "sieve",
                "matmul"
            ])
        );
    }

    if want("systems") {
        section("Systems overhead under mips-os (§3.1/§3.3)");
        systems_table();
    }

    if want("chaos") {
        section("Fault survival under mips-os (chaos campaign)");
        chaos_table();
    }

    if want("recovery") {
        section("Fault recovery under supervision (chaos campaign, checkpoint/restart)");
        recovery_table();
    }

    if want("failover") {
        section("Kill-anyone failover (guest WAL + leader election, unrestricted kill window)");
        failover_table();
    }

    if want("free") {
        section("Free memory cycles (§3.1)");
        let names: Vec<&str> = mips_workloads::corpus().iter().map(|w| w.name).collect();
        println!("{}", analysis::free_cycles::measure(&names));
    }

    if want("throughput") {
        section("Host throughput: fast engine vs reference interpreter");
        let report = mips_bench::throughput::measure();
        println!("{report}");
        if writes_artifact(&args, "throughput") {
            let path = "BENCH_throughput.json";
            std::fs::write(path, report.to_json()).expect("write throughput artifact");
            println!("[wrote {path}]");
        }
    }

    if want("fleet") {
        section("Fleet serving: scaling curve and measured throughput");
        let bench = mips_serve::measure_fleet(mips_serve::BENCH_SEED, mips_serve::BENCH_JOBS, 0);
        println!("{bench}");
        if writes_artifact(&args, "fleet") {
            let path = "BENCH_fleet.json";
            std::fs::write(path, bench.to_json()).expect("write fleet artifact");
            println!("[wrote {path}]");
        }
    }

    eprintln!("[tables: completed in {:?}]", t0.elapsed());
}

/// Whether this invocation re-pins `experiment`'s artifact: only when
/// the experiment is named explicitly, never from the whole-paper
/// sweep (no arguments, or `all`).
fn writes_artifact(args: &[String], experiment: &str) -> bool {
    args.iter().any(|a| a == experiment)
}

/// Per-workload systems overhead: each corpus program runs alone under
/// the `mips-os` kernel (demand-paged, segmented, preempted) and the
/// kernel-mode cycles are attributed to their sections. The overhead
/// column is the price of multiprogramming relative to bare metal.
fn systems_table() {
    use mips_os::{Kernel, ProcStatus};
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>8}",
        "workload", "user", "save/rst", "dispatch", "syscall", "tick", "sched", "paging", "ovhd%"
    );
    for w in mips_workloads::corpus() {
        let built = mips_bench::build(w.source);
        let mut k = Kernel::boot();
        k.spawn(w.name, built.program).expect("spawns");
        let r = k.run_until_idle().expect("runs under the kernel");
        assert!(
            matches!(r.procs[0].status, ProcStatus::Exited(_)),
            "{} exits under the kernel",
            w.name
        );
        let c = r.cost;
        println!(
            "{:<12} {:>10} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>8.2}",
            w.name,
            c.user,
            c.save_restore,
            c.dispatch,
            c.syscall,
            c.tick,
            c.sched,
            c.paging,
            c.overhead_percent()
        );
    }
}

/// Per-fault-kind survival: a fixed-seed `mips-chaos` campaign over
/// multiprogrammed workload sets, reporting how each injected fault
/// class resolved — masked, isolated to its victim, detected by the
/// hardened kernel, or escaped (always zero; an escape is a bug).
fn chaos_table() {
    let report = mips_chaos::run_campaign(&mips_chaos::CampaignConfig {
        seed: 0xA5,
        cases: 60,
        max_faults: 3,
        ..mips_chaos::CampaignConfig::default()
    });
    println!("{report}");
    assert!(report.clean(), "chaos campaign must not have escapes");
}

/// The same fixed-seed campaign, supervised: detected kills roll the
/// victim back to its last checkpoint and replay. The survival table
/// shows how many previously-detected cases now finish byte-identical
/// to baseline (`recovered`), and what stays honestly detected
/// (deterministic wedges, quarantined victims).
fn recovery_table() {
    let cfg = mips_chaos::CampaignConfig {
        seed: 0xA5,
        cases: 60,
        max_faults: 3,
        ..mips_chaos::CampaignConfig::default()
    };
    let plain = mips_chaos::run_campaign(&cfg);
    let rec = mips_chaos::run_campaign(&mips_chaos::CampaignConfig {
        recover: true,
        ..cfg
    });
    println!("{rec}");
    let (p, r) = (plain.summary(), rec.summary());
    println!(
        "recovery reclassified {} of {} detected cases ({} still detected)",
        r.recovered, p.detected, r.detected
    );
    assert!(rec.clean(), "recovery campaign must not have escapes");
    assert!(
        r.recovered * 4 >= p.detected,
        "fewer than a quarter of detected cases recovered"
    );
}

/// The pinned failover campaign: three symmetric members with a
/// durable write-ahead log and bully-style elections, under the full
/// distributed fault taxonomy with kills — the sitting leader
/// included — drawn uniformly over the *entire* run. The table shows
/// the per-node survival counts plus the election/kill aggregates;
/// the asserts are the same floors CI holds the pinned artifact to.
fn failover_table() {
    let report = mips_chaos::run_net_campaign_threaded(
        &mips_chaos::NetCampaignConfig {
            failover: true,
            ..mips_chaos::NetCampaignConfig::default()
        },
        0,
    );
    println!("{report}");
    assert!(report.clean(), "failover campaign must not have escapes");
    assert!(
        mips_chaos::kills_all_recovered(&report),
        "every kill case must grade `recovered`"
    );
}

fn section(name: &str) {
    println!("{}", "=".repeat(72));
    println!("== {name}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::writes_artifact;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn only_an_explicit_experiment_writes_its_artifact() {
        for name in ["throughput", "fleet"] {
            assert!(!writes_artifact(&args(&[]), name), "sweep: {name}");
            assert!(!writes_artifact(&args(&["all"]), name), "all: {name}");
            assert!(!writes_artifact(&args(&["table1"]), name), "other: {name}");
            assert!(writes_artifact(&args(&[name]), name), "explicit: {name}");
            assert!(
                writes_artifact(&args(&["all", name]), name),
                "named: {name}"
            );
        }
        assert!(!writes_artifact(&args(&["throughput"]), "fleet"));
        assert!(!writes_artifact(&args(&["fleet"]), "throughput"));
    }
}
