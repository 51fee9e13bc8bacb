//! layerbench: end-to-end and per-layer benchmark of the MIPS
//! reproduction, driven from outside through the crates' public APIs.
//!
//! ```text
//! layerbench --workload corpus|multiprog|failover --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is one thread in a closed loop: the next unit starts
//! when the previous one ends. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` reports the end-to-end metrics ([`E2E`]) with tracing
//!   off. Set-up runs several times ([`SETUPS`]); `setup_s` is the
//!   median.
//! * `--trace 1` reports the per-layer metrics ([`LAYERS`]): it
//!   alternates untraced and traced units for `--seconds`, records a
//!   span around every call the harness makes into a module, then runs
//!   the layer probes (reference engine, `certify`, assembly). The
//!   self-time table and the tracing overhead are printed above the
//!   JSON line; the spans go to `.bench_build/layerbench/`.
//!
//! Determinism guard: units of one class (every `corpus` pass, every
//! `multiprog` unit, every `failover` case on the same plan) must
//! repeat their counts exactly, traced or not, and the counts over the
//! fixed unit set must match those an earlier run of the same binary
//! recorded for the same workload and seed. On any difference the
//! harness prints the difference and exits with code 3, reporting
//! nothing.

mod corpus;
mod failover;
mod multiprog;
mod trace;

use mips_os::RunReport;
use mips_sim::Engine;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, reported by every `--trace 0` run. The 90th
/// percentile unit time is printed in the summary line but is not a
/// metric: on a shared 2-vCPU machine, host contention moved it by more
/// than any regression bound could hold (see README.md).
const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("guest_mips", "Minstr/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles", "count"),
    ("code_words", "count"),
];

/// Per-layer metrics, reported by every `--trace 1` run. A layer the
/// workload bypasses reports 0.
const LAYERS: [(&str, &str); 41] = [
    ("hll.compile_ms", "ms"),
    ("reorg.reorganize_ms", "ms"),
    ("reorg.nop_frac", "ratio"),
    ("asm.kernel_ms", "ms"),
    ("asm.member_ms", "ms"),
    ("verify.certify_ms", "ms"),
    ("verify.cert_blocks", "count"),
    ("sim.fast_ns_per_instr", "ns/instr"),
    ("sim.ref_ns_per_instr", "ns/instr"),
    ("sim.engine_ratio", "ratio"),
    ("sim.cert_elision", "ratio"),
    ("sim.instructions", "count"),
    ("os.boot_ms", "ms"),
    ("os.run_ms", "ms"),
    ("os.ticks", "count"),
    ("os.switches", "count"),
    ("os.syscalls", "count"),
    ("os.faults", "count"),
    ("os.evictions", "count"),
    ("os.kernel_frac", "ratio"),
    ("os.cost.save_restore", "count"),
    ("os.cost.dispatch", "count"),
    ("os.cost.syscall", "count"),
    ("os.cost.tick", "count"),
    ("os.cost.sched", "count"),
    ("os.cost.paging", "count"),
    ("net.boot_ms", "ms"),
    ("net.cluster_new_ms", "ms"),
    ("net.round_us_plain", "us"),
    ("net.round_us_ckpt", "us"),
    ("net.kill_us", "us"),
    ("net.rounds", "count"),
    ("net.frames_sent", "count"),
    ("net.frames_delivered", "count"),
    ("net.frames_retained", "count"),
    ("net.partition_dropped", "count"),
    ("net.restarts", "count"),
    ("chaos.plan_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage", "ratio"),
    ("trace.units", "count"),
];

/// Set-ups per `--trace 0` run: at least `SETUPS.0`, and more until
/// `SETUP_SECONDS` have passed, up to `SETUPS.1`. `setup_s` is their
/// median.
const SETUPS: (usize, usize) = (9, 100);
const SETUP_SECONDS: f64 = 3.0;

/// Where spans and count records are written, relative to the
/// checkout root the harness runs from.
const OUT_DIR: &str = ".bench_build/layerbench";

/// What one unit reports back to the loop.
struct Unit {
    /// Determinism class: units of one class must repeat `counts`.
    class: u64,
    /// Why the unit's outputs did not match the expected outputs.
    failure: Option<String>,
    /// Guest instructions retired (all nodes, user and kernel).
    instructions: u64,
    /// Deterministic per-layer counts, in a fixed order per workload.
    counts: Vec<(&'static str, u64)>,
}

impl Unit {
    /// A unit that stopped before producing output: no counts.
    fn failed(class: u64, why: String) -> Unit {
        Unit {
            class,
            failure: Some(why),
            instructions: 0,
            counts: Vec::new(),
        }
    }

    fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// A workload after set-up.
trait Bench {
    /// Size of the fixed unit set: units `0..classes()` cover every
    /// determinism class once.
    fn classes(&self) -> u64;
    /// Static instruction words of every program the workload runs.
    fn code_words(&self) -> u64;
    /// Runs unit `index`, recording spans into `t` when it is on.
    fn unit(&mut self, t: &mut Tracer, index: u64) -> Unit;
    /// Layer probes run after the timed loop of a traced run.
    fn probe(&mut self) -> Vec<(&'static str, f64)>;
}

fn setup(workload: &str, seed: u64, t: &mut Tracer) -> Box<dyn Bench> {
    match workload {
        "corpus" => Box::new(corpus::setup(t)),
        "multiprog" => Box::new(multiprog::setup(t)),
        "failover" => Box::new(failover::setup(t, seed)),
        _ => unreachable!("workload validated at parse time"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("layerbench: {msg}");
    eprintln!(
        "usage: layerbench --workload corpus|multiprog|failover --seed N --seconds S --trace 0|1"
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {value}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(),
            "--seconds" => args.seconds = num().max(1),
            "--trace" => args.trace = num() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !["corpus", "multiprog", "failover"].contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Prints why the harness will not report, and exits without a result.
fn refuse(msg: &str) -> ! {
    eprintln!("layerbench: refusing to report: {msg}");
    exit(3)
}

fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in 0..=1) of `xs`; 0 when empty.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn repeat_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut xs)
}

/// Runs the same unit on both engines, alternating, `reps` times each.
/// `f` returns the unit's guest instruction count, which must agree.
/// Returns the median fast and reference times (ns) and the count.
fn engine_probe(reps: usize, mut f: impl FnMut(Engine) -> u64) -> (f64, f64, u64) {
    let (mut fast, mut reference) = (Vec::new(), Vec::new());
    let mut counts = Vec::new();
    for _ in 0..reps {
        for (engine, times) in [
            (Engine::Fast, &mut fast),
            (Engine::Reference, &mut reference),
        ] {
            let t = Instant::now();
            counts.push(f(engine));
            times.push(t.elapsed().as_nanos() as f64);
        }
    }
    if counts.iter().any(|&c| c != counts[0]) {
        refuse(&format!(
            "engines retired different instruction counts: {counts:?}"
        ));
    }
    (median(&mut fast), median(&mut reference), counts[0])
}

/// Median time (ns, 5 repetitions) to certify every program, and the
/// number of block certificates proved.
fn certify_probe(programs: &[mips_core::Program]) -> (f64, u64) {
    let blocks = programs
        .iter()
        .map(|p| mips_verify::certify(p).len() as u64)
        .sum();
    let ns = repeat_median(5, || {
        for p in programs {
            std::hint::black_box(mips_verify::certify(p));
        }
    });
    (ns, blocks)
}

/// Kernel counters and cycle buckets summed over `reports`.
fn os_counts(reports: &[RunReport]) -> Vec<(&'static str, u64)> {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    vec![
        ("os.ticks", sum(&|r| r.counters.ticks)),
        ("os.switches", sum(&|r| r.counters.switches)),
        ("os.syscalls", sum(&|r| r.counters.syscalls)),
        ("os.faults", sum(&|r| r.counters.faults)),
        ("os.evictions", sum(&|r| r.counters.evictions)),
        ("os.user", sum(&|r| r.cost.user)),
        ("os.cost.save_restore", sum(&|r| r.cost.save_restore)),
        ("os.cost.dispatch", sum(&|r| r.cost.dispatch)),
        ("os.cost.syscall", sum(&|r| r.cost.syscall)),
        ("os.cost.tick", sum(&|r| r.cost.tick)),
        ("os.cost.sched", sum(&|r| r.cost.sched)),
        ("os.cost.paging", sum(&|r| r.cost.paging)),
    ]
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs one unit, turning a panic into a failed unit. A failure is
/// counted, and the first one of each class is printed.
fn run_unit(bench: &mut dyn Bench, t: &mut Tracer, index: u64) -> Unit {
    let u = catch_unwind(AssertUnwindSafe(|| bench.unit(t, index)))
        .unwrap_or_else(|_| Unit::failed(index % bench.classes(), "panicked".into()));
    if let Some(why) = &u.failure {
        if index < bench.classes() {
            eprintln!("layerbench: unit {index} failed: {why}");
        }
    }
    u
}

/// Per-class counts seen so far; any repeat that differs is refused.
#[derive(Default)]
struct Guard {
    seen: BTreeMap<u64, Vec<(&'static str, u64)>>,
}

impl Guard {
    fn check(&mut self, u: &Unit) {
        if u.counts.is_empty() {
            return;
        }
        let mut counts = u.counts.clone();
        counts.push(("instructions", u.instructions));
        match self.seen.get(&u.class) {
            None => {
                self.seen.insert(u.class, counts);
            }
            Some(prev) if *prev == counts => {}
            Some(prev) => refuse(&format!(
                "class {} repeated with different counts:\n  first {prev:?}\n  now   {counts:?}",
                u.class
            )),
        }
    }

    /// Runs, untimed and untraced, every class of the fixed set the
    /// timed loop did not reach, then sums the counts over the set.
    /// These units count as attempted, and failed if their check fails.
    fn fixed_set(
        &mut self,
        bench: &mut dyn Bench,
        attempted: &mut u64,
        failed: &mut u64,
    ) -> BTreeMap<&'static str, u64> {
        let mut off = Tracer::new(false);
        for class in 0..bench.classes() {
            if !self.seen.contains_key(&class) {
                let u = run_unit(bench, &mut off, class);
                *attempted += 1;
                *failed += u64::from(!u.ok());
                self.check(&u);
            }
        }
        let mut sums = BTreeMap::new();
        for counts in self.seen.values() {
            for &(name, v) in counts {
                *sums.entry(name).or_insert(0) += v;
            }
        }
        sums
    }
}

/// Compares the fixed-set counts with the record an earlier run of the
/// same binary left for this workload and seed, or leaves the record.
fn cross_run_check(args: &Args, sums: &BTreeMap<&'static str, u64>, code_words: u64) {
    let stamp = std::env::current_exe()
        .and_then(|p| p.metadata())
        .and_then(|m| m.modified())
        .map(|t| format!("{t:?}"))
        .unwrap_or_default();
    let mut record = format!("binary {stamp}\ncode_words {code_words}\n");
    for (name, v) in sums {
        record.push_str(&format!("{name} {v}\n"));
    }
    let path = format!("{OUT_DIR}/counts-{}-{}.txt", args.workload, args.seed);
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.starts_with(&format!("binary {stamp}\n")) => {
            if prev != record {
                refuse(&format!(
                    "counts differ from the earlier run recorded in {path}:\n--- earlier\n{prev}--- now\n{record}"
                ));
            }
        }
        _ => {
            if std::fs::create_dir_all(OUT_DIR)
                .and_then(|()| std::fs::write(&path, &record))
                .is_err()
            {
                eprintln!("layerbench: could not write {path}; cross-run check skipped");
            }
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// `--trace 0`: repeated set-up, one warm-up unit, then the timed loop.
fn untraced(args: &Args) -> Outcome {
    let mut t = Tracer::new(false);
    let mut setups = Vec::new();
    let mut bench = None;
    while setups.len() < SETUPS.0
        || (setups.len() < SETUPS.1 && setups.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(setup(&args.workload, args.seed, &mut t));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let bench = bench.as_mut();
    let mut guard = Guard::default();
    guard.check(&run_unit(bench, &mut t, 0));

    let (mut attempted, mut failed, mut instructions) = (0u64, 0u64, 0u64);
    let mut unit_ms = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let t0 = Instant::now();
        let u = run_unit(bench, &mut t, attempted);
        unit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        failed += u64::from(!u.ok());
        instructions += u.instructions;
        guard.check(&u);
    }
    let wall = start.elapsed().as_secs_f64();
    let timed_units = attempted as f64;

    let sums = guard.fixed_set(bench, &mut attempted, &mut failed);
    let code_words = bench.code_words();
    cross_run_check(args, &sums, code_words);
    let values = [
        median(&mut setups),
        timed_units / wall,
        quantile(&mut unit_ms, 0.5),
        instructions as f64 / wall / 1e6,
        peak_rss_mib(),
        sums["instructions"] as f64,
        code_words as f64,
    ];
    println!(
        "{}: {timed_units} timed units in {wall:.2} s (unit p90 {:.3} ms), {failed} of {attempted} failed; {} set-ups",
        args.workload,
        quantile(&mut unit_ms, 0.9),
        setups.len()
    );
    Outcome {
        attempted,
        failed,
        metrics: E2E
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    }
}

/// `--trace 1`: traced set-up, alternating untraced and traced units,
/// the fixed set, then the layer probes.
fn traced(args: &Args) -> Outcome {
    let mut t = Tracer::new(true);
    let mut bench = setup(&args.workload, args.seed, &mut t);
    let bench = bench.as_mut();
    t.on = false;
    let mut guard = Guard::default();
    guard.check(&run_unit(bench, &mut t, 0));

    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per index: the untraced and the traced unit's wall time. The two
    // run back to back, so their ratio cancels most host noise.
    let mut pairs: Vec<[f64; 2]> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed() < budget {
        // Alternate which of the pair goes first so neither side always
        // runs on a cache the other warmed.
        let mut pair = [0.0; 2];
        for on in [index % 2 == 1, index % 2 == 0] {
            t.on = on;
            t.set_unit(Some(index));
            let t0 = Instant::now();
            let h = t.begin("harness.unit");
            let u = run_unit(bench, &mut t, index);
            t.end(h);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            pair[usize::from(on)] = ms;
            attempted += 1;
            failed += u64::from(!u.ok());
            guard.check(&u);
        }
        pairs.push(pair);
        index += 1;
    }
    t.on = false;
    t.set_unit(None);
    let sums = guard.fixed_set(bench, &mut attempted, &mut failed);
    cross_run_check(args, &sums, bench.code_words());
    let probes: BTreeMap<&str, f64> = bench.probe().into_iter().collect();

    let med = |name: &str| median(&mut t.durations(name));
    let total = |name: &str| t.durations(name).iter().sum::<f64>();
    let count = |name: &str| sums.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let kernel: f64 = [
        "os.cost.save_restore",
        "os.cost.dispatch",
        "os.cost.syscall",
        "os.cost.tick",
        "os.cost.sched",
        "os.cost.paging",
    ]
    .iter()
    .map(|n| count(n))
    .sum();
    let coverage = t.unit_coverage("harness.unit");
    let min_coverage = coverage.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    let plain_p50 = median(&mut pairs.iter().map(|p| p[0]).collect::<Vec<_>>());
    let traced_p50 = median(&mut pairs.iter().map(|p| p[1]).collect::<Vec<_>>());
    let overhead_pct = median(
        &mut pairs
            .iter()
            .map(|p| 100.0 * (p[1] - p[0]) / p[0])
            .collect::<Vec<_>>(),
    );

    let value = |name: &str| -> f64 {
        if let Some(&v) = probes.get(name) {
            return v;
        }
        match name {
            "hll.compile_ms" => total("hll.compile") / 1e6,
            "reorg.reorganize_ms" => total("reorg.reorganize") / 1e6,
            "reorg.nop_frac" => ratio(count("sim.nops"), count("sim.instructions")),
            "sim.cert_elision" => ratio(count("sim.cert_elided"), count("sim.instructions")),
            "os.boot_ms" => med("os.boot") / 1e6,
            "os.run_ms" => med("os.run") / 1e6,
            "os.kernel_frac" => ratio(kernel, kernel + count("os.user")),
            "net.boot_ms" => total("net.boot") / 1e6,
            "net.cluster_new_ms" => med("net.cluster_new") / 1e6,
            "net.round_us_plain" => med("net.step") / 1e3,
            "net.round_us_ckpt" => med("net.step_ckpt") / 1e3,
            "net.kill_us" => med("net.kill") / 1e3,
            "chaos.plan_us" => med("chaos.plan") / 1e3,
            "trace.overhead_pct" => overhead_pct,
            "trace.span_coverage" => min_coverage,
            "trace.units" => pairs.len() as f64,
            counted => count(counted),
        }
    };
    let metrics = LAYERS
        .iter()
        .map(|&(name, unit)| (name, value(name), unit))
        .collect();

    print_trace_report(args, &t, &coverage, plain_p50, traced_p50, overhead_pct);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The traced run's human report: per-module self time over the traced
/// units, span coverage and tracing overhead. Also writes every span.
fn print_trace_report(
    args: &Args,
    t: &Tracer,
    coverage: &[(u64, f64)],
    plain_p50: f64,
    traced_p50: f64,
    overhead_pct: f64,
) {
    let unit_ns: u64 = coverage.iter().map(|c| c.0).sum();
    let units = coverage.len().max(1) as f64;
    println!(
        "{} traced: {} units, self time per module and call (mean per unit):",
        args.workload,
        coverage.len()
    );
    println!("  {:<24} {:>12} {:>8}", "module / call", "self ms", "share");
    let row = |label: &str, ns: u64| {
        println!(
            "  {label:<24} {:>12.4} {:>7.2}%",
            ns as f64 / units / 1e6,
            100.0 * ns as f64 / unit_ns.max(1) as f64
        );
    };
    let calls = t.call_self_ns();
    let mut modules: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in &calls {
        *modules.entry(trace::module_of(name)).or_insert(0) += ns;
    }
    for (module, ns) in modules {
        row(module, ns);
        for (name, &ns) in calls.iter().filter(|(n, _)| trace::module_of(n) == module) {
            row(&format!("  {name}"), ns);
        }
    }
    let mut covs: Vec<f64> = coverage.iter().map(|c| c.1).collect();
    println!(
        "  span coverage of unit wall time: min {:.4}, median {:.4}",
        covs.iter().copied().fold(f64::INFINITY, f64::min),
        median(&mut covs)
    );
    println!(
        "  tracing overhead: unit p50 {plain_p50:.3} ms untraced, {traced_p50:.3} ms traced; median paired difference {overhead_pct:+.2}%"
    );
    let path = format!("{OUT_DIR}/spans-{}-{}.tsv", args.workload, args.seed);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        t.write_tsv(&mut f)?;
        std::io::Write::flush(&mut f)
    });
    match written {
        Ok(()) => println!("  spans written to {path}"),
        Err(e) => eprintln!("layerbench: could not write {path}: {e}"),
    }
}

fn main() {
    let args = parse_args();
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            // `+ 0.0` turns the -0.0 an empty float sum gives into 0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
