//! The fleet scaling benchmark behind `BENCH_fleet.json`, and its CI
//! gate.
//!
//! ## Why the pinned curve is virtual-time
//!
//! A scaling curve measured in wall clock is a fact about the CI
//! host's core count, not about the scheduler — a 1-core container
//! shows a flat line however good the fleet is. The artifact therefore
//! has two parts:
//!
//! * a **deterministic block** (`seed` through `speedup_at_4`): the
//!   standard mix's per-job simulated-instruction costs replayed
//!   through the fleet's list-scheduling model
//!   ([`VirtualSchedule`]) at each worker count. Byte-identical on
//!   every host — CI diffs it exactly, and the `speedup_at_4` floor is
//!   a real claim about the scheduling discipline, not about hardware;
//! * a **measured block** (`measured`): honest wall-clock numbers from
//!   the host that generated the artifact — jobs/sec, p50/p99 latency,
//!   thread count. Gated only by a loose floor, never byte-compared.
//!
//! [`deterministic_part`] is the seam: tests and the gate byte-compare
//! everything above the `measured` key and treat the rest as
//! provenance.

use crate::batch::{run_batch, BatchReport, DEFAULT_CAPACITY};
use crate::mix::standard_mix;
use mips_fleet::{percentile, VirtualJob, VirtualSchedule};
use std::fmt;

/// Artifact schema identifier.
pub const FLEET_SCHEMA: &str = "mips-bench/fleet/v1";
/// Worker counts on the pinned scaling curve.
pub const SCALING_WORKERS: [usize; 4] = [1, 2, 4, 8];
/// The deterministic speedup the 4-worker point must clear.
pub const SPEEDUP_FLOOR_AT_4: f64 = 2.0;
/// Measured jobs/sec may fall at most this fraction below the
/// baseline artifact's before the gate fails. Deliberately loose —
/// the floor exists to catch an order-of-magnitude serving collapse,
/// not host-to-host wall-clock variance; the tight contract is the
/// byte-compared deterministic block.
pub const GATE_TOLERANCE: f64 = 0.7;
/// Seed and size of the standard benchmark mix.
pub const BENCH_SEED: u64 = 0xF1EE;
pub const BENCH_JOBS: usize = 96;

/// One point on the virtual-time scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    pub workers: usize,
    /// Virtual time (simulated instructions) the last job retires.
    pub makespan: u64,
    /// Virtual-latency quantiles across the mix.
    pub p50: u64,
    pub p99: u64,
    /// Makespan speedup over the 1-worker schedule.
    pub speedup: f64,
}

/// Host-side numbers from the run that generated the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub threads: usize,
    pub wall_ns: u64,
    pub jobs_per_sec: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// The full `BENCH_fleet.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBench {
    pub seed: u64,
    pub jobs: usize,
    /// Sum of per-job costs — the serial makespan.
    pub total_cost: u64,
    pub scaling: Vec<ScalingPoint>,
    pub measured: Measured,
}

impl FleetBench {
    /// The 4-worker speedup (1.0 if the curve lacks that point).
    pub fn speedup_at_4(&self) -> f64 {
        self.scaling
            .iter()
            .find(|p| p.workers == 4)
            .map_or(1.0, |p| p.speedup)
    }

    /// Serializes to the pinned [`FLEET_SCHEMA`] layout. Everything
    /// above the `measured` key is a pure function of `(seed, jobs)`;
    /// equal values produce byte-identical text.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{FLEET_SCHEMA}\",\n"));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"total_cost\": {},\n", self.total_cost));
        s.push_str("  \"scaling\": [\n");
        for (i, p) in self.scaling.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"workers\": {}, \"makespan\": {}, \"p50\": {}, \"p99\": {}, \"speedup\": {:.4}}}{}\n",
                p.workers,
                p.makespan,
                p.p50,
                p.p99,
                p.speedup,
                if i + 1 == self.scaling.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"speedup_at_4\": {:.4},\n",
            self.speedup_at_4()
        ));
        s.push_str("  \"measured\": {\n");
        s.push_str(&format!("    \"threads\": {},\n", self.measured.threads));
        s.push_str(&format!("    \"wall_ns\": {},\n", self.measured.wall_ns));
        s.push_str(&format!(
            "    \"jobs_per_sec\": {:.1},\n",
            self.measured.jobs_per_sec
        ));
        s.push_str(&format!("    \"p50_ns\": {},\n", self.measured.p50_ns));
        s.push_str(&format!("    \"p99_ns\": {}\n", self.measured.p99_ns));
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for FleetBench {
    /// The `tables fleet` section: the scaling curve plus the measured
    /// line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet mix: seed {:#x}, {} jobs, {} simulated instructions",
            self.seed, self.jobs, self.total_cost
        )?;
        writeln!(
            f,
            "{:<8} {:>14} {:>12} {:>12} {:>8}",
            "workers", "makespan", "p50", "p99", "speedup"
        )?;
        for p in &self.scaling {
            writeln!(
                f,
                "{:<8} {:>14} {:>12} {:>12} {:>7.2}x",
                p.workers, p.makespan, p.p50, p.p99, p.speedup
            )?;
        }
        write!(
            f,
            "measured: {} threads, {:.1} jobs/sec, p50 {:.2} ms, p99 {:.2} ms",
            self.measured.threads,
            self.measured.jobs_per_sec,
            self.measured.p50_ns as f64 / 1e6,
            self.measured.p99_ns as f64 / 1e6
        )
    }
}

/// Builds the scaling curve from per-job costs: a closed batch
/// replayed through the fleet's list-scheduling model at each worker
/// count in [`SCALING_WORKERS`].
pub fn scaling_curve(costs: &[u64]) -> Vec<ScalingPoint> {
    let jobs: Vec<VirtualJob> = costs.iter().map(|&c| VirtualJob::batch(c)).collect();
    let serial = VirtualSchedule::replay(&jobs, 1).makespan;
    SCALING_WORKERS
        .iter()
        .map(|&workers| {
            let s = VirtualSchedule::replay(&jobs, workers);
            ScalingPoint {
                workers,
                makespan: s.makespan,
                p50: s.latency_quantile(0.50),
                p99: s.latency_quantile(0.99),
                speedup: s.speedup(serial),
            }
        })
        .collect()
}

/// Assembles the artifact from a finished batch run of the standard
/// mix.
pub fn bench_from_batch(seed: u64, report: &BatchReport) -> FleetBench {
    let costs: Vec<u64> = report.results.iter().map(|r| r.instructions).collect();
    FleetBench {
        seed,
        jobs: report.results.len(),
        total_cost: costs.iter().sum(),
        scaling: scaling_curve(&costs),
        measured: Measured {
            threads: report.threads,
            wall_ns: report.wall_ns,
            jobs_per_sec: report.jobs_per_sec(),
            p50_ns: percentile(&report.latencies_ns, 0.50),
            p99_ns: percentile(&report.latencies_ns, 0.99),
        },
    }
}

/// Runs the standard mix and assembles the full artifact.
pub fn measure_fleet(seed: u64, jobs: usize, threads: usize) -> FleetBench {
    let report = run_batch(standard_mix(seed, jobs), threads, DEFAULT_CAPACITY);
    bench_from_batch(seed, &report)
}

/// The host-independent prefix of an artifact: everything above the
/// `measured` key. `None` if the text does not carry the key.
pub fn deterministic_part(json: &str) -> Option<&str> {
    json.find("  \"measured\"").map(|at| &json[..at])
}

fn parse_number(json: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .ok_or_else(|| format!("missing {key} field"))?;
    let rest = json[at + needle.len()..]
        .trim_start()
        .split([',', '\n', '}'])
        .next()
        .unwrap_or("");
    rest.trim()
        .parse::<f64>()
        .map_err(|e| format!("malformed {key} {rest:?}: {e}"))
}

/// The worker-thread count an artifact's `measured` block was taken
/// on. `fleet_gate` re-measures at the baseline's count, because
/// jobs/sec from a different count is a different quantity.
///
/// # Errors
///
/// A message if the field is missing or not a whole number.
pub fn measured_threads(json: &str) -> Result<usize, String> {
    let t = parse_number(json, "threads")?;
    if t < 1.0 || t.fract() != 0.0 {
        return Err(format!("malformed threads {t}"));
    }
    Ok(t as usize)
}

/// Gate verdict across the artifact's two contracts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetVerdict {
    /// Deterministic blocks byte-identical?
    pub scaling_match: bool,
    /// Current 4-worker deterministic speedup and its fixed floor.
    pub speedup_at_4: f64,
    pub speedup_floor: f64,
    /// Measured throughput vs the baseline's, with the loose floor.
    pub baseline_jps: f64,
    pub current_jps: f64,
    pub jps_floor: f64,
    pub pass: bool,
}

impl fmt::Display for FleetVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scaling block {}; speedup@4 {:.2}x (floor {:.2}x); \
             {:.1} jobs/sec vs baseline {:.1} (floor {:.1}): {}",
            if self.scaling_match {
                "byte-identical"
            } else {
                "DIVERGED"
            },
            self.speedup_at_4,
            self.speedup_floor,
            self.current_jps,
            self.baseline_jps,
            self.jps_floor,
            if self.pass { "PASS" } else { "REGRESSION" }
        )
    }
}

/// Compares a current artifact against the checked-in baseline:
/// deterministic blocks must match byte-for-byte, the current
/// 4-worker speedup must clear [`SPEEDUP_FLOOR_AT_4`], and measured
/// jobs/sec must stay within `tolerance` of the baseline's.
///
/// # Errors
///
/// A message if either artifact is not a [`FLEET_SCHEMA`] document,
/// lacks a gated field, or was measured on a different thread count
/// than the baseline (the throughput floor would then move with the
/// host's core count instead of catching a per-job slowdown).
pub fn gate(
    baseline_json: &str,
    current_json: &str,
    tolerance: f64,
) -> Result<FleetVerdict, String> {
    for (label, json) in [("baseline", baseline_json), ("current", current_json)] {
        if !json.contains(&format!("\"schema\": \"{FLEET_SCHEMA}\"")) {
            return Err(format!("{label}: not a {FLEET_SCHEMA} artifact"));
        }
    }
    let base_det = deterministic_part(baseline_json)
        .ok_or_else(|| "baseline: missing measured block".to_string())?;
    let cur_det = deterministic_part(current_json)
        .ok_or_else(|| "current: missing measured block".to_string())?;
    let speedup_at_4 =
        parse_number(current_json, "speedup_at_4").map_err(|e| format!("current: {e}"))?;
    let baseline_jps =
        parse_number(baseline_json, "jobs_per_sec").map_err(|e| format!("baseline: {e}"))?;
    let current_jps =
        parse_number(current_json, "jobs_per_sec").map_err(|e| format!("current: {e}"))?;
    let base_threads = measured_threads(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let cur_threads = measured_threads(current_json).map_err(|e| format!("current: {e}"))?;
    if base_threads != cur_threads {
        return Err(format!(
            "measured on {cur_threads} threads, baseline on {base_threads}: \
             jobs/sec is only comparable at the same thread count"
        ));
    }
    let scaling_match = base_det == cur_det;
    let jps_floor = baseline_jps * (1.0 - tolerance);
    Ok(FleetVerdict {
        scaling_match,
        speedup_at_4,
        speedup_floor: SPEEDUP_FLOOR_AT_4,
        baseline_jps,
        current_jps,
        jps_floor,
        pass: scaling_match && speedup_at_4 >= SPEEDUP_FLOOR_AT_4 && current_jps >= jps_floor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetBench {
        let costs: Vec<u64> = (0..40).map(|i| 1000 + (i % 7) * 300).collect();
        FleetBench {
            seed: 0xF1EE,
            jobs: costs.len(),
            total_cost: costs.iter().sum(),
            scaling: scaling_curve(&costs),
            measured: Measured {
                threads: 4,
                wall_ns: 2_000_000_000,
                jobs_per_sec: 20.0,
                p50_ns: 40_000_000,
                p99_ns: 90_000_000,
            },
        }
    }

    #[test]
    fn the_schema_layout_is_pinned() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"mips-bench/fleet/v1\",\n  \"seed\": 61934,\n"));
        assert!(json.contains("  \"scaling\": [\n    {\"workers\": 1, \"makespan\": "));
        assert!(json.contains("  \"speedup_at_4\": "));
        assert!(json.contains("  \"measured\": {\n    \"threads\": 4,\n"));
        assert!(json.ends_with("  }\n}\n"));
    }

    #[test]
    fn the_deterministic_part_excludes_exactly_the_measured_block() {
        let json = sample().to_json();
        let det = deterministic_part(&json).unwrap();
        assert!(det.contains("\"speedup_at_4\""));
        assert!(!det.contains("\"wall_ns\""));
        // Two artifacts that differ only in measured numbers share it.
        let mut other = sample();
        other.measured.jobs_per_sec = 3.0;
        other.measured.wall_ns = 9;
        assert_eq!(det, deterministic_part(&other.to_json()).unwrap());
    }

    #[test]
    fn a_uniform_mix_scales_near_linearly_in_virtual_time() {
        let b = sample();
        assert!(b.speedup_at_4() > 3.5, "got {}", b.speedup_at_4());
        let p1 = &b.scaling[0];
        assert_eq!(p1.makespan, b.total_cost, "1 worker is the serial schedule");
    }

    #[test]
    fn the_gate_passes_itself_and_fails_divergence() {
        let base = sample().to_json();
        let v = gate(&base, &base, GATE_TOLERANCE).unwrap();
        assert!(v.pass, "{v}");
        // A changed cost list diverges the deterministic block.
        let mut other = sample();
        other.total_cost += 1;
        let v = gate(&base, &other.to_json(), GATE_TOLERANCE).unwrap();
        assert!(!v.scaling_match);
        assert!(!v.pass);
        // A throughput collapse past tolerance fails on the loose floor.
        let mut slow = sample();
        slow.measured.jobs_per_sec = 1.0;
        let v = gate(&base, &slow.to_json(), GATE_TOLERANCE).unwrap();
        assert!(v.scaling_match);
        assert!(!v.pass);
        // Non-artifacts are errors, not verdicts.
        assert!(gate(&base, "{}", GATE_TOLERANCE).is_err());
    }

    #[test]
    fn the_gate_refuses_a_different_thread_count() {
        let base = sample().to_json();
        assert_eq!(measured_threads(&base), Ok(4));
        let mut other = sample();
        other.measured.threads = 1;
        let err = gate(&base, &other.to_json(), GATE_TOLERANCE).unwrap_err();
        assert!(err.contains("1 threads, baseline on 4"), "{err}");
        // Even a faster run on more threads is not a verdict.
        other.measured.threads = 8;
        other.measured.jobs_per_sec = 1000.0;
        assert!(gate(&base, &other.to_json(), GATE_TOLERANCE).is_err());
        assert!(measured_threads("{}").is_err());
    }
}
