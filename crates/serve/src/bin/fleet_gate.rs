//! `fleet_gate` — the fleet serving CI gate.
//!
//! ```text
//! fleet_gate BASELINE.json            # regenerate now, compare, verdict
//! fleet_gate --compare BASE CURRENT   # pure file comparison
//! fleet_gate --replay                 # serial-vs-parallel byte-diff
//! ```
//!
//! Three contracts, one exit status:
//!
//! * the artifact's **deterministic block** (mix identity and
//!   virtual-time scaling curve) must match the baseline
//!   byte-for-byte — it is host-independent, so any difference is a
//!   real behavior change;
//! * the 4-worker deterministic **speedup floor** (≥2x) must hold;
//! * measured **jobs/sec** may not collapse below the loose tolerance
//!   of the baseline's ([`GATE_TOLERANCE`]), measured on the baseline's
//!   own worker-thread count (artifacts from different counts are a
//!   parse error, not a verdict);
//! * `--replay` runs the standard mix serially and on 8 workers and
//!   byte-compares every result — the determinism contract end to end.
//!
//! Exit codes: `0` pass, `1` regression or divergence, `2` usage or
//! parse error.

use mips_fleet::{run_ordered, run_serial, FleetResult};
use mips_serve::{
    gate, measure_fleet, measured_threads, standard_mix, BENCH_JOBS, BENCH_SEED, GATE_TOLERANCE,
};
use std::process::ExitCode;

const USAGE: &str = "usage: fleet_gate BASELINE.json | fleet_gate --compare BASELINE.json CURRENT.json | fleet_gate --replay";

/// Jobs in the `--replay` byte-diff (kept below the artifact's batch
/// so the gate stays affordable in CI).
const REPLAY_JOBS: usize = 48;

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("fleet_gate: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

fn verdict(baseline: &str, current: &str) -> ExitCode {
    match gate(baseline, current, GATE_TOLERANCE) {
        Ok(v) => {
            println!("{v}");
            if v.pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("fleet_gate: {e}");
            ExitCode::from(2)
        }
    }
}

fn replay() -> ExitCode {
    let serial: Vec<Vec<u8>> = run_serial(standard_mix(BENCH_SEED, REPLAY_JOBS))
        .iter()
        .map(FleetResult::to_bytes)
        .collect();
    let parallel: Vec<Vec<u8>> = run_ordered(standard_mix(BENCH_SEED, REPLAY_JOBS), 8)
        .iter()
        .map(FleetResult::to_bytes)
        .collect();
    let diverged: Vec<usize> = serial
        .iter()
        .zip(&parallel)
        .enumerate()
        .filter(|(_, (s, p))| s != p)
        .map(|(i, _)| i)
        .collect();
    if diverged.is_empty() {
        println!("replay: {REPLAY_JOBS} jobs, serial vs 8 workers: byte-identical: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fleet_gate: replay diverged on {} job(s): {:?}",
            diverged.len(),
            diverged
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--replay" => replay(),
        [flag, base, current] if flag == "--compare" => {
            let (b, c) = match (read(base), read(current)) {
                (Ok(b), Ok(c)) => (b, c),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            verdict(&b, &c)
        }
        [base] if base != "--compare" => {
            let b = match read(base) {
                Ok(b) => b,
                Err(e) => return e,
            };
            let threads = match measured_threads(&b) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("fleet_gate: baseline: {e}");
                    return ExitCode::from(2);
                }
            };
            let bench = measure_fleet(BENCH_SEED, BENCH_JOBS, threads);
            println!("{bench}");
            verdict(&b, &bench.to_json())
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
