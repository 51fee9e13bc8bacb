//! Property tests for `mips-snap/v3`: a snapshot taken at any
//! instruction boundary of a random program
//!
//! * serializes to the **same bytes on either engine** (the fast path
//!   stops its chunks exactly at an armed snapshot point),
//! * survives decode → re-encode byte-identically, and
//! * restores into a fresh machine whose continued trajectory is
//!   byte-identical to never having stopped at all.
//!
//! Programs are drawn from a bounded family (straight-line ALU work,
//! absolute loads/stores, one counted loop with a delayed branch) so
//! every case halts; snapshot points land anywhere in the run,
//! including inside branch shadows and load-delay slots.

use mips_asm::assemble;
use mips_qc::{Qc, Rng};
use mips_sim::{Engine, Machine, Snapshot};

/// A random halting program: seed registers, a counted loop whose body
/// mixes ALU ops, stores, and (stale-read-prone) loads, then halt.
fn arb_program(rng: &mut Rng) -> String {
    let mut s = String::new();
    for r in 1..=4 {
        s.push_str(&format!(" mvi #{},r{}\n", rng.u32(0..100), r));
    }
    let iterations = rng.u32(1..20);
    s.push_str(&format!(" mvi #{iterations},r5\n mvi #0,r6\nloop:\n"));
    let body = rng.usize(1..6);
    for _ in 0..body {
        let dst = rng.u32(1..5);
        match rng.u8(0..4) {
            0 => {
                let op = *rng.pick(&["add", "sub", "and", "or", "xor"]);
                let a = rng.u32(1..5);
                s.push_str(&format!(" {op} r{a},#{},r{dst}\n", rng.u32(0..16)));
            }
            1 => s.push_str(&format!(" st r{dst},@{}\n", rng.u32(64..256))),
            2 => {
                // The very next instruction reads the destination and
                // observes the pre-load value — exercised on purpose so
                // snapshots land with a load in flight.
                s.push_str(&format!(" ld @{},r{dst}\n", rng.u32(64..256)));
                s.push_str(&format!(" add r{dst},#1,r{dst}\n"));
            }
            _ => {
                let a = rng.u32(1..5);
                let b = rng.u32(1..5);
                s.push_str(&format!(" add r{a},r{b},r{dst}\n"));
            }
        }
    }
    s.push_str(" add r6,#1,r6\n bne r6,r5,loop\n");
    // The delay slot always executes; vary what it does.
    if rng.bool() {
        s.push_str(" add r1,#1,r1\n");
    } else {
        s.push_str(" nop\n");
    }
    s.push_str(" halt\n");
    s
}

#[test]
fn snapshots_round_trip_at_every_boundary_on_both_engines() {
    Qc::new("snapshot-round-trip").cases(80).run(|rng| {
        let program = assemble(&arb_program(rng)).expect("generated program assembles");

        // Learn the run length from a probe, then pick a boundary.
        let mut probe = Machine::new(program.clone());
        probe.run().expect("bounded program halts");
        let total = probe.profile().instructions;
        let k = rng.u64(1..total.max(2));

        // Reference engine: step to the boundary and snapshot.
        let mut a = Machine::new(program.clone());
        while a.profile().instructions < k {
            a.step().expect("prefix of a clean run");
        }
        let bytes = a.snapshot_bytes();

        // Decode → re-encode is byte-identical.
        let snap = Snapshot::from_bytes(&bytes).expect("own bytes decode");
        assert_eq!(snap.to_bytes(), bytes, "double serialization drifted");
        assert_eq!(snap.instructions(), k);

        // Fast engine: an armed snapshot point stops the burst at the
        // same boundary with byte-identical state.
        let mut f = Machine::new(program.clone());
        f.set_engine(Engine::Fast);
        f.arm_snapshot(k);
        while f.profile().instructions < k && !f.halted() {
            f.run_steps(k - f.profile().instructions)
                .expect("prefix of a clean run");
        }
        assert_eq!(
            f.snapshot_bytes(),
            bytes,
            "engines disagree on the snapshot at instruction {k}"
        );

        // Restore into a fresh machine; the continued trajectory is
        // byte-identical to the uninterrupted run.
        let mut r = Machine::new(program.clone());
        r.restore(&snap).expect("snapshot restores");
        r.run().expect("restored run finishes");
        a.run().expect("original run finishes");
        let fin = probe.snapshot_bytes();
        assert_eq!(a.snapshot_bytes(), fin, "stop/continue diverged");
        assert_eq!(r.snapshot_bytes(), fin, "restore/continue diverged");
    });
}
