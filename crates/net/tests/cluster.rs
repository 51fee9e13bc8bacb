//! End-to-end cluster runs: the distributed workloads, fault-free and
//! under faults, on both engines, serial and fleet-parallel — output
//! byte-identical throughout. The failover tests at the bottom drive
//! the v2 workload through its worst cases: torn log tails, leaders
//! killed mid-election, and two successive leaders dying in one run.

use mips_net::failover::{
    failover_cluster_config, failover_expected, failover_kernels, member_src, wal, FAILOVER_NODES,
};
use mips_net::workloads::{
    echo_server_src, msg, ping_client_src, ping_echo_expected, ping_echo_kernels,
    replicated_counter_expected, replicated_counter_kernels,
};
use mips_net::{Cluster, ClusterConfig, FaultAction};
use mips_os::Kernel;
use mips_sim::Engine;

fn clean_run(kernels: &[Kernel]) -> mips_net::ClusterReport {
    let mut c = Cluster::new(kernels, ClusterConfig::default()).unwrap();
    let report = c.run_clean().unwrap();
    assert!(report.completed, "round budget exhausted: {report:?}");
    report
}

/// Compile-time proof that a whole cluster — every node's machine with
/// its devices, the fabric, the checkpoints — moves across threads,
/// as the fleet-parallel runs below require.
#[test]
fn a_cluster_crosses_threads() {
    fn assert_send<T: Send>() {}
    assert_send::<Cluster>();
}

#[test]
fn ping_echo_completes_with_the_expected_output() {
    let kernels = ping_echo_kernels(Engine::Reference).unwrap();
    let report = clean_run(&kernels);
    assert_eq!(report.output(), ping_echo_expected());
    assert!(report.fabric.delivered >= 16, "8 pings + 8 pongs at least");
    assert!(report.nodes[0].counters.sends >= 8);
    assert!(report.nodes[1].counters.recvs >= 8);
    assert!(report.nodes[1].counters.net_irqs >= 1);
}

#[test]
fn replicated_counter_completes_on_every_node() {
    let kernels = replicated_counter_kernels(Engine::Reference, 2).unwrap();
    let report = clean_run(&kernels);
    assert_eq!(report.output(), replicated_counter_expected(2));
}

#[test]
fn fast_engine_matches_the_reference_byte_for_byte() {
    let reference = clean_run(&ping_echo_kernels(Engine::Reference).unwrap());
    let fast = clean_run(&ping_echo_kernels(Engine::Fast).unwrap());
    assert_eq!(reference.output(), fast.output());
    let reference = clean_run(&replicated_counter_kernels(Engine::Reference, 2).unwrap());
    let fast = clean_run(&replicated_counter_kernels(Engine::Fast, 2).unwrap());
    assert_eq!(reference.output(), fast.output());
}

/// Drops, duplicates, corruption, and delays — the retry protocol
/// hides all of it; output matches the fault-free baseline.
#[test]
fn packet_faults_do_not_change_the_observable_output() {
    let baseline = clean_run(&ping_echo_kernels(Engine::Fast).unwrap());
    let kernels = ping_echo_kernels(Engine::Fast).unwrap();
    let mut c = Cluster::new(&kernels, ClusterConfig::default()).unwrap();
    let mut n = 0u64;
    let report = c
        .run(&mut |_, _| {
            n += 1;
            match n % 5 {
                0 => FaultAction::Drop,
                1 => FaultAction::Duplicate,
                2 => FaultAction::Corrupt { word: 0, bit: 13 },
                3 => FaultAction::Delay(3),
                _ => FaultAction::Deliver,
            }
        })
        .unwrap();
    assert!(report.completed, "faulted run wedged: {report:?}");
    assert_eq!(report.output(), baseline.output());
}

/// A partition opens mid-run and heals: the client's sends time out
/// and are re-sent after the heal; nothing observable changes.
#[test]
fn partition_heal_recovers_the_baseline_output() {
    let baseline = clean_run(&ping_echo_kernels(Engine::Fast).unwrap());
    let kernels = ping_echo_kernels(Engine::Fast).unwrap();
    let mut c = Cluster::new(&kernels, ClusterConfig::default()).unwrap();
    let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
    while !c.all_done() {
        if c.round() == 8 {
            c.partition(0, 1);
        }
        if c.round() == 28 {
            c.heal(0, 1);
        }
        c.step(&mut deliver).unwrap();
    }
    let report = c.report();
    assert!(report.fabric.partition_dropped > 0, "partition saw traffic");
    assert_eq!(report.output(), baseline.output());
}

/// A replica is killed (rolled back to its checkpoint) mid-run; the
/// coordinator's retries and the state-carrying SET protocol bring it
/// back; the cluster output is byte-identical to the baseline.
#[test]
fn node_kill_recovers_to_the_baseline_output() {
    let baseline = clean_run(&replicated_counter_kernels(Engine::Fast, 2).unwrap());
    let kernels = replicated_counter_kernels(Engine::Fast, 2).unwrap();
    let mut c = Cluster::new(&kernels, ClusterConfig::default()).unwrap();
    let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
    while !c.all_done() {
        if c.round() == 20 {
            c.kill_node(1).unwrap();
        }
        c.step(&mut deliver).unwrap();
    }
    let report = c.report();
    assert_eq!(report.restarts, vec![0, 1, 0]);
    assert_eq!(report.output(), baseline.output());
}

/// The NIC edge case the sim tests cannot see: a send to a partitioned
/// peer is committed locally (the NIC accepts it), lost in the fabric,
/// and the guest's timeout covers the loss once the partition heals.
#[test]
fn send_to_partitioned_peer_times_out_then_heals() {
    let kernels = ping_echo_kernels(Engine::Fast).unwrap();
    let mut c = Cluster::new(&kernels, ClusterConfig::default()).unwrap();
    c.partition(0, 1); // partitioned from the very first frame
    let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
    for _ in 0..24 {
        c.step(&mut deliver).unwrap();
    }
    let mid = c.report();
    assert!(!mid.completed);
    assert!(mid.fabric.sent > 1, "client kept re-sending into the void");
    assert_eq!(mid.fabric.delivered, 0);
    assert!(mid.fabric.partition_dropped > 0);
    c.heal(0, 1);
    while !c.all_done() {
        c.step(&mut deliver).unwrap();
    }
    assert_eq!(c.report().output(), ping_echo_expected());
}

/// Same cluster configuration, run twice: bit-for-bit identical
/// reports (determinism of the whole stack, not just the output).
#[test]
fn cluster_runs_are_fully_deterministic() {
    let a = clean_run(&replicated_counter_kernels(Engine::Fast, 2).unwrap());
    let b = clean_run(&replicated_counter_kernels(Engine::Fast, 2).unwrap());
    assert_eq!(a, b);
}

/// Cluster runs scheduled through the fleet at several worker counts
/// produce byte-identical outputs in order — distributed runs compose
/// with host-side parallelism.
#[test]
fn fleet_parallel_cluster_runs_match_serial() {
    struct ClusterJob {
        replicas: u32,
    }
    impl mips_fleet::FleetWork for ClusterJob {
        type Out = Vec<u8>;
        fn execute(self) -> Vec<u8> {
            let kernels = if self.replicas == 0 {
                ping_echo_kernels(Engine::Fast).unwrap()
            } else {
                replicated_counter_kernels(Engine::Fast, self.replicas).unwrap()
            };
            let mut c = Cluster::new(&kernels, ClusterConfig::default()).unwrap();
            c.run_clean().unwrap().output()
        }
    }
    let jobs = || (0..6u32).map(|r| ClusterJob { replicas: r % 3 }).collect();
    let serial: Vec<Vec<u8>> = mips_fleet::run_ordered(jobs(), 1);
    for threads in [2, 4, 8] {
        assert_eq!(mips_fleet::run_ordered(jobs(), threads), serial);
    }
}

/// The guest sources stay hazard-free: the strict verifier finds
/// nothing to say about any workload program.
#[test]
fn workload_sources_verify_clean() {
    for src in [
        ping_client_src(1, 8),
        echo_server_src(),
        mips_net::workloads::counter_coordinator_src(2, 8),
        mips_net::workloads::counter_replica_src(),
        member_src(0, 8),
        member_src(1, 8),
        member_src(2, 8),
    ] {
        let report = mips_verify::verify_source(&src).unwrap();
        assert!(!report.has_errors(), "errors in:\n{src}");
        assert_eq!(report.warnings().count(), 0, "warnings in:\n{src}");
    }
}

/// The corrupt fault really is detected by the guest checksum: flip
/// any bit of a packed word and `checksum_ok` fails.
#[test]
fn corruption_is_always_detected_by_the_checksum() {
    for seq in 0..16 {
        let w = msg::pack(msg::SET, seq, 3 * seq + 1);
        assert!(msg::checksum_ok(w));
        for bit in 0..32 {
            assert!(!msg::checksum_ok(w ^ (1 << bit)));
        }
    }
}

// ---------------------------------------------------------------- failover

fn failover_baseline() -> Vec<u8> {
    let kernels = failover_kernels(Engine::Fast).unwrap();
    let mut c = Cluster::new(&kernels, failover_cluster_config()).unwrap();
    let report = c.run_clean().unwrap();
    assert!(report.completed, "failover baseline wedged: {report:?}");
    assert_eq!(report.output(), failover_expected());
    report.output()
}

fn failover_cluster() -> Cluster {
    let kernels = failover_kernels(Engine::Fast).unwrap();
    Cluster::new(&kernels, failover_cluster_config()).unwrap()
}

/// The term of a member's newest durable record (0 = empty log).
fn wal_term(c: &Cluster, id: usize) -> u32 {
    wal::latest(&c.wal(id).unwrap()).map_or(0, |r| r.term)
}

/// A torn append — record words half-written, count not yet bumped,
/// exactly what a crash mid-append leaves behind — is invisible to
/// the replay scan, and the node killed on top of it still converges
/// to the baseline output.
#[test]
fn a_torn_wal_tail_is_truncated_on_replay_and_the_node_recovers() {
    let baseline = failover_baseline();
    let mut c = failover_cluster();
    let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
    // Run until node 1 has something durable to tear an append onto.
    while wal::latest(&c.wal(1).unwrap()).is_none() {
        assert!(c.round() < 200, "node 1 never appended");
        c.step(&mut deliver).unwrap();
    }
    let seg = c.wal(1).unwrap();
    let before = wal::latest(&seg).unwrap();
    let count = seg[0];
    assert!(count < wal::CAP, "log full this early would be a bug");
    // Half-write the next slot: plausible magic, no valid checksum,
    // count untouched — the widest torn window the store order allows.
    let slot = 1 + 3 * count;
    c.wal_poke(1, slot, wal::MAGIC << 16 | 5);
    c.wal_poke(1, slot + 1, 7);
    assert_eq!(
        wal::latest(&c.wal(1).unwrap()),
        Some(before),
        "the torn tail must be invisible to the replay scan"
    );
    c.kill_node(1).unwrap();
    while !c.all_done() {
        c.step(&mut deliver).unwrap();
    }
    let report = c.report();
    assert!(report.completed, "torn-tail run wedged: {report:?}");
    assert_eq!(report.restarts, vec![0, 1, 0]);
    assert_eq!(report.output(), baseline);
}

/// Isolate the boot leader until a backup stakes a claim to a new
/// term, then kill the claimant at that exact moment — before it has
/// sent a single heartbeat of its reign. Its candidacy is already in
/// its WAL, so the restore replays it and the election completes.
#[test]
fn a_leader_killed_the_moment_it_claims_the_term_still_recovers() {
    let baseline = failover_baseline();
    let mut c = failover_cluster();
    let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
    for _ in 0..8 {
        c.step(&mut deliver).unwrap();
    }
    c.partition(0, 1);
    c.partition(0, 2);
    let claimant = loop {
        assert!(
            c.round() < 400,
            "isolating the leader never forced an election"
        );
        c.step(&mut deliver).unwrap();
        let (t1, t2) = (wal_term(&c, 1), wal_term(&c, 2));
        let t = t1.max(t2);
        if t > 0 {
            break (t % FAILOVER_NODES) as usize;
        }
    };
    assert_ne!(claimant, 0, "a new term always belongs to a backup here");
    c.kill_node(claimant).unwrap();
    c.heal_all();
    while !c.all_done() {
        c.step(&mut deliver).unwrap();
    }
    let report = c.report();
    assert!(
        report.completed,
        "post-election-kill run wedged: {report:?}"
    );
    assert_eq!(report.restarts.iter().sum::<u32>(), 1);
    assert_eq!(report.output(), baseline);
}

/// Two successive leaders die in one run: first the sitting boot
/// leader (isolated, then killed while it still believes it leads),
/// then whichever backup wins the resulting election. The cluster
/// output is still byte-identical to the fault-free run.
#[test]
fn killing_two_successive_leaders_still_converges() {
    let baseline = failover_baseline();
    let mut c = failover_cluster();
    let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
    for _ in 0..8 {
        c.step(&mut deliver).unwrap();
    }
    c.partition(0, 1);
    c.partition(0, 2);
    for _ in 0..4 {
        c.step(&mut deliver).unwrap();
    }
    // First victim: the boot leader, by its own log still in charge.
    assert_eq!(wal_term(&c, 0) % FAILOVER_NODES, 0);
    c.kill_node(0).unwrap();
    // Second victim: the backup that takes over.
    let successor = loop {
        assert!(c.round() < 400, "no successor ever claimed the term");
        c.step(&mut deliver).unwrap();
        let t = wal_term(&c, 1).max(wal_term(&c, 2));
        if t > 0 {
            break (t % FAILOVER_NODES) as usize;
        }
    };
    c.kill_node(successor).unwrap();
    c.heal_all();
    while !c.all_done() {
        c.step(&mut deliver).unwrap();
    }
    let report = c.report();
    assert!(
        report.completed,
        "double-leader-kill run wedged: {report:?}"
    );
    assert_eq!(report.restarts.iter().sum::<u32>(), 2);
    assert_eq!(report.output(), baseline);
}

/// There is no safe-harbour round: killing any member at sampled
/// points across the whole run — start, mid-drive, and deep into the
/// finish phase — always converges back to the baseline bytes.
#[test]
fn kills_sampled_across_the_entire_run_always_recover() {
    let baseline = failover_baseline();
    for node in 0..FAILOVER_NODES as usize {
        for at in [0u64, 45, 140] {
            let mut c = failover_cluster();
            let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
            let mut killed = false;
            while !c.all_done() {
                if c.round() == at {
                    c.kill_node(node).unwrap();
                    killed = true;
                }
                c.step(&mut deliver).unwrap();
            }
            let report = c.report();
            assert!(killed, "kill at round {at} never fired");
            assert!(
                report.completed,
                "node {node} killed at {at} wedged: {report:?}"
            );
            assert_eq!(
                report.output(),
                baseline,
                "node {node} killed at {at} diverged"
            );
        }
    }
}

/// A kill rolls a node back to a checkpoint taken at a slice cut, which
/// often lands inside kernel text — where the fast engine runs bursts
/// fenced at cost-section edges. Under a kill plan hitting every member,
/// the whole report (per-node kernel reports with their cost
/// attribution, rounds, restarts, fabric counters) must equal the
/// reference engine's.
#[test]
fn failover_under_kills_matches_the_reference_engine() {
    let run = |engine: Engine| {
        let kernels = failover_kernels(engine).unwrap();
        let mut c = Cluster::new(&kernels, failover_cluster_config()).unwrap();
        let mut deliver = |_: u64, _: &mips_sim::Frame| FaultAction::Deliver;
        while !c.all_done() {
            assert!(c.round() < 2_000, "{engine:?}: kill plan wedged");
            match c.round() {
                20 => c.kill_node(0).unwrap(),
                60 => c.kill_node(2).unwrap(),
                100 => c.kill_node(1).unwrap(),
                _ => {}
            }
            c.step(&mut deliver).unwrap();
        }
        c.report()
    };
    let fast = run(Engine::Fast);
    let reference = run(Engine::Reference);
    assert!(fast.completed);
    assert_eq!(fast.restarts, vec![1, 1, 1]);
    assert_eq!(fast.output(), failover_expected());
    for (i, (f, r)) in fast.nodes.iter().zip(&reference.nodes).enumerate() {
        assert_eq!(f.cost, r.cost, "node {i}: systems cost");
    }
    assert_eq!(fast, reference);
}
