//! A cluster: N guest kernels round-robined against one fabric.
//!
//! Each node is a [`KernelRun`] booted with a NIC
//! ([`mips_os::KernelConfig::nic`]). A cluster *round* runs every live
//! node for one instruction slice, collects each node's TX ring in
//! node-id order, posts the frames to the fabric (optionally through a
//! fault hook), and exchanges: due frames land in destination RX rings
//! and raise delivery doorbells the guests take on their next user-
//! mode instruction. Everything is a pure function of the
//! configuration, so the observable cluster output is byte-identical
//! across hosts, thread counts, and engines.
//!
//! **Node-kill recovery**: every `checkpoint_every` rounds each node
//! refreshes a [`NodeCheckpoint`] (machine snapshot with NIC rings,
//! console high-water mark, host bookkeeping). [`Cluster::kill_node`]
//! rolls a node back to its last checkpoint — the distributed-chaos
//! model of a crash-and-restart. Guest protocols built on retry,
//! acknowledgement, and sequence-number dedup (see
//! [`crate::workloads`]) converge back to the fault-free observable
//! output.

use crate::fabric::{Fabric, FabricConfig, FabricStats, FaultAction};
use mips_os::{Kernel, KernelRun, NodeCheckpoint, OsError, RunReport};
use mips_sim::Frame;

/// A reserved guest-physical write-ahead-log segment the host
/// preserves across [`Cluster::kill_node`] restores. The guest
/// appends records inside it; the host snapshots the words right
/// before a restore and writes them back right after, independent of
/// the periodic checkpoint cadence — so a restored node replays its
/// *own* log to re-derive protocol state instead of depending on the
/// next frame it happens to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalSpec {
    /// Guest-physical address of the first WAL word.
    pub base: u32,
    /// Segment length in words.
    pub words: u32,
}

/// Cluster scheduling knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Fabric shape and timing. `nodes` is overwritten with the actual
    /// node count at [`Cluster::new`].
    pub fabric: FabricConfig,
    /// Instructions each node runs per round.
    pub slice: u64,
    /// Rounds between checkpoint refreshes.
    pub checkpoint_every: u64,
    /// Round budget for [`Cluster::run`] — a liveness backstop, not a
    /// tuning knob; a healthy protocol finishes far below it.
    pub max_rounds: u64,
    /// Durable WAL segment, if the workload keeps one (see
    /// [`WalSpec`]). `None` means kills restore the whole machine
    /// verbatim, v1 behaviour.
    pub wal: Option<WalSpec>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            fabric: FabricConfig::default(),
            slice: 4096,
            checkpoint_every: 16,
            max_rounds: 5_000,
            wal: None,
        }
    }
}

struct Node {
    run: KernelRun,
    checkpoint: NodeCheckpoint,
}

/// The running cluster. Drive it with [`Cluster::step`] /
/// [`Cluster::run`]; inject partitions, frame faults, and node kills
/// from outside between rounds.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    fabric: Fabric,
    round: u64,
    restarts: Vec<u32>,
}

/// A finished (or round-budget-exhausted) cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// Per-node kernel reports, in node-id order.
    pub nodes: Vec<RunReport>,
    /// Rounds executed.
    pub rounds: u64,
    /// Checkpoint restores per node ([`Cluster::kill_node`] count).
    pub restarts: Vec<u32>,
    /// Fabric traffic counters.
    pub fabric: FabricStats,
    /// Whether every node ran to completion inside the round budget.
    pub completed: bool,
}

impl ClusterReport {
    /// The cluster's canonical observable output: every node's console
    /// bytes, framed per node. This is the byte string distributed
    /// chaos compares against the fault-free baseline.
    pub fn output(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, r) in self.nodes.iter().enumerate() {
            out.extend_from_slice(format!("[node {i}]\n").as_bytes());
            for p in &r.procs {
                out.extend_from_slice(&p.output);
            }
        }
        out
    }
}

impl Cluster {
    /// Boots one [`KernelRun`] per kernel and wires their NICs to a
    /// fresh fabric. Every kernel must have been configured with
    /// [`mips_os::KernelConfig::nic`]` = Some(i)` for its node id `i`.
    ///
    /// # Errors
    ///
    /// [`OsError`] if a node fails to boot.
    ///
    /// # Panics
    ///
    /// Panics when a kernel has no NIC or its node id does not match
    /// its position — configuration bugs, not runtime conditions.
    pub fn new(kernels: &[Kernel], mut cfg: ClusterConfig) -> Result<Cluster, OsError> {
        cfg.fabric.nodes = kernels.len() as u32;
        let mut nodes = Vec::with_capacity(kernels.len());
        for (i, k) in kernels.iter().enumerate() {
            let run = k.start()?;
            let nic = run
                .machine()
                .nic()
                .unwrap_or_else(|| panic!("cluster node {i}: KernelConfig::nic not set"));
            assert_eq!(
                nic.node(),
                i as u32,
                "cluster node {i}: NIC node id must equal its position"
            );
            let checkpoint = run.checkpoint().expect("cluster nodes run unsupervised");
            nodes.push(Node { run, checkpoint });
        }
        let restarts = vec![0; nodes.len()];
        Ok(Cluster {
            fabric: Fabric::new(cfg.fabric.clone()),
            cfg,
            nodes,
            round: 0,
            restarts,
        })
    }

    /// The current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether every node's kernel has finished.
    pub fn all_done(&self) -> bool {
        self.nodes.iter().all(|n| n.run.is_done())
    }

    /// Blocks the `{a, b}` pair (both directions) from the next
    /// exchange on.
    pub fn partition(&mut self, a: u32, b: u32) {
        self.fabric.partition(a, b);
    }

    /// Unblocks the `{a, b}` pair.
    pub fn heal(&mut self, a: u32, b: u32) {
        self.fabric.heal(a, b);
    }

    /// Unblocks every pair.
    pub fn heal_all(&mut self) {
        self.fabric.heal_all();
    }

    /// Rolls node `id` back to its last checkpoint — the crash-and-
    /// restart model. Frames already in flight toward the node stay in
    /// flight (the guest's sequence-number dedup absorbs them); frames
    /// the node sent since the checkpoint will be re-sent on replay
    /// (the receivers' dedup absorbs those).
    ///
    /// When the cluster has a [`WalSpec`], the WAL segment is
    /// snapshotted *at the moment of the kill* and written back over
    /// the restored image: a crash loses volatile state but never the
    /// log, exactly the durability contract a write-ahead log is for.
    ///
    /// # Errors
    ///
    /// [`OsError::Sim`] if the snapshot no longer fits the node —
    /// impossible unless the caller swapped machines underneath.
    pub fn kill_node(&mut self, id: usize) -> Result<(), OsError> {
        let wal = self.cfg.wal.map(|w| {
            let mem = self.nodes[id].run.machine().mem();
            (0..w.words)
                .map(|i| mem.peek(w.base + i))
                .collect::<Vec<u32>>()
        });
        let node = &mut self.nodes[id];
        node.run.restore(&node.checkpoint)?;
        if let (Some(w), Some(words)) = (self.cfg.wal, wal) {
            let mem = node.run.machine_mut().mem_mut();
            for (i, v) in words.into_iter().enumerate() {
                mem.poke(w.base + i as u32, v);
            }
        }
        self.restarts[id] += 1;
        Ok(())
    }

    /// Reads node `id`'s WAL segment (requires a configured
    /// [`WalSpec`]). Test and grading hook.
    pub fn wal(&self, id: usize) -> Option<Vec<u32>> {
        let w = self.cfg.wal?;
        let mem = self.nodes[id].run.machine().mem();
        Some((0..w.words).map(|i| mem.peek(w.base + i)).collect())
    }

    /// Overwrites one word of node `id`'s WAL segment — the torn-write
    /// test hook (requires a configured [`WalSpec`]).
    pub fn wal_poke(&mut self, id: usize, word: u32, value: u32) {
        let w = self.cfg.wal.expect("wal_poke needs a WalSpec");
        assert!(word < w.words, "wal_poke out of segment");
        self.nodes[id]
            .run
            .machine_mut()
            .mem_mut()
            .poke(w.base + word, value);
    }

    /// One round: run every live node for a slice, collect TX rings in
    /// node-id order through the fault hook, exchange the fabric, and
    /// refresh checkpoints on cadence. `faults` decides per frame; the
    /// clean run passes `&mut |_, _| FaultAction::Deliver`.
    ///
    /// # Errors
    ///
    /// [`OsError`] from the first node whose machine stops for a
    /// reason its kernel cannot handle.
    pub fn step(
        &mut self,
        faults: &mut dyn FnMut(u64, &Frame) -> FaultAction,
    ) -> Result<(), OsError> {
        for node in &mut self.nodes {
            if !node.run.is_done() {
                node.run.run_slice(self.cfg.slice, None)?;
            }
        }
        for node in &mut self.nodes {
            let nic = node
                .run
                .machine_mut()
                .nic_mut()
                .expect("cluster nodes have a NIC");
            for frame in nic.collect() {
                match faults(self.round, &frame) {
                    FaultAction::Deliver => self.fabric.send(frame),
                    FaultAction::Drop => {}
                    FaultAction::Duplicate => {
                        self.fabric.send(frame.clone());
                        self.fabric.send(frame);
                    }
                    FaultAction::Corrupt { word, bit } => {
                        let mut f = frame;
                        if !f.payload.is_empty() {
                            let w = word % f.payload.len();
                            f.payload[w] ^= 1 << (bit % 32);
                        }
                        self.fabric.send(f);
                    }
                    FaultAction::Delay(extra) => self.fabric.send_delayed(frame, extra),
                }
            }
        }
        let nodes = &mut self.nodes;
        self.fabric
            .exchange(&mut |dst, frame| nodes[dst as usize].run.machine_mut().nic_deliver(frame));
        self.round += 1;
        if self.round.is_multiple_of(self.cfg.checkpoint_every) {
            for node in &mut self.nodes {
                if let Some(cp) = node.run.checkpoint() {
                    node.checkpoint = cp;
                }
            }
        }
        Ok(())
    }

    /// Steps until every node finishes or the round budget runs out,
    /// with no faults injected.
    ///
    /// # Errors
    ///
    /// Propagates the first [`OsError`] from [`Cluster::step`].
    pub fn run_clean(&mut self) -> Result<ClusterReport, OsError> {
        self.run(&mut |_, _| FaultAction::Deliver)
    }

    /// Steps until every node finishes or the round budget runs out,
    /// consulting `faults` for every frame.
    ///
    /// # Errors
    ///
    /// Propagates the first [`OsError`] from [`Cluster::step`].
    pub fn run(
        &mut self,
        faults: &mut dyn FnMut(u64, &Frame) -> FaultAction,
    ) -> Result<ClusterReport, OsError> {
        while !self.all_done() && self.round < self.cfg.max_rounds {
            self.step(faults)?;
        }
        Ok(self.report())
    }

    /// The cluster's results so far (final once [`Cluster::all_done`]).
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            nodes: self.nodes.iter().map(|n| n.run.report()).collect(),
            rounds: self.round,
            restarts: self.restarts.clone(),
            fabric: self.fabric.stats(),
            completed: self.all_done(),
        }
    }
}
