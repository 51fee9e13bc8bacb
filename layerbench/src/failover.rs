//! `failover`: one unit is one fault case on the three-member
//! kill-anyone failover cluster (`failover_kernels(Fast)` under
//! `failover_cluster_config()`).
//!
//! Unit `u` runs plan `p = u % PLANS`, drawn as the failover campaign
//! draws case `p`: `NetFaultPlan::draw_failover` on a generator seeded
//! from `(seed, p)`, with the primary kind cycling through the six
//! kinds and the kill window spanning the clean run measured in
//! set-up. Cycling a fixed plan set gives every run the same mix of
//! cases, and lets the harness check that a plan repeats its counts
//! exactly. The plans are the only input drawn from the seed.

use crate::trace::Tracer;
use crate::{Bench, Unit};
use mips_chaos::{NetFaultKind, NetFaultPlan};
use mips_net::failover::{
    failover_cluster_config, failover_expected, failover_kernels, member_src, FAILOVER_NODES,
};
use mips_net::{Cluster, ClusterConfig, ClusterReport, FaultAction};
use mips_os::{Kernel, OsError};
use mips_qc::Rng;
use mips_sim::Engine;

/// Plans in the cycled set: forty of each primary kind, enough that
/// the set's mix of cases, and so its timing and cycle totals, barely
/// depends on the seed.
pub const PLANS: u64 = 240;

const PRIMARY: [NetFaultKind; 6] = [
    NetFaultKind::Drop,
    NetFaultKind::Duplicate,
    NetFaultKind::Reorder,
    NetFaultKind::Corrupt,
    NetFaultKind::Partition,
    NetFaultKind::Kill,
];

pub struct Failover {
    seed: u64,
    kernels: Vec<Kernel>,
    config: ClusterConfig,
    expected: Vec<u8>,
    end_of_run: u64,
}

pub fn setup(t: &mut Tracer, seed: u64) -> Failover {
    let kernels = t
        .span("net.boot", || failover_kernels(Engine::Fast))
        .expect("failover members boot");
    let config = failover_cluster_config();
    let baseline = t.span("net.baseline", || {
        Cluster::new(&kernels, config.clone()).and_then(|mut c| c.run_clean())
    });
    let baseline = baseline.expect("clean failover run");
    assert!(
        baseline.completed && baseline.output() == failover_expected(),
        "clean failover run must complete with the expected output"
    );
    Failover {
        seed,
        kernels,
        config,
        expected: failover_expected(),
        end_of_run: baseline.rounds,
    }
}

/// Draws plan `p` of the cycled set.
fn plan(seed: u64, p: u64, end_of_run: u64) -> NetFaultPlan {
    let mut rng = Rng::new(seed.wrapping_add(p.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    NetFaultPlan::draw_failover(
        &mut rng,
        FAILOVER_NODES,
        PRIMARY[(p % 6) as usize],
        end_of_run,
    )
}

/// Runs one case: partitions and heals at their rounds, kills before
/// the round's step, frame faults through the `Cluster::step` hook.
fn drive(
    t: &mut Tracer,
    kernels: &[Kernel],
    config: &ClusterConfig,
    plan: &NetFaultPlan,
) -> Result<ClusterReport, OsError> {
    let mut c = t.span("net.cluster_new", || Cluster::new(kernels, config.clone()))?;
    let mut frame_idx: u64 = 0;
    while !c.all_done() && c.round() < config.max_rounds {
        let round = c.round();
        if let Some(p) = plan.partition {
            if round == p.from {
                t.span("net.partition", || c.partition(p.a, p.b));
            }
            if round == p.heal {
                t.span("net.heal", || c.heal(p.a, p.b));
            }
        }
        for k in plan.kills.iter().filter(|k| k.round == round) {
            t.span("net.kill", || c.kill_node(k.node as usize))?;
        }
        let name = if (round + 1).is_multiple_of(config.checkpoint_every) {
            "net.step_ckpt"
        } else {
            "net.step"
        };
        let idx = &mut frame_idx;
        t.span(name, || {
            c.step(&mut |_, _| {
                let i = *idx;
                *idx += 1;
                match plan.frames.iter().find(|f| f.frame == i) {
                    None => FaultAction::Deliver,
                    Some(f) => match f.kind {
                        NetFaultKind::Drop => FaultAction::Drop,
                        NetFaultKind::Duplicate => FaultAction::Duplicate,
                        NetFaultKind::Corrupt => FaultAction::Corrupt {
                            word: f.word,
                            bit: f.bit,
                        },
                        NetFaultKind::Reorder => FaultAction::Delay(f.delay),
                        NetFaultKind::Partition | NetFaultKind::Kill => FaultAction::Deliver,
                    },
                }
            })
        })?;
    }
    let report = t.span("net.report", || c.report());
    t.span("net.drop", || drop(c));
    Ok(report)
}

impl Bench for Failover {
    fn classes(&self) -> u64 {
        PLANS
    }

    /// Three linked node images: kernel text plus one member each.
    fn code_words(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.start().expect("member boots").machine().program().len() as u64)
            .sum()
    }

    fn unit(&mut self, t: &mut Tracer, index: u64) -> Unit {
        let class = index % PLANS;
        let plan = t.span("chaos.plan", || plan(self.seed, class, self.end_of_run));
        let r = match drive(t, &self.kernels, &self.config, &plan) {
            Ok(r) => r,
            Err(e) => return Unit::failed(class, e.to_string()),
        };
        let failure = t.span("harness.check", || {
            (!r.completed || r.output() != self.expected).then(|| {
                format!(
                    "plan {class} ({:?}): completed {}, output {:?}",
                    plan.describe(),
                    r.completed,
                    String::from_utf8_lossy(&r.output())
                )
            })
        });
        let instructions = r.nodes.iter().map(|n| n.instructions).sum();
        let mut counts = vec![
            ("sim.instructions", instructions),
            ("net.rounds", r.rounds),
            ("net.frames_sent", r.fabric.sent),
            ("net.frames_delivered", r.fabric.delivered),
            ("net.frames_retained", r.fabric.retained),
            ("net.partition_dropped", r.fabric.partition_dropped),
            (
                "net.restarts",
                r.restarts.iter().map(|&n| u64::from(n)).sum(),
            ),
        ];
        counts.extend(crate::os_counts(&r.nodes));
        Unit {
            class,
            failure,
            instructions,
            counts,
        }
    }

    fn probe(&mut self) -> Vec<(&'static str, f64)> {
        let images: Vec<_> = self
            .kernels
            .iter()
            .map(|k| k.start().expect("member boots").machine().program().clone())
            .collect();
        let (certify_ns, blocks) = crate::certify_probe(&images);
        let kernel_ns = crate::repeat_median(21, || {
            std::hint::black_box(mips_os::kernel_program());
        });
        let boot_ns = crate::repeat_median(21, || {
            for k in &self.kernels {
                std::hint::black_box(k.start().expect("member boots"));
            }
        });
        let member_ns = crate::repeat_median(21, || {
            for me in 0..FAILOVER_NODES {
                let src = member_src(me, mips_net::workloads::K);
                std::hint::black_box(mips_asm::assemble(&src).expect("member assembles"));
            }
        });
        let reference = failover_kernels(Engine::Reference).expect("failover members boot");
        let plan0 = plan(self.seed, 0, self.end_of_run);
        let mut off = Tracer::new(false);
        let (fast, refr, instructions) = crate::engine_probe(3, |engine| {
            let kernels = if engine == Engine::Fast {
                &self.kernels
            } else {
                &reference
            };
            let r = drive(&mut off, kernels, &self.config, &plan0).expect("plan 0 runs");
            r.nodes.iter().map(|n| n.instructions).sum()
        });
        vec![
            ("asm.kernel_ms", kernel_ns / 1e6),
            ("asm.member_ms", member_ns / 1e6),
            ("os.boot_ms", boot_ns / 1e6),
            ("verify.certify_ms", certify_ns / 1e6),
            ("verify.cert_blocks", blocks as f64),
            ("sim.fast_ns_per_instr", fast / instructions as f64),
            ("sim.ref_ns_per_instr", refr / instructions as f64),
            ("sim.engine_ratio", refr / fast),
        ]
    }
}
