//! `multiprog`: one unit is one guest `Kernel` running the seven
//! `MIX_WORKLOADS` programs with `time_slice: 1000` and `frames: 12`
//! on the fast engine, booted and run to idle.
//!
//! The unit makes the same calls as `Kernel::run_until_idle`
//! (`start`, then `run_slice` until done, then `report`) so boot and
//! run get spans of their own. Set-up compiles and reorganizes the
//! programs and runs each once on bare metal for its expected output.
//! The inputs are fixed; the seed is not used.

use crate::trace::Tracer;
use crate::{Bench, Unit};
use mips_core::{Program, Reg};
use mips_hll::{compile_mips, CodegenOptions};
use mips_os::{Kernel, KernelConfig, OsError, ProcStatus, RunReport};
use mips_reorg::{reorganize, ReorgOptions};
use mips_sim::{Engine, Machine};

pub struct Multiprog {
    kernel: Kernel,
    reference: Kernel,
    /// Per process: the exit status (`r1` when the bare-metal run
    /// halts, which the kernel's exit call passes on) and the output.
    expected: Vec<(u32, Vec<u8>)>,
}

fn kernel(engine: Engine, programs: &[(&str, Program)]) -> Kernel {
    let mut k = Kernel::with_config(KernelConfig {
        time_slice: 1000,
        frames: 12,
        engine,
        ..KernelConfig::default()
    });
    for (name, p) in programs {
        k.spawn(name, p.clone()).expect("seven processes fit");
    }
    k
}

pub fn setup(t: &mut Tracer) -> Multiprog {
    let mut named = Vec::new();
    let mut expected = Vec::new();
    for name in mips_serve::MIX_WORKLOADS {
        let w = mips_workloads::get(name).expect("mix workload exists");
        let lc = t
            .span("hll.compile", || {
                compile_mips(w.source, &CodegenOptions::standard())
            })
            .expect("mix program compiles");
        let out = t
            .span("reorg.reorganize", || reorganize(&lc, ReorgOptions::FULL))
            .expect("mix program reorganizes");
        let bare = t.span("sim.baseline", || {
            let mut m = Machine::new(out.program.clone());
            m.set_refclass_map(out.refclass.clone());
            m.set_engine(Engine::Fast);
            m.run().expect("mix program runs on bare metal");
            (m.reg(Reg::R1), m.output().to_vec())
        });
        expected.push(bare);
        named.push((name, out.program));
    }
    Multiprog {
        kernel: t.span("os.spawn", || kernel(Engine::Fast, &named)),
        reference: kernel(Engine::Reference, &named),
        expected,
    }
}

impl Multiprog {
    /// The linked image `Kernel::start` boots: kernel text plus every
    /// relocated process.
    fn image(&self) -> Program {
        let run = self.kernel.start().expect("kernel boots");
        run.machine().program().clone()
    }
}

fn run(k: &Kernel, t: &mut Tracer) -> Result<(RunReport, u64, u64), OsError> {
    let mut run = t.span("os.boot", || k.start())?;
    t.span("os.run", || loop {
        if run.run_slice(u64::MAX, None)? {
            return Ok::<(), OsError>(());
        }
    })?;
    let report = t.span("os.report", || run.report());
    let m = run.machine();
    let (nops, elided) = (m.profile().nops, m.cert_elided());
    t.span("os.drop", || drop(run));
    Ok((report, nops, elided))
}

impl Bench for Multiprog {
    fn classes(&self) -> u64 {
        1
    }

    fn code_words(&self) -> u64 {
        self.image().len() as u64
    }

    fn unit(&mut self, t: &mut Tracer, _index: u64) -> Unit {
        let (r, nops, elided) = match run(&self.kernel, t) {
            Ok(done) => done,
            Err(e) => return Unit::failed(0, e.to_string()),
        };
        let failure = t.span("harness.check", || {
            if let Some(panic) = &r.panic {
                return Some(format!("kernel panic: {panic}"));
            }
            r.procs.iter().zip(&self.expected).find_map(|(p, (status, output))| {
                (p.status != ProcStatus::Exited(*status) || &p.output != output).then(|| {
                    format!(
                        "{}: {:?} with output {:?}; bare metal halts with r1 = {status} and output {:?}",
                        p.name,
                        p.status,
                        String::from_utf8_lossy(&p.output),
                        String::from_utf8_lossy(output)
                    )
                })
            })
        });
        let mut counts = vec![
            ("sim.instructions", r.instructions),
            ("sim.nops", nops),
            ("sim.cert_elided", elided),
        ];
        counts.extend(crate::os_counts(std::slice::from_ref(&r)));
        Unit {
            class: 0,
            failure,
            instructions: r.instructions,
            counts,
        }
    }

    fn probe(&mut self) -> Vec<(&'static str, f64)> {
        let (certify_ns, blocks) = crate::certify_probe(&[self.image()]);
        let kernel_ns = crate::repeat_median(21, || {
            std::hint::black_box(mips_os::kernel_program());
        });
        let mut off = Tracer::new(false);
        let (kernel, reference) = (&self.kernel, &self.reference);
        let (fast, refr, instructions) = crate::engine_probe(5, |engine| {
            let k = if engine == Engine::Fast {
                kernel
            } else {
                reference
            };
            run(k, &mut off).expect("kernel runs").0.instructions
        });
        vec![
            ("asm.kernel_ms", kernel_ns / 1e6),
            ("verify.certify_ms", certify_ns / 1e6),
            ("verify.cert_blocks", blocks as f64),
            ("sim.fast_ns_per_instr", fast / instructions as f64),
            ("sim.ref_ns_per_instr", refr / instructions as f64),
            ("sim.engine_ratio", refr / fast),
        ]
    }
}
