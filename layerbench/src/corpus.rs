//! `corpus`: one unit is one pass over all 14 corpus programs in
//! canonical order, each on a fresh fast-engine `Machine`.
//!
//! Set-up compiles and reorganizes every program and computes its
//! expected console output with the source-level interpreter. Lazy
//! predecode and `certify` stay inside the unit, because every user
//! run pays for them. The inputs are fixed; the seed is not used.

use crate::trace::Tracer;
use crate::{Bench, Unit};
use mips_hll::{compile_mips, run_program, CodegenOptions};
use mips_reorg::{reorganize, ReorgOptions, ReorgOutput};
use mips_sim::{Engine, Machine};

struct Prog {
    name: &'static str,
    out: ReorgOutput,
    expected: String,
}

pub struct Corpus {
    progs: Vec<Prog>,
}

pub fn setup(t: &mut Tracer) -> Corpus {
    let progs = mips_workloads::corpus()
        .iter()
        .map(|w| {
            let lc = t
                .span("hll.compile", || {
                    compile_mips(w.source, &CodegenOptions::standard())
                })
                .expect("corpus program compiles");
            let out = t
                .span("reorg.reorganize", || reorganize(&lc, ReorgOptions::FULL))
                .expect("corpus program reorganizes");
            let expected = t
                .span("hll.interpret", || run_program(w.source))
                .expect("corpus program interprets");
            Prog {
                name: w.name,
                out,
                expected,
            }
        })
        .collect();
    Corpus { progs }
}

impl Prog {
    /// A fresh machine loaded with this program.
    fn machine(&self, engine: Engine) -> Machine {
        let mut m = Machine::new(self.out.program.clone());
        m.set_refclass_map(self.out.refclass.clone());
        m.set_engine(engine);
        m
    }
}

impl Corpus {
    /// One pass on `engine`, without spans or checks: the probe's unit.
    fn pass(&self, engine: Engine) -> u64 {
        let mut instructions = 0;
        for p in &self.progs {
            let mut m = p.machine(engine);
            m.run().expect("corpus program runs");
            instructions += m.profile().instructions;
        }
        instructions
    }
}

impl Bench for Corpus {
    fn classes(&self) -> u64 {
        1
    }

    fn code_words(&self) -> u64 {
        self.progs.iter().map(|p| p.out.program.len() as u64).sum()
    }

    fn unit(&mut self, t: &mut Tracer, _index: u64) -> Unit {
        let mut failure = None;
        let (mut instructions, mut nops, mut elided) = (0, 0, 0);
        for p in &self.progs {
            let mut m = t.span("sim.load", || p.machine(Engine::Fast));
            let ran = t.span("sim.run", || m.run());
            let ok = t.span("harness.check", || {
                ran.is_ok() && m.output() == p.expected.as_bytes()
            });
            if !ok && failure.is_none() {
                failure = Some(format!(
                    "{}: {ran:?}, output differs from the interpreter",
                    p.name
                ));
            }
            instructions += m.profile().instructions;
            nops += m.profile().nops;
            elided += m.cert_elided();
            t.span("sim.drop", || drop(m));
        }
        Unit {
            class: 0,
            failure,
            instructions,
            counts: vec![
                ("sim.instructions", instructions),
                ("sim.nops", nops),
                ("sim.cert_elided", elided),
            ],
        }
    }

    fn probe(&mut self) -> Vec<(&'static str, f64)> {
        let programs: Vec<_> = self.progs.iter().map(|p| p.out.program.clone()).collect();
        let (certify_ns, blocks) = crate::certify_probe(&programs);
        let (fast, reference, instructions) = crate::engine_probe(3, |engine| self.pass(engine));
        vec![
            ("verify.certify_ms", certify_ns / 1e6),
            ("verify.cert_blocks", blocks as f64),
            ("sim.fast_ns_per_instr", fast / instructions as f64),
            ("sim.ref_ns_per_instr", reference / instructions as f64),
            ("sim.engine_ratio", reference / fast),
        ]
    }
}
