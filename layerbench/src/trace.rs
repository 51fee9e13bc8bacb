//! Harness-side spans: one record per public call the harness makes
//! into a module, kept in memory and written out when the run ends.
//!
//! A span's name is `module.call`; the module is the text before the
//! first dot. Spans nest (a unit span holds the calls made for that
//! unit), and a span's *self time* is its duration minus the time its
//! direct children cover. With tracing off every entry point is a
//! plain call: no clock reads, no allocation.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Unit the span belongs to; `None` for set-up and probes.
    pub unit: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The span recorder. Off by default; the harness turns it on only for
/// the traced half of a `--trace 1` run.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: Option<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle for [`Tracer::end`]; `None`
    /// when tracing is off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            self.spans[idx].end = self.now();
            // A panic inside a unit can leave inner spans open; closing
            // the outer one discards them from the stack.
            while let Some(top) = self.open.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }

    /// Records `f` as one span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let h = self.begin(name);
        let out = f();
        self.end(h);
        out
    }

    /// Sets the unit id stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: Option<u64>) {
        self.unit = unit;
    }

    /// Per span, in span order: the time its direct children cover.
    fn covered_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        covered
    }

    /// Self time of every span, in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.covered_ns())
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Per unit: the unit span's duration and the share of it its
    /// direct children cover.
    pub fn unit_coverage(&self, unit_span: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .zip(self.covered_ns())
            .filter(|(s, _)| s.name == unit_span)
            .map(|(s, c)| (s.ns(), c as f64 / s.ns().max(1) as f64))
            .collect()
    }

    /// Total self time per span name over the spans that belong to a
    /// unit. Names sort by module, so a module's calls are adjacent.
    pub fn call_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_call = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if s.unit.is_some() {
                *by_call.entry(s.name).or_insert(0) += ns;
            }
        }
        by_call
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent unit` (`-` for none).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tunit")?;
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.unit)
            )?;
        }
        Ok(())
    }
}

/// The module a span name belongs to: the text before the first dot.
pub fn module_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_unit(Some(0));
        let u = t.begin("harness.unit");
        t.span("sim.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(u);
        let selfs = t.self_ns();
        assert_eq!(selfs.len(), 2);
        assert!((selfs[0] as f64) < t.durations("harness.unit")[0]);
        assert_eq!(selfs[1] as f64, t.durations("sim.run")[0]);
        assert!(t.unit_coverage("harness.unit")[0].1 > 0.9);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("sim.run", || 7), 7);
        assert!(off.self_ns().is_empty());
    }
}
