//! Spans recorded from the benchmark's side of each layer call.
//!
//! A span has a name, a start, an end and a parent; spans of one job share
//! its id.  Phase durations read from a `PermutationReport` become child
//! spans ending where the job's own span ends.  Spans stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; nanosecond times are relative to its creation.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per span name: how many spans, and their summed total and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn self_us_per_span(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span between two instants and returns its index, the
    /// handle children name as their parent.
    pub fn span(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Records a child of `parent` lasting `length` and ending at the
    /// parent's end (how report phase durations enter the trace), and
    /// returns its index.
    pub fn phase(&mut self, name: &'static str, parent: usize, length: Duration) -> usize {
        let p = self.spans[parent];
        let start_ns = p
            .end_ns
            .saturating_sub(length.as_nanos() as u64)
            .max(p.start_ns);
        self.spans.push(Span {
            name,
            job: p.job,
            parent: Some(parent),
            start_ns,
            end_ns: p.end_ns,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: a span's duration minus the part of it
    /// that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let (mut union, mut reach) = (0, s.start_ns);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns.saturating_sub(s.start_ns);
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - union.min(total);
        }
        out
    }

    /// Writes the first `limit` spans, one JSON object per line, and
    /// returns how many it wrote.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(limit);
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |ns: u64| o + Duration::from_nanos(ns);
        let job = t.span("job", 1, None, at(0), at(100));
        t.span("submit", 1, Some(job), at(0), at(10));
        t.phase("engine.matrix", job, Duration::from_nanos(30));
        t.phase("engine.exchange", job, Duration::from_nanos(50));
        let st = t.self_times();
        assert_eq!(st["job"].self_ns, 100 - 10 - 50);
        assert_eq!(st["engine.exchange"].self_ns, 50);
        assert_eq!(st["submit"].count, 1);
    }
}
