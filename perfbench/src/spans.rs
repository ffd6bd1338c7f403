//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers.
//!
//! A [`Tracer`] belongs to one item. Each span records its name, start,
//! end and the enclosing span, so a layer's *self* time is its span's
//! duration minus the time covered by its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The item the span belongs to.
    pub item: usize,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Offsets from the tracer's epoch.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records the spans of one item.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    item: usize,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, item: usize) -> Tracer {
        Tracer {
            epoch,
            item,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            item: self.item,
            parent: self.stack.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }
}

/// Per-name totals over many tracers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

/// All spans of a traced decomposition.
#[derive(Debug, Default)]
pub struct Trace {
    pub tracers: Vec<Tracer>,
}

impl Trace {
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for t in &self.tracers {
            let mut child_time = vec![Duration::ZERO; t.spans.len()];
            for s in &t.spans {
                if let Some(p) = s.parent {
                    child_time[p] += s.duration();
                }
            }
            for (s, children) in t.spans.iter().zip(child_time) {
                let e = out.entry(s.name).or_default();
                e.count += 1;
                e.total += s.duration();
                e.self_time += s.duration().saturating_sub(children);
            }
        }
        out
    }

    /// Durations of every span named `name`, in milliseconds, sorted.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .tracers
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Tab-separated dump: `item  span  parent  name  start_us  end_us`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# item\tspan\tparent\tname\tstart_us\tend_us\n");
        for t in &self.tracers {
            for (i, s) in t.spans.iter().enumerate() {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{}\t{i}\t{parent}\t{}\t{:.1}\t{:.1}",
                    s.item,
                    s.name,
                    s.start.as_secs_f64() * 1e6,
                    s.end.as_secs_f64() * 1e6
                );
            }
        }
        out
    }
}

/// The `q`-quantile of sorted values (nearest rank); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99, p95, p90 and p75 that has at least ten samples
/// beyond it, as `(q, value)`; the median when there are too few.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let q = [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    (q, quantile(sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 0);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let trace = Trace { tracers: vec![t] };
        let totals = trace.totals();
        assert!(totals["inner"].self_time >= Duration::from_millis(20));
        assert!(totals["outer"].total >= totals["inner"].total);
        assert!(totals["outer"].self_time < Duration::from_millis(20));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=81).map(f64::from).collect();
        assert_eq!(tail(&v).0, 0.75);
        let v: Vec<f64> = (1..=432).map(f64::from).collect();
        assert_eq!(tail(&v).0, 0.95);
        assert_eq!(quantile(&v, 0.5), 216.0);
    }
}
