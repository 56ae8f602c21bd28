//! In-memory spans and counters for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions, with the span that was open when the call started as
//! its parent. Spans stay in memory and are folded into per-layer totals
//! when the run ends. A layer's self time is its span time minus the part
//! covered by its child spans.

use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRecord {
    name: &'static str,
    parent: Option<usize>,
    seconds: f64,
}

/// Recorded spans and counters of one traced repetition.
#[derive(Default)]
pub struct Trace {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            seconds: 0.0,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        self.spans[id].seconds = start.elapsed().as_secs_f64();
        self.open.pop();
        out
    }

    /// Adds `amount` to the counter `name`.
    pub fn add(&mut self, name: &'static str, amount: f64) {
        *self.counters.entry(name).or_default() += amount;
    }

    /// A counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Spans recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds)
            .collect()
    }

    /// Each span's duration minus the time its children cover.
    fn span_self_seconds(&self) -> Vec<f64> {
        let mut self_secs: Vec<f64> = self.spans.iter().map(|s| s.seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_secs[parent] -= span.seconds;
            }
        }
        self_secs
    }

    /// Summed self time of the spans called `name`.
    pub fn self_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.span_self_seconds())
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |total, (_, secs)| total + secs)
    }

    /// Self time per span name over the spans inside a span called
    /// `root`, largest first.
    pub fn self_times_within(&self, root: &str) -> Vec<(&'static str, f64)> {
        let self_secs = self.span_self_seconds();
        let within = |mut id: usize| {
            while let Some(parent) = self.spans[id].parent {
                if self.spans[parent].name == root {
                    return true;
                }
                id = parent;
            }
            false
        };
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if within(id) {
                *totals.entry(span.name).or_default() += self_secs[id];
            }
        }
        let mut times: Vec<(&'static str, f64)> = totals.into_iter().collect();
        times.sort_by(|a, b| b.1.total_cmp(&a.1));
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut trace = Trace::default();
        trace.span("run", |t| {
            t.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                });
            });
        });
        assert_eq!(trace.calls("outer"), 1);
        assert_eq!(trace.calls("inner"), 1);
        let outer = trace.seconds("outer");
        let inner = trace.seconds("inner");
        assert!(inner >= 0.02 && outer >= inner);
        assert!((trace.self_seconds("outer") - (outer - inner)).abs() < 1e-12);
        let within = trace.self_times_within("run");
        assert_eq!(within.len(), 2);
        assert_eq!(within[0].0, "inner");
    }
}
