//! Per-layer accounting for the traced run.
//!
//! Every number here is taken from outside the program: a span is the
//! wall time of one call into a layer's public function, made by the
//! benchmark itself, or a duration the middleware reports back (SeD queue
//! and solve times, DAG node events, jobserver task events). Nothing in the
//! program is instrumented for the benchmark.

use crate::stats::{json_num, json_str, median, quantile};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval of an operation, relative to the operation's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

/// The spans of one traced operation.
pub struct OpTrace {
    pub start: Instant,
    pub spans: Vec<Span>,
}

impl OpTrace {
    pub fn begin() -> OpTrace {
        OpTrace {
            start: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as one span of `layer`; returns its result and duration (s).
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_s = self.start.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.start.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            start_s,
            end_s,
        });
        (out, end_s - start_s)
    }

    /// Record an interval the program reported (ends `end_s` after the
    /// operation started and lasted `dur_s`).
    pub fn reported(&mut self, layer: &'static str, end_s: f64, dur_s: f64) {
        self.spans.push(Span {
            layer,
            start_s: (end_s - dur_s).max(0.0),
            end_s,
        });
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Length of the union of `spans` clipped to `[0, wall]`.
pub fn covered(spans: &[Span], wall: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans
        .iter()
        .map(|s| (s.start_s.max(0.0), s.end_s.min(wall)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite span bounds"));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Samples and counts per layer metric, plus the whole-operation totals
/// `trace.*` is computed from.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    /// Per-SeD busy seconds and operation counts (for `sed.busy_imbalance`).
    busy: BTreeMap<String, (f64, u64)>,
    /// Traced operations: total wall and total wall not covered by a span.
    pub op_wall_s: f64,
    pub op_uncovered_s: f64,
    /// Latencies of the traced and untraced operations of the traced run.
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    /// Spans of every traced operation, kept for the trace file.
    trace_events: Vec<(usize, Span, f64)>,
    ops: usize,
    epoch: Option<Instant>,
}

impl Layers {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    pub fn busy(&mut self, sed: &str, seconds: f64) {
        let e = self.busy.entry(sed.to_string()).or_default();
        e.0 += seconds;
        e.1 += 1;
    }

    /// Close a traced operation: account its coverage and keep its spans.
    pub fn finish_op(&mut self, op: OpTrace) {
        let wall = op.elapsed_s();
        let epoch = *self.epoch.get_or_insert(op.start);
        let offset = op.start.duration_since(epoch).as_secs_f64();
        self.op_wall_s += wall;
        self.op_uncovered_s += (wall - covered(&op.spans, wall)).max(0.0);
        self.traced_ms.push(wall * 1e3);
        self.ops += 1;
        for s in op.spans {
            self.trace_events.push((self.ops, s, offset));
        }
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (k, (s, n)) in other.busy {
            let e = self.busy.entry(k).or_default();
            e.0 += s;
            e.1 += n;
        }
        self.op_wall_s += other.op_wall_s;
        self.op_uncovered_s += other.op_uncovered_s;
        self.traced_ms.extend(other.traced_ms);
        self.untraced_ms.extend(other.untraced_ms);
        self.trace_events.extend(other.trace_events);
    }

    pub fn has_busy(&self) -> bool {
        !self.busy.is_empty()
    }

    /// max/mean of per-SeD busy time over `labels` (every SeD of the
    /// deployment, idle ones included). Operations whose reported time
    /// rounds to nothing (sub-millisecond null solves) are weighed by count.
    pub fn busy_imbalance(&self, labels: &[String]) -> f64 {
        let total_s: f64 = self.busy.values().map(|b| b.0).sum();
        let by_time = total_s >= 0.1;
        let load: Vec<f64> = labels
            .iter()
            .map(|l| {
                self.busy
                    .get(l)
                    .map(|b| if by_time { b.0 } else { b.1 as f64 })
                    .unwrap_or(0.0)
            })
            .collect();
        let mean = load.iter().sum::<f64>() / load.len().max(1) as f64;
        if mean > 0.0 {
            load.iter().cloned().fold(0.0, f64::max) / mean
        } else {
            1.0
        }
    }

    /// Chrome trace-event JSON of every traced operation's spans.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .trace_events
            .iter()
            .map(|(op, s, offset)| {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                    json_str(s.layer),
                    op,
                    json_num(((offset + s.start_s) * 1e6).round()),
                    json_num(((s.end_s - s.start_s) * 1e6).round())
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    pub fn p50(&self, name: &str) -> f64 {
        median(self.samples(name)).unwrap_or(0.0)
    }

    pub fn p99(&self, name: &str) -> f64 {
        quantile(self.samples(name), 0.99).unwrap_or(0.0)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: f64, b: f64) -> Span {
        Span {
            layer: "x",
            start_s: a,
            end_s: b,
        }
    }

    #[test]
    fn coverage_is_the_union_clipped_to_the_op() {
        let s = [
            span(0.0, 1.0),
            span(0.5, 2.0),
            span(3.0, 4.0),
            span(9.0, 12.0),
        ];
        assert!((covered(&s, 10.0) - 4.0).abs() < 1e-12);
        assert_eq!(covered(&[], 1.0), 0.0);
    }

    #[test]
    fn imbalance_counts_idle_seds() {
        let mut l = Layers::default();
        l.busy("a", 1.0);
        let labels = ["a".to_string(), "b".to_string()];
        assert!((l.busy_imbalance(&labels) - 2.0).abs() < 1e-12);
        l.busy("b", 1.0);
        assert!((l.busy_imbalance(&labels) - 1.0).abs() < 1e-12);
    }
}
