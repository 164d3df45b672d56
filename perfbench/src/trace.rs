//! In-memory spans around the benchmark's calls into each layer, and the
//! per-layer self-time table computed from them after the run.
//!
//! A span is a name, a start, an end, the span that caused it and the thread
//! that ran it. Spans stay in memory while the workload runs; nothing is
//! aggregated or printed until it ends.
//!
//! Self time is a span's duration minus the part its same-thread children
//! cover. A span whose children ran on worker threads (a `parallel_map`
//! region) hands its whole interval to them: each worker span's self time is
//! scaled by `region wall / summed worker time`, so the rows of the table
//! add up to the traced wall time even when two threads share it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of one timed operation. Its self time is the part
/// of the operation no named layer covers.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    thread: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Records the spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for the main thread.
    pub fn new() -> Self {
        Self::with_origin(Instant::now(), 0)
    }

    fn with_origin(origin: Instant, thread: u32) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for work this recorder's open span hands to worker thread
    /// `thread` (nonzero); fold it back in with [`Recorder::adopt`].
    pub fn worker(&self, thread: u32) -> Self {
        Self::with_origin(self.origin, thread)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let result = f(self);
        self.exit(id);
        result
    }

    /// Folds a worker's spans in as children of the innermost open span.
    pub fn adopt(&mut self, worker: Recorder) {
        assert!(worker.open.is_empty(), "worker spans left open");
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(worker.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset).or(parent);
            span
        }));
    }

    /// Durations in seconds of every closed span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Each span's weight: 1 on the thread that opened the operation, and
    /// `region wall / summed worker time` below a cross-thread region.
    fn weights(&self) -> Vec<f64> {
        let mut cross_thread_children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                if self.spans[parent].thread != span.thread {
                    cross_thread_children[parent] += span.duration_s();
                }
            }
        }
        // Parents precede their children, so one forward pass settles every
        // span's weight before its children read it.
        let mut weight = vec![1.0; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                let parent_span = &self.spans[parent];
                weight[id] = if parent_span.thread == span.thread {
                    weight[parent]
                } else {
                    weight[parent] * parent_span.duration_s() / cross_thread_children[parent]
                };
            }
        }
        weight
    }

    /// Wall-weighted self time per span name, in seconds. A span whose
    /// children ran on other threads has none of its own.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![0.0; self.spans.len()];
        let mut handed_off = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                if self.spans[parent].thread == span.thread {
                    children[parent] += span.duration_s();
                } else {
                    handed_off[parent] = true;
                }
            }
        }
        let mut totals = BTreeMap::new();
        for ((id, span), weight) in self.spans.iter().enumerate().zip(self.weights()) {
            let own = if handed_off[id] {
                0.0
            } else {
                (span.duration_s() - children[id]).max(0.0)
            };
            *totals.entry(span.name).or_insert(0.0) += own * weight;
        }
        totals
    }

    /// Wall-weighted total duration of every span named `name`, in seconds.
    pub fn inclusive(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.weights())
            .filter(|(span, _)| span.name == name)
            .map(|(span, weight)| span.duration_s() * weight)
            .sum()
    }
}

/// One row of the per-layer table.
pub struct Row {
    /// Layer (span) name, or `unaccounted`.
    pub layer: String,
    /// Self time per operation, in seconds.
    pub per_op_s: f64,
}

/// Prints the per-layer self-time table to stderr and returns the share of
/// traced wall time the named layers cover; `total_s` is the traced wall
/// time per operation the rows are shares of.
pub fn print_table(title: &str, rows: &[Row], total_s: f64) -> f64 {
    eprintln!("\n{title}");
    eprintln!("{:<42} {:>12} {:>8}", "layer", "self s/op", "share");
    let mut accounted = 0.0;
    for row in rows {
        if row.layer != "unaccounted" {
            accounted += row.per_op_s;
        }
        eprintln!(
            "{:<42} {:>12.6} {:>7.2}%",
            row.layer,
            row.per_op_s,
            100.0 * row.per_op_s / total_s
        );
    }
    eprintln!(
        "{:<42} {:>12.6} {:>7.2}%",
        "total (traced wall)", total_s, 100.0
    );
    accounted / total_s
}

/// Table rows from a recorder's self times, `ops` operations deep: every
/// span name becomes a row, and the root spans' self time is `unaccounted`.
pub fn rows(recorder: &Recorder, ops: usize) -> (Vec<Row>, f64) {
    let ops = ops.max(1) as f64;
    let total_s = recorder.durations(OP).iter().sum::<f64>() / ops;
    let times = recorder.self_times();
    let mut rows: Vec<Row> = times
        .iter()
        .filter(|(name, _)| **name != OP)
        .map(|(name, s)| Row {
            layer: (*name).to_owned(),
            per_op_s: s / ops,
        })
        .collect();
    let unaccounted = times.get(OP).copied().unwrap_or(0.0) / ops;
    rows.push(Row {
        layer: "unaccounted".to_owned(),
        per_op_s: unaccounted,
    });
    (rows, total_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let mut rec = Recorder::new();
        rec.span(OP, |rec| {
            rec.span("a", |rec| {
                rec.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                });
            });
        });
        let times = rec.self_times();
        let total: f64 = times.values().sum();
        let op = rec.durations(OP)[0];
        assert!((total - op).abs() < 1e-6, "self times add up to the root");
        assert!(times["b"] >= 0.019);
        assert!(times["a"] < times["b"]);
    }

    #[test]
    fn worker_spans_share_the_region_wall() {
        let mut rec = Recorder::new();
        rec.span(OP, |rec| {
            rec.span("region", |rec| {
                for thread in 1..=2 {
                    let mut worker = rec.worker(thread);
                    worker.span("work", |_| {
                        std::thread::sleep(std::time::Duration::from_millis(10))
                    });
                    rec.adopt(worker);
                }
            });
        });
        let times = rec.self_times();
        let region = rec.durations("region")[0];
        assert_eq!(times["region"], 0.0);
        assert!((times["work"] - region).abs() < 1e-6);
    }
}
