//! Aggregation of the spans the program records while tracing is on.
//!
//! Self time is a span's duration minus the part of it that its child
//! spans (spans on the same thread that it encloses) cover.

use std::collections::BTreeMap;

use coconet_trace::{Event, EventKind};

/// Totals over the traced steps of one run, for one rank.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Self time by span label, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Inclusive time of compute spans (executor steps, stream
    /// closures) by label, nanoseconds.
    pub compute_ns: BTreeMap<&'static str, u64>,
    /// Instant events by label.
    pub instants: BTreeMap<&'static str, u64>,
    /// Inclusive ready-wait time, nanoseconds.
    pub ready_wait_ns: u64,
}

/// Labels of the executor's per-step compute spans, by layer metric.
pub const EXECUTOR_GROUPS: [(&str, &[&str]); 4] = [
    ("runtime.executor.input_s", &["input"]),
    (
        "runtime.executor.elementwise_s",
        &["unary", "binary", "dropout", "update", "slice"],
    ),
    ("runtime.executor.matmul_s", &["matmul"]),
    (
        "runtime.executor.collective_s",
        &["all_reduce", "reduce_scatter", "all_gather"],
    ),
];

impl SpanTotals {
    /// Adds `rank`'s events from `events`.
    pub fn add(&mut self, events: &[Event], rank: u32) {
        let mut by_thread: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        for ev in events.iter().filter(|e| e.rank == rank) {
            if ev.dur_ns == 0 {
                *self.instants.entry(ev.label).or_default() += 1;
                continue;
            }
            by_thread.entry(ev.thread).or_default().push(ev);
            if ev.kind == EventKind::ReadyWait {
                self.ready_wait_ns += ev.dur_ns;
            }
            if ev.kind == EventKind::Compute {
                *self.compute_ns.entry(ev.label).or_default() += ev.dur_ns;
            }
        }
        for mut spans in by_thread.into_values() {
            // Parents sort before the children they enclose.
            spans.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
            let mut child_ns = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            for (i, ev) in spans.iter().enumerate() {
                while open.last().is_some_and(|&p| spans[p].end_ns() <= ev.ts_ns) {
                    open.pop();
                }
                if let Some(&p) = open.last() {
                    if ev.end_ns() <= spans[p].end_ns() {
                        child_ns[p] += ev.dur_ns;
                    }
                }
                open.push(i);
            }
            for (ev, child) in spans.iter().zip(child_ns) {
                *self.self_ns.entry(ev.label).or_default() += ev.dur_ns.saturating_sub(child);
            }
        }
    }

    /// Inclusive executor step time of one layer-metric group, seconds.
    pub fn executor_group_s(&self, labels: &[&str]) -> f64 {
        labels
            .iter()
            .filter_map(|l| self.compute_ns.get(l))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Prints the self-time table, largest first.
    pub fn print(&self, steps: u64) {
        let mut rows: Vec<_> = self.self_ns.iter().collect();
        rows.sort_by_key(|(_, &ns)| std::cmp::Reverse(ns));
        println!("rank 0 self time per traced step, by span label:");
        for (label, ns) in rows {
            println!("  {label:<24} {:>12.6} s", *ns as f64 * 1e-9 / steps as f64);
        }
        for (label, n) in &self.instants {
            println!("  {label:<24} {:>12.1} instants", *n as f64 / steps as f64);
        }
    }
}
