//! The per-layer cost ledger of a traced run.
//!
//! Every operation is a root span (`op.*`). Its children are the public
//! calls the benchmark makes into each layer, timed around the call
//! (`tgraph.load`, `stream.ingest`, `serve.submit`, ...), plus spans
//! derived from what those calls already return: `RunMetrics` splits a
//! BSP run into `icm.compute`, `bsp.exchange` and `bsp.barrier`, the
//! `TraceLevel::Full` extras give `icm.warp`, `tgraph.freeze` and
//! `stream.warm_start`, and `QueryOutcome::micros` separates the queue
//! from execution. A span's layer is its name up to the first dot; its
//! self time is its duration minus its children's. The ledger closes when
//! the layers' self times add back up to each operation's wall time.
//!
//! Timed children end at their own timestamp and the next one starts at
//! a fresh timestamp, so the benchmark's glue between calls (wrapping a
//! graph in an `Arc`, building `RunOpts`, taking the graph to install) is
//! the root's self time: unattributed, and counted against the tolerance.
//! A read's queue is by definition its latency minus execution, so reads
//! close by construction unless a derived span overruns.

use graphite_bsp::metrics::RunMetrics;
use graphite_bsp::trace::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Largest share of an operation's wall time by which the sum of its
/// layers' self times may differ from it. Derived spans that overrun
/// their parent and unattributed glue between calls both count against
/// it.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// The layers a ledger attributes time to, in report order.
pub const LAYERS: [&str; 7] = [
    "tgraph",
    "part",
    "bsp",
    "icm",
    "algorithms",
    "serve",
    "stream",
];

/// One timed interval of one operation.
#[derive(Clone, Debug)]
pub struct Span {
    /// Operation id (unique within a run).
    pub op: u64,
    /// Index of the enclosing span; `None` for the operation itself.
    pub parent: Option<usize>,
    /// `layer.call`, or `op.<kind>` for the root.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder, filled after each operation from the
/// timestamps it took. Disabled tracers record nothing, so the untraced
/// runs share the traced runs' code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a span with known bounds and returns its index.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a derived child of `parent` lasting `dur`, starting at
    /// `start_ns`; returns its index and its end.
    pub fn derived(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        dur: Duration,
    ) -> (Option<usize>, u64) {
        let end = start_ns + ns(dur);
        (self.record(op, parent, name, start_ns, end), end)
    }

    /// Records a child timed beside the operation — the same public call
    /// on the same input, made just before or after it — capped at
    /// `room`, the part of the parent its other children leave, so an
    /// estimate never displaces time the operation measured itself.
    pub fn estimated(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        estimate: Duration,
        room: Duration,
    ) -> (Option<usize>, u64) {
        self.derived(op, parent, name, start_ns, estimate.min(room))
    }

    /// Derives the spans of one BSP run from its metrics, laid out from
    /// `start_ns` inside `parent`: `bsp.run` (makespan) holding
    /// `icm.compute` (compute+, with `icm.warp` scaled by `warp_share`),
    /// `bsp.exchange` and `bsp.barrier`.
    pub fn bsp_run(
        &mut self,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        m: &RunMetrics,
        warp_share: f64,
    ) {
        if !self.enabled {
            return;
        }
        let (run, _) = self.derived(op, parent, "bsp.run", start_ns, m.makespan);
        let (compute, end) = self.derived(op, run, "icm.compute", start_ns, m.compute_plus);
        self.derived(
            op,
            compute,
            "icm.warp",
            start_ns,
            m.compute_plus.mul_f64(warp_share.clamp(0.0, 1.0)),
        );
        let (_, end) = self.derived(op, run, "bsp.exchange", end, m.messaging);
        self.derived(op, run, "bsp.barrier", end, m.barrier);
    }

    /// The spans as JSONL, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Σ `warp_ns` extras and Σ worker compute spans of a `Full`-traced run:
/// the share of compute+ the warp operator took.
pub fn warp_split(m: &RunMetrics) -> (u64, u64) {
    let mut warp = 0;
    let mut compute = 0;
    for ev in &m.trace.events {
        if let TraceEvent::WorkerStep {
            extras, compute_ns, ..
        } = ev
        {
            compute += compute_ns;
            warp += extras
                .iter()
                .filter(|(k, _)| *k == "warp_ns")
                .map(|(_, v)| v)
                .sum::<u64>();
        }
    }
    (warp, compute)
}

/// What a traced run's spans add up to.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations (root spans).
    pub ops: usize,
    /// Σ operation wall time, ms.
    pub wall_ms: f64,
    /// Σ self time per layer, ms; `unattributed` is the roots' own time.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Largest |Σ layer self time − wall| / wall over all operations.
    pub worst_closure: f64,
    /// Operations whose closure error exceeds [`LEDGER_TOLERANCE`].
    pub violations: usize,
}

/// Computes self times and checks closure for every operation.
pub fn analyze(spans: &[Span]) -> Ledger {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    let mut ledger = Ledger::default();
    // Per root: (wall, Σ clamped self time of its named layers).
    let mut per_op: BTreeMap<u64, (u64, i128)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur() as i128 - child_ns[i] as i128;
        let entry = per_op.entry(s.op).or_insert((0, 0));
        let layer = match s.parent {
            None => {
                entry.0 = s.dur();
                "unattributed"
            }
            Some(_) => {
                entry.1 += self_ns.max(0);
                LAYERS
                    .iter()
                    .copied()
                    .find(|l| s.name.split('.').next() == Some(*l))
                    .unwrap_or("unattributed")
            }
        };
        *ledger.self_ms.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    for (wall, named) in per_op.values() {
        ledger.ops += 1;
        ledger.wall_ms += *wall as f64 / 1e6;
        let err = (*named - *wall as i128).unsigned_abs() as f64 / (*wall).max(1) as f64;
        ledger.worst_closure = ledger.worst_closure.max(err);
        if err > LEDGER_TOLERANCE {
            ledger.violations += 1;
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            op,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_times_add_back_up_and_glue_and_overruns_are_caught() {
        let spans = vec![
            span(0, None, "op.job", 0, 100),
            span(0, Some(0), "tgraph.load", 0, 60),
            span(0, Some(0), "algorithms.try_run", 60, 99),
            span(0, Some(2), "bsp.run", 61, 91),
            // Op 1: a derived child overruns its parent by 20 %.
            span(1, None, "op.job", 0, 100),
            span(1, Some(4), "serve.exec", 0, 100),
            span(1, Some(5), "bsp.run", 0, 120),
            // Op 2: 10 % glue between two timed calls stays unattributed.
            span(2, None, "op.batch", 0, 100),
            span(2, Some(7), "stream.ingest", 0, 45),
            span(2, Some(7), "serve.install", 55, 100),
        ];
        let l = analyze(&spans);
        assert_eq!(l.ops, 3);
        assert_eq!(l.violations, 2);
        assert!((l.self_ms["tgraph"] - 60e-6).abs() < 1e-12);
        assert!((l.self_ms["algorithms"] - 9e-6).abs() < 1e-12);
        assert!((l.self_ms["unattributed"] - 11e-6).abs() < 1e-12);
        assert!((l.worst_closure - 0.2).abs() < 1e-12);
    }
}
