//! What the three workloads share: run configuration, seeded sources,
//! the closed-loop client, reference verification and the per-layer
//! accumulator that declares every per-layer metric once.

use crate::ledger::{self, Tracer};
use crate::stats::{mean, ratio};
use graphite_algorithms::registry::{try_run, Algo, Platform, RunError, RunOpts, RunOutcome};
use graphite_bsp::error::BspError;
use graphite_bsp::metrics::{now, RunMetrics, UserCounters};
use graphite_bsp::trace::TraceConfig;
use graphite_datagen::Profile;
use graphite_part::PartitionStrategy;
use graphite_serve::{QueryOutcome, QuerySpec, ServeEngine, ServeStats};
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::io;
use graphite_tgraph::rng::SplitMix64;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ICM traversals every workload rotates through.
pub const ALGOS: [Algo; 4] = [Algo::Sssp, Algo::Bfs, Algo::Eat, Algo::Reach];

/// Closed-loop clients: one process drives at most two (`nproc` = 2).
pub const CLIENTS: usize = 2;

/// One measured run's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measured seconds (split between the untraced and traced phases
    /// of a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// `graphite-datagen` profile scale.
    pub scale: usize,
    /// Update batches the live stream is cut into.
    pub batches: usize,
    /// Operations of the traced phase whose counters are summed; a fixed
    /// prefix, so count metrics repeat exactly for one seed.
    pub counted: usize,
    /// Where inputs and spans are written.
    pub out_dir: PathBuf,
    /// Origin of every span timestamp.
    pub origin: Instant,
}

/// One measured phase of a run.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Spans and `Full` engine traces are recorded.
    pub traced: bool,
    /// Seconds the phase keeps issuing operations.
    pub seconds: f64,
}

impl Config {
    /// The untraced phase, then (traced runs only) the traced one, each
    /// on freshly set-up engines and with half the run's seconds. Both
    /// issue the same operation sequence, so their medians over the
    /// common prefix give the tracing overhead.
    pub fn phases(&self) -> Vec<Phase> {
        if !self.trace {
            return vec![Phase {
                traced: false,
                seconds: self.seconds,
            }];
        }
        let seconds = self.seconds / 2.0;
        vec![
            Phase {
                traced: false,
                seconds,
            },
            Phase {
                traced: true,
                seconds,
            },
        ]
    }

    /// Engine trace level: `Full` in a traced phase, else off.
    pub fn engine_trace(traced: bool) -> TraceConfig {
        if traced {
            TraceConfig::full()
        } else {
            TraceConfig::off()
        }
    }
}

/// Nanoseconds since `origin`.
pub fn since(origin: Instant) -> u64 {
    (now() - origin).as_nanos() as u64
}

/// Milliseconds of a nanosecond span.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The Twitter-like `.tg` input of run-cold and serve-miss, generated
/// from the seed and written once. Only what the runs and their
/// verification need is kept, not the generated graph; the file is
/// removed on drop.
pub struct TgInput {
    pub path: PathBuf,
    /// Traversal sources, see [`seeded_sources`].
    pub sources: Vec<VertexId>,
    /// Structure digest of the generated graph.
    pub digest: u64,
    pub vertices: usize,
    pub edges: usize,
    /// Size of the `.tg` file.
    pub bytes: u64,
}

impl TgInput {
    pub fn generate(cfg: &Config, workload: &str) -> Result<Self, String> {
        let graph = Profile::Twitter.generate(cfg.scale, cfg.seed);
        let path = cfg
            .out_dir
            .join(format!("{workload}-{}-{}.tg", cfg.seed, std::process::id()));
        io::save(&graph, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        Ok(TgInput {
            sources: seeded_sources(&graph, cfg.seed),
            digest: graph.structure_digest(),
            vertices: graph.num_vertices(),
            edges: graph.num_edges(),
            bytes,
            path,
        })
    }

    /// `tgraph::io::load` of the input.
    pub fn load(&self) -> Result<TemporalGraph, String> {
        io::load(&self.path).map_err(|e| format!("loading {}: {e}", self.path.display()))
    }

    /// The input's environment entries.
    pub fn env(&self, cfg: &Config) -> [(&'static str, String); 5] {
        [
            ("profile", "twitter".to_string()),
            ("scale", cfg.scale.to_string()),
            ("vertices", self.vertices.to_string()),
            ("edges", self.edges.to_string()),
            ("bytes", self.bytes.to_string()),
        ]
    }
}

impl Drop for TgInput {
    fn drop(&mut self) {
        // The input is regenerated from the seed on every run.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Vertices with out-edges in seeded random order: traversal sources
/// drawn without replacement. The registry default (smallest vid) is
/// never used — on some profiles it is isolated and the run is trivial.
pub fn seeded_sources(graph: &TemporalGraph, seed: u64) -> Vec<VertexId> {
    let mut sources: Vec<VertexId> = graph
        .vertices()
        .filter(|(v, _)| graph.out_degree(*v) > 0)
        .map(|(_, v)| v.vid)
        .collect();
    SplitMix64::new(seed ^ 0x6532_6562_656e_6368).shuffle(&mut sources);
    sources
}

/// A serve query: ICM traversal, one worker, hash placement.
pub fn query(algo: Algo, source: VertexId) -> QuerySpec {
    QuerySpec {
        workers: 1,
        source: Some(source),
        ..QuerySpec::new(algo, Platform::Icm)
    }
}

/// The verification oracle: the same query run directly through the
/// registry with one worker and hash placement.
pub fn reference(
    graph: &Arc<TemporalGraph>,
    algo: Algo,
    source: VertexId,
    full_trace: bool,
) -> Result<RunOutcome, RunError> {
    let opts = RunOpts {
        workers: 1,
        source: Some(source),
        partition: PartitionStrategy::Hash,
        trace: Config::engine_trace(full_trace),
        ..Default::default()
    };
    try_run(algo, Platform::Icm, graph, None, &opts)
}

/// What verification learned about one query.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefRun {
    /// The oracle's result digest.
    pub digest: u64,
    /// The oracle's (single-worker) makespan, ms.
    pub makespan_ms: f64,
    /// Σ `warp_ns` over the oracle run (traced runs only), ms.
    pub warp_ms: f64,
    /// Warp share of worker compute in the oracle run.
    pub warp_share: f64,
}

/// Calls `work(0)`, `work(1)`, ... on [`CLIENTS`] threads, each taking
/// the next index as it finishes one, until `work` returns `None`.
/// Returns the results in index order.
fn pull<T: Send>(work: impl Fn(usize) -> Option<T> + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(t) = work(i) else {
                            break;
                        };
                        done.push((i, t));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Runs the oracle for one query.
///
/// # Errors
///
/// The oracle's failure, rendered.
pub fn ref_run(
    graph: &Arc<TemporalGraph>,
    algo: Algo,
    source: VertexId,
    full_trace: bool,
) -> Result<RefRun, String> {
    let o = reference(graph, algo, source, full_trace)
        .map_err(|e| format!("reference {} from {source:?}: {e}", algo.name()))?;
    let (warp, compute) = ledger::warp_split(&o.metrics);
    Ok(RefRun {
        digest: o.digest.map_or(0, |d| d.0),
        makespan_ms: o.metrics.makespan.as_secs_f64() * 1e3,
        warp_ms: ms(warp),
        warp_share: ratio(warp as f64, compute as f64),
    })
}

/// Runs the oracle for every query in `queries` on two threads.
///
/// # Errors
///
/// The first oracle failure, rendered.
pub fn references(
    graph: &Arc<TemporalGraph>,
    queries: &[(Algo, VertexId)],
    full_trace: bool,
) -> Result<Vec<RefRun>, String> {
    pull(|i| {
        let &(algo, source) = queries.get(i)?;
        Some(ref_run(graph, algo, source, full_trace))
    })
    .into_iter()
    .collect()
}

/// One closed-loop read: timestamps (ns since the origin) and outcome.
#[derive(Debug)]
pub struct ReadRec {
    /// Index into the issued query list.
    pub idx: usize,
    /// Before `ServeEngine::submit`.
    pub start_ns: u64,
    /// After `submit` returned.
    pub submitted_ns: u64,
    /// After `Ticket::wait` returned.
    pub end_ns: u64,
    /// The query's typed outcome.
    pub result: Result<QueryOutcome, BspError>,
}

impl ReadRec {
    /// Client-observed latency, ms.
    pub fn latency_ms(&self) -> f64 {
        ms(self.end_ns - self.start_ns)
    }
}

/// Drives `engine` with [`CLIENTS`] closed-loop clients over `specs` in
/// order, until the list is exhausted or — once `min_ops` queries were
/// issued — `limit` has passed. Returns the reads and the loop's wall
/// time in seconds.
pub fn closed_loop(
    engine: &ServeEngine,
    specs: &[QuerySpec],
    limit: Duration,
    min_ops: usize,
    origin: Instant,
) -> (Vec<ReadRec>, f64) {
    let start = now();
    let recs = pull(|idx| {
        if idx >= specs.len() || (idx >= min_ops && start.elapsed() >= limit) {
            return None;
        }
        let start_ns = since(origin);
        let ticket = engine.submit(specs[idx].clone());
        let submitted_ns = since(origin);
        let result = ticket.and_then(|t| t.wait());
        Some(ReadRec {
            idx,
            start_ns,
            submitted_ns,
            end_ns: since(origin),
            result,
        })
    });
    (recs, start.elapsed().as_secs_f64())
}

/// Checks each successful read against its oracle; returns mismatches.
pub fn check_reads(recs: &[ReadRec], oracle: impl Fn(usize) -> RefRun) -> Vec<String> {
    recs.iter()
        .filter_map(|r| {
            let o = r.result.as_ref().ok()?;
            let want = oracle(r.idx).digest;
            let got = o.digest.map(|d| d.0);
            (got != Some(want)).then(|| {
                format!(
                    "query {} ({}): digest {got:?} != reference {want:#018x}",
                    r.idx,
                    o.algo.name()
                )
            })
        })
        .collect()
}

/// Typed serve failures: rejected + shed + quarantined + budget + failed.
pub fn serve_failures(s: &ServeStats) -> u64 {
    s.rejected + s.shed + s.quarantined + s.budget_exceeded + s.failed
}

/// Resets the kernel's peak-RSS mark of this process to its current RSS;
/// false where that is not supported (the mark then spans the process).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the spans of one serve read: `serve.submit`, then the queue
/// (client latency minus `QueryOutcome::micros`), then execution — a
/// registry run holding the partition build and the BSP run on a miss,
/// a cache lookup on a hit.
pub fn read_spans(tr: &mut Tracer, op: u64, r: &ReadRec, part_ms: f64, warp_share: f64) {
    let Ok(o) = &r.result else {
        return;
    };
    let root = tr.record(op, None, "op.read", r.start_ns, r.end_ns);
    // Execution ends as the client wakes. An executor may start it before
    // `submit` has returned to a descheduled client; that overlap is
    // execution, so the submit span is cut where execution begins.
    let exec = Duration::from_micros(o.micros).min(Duration::from_nanos(r.end_ns - r.start_ns));
    let exec_start = r.end_ns - exec.as_nanos() as u64;
    let submit_end = r.submitted_ns.min(exec_start);
    tr.record(op, root, "serve.submit", r.start_ns, submit_end);
    tr.record(op, root, "serve.queue", submit_end, exec_start);
    if o.cached {
        tr.derived(op, root, "serve.cache", exec_start, exec);
        return;
    }
    let (run, _) = tr.derived(op, root, "algorithms.try_run", exec_start, exec);
    let (_, bsp_start) = tr.estimated(
        op,
        run,
        "part.build",
        exec_start,
        Duration::from_secs_f64(part_ms / 1e3),
        exec.saturating_sub(o.metrics.makespan),
    );
    tr.bsp_run(op, run, bsp_start, &o.metrics, warp_share);
}

/// Accumulates the traced phase into the per-layer metrics. Timings are
/// per-call means; counts are sums over the counted prefix.
#[derive(Debug, Default)]
pub struct Layers {
    pub load_ms: Vec<f64>,
    pub load_bytes: u64,
    pub freeze_ms: Vec<f64>,
    pub delta_ops: u64,
    pub part_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub makespan_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub messaging_ms: Vec<f64>,
    pub barrier_ms: Vec<f64>,
    pub supersteps: u64,
    pub counters: UserCounters,
    /// (Σ one-worker oracle makespan, Σ two-worker makespan) of the
    /// same queries.
    pub scaling: (f64, f64),
    pub warp_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    /// (cache hits, cache misses) over the traced phase.
    pub cache: (u64, u64),
    pub install_ms: Vec<f64>,
    pub serve_failed: u64,
    pub dirty_ms: Vec<f64>,
    pub dirty_share: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub inc_compute_calls: u64,
    pub register_ms: Vec<f64>,
}

/// A named, unit-carrying metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl Layers {
    /// Folds one BSP run's metrics in; its counters only when `counted`.
    pub fn bsp(&mut self, metrics: &RunMetrics, counted: bool) {
        let to_ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.makespan_ms.push(to_ms(metrics.makespan));
        self.compute_ms.push(to_ms(metrics.compute_plus));
        self.messaging_ms.push(to_ms(metrics.messaging));
        self.barrier_ms.push(to_ms(metrics.barrier));
        if counted {
            self.supersteps += metrics.supersteps;
            self.counters += metrics.counters;
        }
    }

    /// Folds one serve read in (queue, execution, submit; BSP on a miss).
    pub fn read(&mut self, r: &ReadRec, counted: bool) {
        let Ok(o) = &r.result else {
            return;
        };
        let exec_ms = o.micros as f64 / 1e3;
        self.submit_us
            .push((r.submitted_ns - r.start_ns) as f64 / 1e3);
        self.exec_ms.push(exec_ms);
        self.queue_ms.push(r.latency_ms() - exec_ms);
        if !o.cached {
            self.overhead_ms
                .push(exec_ms - o.metrics.makespan.as_secs_f64() * 1e3);
            self.bsp(&o.metrics, counted);
        }
    }

    /// Every per-layer metric, in `BENCHMARK.json` order, followed by the
    /// ledger's self-time shares. A layer a workload never calls reads 0.
    pub fn metrics(&self, ledger: &ledger::Ledger, trace_overhead: f64) -> Vec<Metric> {
        let c = &self.counters;
        let mut out = vec![
            m("tgraph.load_ms", mean(&self.load_ms), "ms/load"),
            m("tgraph.load_bytes", self.load_bytes as f64, "bytes"),
            m(
                "tgraph.overlay_freeze_ms",
                mean(&self.freeze_ms),
                "ms/batch",
            ),
            m("tgraph.delta_ops", self.delta_ops as f64, "count"),
            m("part.build_ms", mean(&self.part_ms), "ms/op"),
            m("algorithms.overhead_ms", mean(&self.overhead_ms), "ms/op"),
            m("bsp.makespan_ms", mean(&self.makespan_ms), "ms/op"),
            m("bsp.compute_ms", mean(&self.compute_ms), "ms/op"),
            m("bsp.messaging_ms", mean(&self.messaging_ms), "ms/op"),
            m("bsp.barrier_ms", mean(&self.barrier_ms), "ms/op"),
            m("bsp.supersteps", self.supersteps as f64, "count"),
            m("bsp.messages", c.messages_sent as f64, "count"),
            m("bsp.remote_bytes", c.bytes_sent as f64, "bytes"),
            m(
                "bsp.remote_share",
                ratio(c.remote_messages as f64, c.messages_sent as f64),
                "ratio",
            ),
            m(
                "bsp.scaling_2w",
                ratio(self.scaling.0, self.scaling.1),
                "ratio",
            ),
            m("icm.compute_calls", c.compute_calls as f64, "count"),
            m("icm.scatter_calls", c.scatter_calls as f64, "count"),
            m("icm.warp_invocations", c.warp_invocations as f64, "count"),
            m(
                "icm.warp_suppression_share",
                ratio(c.warp_suppressions as f64, c.warp_invocations as f64),
                "ratio",
            ),
            m("icm.warp_ms", mean(&self.warp_ms), "ms/op"),
            m("serve.submit_us", mean(&self.submit_us), "us/query"),
            m("serve.queue_wait_ms", mean(&self.queue_ms), "ms/query"),
            m("serve.exec_ms", mean(&self.exec_ms), "ms/query"),
            m(
                "serve.cache_hit_share",
                ratio(self.cache.0 as f64, (self.cache.0 + self.cache.1) as f64),
                "ratio",
            ),
            m("serve.install_ms", mean(&self.install_ms), "ms/epoch"),
            m("serve.failed", self.serve_failed as f64, "count"),
            m("stream.dirty_ms", mean(&self.dirty_ms), "ms/batch"),
            m("stream.dirty_share", mean(&self.dirty_share), "ratio"),
            m("stream.warm_start_ms", mean(&self.warm_ms), "ms/batch"),
            m(
                "stream.inc_compute_calls",
                self.inc_compute_calls as f64,
                "count",
            ),
            m("stream.register_ms", mean(&self.register_ms), "ms/call"),
        ];
        let share = |layer: &str| {
            ratio(
                ledger.self_ms.get(layer).copied().unwrap_or(0.0),
                ledger.wall_ms,
            )
        };
        for (name, layer) in LEDGER_SHARES {
            out.push(m(name, share(layer), "ratio"));
        }
        out.push(m("ledger.closure_error_max", ledger.worst_closure, "ratio"));
        out.push(m("ledger.trace_overhead_share", trace_overhead, "ratio"));
        out
    }
}

/// The ledger's self-time share metrics and the layer each reads.
const LEDGER_SHARES: [(&str, &str); 8] = [
    ("ledger.tgraph_share", "tgraph"),
    ("ledger.part_share", "part"),
    ("ledger.bsp_share", "bsp"),
    ("ledger.icm_share", "icm"),
    ("ledger.algorithms_share", "algorithms"),
    ("ledger.serve_share", "serve"),
    ("ledger.stream_share", "stream"),
    ("ledger.unattributed_share", "unattributed"),
];
