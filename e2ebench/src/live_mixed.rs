//! `live-mixed`: writes beside reads. The MAG-like profile is cut by
//! `derive_update_stream` into a base graph plus update batches. Each
//! batch is ingested by a `StreamEngine` maintaining BFS, EAT and RH,
//! installed into a `ServeEngine`, and followed by a read burst: a fixed
//! query set issued [`ISSUES`] times, so every issue after the first is a
//! cache hit on the new epoch. Overlay freeze and warm start do the work
//! here and nowhere else.

use crate::common::{
    check_reads, closed_loop, ms, query, read_spans, references, seeded_sources, serve_failures,
    since, Config, Layers, Phase, ReadRec, ALGOS, CLIENTS,
};
use crate::ledger::Tracer;
use crate::Outcome;
use graphite_algorithms::registry::Algo;
use graphite_bsp::metrics::now;
use graphite_datagen::{derive_update_stream, Profile, UpdateStream};
use graphite_part::PartitionStrategy;
use graphite_serve::{QuerySpec, ServeConfig, ServeEngine};
use graphite_stream::engine::{AlgoSpec, StreamConfig, StreamEngine};
use graphite_stream::resume::dirty_vertices;
use graphite_tgraph::delta::GraphDelta;
use graphite_tgraph::graph::{TemporalGraph, VertexId};
use graphite_tgraph::rng::SplitMix64;
use std::sync::Arc;
use std::time::Duration;

/// Independent update streams per pass, each derived from its own
/// sub-seed and cut into half as many (twice as large) batches. A pass
/// over one stream measures that stream's particular growth and its
/// seven sources, and batch costs differed by a third between seeds; a
/// run averages over four.
const STREAMS: usize = 4;

/// Workers per stream maintenance run.
const STREAM_WORKERS: usize = 2;

/// Distinct queries in each read burst.
const BURST_QUERIES: usize = 4;

/// Times each burst query is issued. Three, not two: with two, hits and
/// misses split the reads exactly in half and the median falls in the
/// gap between the two clusters. With three, `read_ms_p50` is a hit and
/// `read_ms_p90` a miss.
const ISSUES: usize = 3;

/// The resident pair one pass over a stream drives.
struct Engines {
    stream: StreamEngine,
    serve: ServeEngine,
}

/// A stream engine over `graph` with `specs` registered (their initial
/// cold runs). Returns it, the initial digests and each `register`'s
/// wall time (ms).
fn register(
    graph: &Arc<TemporalGraph>,
    specs: &[AlgoSpec; 3],
    traced: bool,
) -> Result<(StreamEngine, Vec<u64>, Vec<f64>), String> {
    let cfg = StreamConfig {
        workers: STREAM_WORKERS,
        trace: Config::engine_trace(traced),
        ..StreamConfig::default()
    };
    let mut stream = StreamEngine::new(Arc::clone(graph), cfg);
    let mut digests = Vec::new();
    let mut register_ms = Vec::new();
    for &spec in specs {
        let t = now();
        digests.push(stream.register(spec).map_err(|e| e.to_string())?);
        register_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((stream, digests, register_ms))
}

/// One derived stream with its registered algorithms and burst queries,
/// all from seeded sources of the base graph (updates only insert and
/// extend, so they stay valid), and where a pass over it must end.
struct Input {
    base: Arc<TemporalGraph>,
    batches: Vec<GraphDelta>,
    stream: [AlgoSpec; 3],
    reads: Vec<(Algo, VertexId)>,
    specs: Vec<QuerySpec>,
    expected: PassEnd,
}

impl Input {
    /// Derives the stream and, before anything is measured, the end a
    /// pass must reach: the stream's pinned final digest, which its own
    /// replay must reproduce, and the digests of a cold `register` on the
    /// replayed graph. Only the base and the batches are kept.
    fn new(cfg: &Config, seed: u64, out: &mut Outcome) -> Result<Self, String> {
        let us = derive_update_stream(&Profile::Mag.params(cfg.scale, seed), cfg.batches);
        let s = seeded_sources(&us.base, seed);
        if s.len() < 3 + BURST_QUERIES {
            return Err("base graph has too few sources".to_string());
        }
        let stream = [
            AlgoSpec::Bfs { source: s[0] },
            AlgoSpec::Eat {
                source: s[1],
                start: 0,
            },
            AlgoSpec::Reach {
                source: s[2],
                start: 0,
            },
        ];
        let reads: Vec<(Algo, VertexId)> = (0..BURST_QUERIES)
            .map(|i| (ALGOS[i % ALGOS.len()], s[3 + i]))
            .collect();
        let specs = (0..ISSUES)
            .flat_map(|_| &reads)
            .map(|&(a, v)| query(a, v))
            .collect();
        let replayed = Arc::new(us.replay().map_err(|e| format!("replay: {e}"))?);
        let replayed_digest = replayed.structure_digest();
        if replayed_digest != us.final_digest {
            out.mismatch(format!(
                "replayed structure digest {replayed_digest:#018x} != final_digest {:#018x}",
                us.final_digest
            ));
        }
        let (_, cold, _) = register(&replayed, &stream, false)?;
        let UpdateStream {
            base,
            batches,
            final_digest,
        } = us;
        Ok(Input {
            base: Arc::new(base),
            batches,
            stream,
            reads,
            specs,
            expected: PassEnd {
                structure: final_digest,
                results: cold,
            },
        })
    }

    /// Set-up: the stream engine with its initial cold runs, and the
    /// serving engine, over the base graph. Returns the engines and the
    /// per-`register` wall times (ms).
    fn setup(&self, traced: bool) -> Result<(Engines, Vec<f64>), String> {
        let (stream, _, register_ms) = register(&self.base, &self.stream, traced)?;
        let serve = ServeEngine::new(
            Arc::clone(&self.base),
            ServeConfig {
                max_in_flight: CLIENTS,
                ..ServeConfig::default()
            },
        );
        Ok((Engines { stream, serve }, register_ms))
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut rng = SplitMix64::new(cfg.seed);
    let seeds: Vec<u64> = (0..STREAMS).map(|_| rng.next_u64()).collect();
    let mut out = Outcome::new("batch", "batch_per_s");
    let mut layers = Layers::default();
    let mut tr = Tracer::new(cfg.trace);
    let mut op = 0u64;
    let mut sizes = Vec::new();
    for phase in cfg.phases() {
        let start = now();
        let limit = Duration::from_secs_f64(phase.seconds);
        let mut op_wall = 0.0;
        loop {
            // One stream at a time, so the process holds only what the
            // pass under measurement needs. Every pass sets up afresh.
            for &seed in &seeds {
                let input = Input::new(cfg, seed, &mut out)?;
                out.peak_start();
                let t = now();
                let (engines, register_ms) = input.setup(phase.traced)?;
                out.setup_s.push(t.elapsed().as_secs_f64());
                if phase.traced {
                    layers.register_ms.extend(register_ms);
                }
                let pass = Pass {
                    cfg,
                    phase,
                    input: &input,
                    engines,
                };
                let (end, wall) = pass.drive(&mut out, &mut layers, &mut tr, &mut op)?;
                op_wall += wall;
                if end.structure != input.expected.structure {
                    out.mismatch(format!(
                        "streamed structure digest {:#018x} != final_digest {:#018x}",
                        end.structure, input.expected.structure
                    ));
                }
                if end.results != input.expected.results {
                    out.mismatch(format!(
                        "maintained digests {:x?} != cold {:x?}",
                        end.results, input.expected.results
                    ));
                }
                if sizes.len() < STREAMS {
                    let ops: usize = input.batches.iter().map(|d| d.len()).sum();
                    sizes.push((input.base.num_vertices(), input.base.num_edges(), ops));
                }
            }
            // A traced run's traced phase is exactly one pass, so its
            // counts repeat.
            if phase.traced || start.elapsed() >= limit {
                break;
            }
        }
        if !phase.traced {
            out.op_wall_s = op_wall;
        }
    }
    layers.delta_ops = sizes.iter().map(|s| s.2 as u64).sum();
    let list = |f: fn(&(usize, usize, usize)) -> usize| -> String {
        sizes
            .iter()
            .map(|s| f(s).to_string())
            .collect::<Vec<_>>()
            .join("+")
    };
    out.env.extend([
        ("profile", "mag".to_string()),
        ("scale", cfg.scale.to_string()),
        ("streams", STREAMS.to_string()),
        ("vertices", list(|s| s.0)),
        ("edges", list(|s| s.1)),
        ("batches", format!("{STREAMS}x{}", cfg.batches)),
        ("ops", layers.delta_ops.to_string()),
        ("workers", format!("{STREAM_WORKERS} (stream), 1 (read)")),
        ("in_flight", CLIENTS.to_string()),
    ]);
    out.finish_trace(cfg, tr, &layers);
    Ok(out)
}

/// Where a pass ended: the stream's structure digest and its maintained
/// result digests.
#[derive(Debug, PartialEq, Eq)]
struct PassEnd {
    structure: u64,
    results: Vec<u64>,
}

/// One full pass over one update stream on fresh engines.
struct Pass<'a> {
    cfg: &'a Config,
    phase: Phase,
    input: &'a Input,
    engines: Engines,
}

impl Pass<'_> {
    /// Ingests, installs and reads after every batch; returns where the
    /// stream ended and the wall time of its batches and read bursts.
    fn drive(
        mut self,
        out: &mut Outcome,
        layers: &mut Layers,
        tr: &mut Tracer,
        op: &mut u64,
    ) -> Result<(PassEnd, f64), String> {
        let traced = self.phase.traced;
        let mut results = Vec::new();
        let mut wall = 0.0;
        for delta in &self.input.batches {
            let pre = self.engines.stream.graph();
            let dirty_ms = if traced {
                let t = now();
                std::hint::black_box(dirty_vertices(&pre, delta));
                t.elapsed().as_secs_f64() * 1e3
            } else {
                0.0
            };
            out.attempted += 1;
            let start_ns = since(self.cfg.origin);
            let report = self
                .engines
                .stream
                .ingest(delta)
                .map_err(|e| format!("batch {}: {e}", self.engines.stream.batches() + 1))?;
            let ingested_ns = since(self.cfg.origin);
            let graph = self.engines.stream.graph();
            let install_ns = since(self.cfg.origin);
            self.engines.serve.install_graph(graph);
            let end_ns = since(self.cfg.origin);
            results = report.algos.iter().map(|a| a.result_digest).collect();
            if traced {
                out.traced_op_ms.push(ms(end_ns - start_ns));
                let extra = |key: &str| -> u64 {
                    report
                        .extras
                        .iter()
                        .filter(|(k, _)| *k == key)
                        .map(|(_, v)| v)
                        .sum()
                };
                let (apply, warm) = (extra("stream_apply_ns"), extra("stream_incremental_ns"));
                layers.dirty_ms.push(dirty_ms);
                layers
                    .dirty_share
                    .push(report.dirty as f64 / pre.num_vertices() as f64);
                layers.freeze_ms.push(ms(apply));
                layers.warm_ms.push(ms(warm));
                layers.install_ms.push(ms(end_ns - install_ns));
                layers.inc_compute_calls +=
                    report.algos.iter().map(|a| a.compute_calls).sum::<u64>();
                let id = *op;
                *op += 1;
                let root = tr.record(id, None, "op.batch", start_ns, end_ns);
                let ingest = tr.record(id, root, "stream.ingest", start_ns, ingested_ns);
                let (_, t) = tr.estimated(
                    id,
                    ingest,
                    "stream.dirty",
                    start_ns,
                    Duration::from_secs_f64(dirty_ms / 1e3),
                    Duration::from_nanos(
                        (ingested_ns - start_ns).saturating_sub(apply.saturating_add(warm)),
                    ),
                );
                let (_, t) =
                    tr.derived(id, ingest, "tgraph.freeze", t, Duration::from_nanos(apply));
                tr.derived(
                    id,
                    ingest,
                    "stream.warm_start",
                    t,
                    Duration::from_nanos(warm),
                );
                tr.record(id, root, "serve.install", install_ns, end_ns);
            } else {
                out.op_ms.push(ms(end_ns - start_ns));
            }
            wall += ms(end_ns - start_ns) / 1e3 + self.burst(out, layers, tr, op)?;
        }
        layers.serve_failed += serve_failures(&self.engines.serve.stats());
        let end = PassEnd {
            structure: self.engines.stream.structure_digest(),
            results,
        };
        Ok((end, wall))
    }

    /// The read burst after one install, then its verification against
    /// oracle runs on the freshly installed graph.
    fn burst(
        &self,
        out: &mut Outcome,
        layers: &mut Layers,
        tr: &mut Tracer,
        op: &mut u64,
    ) -> Result<f64, String> {
        let serve = &self.engines.serve;
        let before = serve.stats();
        let (recs, wall): (Vec<ReadRec>, f64) =
            closed_loop(serve, &self.input.specs, Duration::MAX, 0, self.cfg.origin);
        let after = serve.stats();
        out.peak_stop();
        out.attempted += recs.len() as u64;
        for r in &recs {
            match &r.result {
                Ok(_) if self.phase.traced => out.traced_read_ms.push(r.latency_ms()),
                Ok(_) => out.read_ms.push(r.latency_ms()),
                Err(e) => out.fail(format!("read {}: {e}", r.idx)),
            }
        }
        let graph = serve.graph();
        let refs = references(&graph, &self.input.reads, self.phase.traced)?;
        out.mismatches
            .extend(check_reads(&recs, |idx| refs[idx % BURST_QUERIES]));
        if self.phase.traced {
            layers.cache.0 += after.cache_hits - before.cache_hits;
            layers.cache.1 += after.cache_misses - before.cache_misses;
            let t = now();
            PartitionStrategy::Hash
                .build(&graph, 1)
                .map_err(|e| e.to_string())?;
            let part_ms = t.elapsed().as_secs_f64() * 1e3;
            for r in &recs {
                let oracle = refs[r.idx % BURST_QUERIES];
                if matches!(&r.result, Ok(o) if !o.cached) {
                    layers.part_ms.push(part_ms);
                    layers.warp_ms.push(oracle.warp_ms);
                }
                layers.read(r, true);
                read_spans(tr, *op, r, part_ms, oracle.warp_share);
                *op += 1;
            }
        }
        out.peak_start();
        Ok(wall)
    }
}
