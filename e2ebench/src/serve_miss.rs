//! `serve-miss`: a resident `ServeEngine` over the run-cold graph, loaded
//! once, under a closed loop of two clients against two executors. Every
//! query starts from a distinct seeded source, so the result cache never
//! hits: BSP compute, exchange and per-query set-up do all the work.

use crate::common::{
    check_reads, closed_loop, query, read_spans, references, serve_failures, Config, Layers,
    TgInput, ALGOS, CLIENTS,
};
use crate::ledger::Tracer;
use crate::Outcome;
use graphite_algorithms::registry::Algo;
use graphite_bsp::metrics::now;
use graphite_part::PartitionStrategy;
use graphite_serve::{QuerySpec, ServeConfig, ServeEngine};
use graphite_tgraph::graph::VertexId;
use std::sync::Arc;
use std::time::Duration;

/// Executor threads of the resident engine.
const EXECUTORS: usize = 2;

/// Set-ups per phase: the resident engine's own, then one after each of
/// the chunks verification is cut into. Verification lasts about as long
/// as the loop, so the samples are spread over the run rather than made
/// back to back, and see the same swings of host speed as the queries.
const SETUPS: usize = 8;

/// Set-up: the resident load and the engine over it.
fn setup(input: &TgInput, layers: &mut Layers, traced: bool) -> Result<ServeEngine, String> {
    let t = now();
    let g = input.load()?;
    if traced {
        layers.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let cfg = ServeConfig {
        max_in_flight: EXECUTORS,
        ..ServeConfig::default()
    };
    Ok(ServeEngine::new(Arc::new(g), cfg))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let input = TgInput::generate(cfg, "serve-miss")?;
    let mut out = Outcome::new("serve", "serve_qps");
    let mut layers = Layers {
        load_bytes: input.bytes,
        ..Layers::default()
    };
    let queries: Vec<(Algo, VertexId)> = input
        .sources
        .iter()
        .enumerate()
        .map(|(i, &s)| (ALGOS[i % ALGOS.len()], s))
        .collect();
    let specs: Vec<QuerySpec> = queries.iter().map(|&(a, s)| query(a, s)).collect();
    let mut tr = Tracer::new(cfg.trace);
    for phase in cfg.phases() {
        out.peak_start();
        let t = now();
        let engine = setup(&input, &mut layers, phase.traced)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        let min_ops = if phase.traced { cfg.counted } else { 1 };
        let limit = Duration::from_secs_f64(phase.seconds);
        let (recs, wall) = closed_loop(&engine, &specs, limit, min_ops, cfg.origin);
        out.peak_stop();
        out.attempted += recs.len() as u64;
        for r in &recs {
            if let Err(e) = &r.result {
                out.fail(format!("query {}: {e}", r.idx));
            }
        }
        let latencies = recs
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.latency_ms());
        if phase.traced {
            out.traced_op_ms.extend(latencies);
        } else {
            out.op_ms.extend(latencies);
            out.op_wall_s = wall;
        }

        // Verification, outside the timed region, with the remaining
        // set-ups timed between its chunks.
        if engine.graph_digest() != input.digest {
            out.mismatch("resident graph differs from the generated one".to_string());
        }
        let stats = engine.stats();
        if stats.cache_hits != 0 {
            out.mismatch(format!(
                "{} cache hits on distinct queries",
                stats.cache_hits
            ));
        }
        let graph = engine.graph();
        let issued = &queries[..recs.len()];
        let mut refs = Vec::with_capacity(issued.len());
        for chunk in issued.chunks(issued.len().div_ceil(SETUPS - 1).max(1)) {
            refs.extend(references(&graph, chunk, phase.traced)?);
            let t = now();
            drop(setup(&input, &mut layers, phase.traced)?);
            out.setup_s.push(t.elapsed().as_secs_f64());
        }
        out.mismatches.extend(check_reads(&recs, |idx| refs[idx]));
        if !phase.traced {
            continue;
        }
        layers.cache = (stats.cache_hits, stats.cache_misses);
        layers.serve_failed = serve_failures(&stats);
        for (r, oracle) in recs.iter().zip(&refs) {
            let t = now();
            PartitionStrategy::Hash
                .build(&graph, 1)
                .map_err(|e| e.to_string())?;
            let part_ms = t.elapsed().as_secs_f64() * 1e3;
            layers.part_ms.push(part_ms);
            layers.warp_ms.push(oracle.warp_ms);
            layers.read(r, r.idx < cfg.counted);
            read_spans(&mut tr, r.idx as u64, r, part_ms, oracle.warp_share);
        }
    }
    out.env.extend(input.env(cfg));
    out.env.extend([
        ("workers", "1".to_string()),
        ("in_flight", CLIENTS.to_string()),
        ("executors", EXECUTORS.to_string()),
    ]);
    out.finish_trace(cfg, tr, &layers);
    Ok(out)
}
