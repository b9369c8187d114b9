//! `run-cold`: the `graphite run` path. Sequential cold jobs, each
//! loading the graph from its `.tg` file and running one ICM traversal
//! with two workers. Parse and freeze dominate; serve and stream are
//! bypassed.

use crate::common::{ms, ref_run, since, Config, Layers, TgInput, ALGOS};
use crate::ledger::{self, Tracer};
use crate::stats::ratio;
use crate::Outcome;
use graphite_algorithms::registry::{try_run, Platform, RunOpts};
use graphite_bsp::metrics::now;
use graphite_part::PartitionStrategy;
use std::sync::Arc;
use std::time::Duration;

/// Workers per job.
const WORKERS: usize = 2;

/// Seconds of jobs between two set-ups. Set-ups are spread over the run
/// rather than made back to back at its start, so `setup_s` sees the
/// same swings of host speed as the jobs.
const SETUP_EVERY_S: f64 = 2.0;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let input = TgInput::generate(cfg, "run-cold")?;
    let mut out = Outcome::new("job", "job_per_s");
    let mut layers = Layers {
        load_bytes: input.bytes,
        ..Layers::default()
    };
    let mut tr = Tracer::new(cfg.trace);
    let mut op = 0u64;
    for phase in cfg.phases() {
        let trace = Config::engine_trace(phase.traced);
        // Seconds spent in jobs, and when the next set-up is due.
        let mut measured = 0.0;
        let mut next_setup = 0.0;
        for (seq, &source) in input.sources.iter().enumerate() {
            let counting = phase.traced && seq < cfg.counted;
            if seq > 0 && !counting && measured >= phase.seconds {
                break;
            }
            out.peak_start();
            if measured >= next_setup {
                // Set-up: the program's load of its input, before a job.
                let t = now();
                drop(input.load()?);
                out.setup_s.push(t.elapsed().as_secs_f64());
                if phase.traced {
                    layers.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                next_setup += SETUP_EVERY_S;
            }
            let algo = ALGOS[seq % ALGOS.len()];
            out.attempted += 1;
            let start_ns = since(cfg.origin);
            let g = match input.load() {
                Ok(g) => Arc::new(g),
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            let loaded_ns = since(cfg.origin);
            let opts = RunOpts {
                workers: WORKERS,
                source: Some(source),
                trace,
                ..Default::default()
            };
            let run_ns = since(cfg.origin);
            let run = try_run(algo, Platform::Icm, &g, None, &opts);
            let end_ns = since(cfg.origin);
            out.peak_stop();
            measured += ms(end_ns - start_ns) / 1e3;
            let job = match run {
                Ok(o) => o,
                Err(e) => {
                    out.fail(format!("job {} from {source:?}: {e}", algo.name()));
                    continue;
                }
            };
            if phase.traced {
                out.traced_op_ms.push(ms(end_ns - start_ns));
            } else {
                out.op_ms.push(ms(end_ns - start_ns));
            }

            // Verification, outside the timed region: the loaded graph
            // must be the generated one, and the job's digest that of the
            // one-worker oracle on it.
            if g.structure_digest() != input.digest {
                out.mismatch(format!(
                    "job {seq}: loaded graph differs from the generated one"
                ));
            }
            let oracle = ref_run(&g, algo, source, false)?;
            let digest = job.digest.map_or(0, |d| d.0);
            if digest != oracle.digest {
                out.mismatch(format!(
                    "job {} from {source:?}: digest {digest:#018x} != reference {:#018x}",
                    algo.name(),
                    oracle.digest
                ));
            }
            let makespan = job.metrics.makespan;
            layers.scaling.0 += oracle.makespan_ms;
            layers.scaling.1 += makespan.as_secs_f64() * 1e3;
            if !phase.traced {
                continue;
            }
            let t = now();
            PartitionStrategy::Hash
                .build(&g, WORKERS)
                .map_err(|e| e.to_string())?;
            let part_ms = t.elapsed().as_secs_f64() * 1e3;
            let (warp, compute) = ledger::warp_split(&job.metrics);
            layers.warp_ms.push(ms(warp));
            layers.part_ms.push(part_ms);
            layers.load_ms.push(ms(loaded_ns - start_ns));
            layers
                .overhead_ms
                .push(ms(end_ns - run_ns) - makespan.as_secs_f64() * 1e3);
            layers.bsp(&job.metrics, counting);
            // Each child ends at its own timestamp and the next starts at
            // a fresh one, so the glue between calls stays unattributed.
            let root = tr.record(op, None, "op.job", start_ns, end_ns);
            tr.record(op, root, "tgraph.load", start_ns, loaded_ns);
            let run = tr.record(op, root, "algorithms.try_run", run_ns, end_ns);
            let (_, bsp_start) = tr.estimated(
                op,
                run,
                "part.build",
                run_ns,
                Duration::from_secs_f64(part_ms / 1e3),
                Duration::from_nanos(end_ns - run_ns).saturating_sub(makespan),
            );
            tr.bsp_run(
                op,
                run,
                bsp_start,
                &job.metrics,
                ratio(warp as f64, compute as f64),
            );
            op += 1;
        }
        if !phase.traced {
            out.op_wall_s = measured;
        }
    }
    out.env.extend(input.env(cfg));
    out.env.extend([
        ("workers", WORKERS.to_string()),
        ("in_flight", "1".to_string()),
    ]);
    out.finish_trace(cfg, tr, &layers);
    Ok(out)
}
