//! End-to-end benchmark of the graphite run, serve and stream entry
//! points, with a per-layer cost ledger from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <run-cold|serve-miss|live-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `graphite-datagen` with the seed. Every job, query
//! and stream result is checked against a reference run outside the timed
//! region. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it records the environment and the
//! spread of every timed sample. See `e2ebench/README.md` for what each
//! workload and metric is for.

mod common;
mod ledger;
mod live_mixed;
mod run_cold;
mod serve_miss;
mod stats;

use common::{Config, Layers, Metric};
use graphite_bsp::metrics::now;
use stats::{summarize, Summary};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory (relative to the working directory) for inputs and spans.
const OUT_DIR: &str = ".bench_out";

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["run-cold", "serve-miss", "live-mixed"];

/// What one workload run measured and verified.
#[derive(Debug)]
pub struct Outcome {
    /// Workload-specific names for the headline operation (`job`, `serve`,
    /// `batch`) and its rate (`job_per_s`, `serve_qps`, `batch_per_s`).
    op_name: &'static str,
    rate_name: &'static str,
    pub attempted: u64,
    /// Typed failures, rendered.
    pub failures: Vec<String>,
    /// Result mismatches against the references (and broken invariants).
    pub mismatches: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Headline-operation latencies of the untraced phase, ms.
    pub op_ms: Vec<f64>,
    /// The same in the traced phase.
    pub traced_op_ms: Vec<f64>,
    /// Wall time of the untraced phase's operation loop, s.
    pub op_wall_s: f64,
    /// Read latencies beside the updates (live-mixed only), ms.
    pub read_ms: Vec<f64>,
    pub traced_read_ms: Vec<f64>,
    /// Largest `VmHWM` over the measured stretches, MiB.
    pub peak_rss_mb: f64,
    /// Whether every stretch could reset the peak mark; if not, the peak
    /// also counts input generation and verification.
    peak_resets: bool,
    pub env: Vec<(&'static str, String)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    pub fn new(op_name: &'static str, rate_name: &'static str) -> Self {
        Outcome {
            op_name,
            rate_name,
            attempted: 0,
            failures: Vec::new(),
            mismatches: Vec::new(),
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            op_wall_s: 0.0,
            read_ms: Vec::new(),
            traced_read_ms: Vec::new(),
            peak_rss_mb: 0.0,
            peak_resets: true,
            env: Vec::new(),
            layers: Vec::new(),
        }
    }

    pub fn fail(&mut self, e: String) {
        self.failures.push(e);
    }

    pub fn mismatch(&mut self, e: String) {
        self.mismatches.push(e);
    }

    /// Opens a measured stretch (set-up and operations): the peak-RSS
    /// mark restarts from the current RSS, so the benchmark's own work
    /// before it — input generation, verification — does not count.
    pub fn peak_start(&mut self) {
        self.peak_resets &= common::reset_peak_rss();
    }

    /// Closes a measured stretch, before verification: folds its peak in.
    pub fn peak_stop(&mut self) {
        self.peak_rss_mb = self.peak_rss_mb.max(common::peak_rss_mb());
    }

    /// Traced runs: checks the ledger, derives the per-layer metrics and
    /// writes the spans out.
    pub fn finish_trace(&mut self, cfg: &Config, tr: ledger::Tracer, layers: &Layers) {
        if !cfg.trace {
            return;
        }
        let l = ledger::analyze(&tr.spans);
        if l.ops == 0 {
            self.mismatch("traced phase recorded no operation".to_string());
        }
        if l.violations > 0 {
            self.mismatch(format!(
                "ledger: {} of {} operations do not add up within {} (worst {:.4})",
                l.violations,
                l.ops,
                ledger::LEDGER_TOLERANCE,
                l.worst_closure
            ));
        }
        // Both phases issue the same sequence: compare its common prefix.
        let n = self.op_ms.len().min(self.traced_op_ms.len());
        let p50 = |xs: &[f64]| summarize(&xs[..n]).map_or(0.0, |s| s.p50);
        let overhead = stats::ratio(p50(&self.traced_op_ms), p50(&self.op_ms)) - 1.0;
        self.layers = layers.metrics(&l, overhead);
        let path = cfg.out_dir.join(format!(
            "spans-{}-{}-{}.jsonl",
            self.op_name,
            cfg.seed,
            std::process::id()
        ));
        if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
            self.mismatch(format!("writing {}: {e}", path.display()));
        }
        self.env.push(("spans", path.display().to_string()));
    }

    /// The end-to-end metrics (`BENCHMARK.json` order).
    fn end_to_end(&self) -> Vec<Metric> {
        let p50 = |xs: &[f64]| summarize(xs).map_or(0.0, |s| s.p50);
        vec![
            Metric {
                name: "setup_s",
                value: p50(&self.setup_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: self.peak_rss_mb,
                unit: "MiB",
            },
            Metric {
                name: "op_ms_p50",
                value: p50(&self.op_ms),
                unit: "ms",
            },
            Metric {
                name: "ops_per_s",
                value: stats::ratio(self.op_ms.len() as f64, self.op_wall_s),
                unit: "1/s",
            },
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload.
fn run_workload(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    match workload {
        "run-cold" => run_cold::run(cfg),
        "serve-miss" => serve_miss::run(cfg),
        "live-mixed" => live_mixed::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\":{},\"q1\":{},\"p50\":{},\"q3\":{},\"p90\":{}}}",
        s.n,
        json_num(s.q1),
        json_num(s.p50),
        json_num(s.q3),
        s.p90.map_or("null".to_string(), json_num)
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Prints the human-readable report, the environment/spread line and the
/// result line; returns whether every check passed.
fn report(args: &Args, cfg: &Config, out: &Outcome) -> bool {
    let w = &args.workload;
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(1);
    for f in &out.failures {
        println!("{w}: failed: {f}");
    }
    for m in &out.mismatches {
        println!("{w}: MISMATCH: {m}");
    }
    // Workload-specific names for the timed samples, with their spread.
    let mut spread = Vec::new();
    let mut named = |name: String, xs: &[f64], unit: &str| {
        if let Some(s) = summarize(xs) {
            let p90 = s
                .p90
                .map_or(String::new(), |p| format!(", {name}_p90 = {p:.3} {unit}"));
            println!(
                "{w}: {name}_p50 = {:.3} {unit}{p90} (n = {}, q1 = {:.3}, q3 = {:.3})",
                s.p50, s.n, s.q1, s.q3
            );
            spread.push(format!("{}:{}", json_str(&name), summary_json(&s)));
        }
    };
    named("setup_s".to_string(), &out.setup_s, "s");
    named(format!("{}_ms", out.op_name), &out.op_ms, "ms");
    named("read_ms".to_string(), &out.read_ms, "ms");
    if cfg.trace {
        named(
            format!("traced_{}_ms", out.op_name),
            &out.traced_op_ms,
            "ms",
        );
        named("traced_read_ms".to_string(), &out.traced_read_ms, "ms");
    }
    let rate = stats::ratio(out.op_ms.len() as f64, out.op_wall_s);
    println!("{w}: {} = {rate:.3} 1/s", out.rate_name);
    println!("{w}: peak_rss_mb = {:.1} MiB", out.peak_rss_mb);
    println!(
        "{w}: failed_share = {} ratio ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    let e2e = out.end_to_end();
    let shown = if cfg.trace { &out.layers } else { &e2e };
    for m in shown {
        println!("{w}: {} = {} {}", m.name, json_num(m.value), m.unit);
    }

    let mut env: Vec<String> = vec![
        format!("\"workload\":{}", json_str(w)),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", json_num(args.seconds)),
        format!("\"trace\":{}", args.trace),
        format!(
            "\"nproc\":{}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!(
            "\"build_profile\":{}",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            })
        ),
    ];
    env.push(format!(
        "\"peak_rss_window\":{}",
        json_str(if out.peak_resets {
            "measured stretches"
        } else {
            "process lifetime"
        })
    ));
    env.extend(
        out.env
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))),
    );
    println!(
        "{{\"env\":{{{}}},\"spread\":{{{}}}}}",
        env.join(","),
        spread.join(",")
    );
    let correct = out.mismatches.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(shown)
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: 4,
        batches: 16,
        counted: 8,
        out_dir: PathBuf::from(OUT_DIR),
        origin: now(),
    };
    match run_workload(&args.workload, &cfg) {
        Ok(out) if report(&args, &cfg, &out) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2ebench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke scale: the smallest profiles, three batches, half a second
    /// per phase.
    fn smoke(workload: &str, seed: u64) -> Outcome {
        let cfg = Config {
            seed,
            seconds: 0.5,
            trace: true,
            scale: 1,
            batches: 3,
            counted: 4,
            out_dir: PathBuf::from(OUT_DIR),
            origin: now(),
        };
        let out = run_workload(workload, &cfg).expect("workload runs");
        assert!(
            out.mismatches.is_empty(),
            "{workload}: {:?}",
            out.mismatches
        );
        assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
        out
    }

    fn layer(out: &Outcome, name: &str) -> f64 {
        out.layers
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no per-layer metric {name}"))
            .value
    }

    #[test]
    fn workloads_verify_close_their_ledger_and_split_the_cache() {
        for workload in WORKLOADS {
            let out = smoke(workload, 3);
            for m in out.end_to_end() {
                assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
            }
            let closure = layer(&out, "ledger.closure_error_max");
            assert!(closure <= ledger::LEDGER_TOLERANCE, "{workload}: {closure}");
            let hits = layer(&out, "serve.cache_hit_share");
            match workload {
                "serve-miss" => assert_eq!(hits, 0.0),
                "live-mixed" => assert!(hits > 0.0),
                _ => {}
            }
        }
    }

    #[test]
    fn counts_repeat_for_a_seed() {
        for workload in WORKLOADS {
            let counts = |out: &Outcome| -> Vec<(&'static str, f64)> {
                out.layers
                    .iter()
                    .filter(|m| m.unit == "count" || m.unit == "bytes")
                    .map(|m| (m.name, m.value))
                    .collect()
            };
            let first = counts(&smoke(workload, 9));
            assert!(first.iter().any(|&(_, v)| v > 0.0), "{workload}");
            assert_eq!(first, counts(&smoke(workload, 9)), "{workload}");
        }
    }

    /// `"name"` values from the `from` key to the `to` key (or the end).
    fn names(text: &str, from: &str, to: Option<&str>) -> Vec<String> {
        let start = text.find(from).expect("section present");
        let end = to.map_or(text.len(), |to| text.find(to).expect("section present"));
        let section = &text[start..end];
        section
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_emit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            names(&text, "\"workloads\"", Some("\"end_to_end\"")),
            WORKLOADS
        );
        let e2e: Vec<&str> = Outcome::new("op", "rate")
            .end_to_end()
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names(&text, "\"end_to_end\"", Some("\"per_layer\"")), e2e);
        let per_layer: Vec<&str> = Layers::default()
            .metrics(&ledger::Ledger::default(), 0.0)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names(&text, "\"per_layer\"", None), per_layer);
    }
}
