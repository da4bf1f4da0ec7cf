//! perfbench: the repository benchmark.
//!
//! Runs one workload of the reacked-quicer stack for a host-time budget,
//! checks every simulated outcome against digests recorded from the seed
//! code, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`), ending with one JSON
//! line. README.md describes the workloads and every metric.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload <name> --record <first-seed> <last-seed>
//! ```

mod bulk;
mod layers;
mod matrix;
mod measure;
mod reference;
mod runs;
mod scan;
mod server_load;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rq_par::{ProfileReport, ProfileSink, SweepRunner};

use layers::{layer, StackCounts, LAYER_METRICS};
use measure::{iqr_share, median, ratio};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

const WORKLOADS: [&str; 4] = [
    "handshake_matrix",
    "bulk_transfer",
    "server_load",
    "wild_scan",
];

const USAGE: &str = "usage: perfbench --workload <handshake_matrix|bulk_transfer|server_load|wild_scan> \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --workload <name> --record <first-seed> <last-seed>";

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one pass over a workload's fixed operation set produced.
pub struct Pass {
    /// Host seconds of the pass (the sweep only, not the checks).
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// One digest per reference unit.
    pub digests: Vec<u32>,
    /// Operations behind each digest.
    pub unit_ops: Vec<u64>,
    /// Connections that completed (wild_scan: successful probe
    /// handshakes).
    pub conns: u64,
    /// Host ms of each individually timed operation, in operation order
    /// (empty where operations are not timed one by one).
    pub op_ms: Vec<f64>,
    pub counts: StackCounts,
}

/// One workload: its inputs, built from the seed, and how to run them.
pub trait Workload {
    /// Runs a small slice of the workload so lazy set-up and page faults
    /// land in set-up, not in the first pass.
    fn warm_up(&mut self, runner: &SweepRunner);
    /// One pass over every operation. A traced pass also keeps what the
    /// layer metrics replay.
    fn pass(&mut self, runner: &SweepRunner, traced: bool) -> Pass;
    /// End-to-end metrics only this workload has, from untraced passes.
    fn extra_metrics(&self, passes: &[Pass]) -> Vec<Metric>;
    /// Layer metrics from the traced passes and their sweep profile.
    fn layer_metrics(&mut self, traced: &[Pass], profile: &ProfileReport) -> Vec<Metric>;
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "handshake_matrix" => Box::new(matrix::Matrix::new(seed)),
        "bulk_transfer" => Box::new(bulk::Bulk::new(seed)),
        "server_load" => Box::new(server_load::ServerLoad::new(seed)),
        "wild_scan" => Box::new(scan::Scan::new(seed)),
        other => unreachable!("unknown workload {other} passed argument checks"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = value(&mut it, &flag)?,
            "--seed" => args.seed = number(value(&mut it, &flag)?, &flag)?,
            "--seconds" => {
                let v = value(&mut it, &flag)?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {v:?} is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is not 0 or 1")),
                }
            }
            "--record" => {
                let first = number(value(&mut it, &flag)?, &flag)?;
                let last = number(value(&mut it, &flag)?, &flag)?;
                args.record = Some((first, last));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// A JSON number with every digit Rust prints for `v`; non-finite values
/// (a ratio of nothing) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = rq_par::available_parallelism();
    let workers = rq_par::threads_from_env().min(cores);
    let runner = SweepRunner::new(workers);

    if let Some((first, last)) = args.record {
        for seed in first..=last {
            let pass = build(&args.workload, seed).pass(&runner, false);
            println!("{}", reference::line(seed, &pass.digests));
        }
        return ExitCode::SUCCESS;
    }

    // Set-up, several times; each builds the inputs from the seed and
    // warms up. The previous inputs are freed first so peak RSS holds
    // one copy.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let mut w = build(&args.workload, args.seed);
        w.warm_up(&runner);
        setups.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up ran");

    // Timed section: whole passes while another round still fits in the
    // budget, so a run never outlasts `--seconds` by a pass. A traced
    // run alternates untraced and traced passes, so the tracing overhead
    // is measured under the same conditions.
    let sink = Arc::new(ProfileSink::new());
    let traced_runner = runner.clone().with_profile(sink.clone());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let round = Instant::now();
        plain.push(w.pass(&runner, false));
        if args.trace {
            traced.push(w.pass(&traced_runner, true));
        }
        let round_s = round.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + round_s > args.seconds {
            break;
        }
    }

    // Correctness: every unit of every pass against the recorded
    // reference, or against the first pass for an unrecorded seed.
    let expected = reference::lookup(&args.workload, args.seed);
    let base = expected.clone().unwrap_or_else(|| plain[0].digests.clone());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in plain.iter().chain(&traced) {
        for (unit, (digest, ops)) in p.digests.iter().zip(&p.unit_ops).enumerate() {
            attempted += ops;
            if base.get(unit) != Some(digest) || p.digests.len() != base.len() {
                failed += ops;
            }
        }
    }

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance available_parallelism={cores} workers={workers} git={} rustc=\"{}\" profile=\"{}\"",
        measure::git_revision(),
        measure::RUSTC,
        measure::PROFILE
    );
    println!(
        "trials passes={} traced_passes={} pass_wall_median_s={:.4} pass_wall_iqr_share={:.4} setup_repeats={SETUP_REPEATS}",
        plain.len(),
        traced.len(),
        median(&walls),
        iqr_share(&walls)
    );
    match &expected {
        Some(_) => println!("reference recorded digests for seed {}", args.seed),
        None => {
            println!(
                "reference none recorded for seed {}: checked that every pass repeats the first",
                args.seed
            );
            eprintln!(
                "perfbench: no recorded reference for seed {}; outputs checked for determinism only",
                args.seed
            );
        }
    }

    let metrics: Vec<Metric> = if args.trace {
        let profile = sink.report();
        let mut found = w.layer_metrics(&traced, &profile);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        found.push(layer(
            "trace.overhead_share",
            ratio(median(&traced_walls), median(&walls)) - 1.0,
        ));
        let metrics: Vec<Metric> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = found
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect();
        println!("per-layer metrics (0 = layer not exercised by this workload):");
        print_metrics(&metrics);
        metrics
    } else {
        let cpus: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
        let rates: Vec<f64> = plain
            .iter()
            .map(|p| ratio(p.conns as f64, p.wall_s))
            .collect();
        let metrics = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("wall_s", median(&walls), "s"),
            Metric::new("cpu_s", median(&cpus), "s"),
            Metric::new("conns_per_s", median(&rates), "1/s"),
            Metric::new("peak_rss_mb", measure::peak_rss_mib(), "MiB"),
        ];
        println!("end-to-end metrics:");
        print_metrics(&metrics);
        let mut extra = w.extra_metrics(&plain);
        extra.push(Metric::new(
            "failed_share",
            ratio(failed as f64, attempted as f64),
            "share",
        ));
        println!("workload-specific end-to-end metrics:");
        print_metrics(&extra);
        metrics
    };

    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {failed} of {attempted} operations differ from the reference");
        ExitCode::FAILURE
    }
}
