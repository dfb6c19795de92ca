//! Host-time and simulated-cycle benchmark for the Shadow Block ORAM
//! workspace.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `replay-dyn-tp` and `serve-sharded` (see `README.md`
//! beside this crate for why each exists and what each layer metric is
//! predicted to move). With `--trace 0` the run prints
//! every end-to-end metric; with `--trace 1` a separate traced run
//! prints every per-layer metric. Either way the last line of standard
//! output is one JSON object, and the exit code is non-zero when any
//! correctness check fails.

mod replay;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::sync::Arc;

use oram_sim::SimStats;

use trace::{Breakdown, Tracer};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// A seed never used while tuning the benchmark, kept back so a later
/// claim can be checked on data it was not tuned on.
const HELD_BACK_SEED: u64 = 7919;
/// Largest host-time conservation error accepted in a traced run, as a
/// share of the traced wall time.
const CONSERVATION_TOLERANCE: f64 = 0.01;
/// Spans written to the span file at exit.
const SPANS_WRITTEN: usize = 100_000;

const WORKLOADS: [&str; 2] = ["replay-dyn-tp", "serve-sharded"];

/// One metric as printed.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (a percentile's population).
    samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    checks: Vec<(&'static str, Result<(), String>)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused (admission rejections).
    pub rejected: u64,
    /// Digest over every simulated-result field.
    pub digest: u64,
    /// The traced run's spans, written at exit.
    pub spans: Option<Arc<Tracer>>,
    conservation: Option<(f64, f64)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Records layers this workload's path does not call, as 0 with no
    /// samples.
    pub fn not_exercised(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            self.metric(name, 0.0, unit, 0);
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &'static str, verdict: Result<(), String>) {
        self.checks.push((name, verdict));
    }

    /// Records and checks host-time conservation of a traced region.
    pub fn conservation(&mut self, b: &Breakdown, outside_wall_ns: u64) {
        let err = b.conservation_error(outside_wall_ns);
        self.conservation = Some((err, b.parallel_ns as f64 / b.wall_ns.max(1) as f64));
        self.check(
            "host_time_conservation",
            if err <= CONSERVATION_TOLERANCE {
                Ok(())
            } else {
                Err(format!("layer self times miss the wall time by {:.3}%", err * 100.0))
            },
        );
    }

    fn failed_checks(&self) -> u64 {
        self.checks.iter().filter(|(_, v)| v.is_err()).count() as u64
    }
}

/// Eq. 1: total = data + DRI, exactly, with data inside total.
pub fn check_eq1(s: &SimStats) -> Result<(), String> {
    if s.data_cycles <= s.total_cycles && s.data_cycles + s.dri_cycles == s.total_cycles {
        Ok(())
    } else {
        Err(format!("total {} != data {} + dri {}", s.total_cycles, s.data_cycles, s.dri_cycles))
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("replay-dyn-tp", false) => replay::run(&replay::DYN_TP, args.seed, args.seconds),
        ("replay-dyn-tp", true) => replay::run_traced(&replay::DYN_TP, args.seed, args.seconds),
        (_, false) => serve::run(args.seed, args.seconds),
        (_, true) => serve::run_traced(args.seed, args.seconds),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let (nproc, rustc, cpu) = stats::fingerprint();
    let failed = outcome.rejected + outcome.failed_checks();
    let correct = outcome.failed_checks() == 0;
    let mut human = String::new();
    let _ = writeln!(
        human,
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        human,
        "machine: nproc {nproc}, {rustc}, cpu \"{cpu}\"; held-back seed {HELD_BACK_SEED}{}",
        if args.seed == HELD_BACK_SEED { " (this run)" } else { "" }
    );
    let _ = writeln!(human, "sim_digest {:016x}", outcome.digest);
    for m in &outcome.metrics {
        let _ = writeln!(human, "  {:<32} {:>18.6} {:<9} n={}", m.name, m.value, m.unit, m.samples);
    }
    let _ = writeln!(
        human,
        "  {:<32} {:>18.6} {:<9} n={}",
        "error_rate",
        failed as f64 / outcome.attempted.max(1) as f64,
        "fraction",
        outcome.attempted
    );
    if let Some((err, parallel)) = outcome.conservation {
        let _ = writeln!(
            human,
            "host-time conservation: error {:.4}% (tolerance {:.1}%), parallel overlap {:.2}% of wall",
            err * 100.0,
            CONSERVATION_TOLERANCE * 100.0,
            parallel * 100.0
        );
    }
    for (name, verdict) in &outcome.checks {
        let _ = match verdict {
            Ok(()) => writeln!(human, "check {name}: ok"),
            Err(e) => writeln!(human, "check {name}: FAILED: {e}"),
        };
    }
    print!("{human}");
    if let Some(tracer) = &outcome.spans {
        let path = std::path::PathBuf::from("perfbench-out")
            .join(format!("spans_{}_seed{}.csv", args.workload, args.seed));
        match tracer.write_csv(&path, SPANS_WRITTEN) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
