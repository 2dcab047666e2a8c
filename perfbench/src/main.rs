//! `annod` end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Runs one session of the named workload against an in-process
//! `anno_service::Service` (see `README.md` in this directory) and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! `correct` is false, and the exit code non-zero, when an oracle check
//! or a client operation fails.

#![forbid(unsafe_code)]

mod client;
mod model;
mod oracle;
mod session;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use session::Reps;
use workload::Workload;

/// The workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// The run length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`, which every reference figure uses.
pub const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One JSON metric entry.
fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload curate_scattered|browse_clustered|ingest_remine [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();
    let reps = if args.trace {
        Reps {
            setup: 1,
            restart: 1,
            catchup: 1,
        }
    } else {
        spec.reps
    };
    let root = PathBuf::from(".bench_run");
    let work = session::work_dir(&root, args.workload, args.seed);
    let outcome = match session::run(
        args.workload,
        args.seed,
        args.seconds,
        reps,
        args.trace,
        &work,
    ) {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&work);
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        eprintln!("perfbench: oracle: {failure}");
    }
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} client operations got an ERR or malformed reply",
            outcome.failed
        );
    }
    let metrics: Vec<String> = if args.trace {
        let layers = trace::replay(args.workload, &outcome, &root.join("traces"), args.seed);
        match layers {
            Ok(layers) => layers
                .iter()
                .map(|(name, value, unit)| metric(name, *value, unit))
                .collect(),
            Err(e) => {
                eprintln!("perfbench: traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let e = &outcome.e2e;
        vec![
            metric("setup_s", e.setup_s, "s"),
            metric("mine_s", e.mine_s, "s"),
            metric("query_p50_ms", e.query_p50_ms, "ms"),
            metric("recover_s", e.recover_s, "s"),
            metric("catchup_s", e.catchup_s, "s"),
            metric("peak_rss_mb", e.peak_rss_mb, "MiB"),
            metric("wal_bytes_per_update", e.wal_bytes_per_update, "B"),
        ]
    };
    let correct = outcome.failures.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
