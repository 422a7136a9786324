//! One benchmark workload in one process.
//!
//! ```text
//! mlbench --workload <hot_filters|tenant_churn|staged_programs>
//!         --seed N --seconds S --trace 0|1 --dir SCRATCH
//!         [--setup-only] [--trace-out FILE]
//! ```
//!
//! Prints `READY <seconds>` when set-up is done, with the process CPU
//! time set-up took in reference seconds (see `reference`), then, unless `--setup-only`, runs the timed window and
//! prints one JSON result line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `run.py` is the launcher that builds this binary and
//! adds `setup_s`.

use mlbench::{churn, hot, reference, staged, Env, KERNEL_RUNS_AT_READY};
use std::path::PathBuf;
use std::process::ExitCode;

/// Pool workers and the staged programs recurse deeply; run the workload
/// on a thread with room for that.
const STACK: usize = 256 * 1024 * 1024;

fn usage(msg: &str) -> ExitCode {
    eprintln!("mlbench: {msg}");
    eprintln!(
        "usage: mlbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR \
         [--setup-only] [--trace-out FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut dir, mut trace_out, mut setup_only) = (None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--dir" => dir = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(dir)) =
        (workload, seed, seconds, trace, dir)
    else {
        return usage("missing or invalid arguments");
    };
    let run: fn(&Env) -> mlbench::report::Report = match workload.as_str() {
        "hot_filters" => hot::run,
        "tenant_churn" => churn::run,
        "staged_programs" => staged::run,
        other => return usage(&format!("unknown workload {other}")),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("mlbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let env = Env {
        start_kernel: reference::sample(KERNEL_RUNS_AT_READY),
        seed,
        seconds,
        trace,
        setup_only,
        dir,
        trace_out,
    };
    let report = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(s, || run(&env))
            .expect("spawn workload thread")
            .join()
    });
    let Ok(report) = report else {
        eprintln!("mlbench: workload panicked");
        return ExitCode::FAILURE;
    };
    for e in &report.errors {
        eprintln!("mlbench: {e}");
    }
    if !setup_only {
        println!("{}", report.json());
    }
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
