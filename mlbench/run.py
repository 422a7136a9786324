#!/usr/bin/env python3
"""Launcher for the MLbox end-to-end benchmark.

    python3 mlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `mlbench` worker (a Cargo
package of its own, depending on the repository's crates by path), then
runs the workload in fresh processes:

- with `--trace 0`, SETUP_RUNS processes run set-up alone and one more
  runs set-up and the timed window; the result carries every end-to-end
  metric, `setup_s` being the median set-up time of all of them. A worker
  reports its set-up time on its `READY <seconds>` line: the process CPU
  time used from process start until it is ready to time;
- with `--trace 1`, one process runs the traced window and reports the
  per-layer metrics; its spans are written under `.bench_out/`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Exits non-zero, printing no result,
if the build or any run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("hot_filters", "tenant_churn", "staged_programs")
# Set-up-only processes per untraced run; with the timed run's own
# set-up, setup_s is the median of SETUP_RUNS + 1 measurements.
SETUP_RUNS = 2
# Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the worker; returns its path or None."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=DEADLINE_S * 5)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "mlbench")
    return exe if os.path.isfile(exe) else None


class RunError(Exception):
    pass


def run_worker(exe, args, deadline, setup_only):
    """Runs one worker process. Returns (set-up seconds, result line)."""
    cmd = [exe] + args + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        setup_s = None
        lines = []
        for line in proc.stdout:
            words = line.split()
            if setup_s is None and len(words) == 2 and words[0] == "READY":
                setup_s = float(words[1])
            elif line.strip():
                lines.append(line.strip())
            if time.perf_counter() > deadline:
                raise RunError("deadline passed")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunError("deadline passed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RunError(f"worker exited with {code}")
    if setup_s is None:
        raise RunError("worker never became ready")
    if setup_only:
        return setup_s, None
    if not lines:
        raise RunError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    deadline = time.perf_counter() + DEADLINE_S
    exe = build()
    if exe is None:
        return 1
    scratch = os.path.abspath(os.path.join(".bench_tmp", f"mlbench-{os.getpid()}"))
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--dir", scratch]
    if a.trace:
        out_dir = os.path.abspath(".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(out_dir, f"trace-{a.workload}-seed{a.seed}.jsonl")]
    try:
        setups = []
        if not a.trace:
            for _ in range(SETUP_RUNS):
                setups.append(run_worker(exe, args, deadline, True)[0])
        setup_s, result = run_worker(exe, args, deadline, False)
        setups.append(setup_s)
    except (RunError, ValueError, OSError) as e:
        log(f"{a.workload}: {e}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    if not a.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
