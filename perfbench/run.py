#!/usr/bin/env python3
"""The murphyd benchmark: builds the repository from source and measures one
workload (perfbench/README.md).

    python3 perfbench/run.py --workload wire_steady --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
makes the untraced run and then a traced run of the same seed, and reports
the per-layer metrics of the traced run (the tracing overhead is the
difference between the two). --workload all runs the workloads
BENCHMARK.json names in turn; wire_ingest runs only when named.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Every line above the last is a human-readable report; the
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
# The workloads BENCHMARK.json names ("all" runs these), and wire_ingest,
# which runs on request only (perfbench/README.md "wire_ingest").
WORKLOADS = ("wire_steady", "incident_batch")
EXTRA_WORKLOADS = ("wire_ingest",)
BINARY = "murphy_perfbench"
RUN_TIMEOUT_S = 85  # one measurement process; --trace 1 makes two


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def self_test():
    """Runs perfbench/test_stats.py; a benchmark whose statistics are wrong
    must not print a result."""
    import io
    import unittest
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    log = io.StringIO()
    if not unittest.TextTestRunner(stream=log).run(suite).wasSuccessful():
        sys.stderr.write(log.getvalue())
        fail("statistics self-test failed")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then brings the benchmark binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"murphy sources not found under {ROOT} (src/CMakeLists.txt)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", BINARY,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return out / BINARY


def measure(binary, workload, seed, seconds, traced):
    """One measurement process; returns its raw JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           # Relative: a unix socket path must stay under ~100 bytes.
           "--work-dir", os.path.relpath(build_dir(), ROOT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the engine and benchmark sources: the version stamp when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp(raw):
    return {"git_sha": git_sha(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "compiler": raw["compiler"], "flags": raw["flags"],
            "seed": raw["seed"]}


def report(workload, raw, metrics, title):
    print(f"== {workload}: {title}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    lag = raw["lag_ms"]
    if lag:
        print(f"  generator lag (send - due): p50 {stats.percentile(lag, 50):.3f}"
              f" ms, max {max(lag):.3f} ms over {len(lag)} sends")
    else:
        print("  generator lag: none (closed loop)")
    ing_lag = raw["ingest_lag_ms"]
    if ing_lag:
        print(f"  ingester lag (start - due, not in ingest_*): p50 "
              f"{stats.percentile(ing_lag, 50):.3f} ms, max "
              f"{max(ing_lag):.3f} ms over {len(ing_lag)} slices")
    print(f"  error_frac {stats.error_frac(raw):.6g} = "
          f"(err {raw['err_lines']} + rejects {raw['rejects']} + deadline "
          f"{raw['deadline']} + unanswered {raw['unanswered']}) / attempted "
          f"{raw['attempted']}")
    print(f"  check: {'ok' if raw['check_ok'] else 'FAILED'} — "
          f"{raw['check_detail']}, {raw['check_mismatches']} mismatches, "
          f"{raw['duplicates']} duplicate responses")


def run_workload(binary, workload, seed, seconds, trace):
    """Returns (correct, attempted, failed, {name: (value, unit, note)})."""
    untraced = measure(binary, workload, seed, seconds, traced=False)
    raws = [untraced]
    metrics = stats.end_to_end(untraced)
    stamp = host_stamp(untraced)
    print("host: " + json.dumps(stamp))
    report(workload, untraced, metrics, "end to end (untraced run)")
    if trace:
        traced = measure(binary, workload, seed, seconds, traced=True)
        raws.append(traced)
        metrics = stats.per_layer(traced, untraced)
        report(workload, traced, metrics, "per layer (traced run)")
    correct = all(r["check_ok"] for r in raws)
    failed = stats.error_count(raws[-1])
    return correct, raws[-1]["attempted"], failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within [1, 60]")

    self_test()
    binary = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fl, m = run_workload(binary, name, args.seed, args.seconds,
                                      args.trace)
        correct, attempted, failed = correct and ok, attempted + att, failed + fl
        prefix = "" if len(names) == 1 else name + "/"
        for key, (value, unit, _) in m.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
