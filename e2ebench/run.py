#!/usr/bin/env python3
"""End-to-end benchmark of the ssplane library.

Run from the repository root:

    python3 e2ebench/run.py --workload campaign --seed 7 --seconds 20 --trace 0

builds the benchmark driver from source on first use (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build) and runs one workload in its own
process. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Other modes:

    python3 e2ebench/run.py --smoke             # determinism smoke, 1 vs 4 threads
    python3 e2ebench/run.py --selftest          # the output check rejects perturbations
    python3 e2ebench/run.py --write-reference   # re-record reference/<workload>.tsv

See e2ebench/README.md for the workloads and the metric table.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design", "campaign", "serving")
REFERENCE_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2ebench")


def build():
    """Configure once, then build incrementally; returns the driver path."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src) or not any(
            f.endswith(".cpp") for _, _, files in os.walk(src) for f in files):
        log("e2ebench: no library sources under %s; nothing to benchmark" % src)
        sys.exit(2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(min(4, nproc()))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "e2ebench_driver")


def bench_env(threads=None):
    """Measured runs: library tracing off, thread pool pinned to <= nproc."""
    env = dict(os.environ)
    env.pop("SSPLANE_TRACE", None)
    cores = nproc()
    if threads is None:
        try:
            threads = int(env.get("SSPLANE_THREADS", ""))
        except ValueError:
            threads = 0
        if not 1 <= threads <= cores:
            threads = cores
    env["SSPLANE_THREADS"] = str(threads)
    return env


def run_driver(driver, args, env):
    """Runs the driver to completion (killed past the timeout); returns
    (exit code, stdout lines)."""
    try:
        proc = subprocess.run([driver] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: driver exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(traced):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def parse_result(lines, traced):
    """The driver's final JSON line, validated against BENCHMARK.json."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    want = expected_metrics(traced)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        log("e2ebench: metric set differs from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return None
    return result


def measure(driver, workload, seed, seconds, traced):
    ref = os.path.join(HERE, "reference", workload + ".tsv")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0", "--reference", ref]
    if traced:
        args += ["--trace-out", os.path.join(build_dir(), "trace-%s.json" % workload)]
    code, lines = run_driver(driver, args, bench_env())
    result = parse_result(lines, traced)
    if code != 0 or result is None:
        log("e2ebench: driver failed (exit %d)" % code)
        return 1
    print("\n".join(lines))
    return 0


def smoke(driver):
    """Tiny variant of every workload at SSPLANE_THREADS 1 and 4 (both trace
    modes): checked outputs, and the traced runs' counts, must be identical
    and every metric printed."""
    ok = True
    for workload in WORKLOADS:
        dumps = []
        counts = []
        for threads in (1, 4):
            for traced in (False, True):
                dump = os.path.join(build_dir(), "smoke-%s-%d-%d.tsv" % (
                    workload, threads, traced))
                args = ["--workload", workload, "--seed", str(REFERENCE_SEED),
                        "--seconds", "0", "--tiny", "1", "--trace", "1" if traced else "0",
                        "--write-reference", dump]
                code, lines = run_driver(driver, args, bench_env(threads))
                result = parse_result(lines, traced)
                good = code == 0 and result is not None and result["correct"]
                if good:
                    names = ", ".join("%s [%s]" % (k, v["unit"])
                                      for k, v in result["metrics"].items())
                    print("%s threads=%d trace=%d: %d metrics: %s" % (
                        workload, threads, traced, len(result["metrics"]), names))
                    with open(dump) as f:
                        dumps.append(f.read())
                    if traced:
                        counts.append({k: v["value"] for k, v in result["metrics"].items()
                                       if v["unit"] == "count"})
                else:
                    print("%s threads=%d trace=%d: FAILED" % (workload, threads, traced))
                ok = ok and good
        same = len(dumps) == 4 and all(d == dumps[0] for d in dumps)
        print("%s: checked outputs %s across threads 1/4 and trace 0/1" % (
            workload, "identical" if same else "DIFFER"))
        same_counts = len(counts) == 2 and counts[0] == counts[1]
        print("%s: traced counts %s across threads 1/4" % (
            workload, "identical" if same_counts else "DIFFER"))
        same = same and same_counts
        ok = ok and same
    print("smoke %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def write_reference(driver):
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in WORKLOADS:
        path = os.path.join(HERE, "reference", workload + ".tsv")
        args = ["--workload", workload, "--seed", str(REFERENCE_SEED), "--seconds", "0",
                "--trace", "0", "--write-reference", path]
        code, lines = run_driver(driver, args, bench_env())
        if code != 0 or parse_result(lines, False) is None:
            log("e2ebench: reference run of %s failed" % workload)
            return 1
        print("wrote %s" % os.path.relpath(path, ROOT))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.smoke or a.selftest or a.write_reference):
        p.error("give --workload, --smoke, --selftest or --write-reference")

    driver = build()
    if a.smoke:
        return smoke(driver)
    if a.selftest:
        code, lines = run_driver(driver, ["--selftest", "1"], bench_env())
        print("\n".join(lines))
        return code
    if a.write_reference:
        return write_reference(driver)
    return measure(driver, a.workload, a.seed, a.seconds, a.trace == 1)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log("e2ebench: build failed: %s" % e)
        sys.exit(2)
