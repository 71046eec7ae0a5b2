#!/usr/bin/env python3
"""Build and run the ringstab benchmark.

    python3 ringbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ringbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
ringbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later calls only check that the build is current. An untraced
run is split over PROCESSES fresh processes, one after another, each
measuring its share of --seconds; every metric is the median over them. The
last line of standard output is the benchmark's JSON result. --self-test runs
every workload at tiny sizes and checks the output against BENCHMARK.json:
every listed metric present with its unit and non-zero, nothing unlisted,
every known answer right, and a corrupted known answer counted as a failure.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
# Fresh processes per untraced run. The same work timed in two processes
# a minute apart differs by up to a third on a shared host, so one process
# is one sample of that spread; two, each taking half of --seconds, halve
# the weight of an unlucky one. More would not leave a 1-lane plus an
# n-lane full pass of check_livelock (about 20 s) in every share.
PROCESSES = 2


def fail(msg, code=1):
    print(f"ringbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    cache = out / "CMakeCache.txt"
    # A cache written for another source tree cannot be reused.
    if cache.is_file() and str(BENCH_DIR) not in cache.read_text(errors="replace"):
        cache.unlink()
        shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ringbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as sink:
        for cmd in steps:
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text(errors="replace")[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "ringbench"


def run_binary(binary, args, quiet=False, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    cmd = [str(binary), *args, "--scratch", str(build_dir()),
           "--repo-root", str(ROOT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stderr=subprocess.DEVNULL if quiet else None,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def measure(binary, workload, seed, seconds):
    """Runs an untraced measurement in PROCESSES processes, one after
    another, and prints their combined result: operations summed, each
    metric the median over the processes."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    share = max(1, round(float(seconds) / PROCESSES))
    results = []
    for i in range(PROCESSES):
        code, out = run_binary(binary, ["--workload", workload, "--seed", seed,
                                        "--seconds", str(share), "--trace", "0"],
                               timeout=deadline - time.monotonic())
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(f"# [process {i + 1}/{PROCESSES}] {line.lstrip('# ')}")
        if code != 0 or not lines:
            sys.stdout.write(out)
            return code or 1
        results.append(json.loads(lines[-1]))
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"]
                                          for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()
    }
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    problems = []
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, metrics in wanted.items():
            code, out = run_binary(binary, ["--workload", w["name"], "--seed",
                                            "7", "--seconds", "1", "--trace",
                                            str(trace), "--tiny"])
            res = last_json(out) if code == 0 else None
            tag = f"{w['name']} trace={trace}"
            if res is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res.get("correct") or res.get("failed") != 0:
                problems.append(f"{tag}: known answers failed: {res.get('failed')}")
            got = res.get("metrics", {})
            for m in metrics:
                if m["name"] not in got:
                    problems.append(f"{tag}: missing metric {m['name']}")
                elif got[m["name"]].get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit "
                                    f"{got[m['name']].get('unit')} != {m['unit']}")
                elif not got[m["name"]].get("value"):
                    # A metric that reads 0 measures nothing on this workload.
                    problems.append(f"{tag}: {m['name']} is 0")
            extra = set(got) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
        # A corrupted known answer must be counted as a failure.
        code, out = run_binary(binary, ["--workload", w["name"], "--seed", "7",
                                        "--seconds", "1", "--trace", "0",
                                        "--tiny", "--inject-mismatch"],
                               quiet=True)
        res = last_json(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{w['name']}: injected mismatch not counted: {res}")
    for p in problems:
        print(f"FAIL {p}")
    print(f"self-test: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test(build()))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.trace == "0":
        sys.exit(measure(binary, args.workload, args.seed, args.seconds))
    code, out = run_binary(binary, ["--workload", args.workload, "--seed",
                                    args.seed, "--seconds", args.seconds,
                                    "--trace", args.trace])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
