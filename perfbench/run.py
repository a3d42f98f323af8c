#!/usr/bin/env python3
"""Builds the benchmark from source and runs it (see perfbench/README.md).

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Runs one workload; the last line of stdout is the result document.
  python3 perfbench/run.py --self-test
      Smoke-runs every workload in both modes and checks every metric named
      in BENCHMARK.json is emitted with its unit and a finite value, and
      that BENCHMARK.json is what the benchmark itself would write.
  python3 perfbench/run.py --write-spec
      Regenerates BENCHMARK.json from the benchmark's own tables.

The build goes to .bench_build/perfbench under the repository root (a
Release build of ../src plus perfbench/src; CMake and a C++20 compiler are
all it needs). Build output goes to stderr.
"""
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SPEC = ROOT / "BENCHMARK.json"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures once, then builds incrementally; serialized by a lock."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        # Keep compiler temporaries inside the build tree too.
        env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
        (BUILD / "tmp").mkdir(exist_ok=True)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                sys.exit("perfbench: build failed: " + " ".join(step))


def run_binary(*args):
    return subprocess.run([str(BINARY), *args], capture_output=True, text=True)


def self_test():
    spec_text = run_binary("--spec").stdout
    if not SPEC.exists() or SPEC.read_text() != spec_text:
        sys.exit("self-test: BENCHMARK.json differs from `perfbench --spec`; "
                 "run perfbench/run.py --write-spec")
    lint = run_binary("--lint", str(SPEC))
    if lint.returncode:
        sys.exit("self-test: " + lint.stderr)
    spec = json.loads(spec_text)
    for workload in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            proc = run_binary("--workload", name, "--seed", "1", "--seconds", "1",
                              "--trace", trace, "--smoke")
            where = f"self-test {name} trace={trace}"
            if proc.returncode:
                sys.exit(f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            line = proc.stdout.strip().splitlines()[-1]
            result_file = BUILD / "self_test_result.json"
            result_file.write_text(line)
            lint = run_binary("--lint", str(result_file))
            if lint.returncode:
                sys.exit(f"{where}: {lint.stderr}")
            doc = json.loads(line)
            if set(doc) != RESULT_KEYS or doc["correct"] is not True:
                sys.exit(f"{where}: bad result document {line}")
            if not (isinstance(doc["attempted"], int) and doc["attempted"] >= 1
                    and isinstance(doc["failed"], int)):
                sys.exit(f"{where}: bad attempted/failed in {line}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            if set(doc["metrics"]) != set(expected):
                sys.exit(f"{where}: metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(doc['metrics']) ^ set(expected))}")
            for metric, unit in expected.items():
                entry = doc["metrics"][metric]
                value = entry.get("value")
                if (entry.get("unit") != unit or isinstance(value, bool)
                        or not isinstance(value, (int, float))
                        or not math.isfinite(value)):
                    sys.exit(f"{where}: metric {metric} = {entry}, unit {unit}")
            print(f"{where}: ok ({len(expected)} metrics)")
    print("self-test: ok")


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        self_test()
    elif args == ["--write-spec"]:
        SPEC.write_text(run_binary("--spec").stdout)
    else:
        sys.stdout.flush()
        os.execv(str(BINARY), [str(BINARY), *args])


if __name__ == "__main__":
    main()
