#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/tests/test_smoke.py [--binary <path to perfbench>]

Without --binary it builds through perfbench/run.py first. For every
workload it checks that:
  * the last stdout line is the result JSON, correct, with no failures;
  * --trace 0 reports exactly BENCHMARK.json's end-to-end metrics and
    --trace 1 exactly its per-layer metrics, with BENCHMARK.json's units;
  * the text report lists every end-to-end metric of the issue with its
    unit and sample count (or marks it as not exercised);
  * sim-clock metrics repeat exactly for the same seed and move for
    another seed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SIM = ("sim_makespan_ms", "sim_call_p50_us", "sim_call_p99_us")
TEXT_METRICS = ("host_calls_per_s", "host_call_p50_us", "host_call_p99_us",
                "setup_s", "peak_rss_mb", "failed_share", "sim_overhead_pct",
                "sim_makespan_ms", "sim_call_p50_us", "sim_call_p99_us",
                "slo_attainment", "shard_seconds", "sim_mttr_us")


def run(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s%s" % (
            workload, seed, trace, out.returncode, out.stdout, out.stderr))
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result, spec, where):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True, where
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    names = [m["name"] for m in spec]
    assert list(result["metrics"]) == names, (where, list(result["metrics"]))
    for m in spec:
        got = result["metrics"][m["name"]]
        assert sorted(got) == ["unit", "value"], (where, m["name"])
        assert got["unit"] == m["unit"], (where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (where, m["name"])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args = parser.parse_args()
    binary = args.binary
    if not binary:
        sys.path.insert(0, os.path.dirname(HERE))
        import run as runner
        os.chdir(ROOT)
        binary = runner.build(runner.build_dir())
        assert binary, "build failed"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in [w["name"] for w in bench["workloads"]]:
        text, first = run(binary, workload, 7, 0)
        check_result(first, bench["end_to_end"], workload + " trace 0")
        for name in TEXT_METRICS:
            line = [l for l in text if l.split()[:1] == [name]]
            assert line, (workload, name)
            assert re.search(r"n=\d+|not exercised", line[0]), line[0]

        _, again = run(binary, workload, 7, 0)
        _, other = run(binary, workload, 8, 0)
        for name in SIM:
            assert first["metrics"][name] == again["metrics"][name], (
                workload, name, "differs on a repeat with the same seed")
        assert any(first["metrics"][n] != other["metrics"][n] for n in SIM), (
            workload, "sim metrics ignore the seed")

        text, traced = run(binary, workload, 7, 1)
        check_result(traced, bench["per_layer"], workload + " trace 1")
        assert any(l.startswith("per-layer") for l in text), workload
        print("ok  %s" % workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
