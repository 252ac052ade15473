#!/usr/bin/env python3
"""CI perf gate: check a merged bench summary against the checked-in
baseline and fail on a meaningful regression.

--current is the document scripts/bench_summary.py writes: one section
per bench, keyed like BENCH_freepart.json, each section the bench's
flat --json metrics. Every gate is one row of GATES below:

  (section, metric, kind, bound)

  kind        passes when
  ----------  ------------------------------------------------------
  "max_rel"   current <= baseline * (1 + tolerance)
  "min_rel"   current >= baseline * (1 - tolerance)
  "floor"     current >= bound
  "ceiling"   current <= bound
  "eq1"       current == 1 (a bench self-check passed)
  "eq0"       current == 0 (a count of lost work)
  "lt"        current < the same section's metric named by bound

The whole run is deterministic simulated time, so any drift is a real
code change, not machine noise; the tolerance only absorbs intentional
small cost-model tweaks. A metric missing from --current, or a
relative gate's metric missing from the baseline, fails.
"""

import argparse
import json
import sys

GATES = [
    # bench_table9_overhead: FreePart's simulated overhead over the
    # no-isolation baseline.
    ("table9_overhead", "freepart_overhead_pct", "max_rel", None),
    # bench_shard_cluster: 4-shard uniform-key scaling, and no acked
    # call lost in the kill-one-shard drill.
    ("shard_cluster", "throughput_uniform_4shards", "min_rel", None),
    ("shard_cluster", "speedup_uniform_4shards", "min_rel", None),
    ("shard_cluster", "kill_lost_acks", "eq0", None),
    # bench_pipeline_parallel: async-vs-sync speedup and overlap with
    # flip speculation on (DESIGN.md §15), byte-identical and
    # deterministic replays, and the speculation-off numbers still
    # reproducing the pre-speculation behaviour.
    ("pipeline_parallel", "pipeline_speedup", "floor", 1.2),
    ("pipeline_parallel", "pipeline_speedup", "min_rel", None),
    ("pipeline_parallel", "byte_identical", "eq1", None),
    ("pipeline_parallel", "pipeline_overlap_fraction", "floor", 0.50),
    ("pipeline_parallel", "rollback_rate", "ceiling", 0.20),
    ("pipeline_parallel", "deterministic_replay", "eq1", None),
    ("pipeline_parallel", "adv_byte_identical", "eq1", None),
    ("pipeline_parallel", "nospec_pipeline_speedup", "min_rel", None),
    ("pipeline_parallel", "nospec_mean_overlap_fraction", "min_rel", None),
    # bench_chaos_cluster: the 23-app open-loop replay under the
    # seeded 10% chaos plan.
    ("chaos_cluster", "availability_at_10pct", "floor", 0.95),
    ("chaos_cluster", "shed_rate_at_10pct", "ceiling", 0.10),
    ("chaos_cluster", "lost_acks_at_0pct", "eq0", None),
    ("chaos_cluster", "lost_acks_at_10pct", "eq0", None),
    ("chaos_cluster", "deterministic_replay", "eq1", None),
    # bench_placement: load-aware placement vs consistent hashing
    # under the Zipf workload, within the migration budget.
    ("placement", "imbalance_zipf_opt_4shards", "ceiling", 1.2),
    ("placement", "cross_rate_zipf_opt_4shards", "lt",
     "cross_rate_zipf_hash_4shards"),
    ("placement", "cross_rate_zipf_opt_8shards", "lt",
     "cross_rate_zipf_hash_8shards"),
    ("placement", "budget_respected", "eq1", None),
    ("placement", "deterministic_replay", "eq1", None),
    ("placement", "cross_rate_zipf_opt_4shards", "max_rel", None),
    ("placement", "throughput_zipf_opt_4shards", "min_rel", None),
    # bench_serve_autoscale: the multi-tenant Zipf ramp through the
    # SLO-driven autoscaler, with warm agent pooling.
    ("serve_autoscale", "slo_attainment_autoscaled", "floor", 0.95),
    ("serve_autoscale", "lost_acks_autoscaled", "eq0", None),
    ("serve_autoscale", "lost_acks_static", "eq0", None),
    ("serve_autoscale", "lost_acks_coldstart", "eq0", None),
    ("serve_autoscale", "shard_seconds_autoscaled", "lt",
     "shard_seconds_static"),
    ("serve_autoscale", "warm_checkout_mean_us", "lt",
     "cold_checkout_mean_us"),
    ("serve_autoscale", "scale_up_events", "floor", 1),
    ("serve_autoscale", "scale_down_events", "floor", 1),
    ("serve_autoscale", "deterministic_replay", "eq1", None),
    ("serve_autoscale", "p99_us_autoscaled", "max_rel", None),
    ("serve_autoscale", "shard_seconds_saved_pct", "min_rel", None),
]

EPILOG = """\
after an intentional perf change, refresh the checked-in baseline
from a Release build instead of hand-editing it:

  scripts/bench_summary.py --build-dir build-rel --out BENCH_freepart.json

the partition-boundary lint gate (freepart_lint + LINT_baseline.json)
runs as its own CI job; see DESIGN.md §12.
"""


def check(gate, current, baseline, tolerance):
    """Evaluate one gate; returns (ok, description)."""
    section, metric, kind, bound = gate
    value = current.get(section, {}).get(metric)
    if value is None:
        return False, "missing from --current"
    if kind in ("max_rel", "min_rel"):
        base = baseline.get(section, {}).get(metric)
        if base is None:
            return False, f"current {value:.4g}, missing from the baseline"
        if kind == "max_rel":
            limit = base * (1.0 + tolerance)
            return value <= limit, (f"current {value:.4g}, baseline "
                                    f"{base:.4g}, limit {limit:.4g}")
        limit = base * (1.0 - tolerance)
        return value >= limit, (f"current {value:.4g}, baseline "
                                f"{base:.4g}, floor {limit:.4g}")
    if kind == "floor":
        return value >= bound, f"current {value:.4g}, floor {bound}"
    if kind == "ceiling":
        return value <= bound, f"current {value:.4g}, ceiling {bound}"
    if kind == "eq1":
        return value == 1, f"current {value:.4g}, must be 1"
    if kind == "eq0":
        return value == 0, f"current {value:.4g}, must be 0"
    if kind == "lt":
        other = current[section].get(bound)
        if other is None:
            return False, f"{bound} missing from --current"
        return value < other, (f"current {value:.4g}, must be below "
                               f"{bound} {other:.4g}")
    raise ValueError(f"unknown gate kind {kind!r}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", required=True,
                        help="JSON written by scripts/bench_summary.py")
    parser.add_argument("--baseline", default="BENCH_freepart.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative drift (0.20 = 20%%)")
    args = parser.parse_args()

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)

    failed = 0
    for gate in GATES:
        ok, detail = check(gate, current, baseline, args.tolerance)
        line = f"{gate[0]}.{gate[1]} [{gate[2]}]: {detail}"
        if ok:
            print(line)
        else:
            print(f"FAIL: {line}", file=sys.stderr)
            failed += 1
    if failed:
        print(f"{failed} of {len(GATES)} gates failed", file=sys.stderr)
        return 1
    print(f"ok: all {len(GATES)} gates within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
