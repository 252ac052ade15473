#!/usr/bin/env python3
"""Run every bench binary with --json and merge the results.

Usage:
    scripts/bench_summary.py [--build-dir build] [--out BENCH_freepart.json]
                             [--only bench_a,bench_b]
    scripts/bench_summary.py --markdown [--out BENCH_freepart.json]

With --markdown, no benches run: the checked-in summary is rendered
as the README's "Performance results" table, with the lint row taken
from LINT_baseline.json (paste the output there after regenerating
the baseline; CI fails when the README's table differs from it).

Each bench binary accepts `--json <path>` and writes a flat
{"bench": ..., "metrics": {...}} object (bench_ipc_primitives emits
google-benchmark's native JSON instead; its per-benchmark real times
are folded into the same shape). The merged document, keyed by bench
name, is what gets checked in as BENCH_freepart.json and what CI
diffs against for perf regressions (scripts/check_perf_regression.py).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Deterministic simulated-time benches. bench_ipc_primitives is
# wall-clock (google-benchmark) and therefore NOT part of the
# checked-in summary by default: its numbers vary by machine.
DEFAULT_BENCHES = [
    "bench_table9_overhead",
    "bench_fault_recovery",
    "bench_shard_cluster",
    "bench_chaos_cluster",
    "bench_serve_autoscale",
    "bench_placement",
    "bench_pipeline_parallel",
    "bench_ldc_ablation",
    "bench_table12_ldc_stats",
    "bench_fig13_overhead",
    "bench_ablation_features",
    "bench_table1_techniques",
    "bench_table2_categorization",
    "bench_table3_vuln_apis",
    "bench_table4_api_examples",
    "bench_table5_attack_matrix",
    "bench_table6_applications",
    "bench_table7_syscalls",
    "bench_table10_granularity",
    "bench_table11_coverage",
    "bench_fig4_partitions",
    "bench_fig6_pipeline",
    "bench_fig7_cve_study",
    "bench_a6_subpartition",
    "bench_case_studies",
]


def run_bench(build_dir, bench):
    exe = os.path.join(build_dir, "bench", bench)
    if not os.path.exists(exe):
        print(f"warning: {exe} not built, skipped", file=sys.stderr)
        return None
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        path = tmp.name
    try:
        proc = subprocess.run(
            [exe, "--json", path],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            print(f"error: {bench} exited {proc.returncode}",
                  file=sys.stderr)
            return None
        with open(path) as handle:
            doc = json.load(handle)
    finally:
        os.unlink(path)
    if "metrics" in doc:
        return doc["metrics"]
    # google-benchmark layout: fold real_time per benchmark.
    metrics = {}
    for entry in doc.get("benchmarks", []):
        metrics[entry["name"].replace("/", "_")] = entry["real_time"]
    return metrics


LINT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "LINT_baseline.json")

# (headline label, bench key, metric key, format, paper reference
#  [, metric shown as "(vs ...)" next to it, in the same format])
MARKDOWN_ROWS = [
    ("Runtime overhead vs no isolation", "table9_overhead",
     "freepart_overhead_pct", "{:.2f}%", "5.7% (Table 9)"),
    ("Mean per-app overhead, 23 apps", "fig13_overhead",
     "mean_overhead_pct", "{:.2f}%", "3.68% (Fig. 13)"),
    ("Lazy share of copy operations", "table12_ldc_stats",
     "lazy_share", "{:.3f}", "~0.95 (Table 12)"),
    ("Pipeline-parallel speedup (async vs sync)", "pipeline_parallel",
     "pipeline_speedup", "{:.2f}x", "n/a (this substrate)"),
    ("Pipeline overlap fraction (flip speculation)", "pipeline_parallel",
     "mean_overlap_fraction", "{:.1%}", "n/a (this substrate)"),
    ("Pipeline overlap fraction (barrier mode)", "pipeline_parallel",
     "nospec_mean_overlap_fraction", "{:.1%}", "n/a (this substrate)"),
    ("Speculation rollback rate, Table 6 replay", "pipeline_parallel",
     "rollback_rate", "{:.1%}", "n/a (this substrate)"),
    ("Cluster speedup, 4 shards uniform keys", "shard_cluster",
     "speedup_uniform_4shards", "{:.2f}x", "n/a (this substrate)"),
    ("Cluster throughput, 4 shards", "shard_cluster",
     "throughput_uniform_4shards", "{:,.0f} calls/s",
     "n/a (this substrate)"),
    ("Zipf imbalance, optimized placement (vs hash)", "placement",
     "imbalance_zipf_opt_4shards", "{:.2f}", "n/a (this substrate)",
     "imbalance_zipf_hash_4shards"),
    ("Zipf cross-shard rate, optimized (vs hash)", "placement",
     "cross_rate_zipf_opt_4shards", "{:.3f}", "n/a (this substrate)",
     "cross_rate_zipf_hash_4shards"),
    ("Mean MTTR under fault injection", "fault_recovery",
     "mean_mttr_us", "{:,.0f} us", "n/a (this substrate)"),
    ("Cluster availability under 10% chaos", "chaos_cluster",
     "availability_at_10pct", "{:.1%}", "n/a (this substrate)"),
    ("Cluster p99 latency under 10% chaos", "chaos_cluster",
     "p99_us_at_10pct", "{:,.0f} us", "n/a (this substrate)"),
    ("Cluster p999 latency under 10% chaos", "chaos_cluster",
     "p999_us_at_10pct", "{:,.0f} us", "n/a (this substrate)"),
    ("Serving SLO attainment, autoscaled Zipf ramp", "serve_autoscale",
     "slo_attainment_autoscaled", "{:.1%}", "n/a (this substrate)"),
    ("Serving p99 latency, autoscaled", "serve_autoscale",
     "p99_us_autoscaled", "{:,.0f} us", "n/a (this substrate)"),
    ("Shard-seconds saved vs static max cluster", "serve_autoscale",
     "shard_seconds_saved_pct", "{:.1f}%", "n/a (this substrate)"),
    ("Warm vs cold session start speedup", "serve_autoscale",
     "warm_vs_cold_speedup", "{:.1f}x", "n/a (this substrate)"),
    ("Attacks mitigated", "table5_attack_matrix",
     "attacks_mitigated", "{:.0f}", "all (Table 5)"),
]


def render_markdown(path):
    with open(path) as handle:
        summary = json.load(handle)
    lines = [
        "| Metric | Measured | Paper |",
        "|---|---|---|",
    ]
    for label, bench, metric, fmt, paper, *versus in MARKDOWN_ROWS:
        metrics = summary.get(bench, {})
        missing = [key for key in [metric, *versus] if key not in metrics]
        if missing:
            print(f"warning: {bench}.{missing[0]} missing from {path}",
                  file=sys.stderr)
            continue
        value = fmt.format(metrics[metric])
        for key in versus:
            value += f" (vs {fmt.format(metrics[key])})"
        lines.append(f"| {label} | {value} | {paper} |")
    with open(LINT_BASELINE) as handle:
        accepted = len(json.load(handle)["accepted"])
    lines.append("| Lint: accepted partition-boundary findings (new ones "
                 f"fail CI) | {accepted} | n/a (this substrate) |")
    print("\n".join(lines))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_freepart.json")
    parser.add_argument("--only",
                        help="comma-separated subset of bench names")
    parser.add_argument("--markdown", action="store_true",
                        help="render --out as a markdown table "
                             "instead of running benches")
    args = parser.parse_args()

    if args.markdown:
        render_markdown(args.out)
        return 0

    benches = (args.only.split(",") if args.only else DEFAULT_BENCHES)
    summary = {}
    failed = False
    for bench in benches:
        print(f"running {bench} ...", flush=True)
        metrics = run_bench(args.build_dir, bench)
        if metrics is None:
            failed = True
            continue
        summary[bench.removeprefix("bench_")] = metrics

    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(summary)} benches)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
