#!/usr/bin/env python3
"""CI perf gate: compare fresh bench runs against the checked-in
baseline and fail on a meaningful regression.

Each --current* input is the --json output of one bench binary. Six
gates, one per input; every gate but the first is skipped when its
input is not given:
  * bench_table9_overhead (--current, required): FreePart's simulated
    overhead over the no-isolation baseline (freepart_overhead_pct).
    A >20% relative increase (e.g. 5.2% -> 6.3%) fails.
  * bench_shard_cluster (--current-cluster, optional): aggregate
    4-shard uniform-key throughput and its speedup over 1 shard. A
    >20% relative decrease of either fails, as does any acked call
    lost in the kill-one-shard drill.
  * bench_pipeline_parallel (--current-pipeline, optional): mean
    async-vs-sync speedup over the pipeline-shaped Table 6 apps,
    with flip speculation on (DESIGN.md §15). Fails below the
    absolute 1.2x speedup floor or 0.5 overlap-fraction floor, on a
    >tolerance relative drop from the baseline (including the
    speculation-off numbers, which must keep reproducing the
    pre-speculation behaviour), if the rollback rate exceeds 20% on
    the Table 6 replay, or if any replay (speculative, adversarial,
    or repeated) is not byte-identical and deterministic.
  * bench_chaos_cluster (--current-chaos, optional): availability of
    the 23-app open-loop replay under the seeded 10% chaos plan.
    Fails below the absolute 95% availability floor, if any acked
    call is lost (either run), if the shed rate exceeds 10%, or if
    the chaos run does not replay deterministically.
  * bench_serve_autoscale (--current-serving, optional): the multi-
    tenant Zipf ramp through the SLO-driven autoscaler. Fails below
    the absolute 95% SLO-attainment floor, if any acked call is lost
    in any of the three runs, if the autoscaler does not strictly
    undercut the static max cluster's shard-seconds, if warm agent
    checkout is not cheaper than cold spawn, if the policy never
    scaled in both directions, or if the run does not replay
    deterministically.
  * bench_placement (--current-placement, optional): load-aware
    placement vs consistent hashing under the Zipf workload. Fails
    if the optimized 4-shard imbalance exceeds the absolute 1.2
    floor, if the optimized cross-shard call rate is not strictly
    below hash at 4 and 8 shards, if any re-partition epoch moved
    more than its migrationMaxBytes budget, or if the optimize-and-
    migrate loop does not replay deterministically.

The whole run is deterministic simulated time, so any drift is a real
code change, not machine noise; the tolerance only absorbs intentional
small cost-model tweaks.
"""

import argparse
import json
import sys


def check_max(name, baseline, current, tolerance):
    """Gate a metric that must not increase beyond tolerance."""
    limit = baseline * (1.0 + tolerance)
    print(f"{name}: baseline {baseline:.2f}, current {current:.2f}, "
          f"limit {limit:.2f}")
    if current > limit:
        print(f"FAIL: {name} regressed beyond tolerance",
              file=sys.stderr)
        return False
    return True


def check_min(name, baseline, current, tolerance):
    """Gate a metric that must not decrease beyond tolerance."""
    limit = baseline * (1.0 - tolerance)
    print(f"{name}: baseline {baseline:.2f}, current {current:.2f}, "
          f"floor {limit:.2f}")
    if current < limit:
        print(f"FAIL: {name} regressed beyond tolerance",
              file=sys.stderr)
        return False
    return True


EPILOG = """\
after an intentional perf change, refresh the checked-in baseline
with the same bench outputs instead of hand-editing it:

  scripts/check_perf_regression.py --current table9.json \\
      --current-cluster cluster.json --current-pipeline pipeline.json \\
      --current-chaos chaos.json --current-placement placement.json \\
      --current-serving serving.json --write-baseline

the partition-boundary lint gate (freepart_lint + LINT_baseline.json)
runs as its own CI job; see DESIGN.md §12.
"""


def write_baseline(args):
    """Refresh the --baseline file's sections from the --current*
    bench outputs, leaving sections without a fresh input alone."""
    with open(args.baseline) as handle:
        baseline_doc = json.load(handle)

    sections = [("table9_overhead", args.current),
                ("shard_cluster", args.current_cluster),
                ("pipeline_parallel", args.current_pipeline),
                ("chaos_cluster", args.current_chaos),
                ("placement", args.current_placement),
                ("serve_autoscale", args.current_serving)]
    for section, path in sections:
        if not path:
            continue
        with open(path) as handle:
            baseline_doc[section] = json.load(handle)["metrics"]
        print(f"updated {section} from {path}")

    with open(args.baseline, "w") as handle:
        json.dump(baseline_doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.baseline}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", required=True,
                        help="JSON written by bench_table9_overhead --json")
    parser.add_argument("--current-cluster",
                        help="JSON written by bench_shard_cluster --json")
    parser.add_argument("--current-pipeline",
                        help="JSON written by bench_pipeline_parallel "
                             "--json")
    parser.add_argument("--current-chaos",
                        help="JSON written by bench_chaos_cluster "
                             "--json")
    parser.add_argument("--current-placement",
                        help="JSON written by bench_placement --json")
    parser.add_argument("--current-serving",
                        help="JSON written by bench_serve_autoscale "
                             "--json")
    parser.add_argument("--baseline", default="BENCH_freepart.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative drift (0.20 = 20%%)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="instead of gating, update the --baseline "
                             "file's sections from the provided "
                             "--current* files (documented refresh "
                             "after an intentional perf change)")
    args = parser.parse_args()

    if args.write_baseline:
        return write_baseline(args)

    with open(args.baseline) as handle:
        baseline_doc = json.load(handle)

    with open(args.current) as handle:
        current_doc = json.load(handle)
    ok = check_max(
        "FreePart overhead pct",
        baseline_doc["table9_overhead"]["freepart_overhead_pct"],
        current_doc["metrics"]["freepart_overhead_pct"],
        args.tolerance)

    if args.current_cluster:
        cluster_base = baseline_doc["shard_cluster"]
        with open(args.current_cluster) as handle:
            cluster = json.load(handle)["metrics"]
        ok &= check_min(
            "cluster 4-shard throughput (calls/s)",
            cluster_base["throughput_uniform_4shards"],
            cluster["throughput_uniform_4shards"], args.tolerance)
        ok &= check_min(
            "cluster 4-shard speedup",
            cluster_base["speedup_uniform_4shards"],
            cluster["speedup_uniform_4shards"], args.tolerance)
        lost = cluster["kill_lost_acks"]
        print(f"kill-one-shard lost acks: {lost}")
        if lost != 0:
            print("FAIL: acknowledged calls lost in the kill drill",
                  file=sys.stderr)
            ok = False

    if args.current_pipeline:
        pipe_base = baseline_doc["pipeline_parallel"]
        with open(args.current_pipeline) as handle:
            pipe = json.load(handle)["metrics"]
        speedup = pipe["pipeline_speedup"]
        # Absolute floor first: the feature must stay clearly faster
        # than serialized accounting regardless of what the baseline
        # says.
        print(f"pipeline speedup: current {speedup:.2f}, floor 1.20")
        if speedup < 1.2:
            print("FAIL: pipeline speedup below the 1.2x floor",
                  file=sys.stderr)
            ok = False
        ok &= check_min(
            "pipeline speedup vs baseline",
            pipe_base["pipeline_speedup"], speedup, args.tolerance)
        if pipe["byte_identical"] != 1:
            print("FAIL: async replay not byte-identical to sync",
                  file=sys.stderr)
            ok = False
        overlap = pipe["pipeline_overlap_fraction"]
        print(f"pipeline overlap fraction (speculative, shaped "
              f"subset): {overlap:.3f}, floor 0.50")
        if overlap < 0.50:
            print("FAIL: speculative overlap fraction below the "
                  "0.5 floor", file=sys.stderr)
            ok = False
        rollback = pipe["rollback_rate"]
        print(f"pipeline speculation rollback rate: {rollback:.3f}, "
              f"ceiling 0.20")
        if rollback > 0.20:
            print("FAIL: speculation rollback rate above the 20% "
                  "ceiling on the Table 6 replay", file=sys.stderr)
            ok = False
        if pipe["deterministic_replay"] != 1:
            print("FAIL: speculative replay not deterministic across "
                  "repeated runs", file=sys.stderr)
            ok = False
        if pipe["adv_byte_identical"] != 1:
            print("FAIL: misprediction-heavy adversarial replay not "
                  "byte-identical to sync", file=sys.stderr)
            ok = False
        if "nospec_pipeline_speedup" in pipe_base:
            # The gate-off path must keep reproducing the pre-
            # speculation numbers: drift here means the disabled
            # configuration changed behaviour.
            ok &= check_min(
                "barrier-mode (speculation off) speedup vs baseline",
                pipe_base["nospec_pipeline_speedup"],
                pipe["nospec_pipeline_speedup"], args.tolerance)
            ok &= check_min(
                "barrier-mode (speculation off) overlap vs baseline",
                pipe_base["nospec_mean_overlap_fraction"],
                pipe["nospec_mean_overlap_fraction"], args.tolerance)

    if args.current_chaos:
        with open(args.current_chaos) as handle:
            chaos = json.load(handle)["metrics"]
        avail = chaos["availability_at_10pct"]
        print(f"chaos availability at 10%: {avail:.4f}, floor 0.95")
        if avail < 0.95:
            print("FAIL: availability under chaos below the 95% floor",
                  file=sys.stderr)
            ok = False
        shed = chaos["shed_rate_at_10pct"]
        print(f"chaos shed rate at 10%: {shed:.4f}, ceiling 0.10")
        if shed > 0.10:
            print("FAIL: shed rate under chaos above the 10% ceiling",
                  file=sys.stderr)
            ok = False
        lost = chaos["lost_acks_at_0pct"] + chaos["lost_acks_at_10pct"]
        print(f"chaos lost acks (clean + chaos): {lost}")
        if lost != 0:
            print("FAIL: acknowledged calls lost under chaos",
                  file=sys.stderr)
            ok = False
        if chaos["deterministic_replay"] != 1:
            print("FAIL: chaos run did not replay deterministically",
                  file=sys.stderr)
            ok = False

    if args.current_placement:
        place_base = baseline_doc.get("placement", {})
        with open(args.current_placement) as handle:
            place = json.load(handle)["metrics"]
        imbalance = place["imbalance_zipf_opt_4shards"]
        print(f"placement optimized 4-shard imbalance: "
              f"{imbalance:.3f}, ceiling 1.20")
        if imbalance > 1.2:
            print("FAIL: optimized placement imbalance above the "
                  "1.2 ceiling", file=sys.stderr)
            ok = False
        for shards in (4, 8):
            hash_rate = place[f"cross_rate_zipf_hash_{shards}shards"]
            opt_rate = place[f"cross_rate_zipf_opt_{shards}shards"]
            print(f"placement cross-shard rate at {shards} shards: "
                  f"hash {hash_rate:.4f}, optimized {opt_rate:.4f}")
            if opt_rate >= hash_rate:
                print(f"FAIL: optimized cross-shard rate not below "
                      f"hash at {shards} shards", file=sys.stderr)
                ok = False
        if place["budget_respected"] != 1:
            print("FAIL: a re-partition epoch exceeded its "
                  "migrationMaxBytes budget", file=sys.stderr)
            ok = False
        if place["deterministic_replay"] != 1:
            print("FAIL: placement run did not replay "
                  "deterministically", file=sys.stderr)
            ok = False
        if place_base:
            # Relative drift guards against quiet optimizer decay once
            # a baseline section exists.
            ok &= check_max(
                "placement optimized 4-shard cross rate vs baseline",
                place_base["cross_rate_zipf_opt_4shards"],
                place["cross_rate_zipf_opt_4shards"], args.tolerance)
            ok &= check_min(
                "placement optimized 4-shard throughput vs baseline",
                place_base["throughput_zipf_opt_4shards"],
                place["throughput_zipf_opt_4shards"], args.tolerance)

    if args.current_serving:
        serve_base = baseline_doc.get("serve_autoscale", {})
        with open(args.current_serving) as handle:
            serve = json.load(handle)["metrics"]
        slo = serve["slo_attainment_autoscaled"]
        print(f"serving SLO attainment (autoscaled): {slo:.4f}, "
              f"floor 0.95")
        if slo < 0.95:
            print("FAIL: autoscaled SLO attainment below the 95% "
                  "floor", file=sys.stderr)
            ok = False
        lost = (serve["lost_acks_autoscaled"] +
                serve["lost_acks_static"] +
                serve["lost_acks_coldstart"])
        print(f"serving lost acks (auto + static + cold): {lost}")
        if lost != 0:
            print("FAIL: acknowledged calls lost in a serving run",
                  file=sys.stderr)
            ok = False
        auto_ss = serve["shard_seconds_autoscaled"]
        static_ss = serve["shard_seconds_static"]
        print(f"serving shard-seconds: autoscaled {auto_ss:.4f}, "
              f"static max {static_ss:.4f}")
        if auto_ss >= static_ss:
            print("FAIL: autoscaler did not undercut the static max "
                  "cluster's shard-seconds", file=sys.stderr)
            ok = False
        warm = serve["warm_checkout_mean_us"]
        cold = serve["cold_checkout_mean_us"]
        print(f"serving session start: warm {warm:.1f} us, "
              f"cold {cold:.1f} us")
        if warm >= cold:
            print("FAIL: warm agent checkout not cheaper than cold "
                  "spawn", file=sys.stderr)
            ok = False
        ups = serve["scale_up_events"]
        downs = serve["scale_down_events"]
        print(f"serving scale events: {ups} up, {downs} down")
        if ups < 1 or downs < 1:
            print("FAIL: autoscaler never scaled in both directions "
                  "over the ramp", file=sys.stderr)
            ok = False
        if serve["deterministic_replay"] != 1:
            print("FAIL: serving run did not replay "
                  "deterministically", file=sys.stderr)
            ok = False
        if serve_base:
            # Drift guards once a baseline section exists: tail
            # latency must not quietly balloon, nor the capacity
            # savings quietly erode.
            ok &= check_max(
                "serving autoscaled p99 vs baseline",
                serve_base["p99_us_autoscaled"],
                serve["p99_us_autoscaled"], args.tolerance)
            ok &= check_min(
                "serving shard-seconds saved pct vs baseline",
                serve_base["shard_seconds_saved_pct"],
                serve["shard_seconds_saved_pct"], args.tolerance)

    if not ok:
        return 1
    print("ok: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
