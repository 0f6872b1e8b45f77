#!/usr/bin/env python3
"""Gate bench results against committed per-host baselines.

Each BENCH_*.json carries a "host" object whose "key" identifies the
machine that produced it (sanitized CPU model + core count, from
bench_util's host_key()). Baselines live in bench/baselines/<key>/ as
files with the same names; a result is only ever compared against a
baseline from the *same* host key, so laptops, CI runners and the
paper's ARM boards never gate each other.

Metrics: every numeric leaf whose name contains "gflops" or "goodput"
or ends in "_qps" is compared higher-is-better; with --latency, leaves
ending in _us/_ms/_ns, bare percentile leaves (p50/p95/p99), and
wall_seconds are additionally compared lower-is-better. A change worse
than --threshold (relative, default 0.25 — smoke-mode runs are noisy)
is a regression and the script exits 1. So is a gated baseline metric
that the result no longer reports: a deleted or renamed metric must be
dropped from the baseline explicitly, never skipped silently. Hosts or
benches with no
committed baseline are reported and skipped (exit 0): a new machine
gates nothing until someone commits its baseline with --update.

Usage:
  bench_compare.py --results <dir> [--baselines bench/baselines]
                   [--threshold 0.25] [--latency]
  bench_compare.py --results <dir> --update   # (re)write baselines
  bench_compare.py --self-test                # verify the gate trips
"""
import argparse
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path


def flatten(node, prefix=""):
    """Numeric leaves of a JSON tree as {dotted.path: float}.

    List elements are labelled by their "case"/"name"/"method"/"layer"
    field when present (stable across reordering), else by index. The
    top-level "host" object is identity, not a metric, and is skipped.
    """
    items = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if prefix == "" and key == "host":
                continue
            items.update(flatten(value, prefix + str(key) + "."))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            label = str(i)
            if isinstance(value, dict):
                for name_key in ("case", "name", "method", "layer"):
                    if isinstance(value.get(name_key), str):
                        label = value[name_key]
                        break
            items.update(flatten(value, prefix + label + "."))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        items[prefix[:-1]] = float(node)
    return items


def metric_direction(key, include_latency):
    """'higher', 'lower', or None when the metric is not gated.

    Latency metrics may nest percentiles under the named series
    ("round_trip_spin_us.p50"), so every path segment is checked for
    the unit suffix, not just the leaf. A bare percentile leaf
    ("p50"/"p95"/"p99") with no unit anywhere on its path is still a
    latency metric — the serving bench reports percentile rows that
    way.
    """
    leaf = key.rsplit(".", 1)[-1]
    if "gflops" in leaf or "goodput" in leaf or leaf.endswith("_qps"):
        return "higher"
    if include_latency and (
        any(seg.endswith(("_us", "_ms", "_ns")) for seg in key.split("."))
        or re.fullmatch(r"p\d{2,3}", leaf)
        or leaf == "wall_seconds"
    ):
        return "lower"
    return None


def compare_files(baseline_path, current_path, threshold, include_latency):
    """Returns (regressions, missing, compared_count).

    A regression is (key, baseline, current, relative_change) with
    relative_change > threshold in the bad direction. `missing` lists
    the gated baseline keys the current result does not report.
    """
    with open(baseline_path) as f:
        base = flatten(json.load(f))
    with open(current_path) as f:
        cur = flatten(json.load(f))

    regressions = []
    missing = []
    compared = 0
    for key, base_v in sorted(base.items()):
        direction = metric_direction(key, include_latency)
        if direction is None:
            continue
        if key not in cur:
            missing.append(key)
            continue
        if base_v <= 0:
            continue
        cur_v = cur[key]
        compared += 1
        if direction == "higher":
            change = (base_v - cur_v) / base_v  # >0 means slower
        else:
            change = (cur_v - base_v) / base_v  # >0 means slower
        if change > threshold:
            regressions.append((key, base_v, cur_v, change))
    return regressions, missing, compared


def host_key_of(path):
    try:
        with open(path) as f:
            doc = json.load(f)
        key = doc.get("host", {}).get("key")
        return key if isinstance(key, str) and key else None
    except (OSError, json.JSONDecodeError):
        return None


def run_compare(args):
    results = sorted(Path(args.results).glob("BENCH_*.json"))
    if not results:
        print(f"bench_compare: no BENCH_*.json under {args.results}",
              file=sys.stderr)
        return 2

    baselines = Path(args.baselines)
    failed = False
    for current in results:
        key = host_key_of(current)
        if key is None:
            print(f"  {current.name}: no host key (old format?) -- skipped")
            continue
        baseline = baselines / key / current.name

        if args.update:
            baseline.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(current, baseline)
            print(f"  {current.name}: baseline updated "
                  f"({baseline})")
            continue

        if not baseline.is_file():
            print(f"  {current.name}: no baseline for host '{key}' -- "
                  f"skipped (commit one with --update)")
            continue

        regressions, missing, compared = compare_files(
            baseline, current, args.threshold, args.latency)
        if regressions:
            failed = True
            print(f"  {current.name}: REGRESSION "
                  f"({len(regressions)}/{compared} gated metrics)")
            for key_name, base_v, cur_v, change in regressions:
                print(f"    {key_name}: {base_v:.3f} -> {cur_v:.3f} "
                      f"({change:+.0%} worse than threshold "
                      f"{args.threshold:.0%})")
        if missing:
            failed = True
            print(f"  {current.name}: MISSING {len(missing)} gated "
                  f"baseline metric(s) (drop them from the baseline if "
                  f"the removal is intended)")
            for key_name in missing:
                print(f"    {key_name}: in baseline, not in result")
        if not regressions and not missing:
            print(f"  {current.name}: ok ({compared} gated metrics "
                  f"within {args.threshold:.0%})")
    if failed:
        print("bench_compare: FAIL", file=sys.stderr)
        return 1
    print("bench_compare: OK")
    return 0


def run_self_test():
    """Verify the gate trips on an injected slowdown and not otherwise."""
    base_doc = {
        "host": {"key": "self-test-host-1c", "cores": 1},
        "peak_gflops": 100.0,
        "cases": [
            {"case": "a", "stealing_gflops": 50.0, "latency_us": 10.0},
            {"case": "b", "stealing_gflops": 80.0, "latency_us": 12.0},
        ],
    }
    slow_doc = json.loads(json.dumps(base_doc))
    slow_doc["cases"][0]["stealing_gflops"] = 30.0  # -40% injected

    # Serving-shaped doc: goodput gated unconditionally (higher-better),
    # bare percentile leaves (no unit suffix anywhere on the path) gated
    # lower-better only under --latency.
    serve_doc = {
        "host": {"key": "self-test-host-1c", "cores": 1},
        "goodput_ratio_batched_vs_single": 2.0,
        "cases": [
            {"case": "batched", "goodput_qps": 90.0,
             "latency": {"p50": 2.0, "p99": 8.0}},
        ],
    }
    shed_doc = json.loads(json.dumps(serve_doc))
    shed_doc["cases"][0]["goodput_qps"] = 50.0  # -44% goodput
    tail_doc = json.loads(json.dumps(serve_doc))
    tail_doc["cases"][0]["latency"]["p99"] = 13.0  # +62% p99
    dropped_doc = json.loads(json.dumps(base_doc))
    del dropped_doc["cases"][1]["stealing_gflops"]  # metric deleted
    no_latency_doc = json.loads(json.dumps(serve_doc))
    del no_latency_doc["cases"][0]["latency"]  # only latency leaves gone

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "baselines" / "self-test-host-1c").mkdir(parents=True)
        (tmp / "results").mkdir()
        with open(tmp / "baselines" / "self-test-host-1c" /
                  "BENCH_selftest.json", "w") as f:
            json.dump(base_doc, f)

        def run_with(doc, threshold, name="BENCH_selftest.json",
                     baseline=None, latency=False):
            if baseline is not None:
                with open(tmp / "baselines" / "self-test-host-1c" /
                          name, "w") as f:
                    json.dump(baseline, f)
            with open(tmp / "results" / name, "w") as f:
                json.dump(doc, f)
            try:
                ns = argparse.Namespace(
                    results=str(tmp / "results"),
                    baselines=str(tmp / "baselines"),
                    threshold=threshold, latency=latency, update=False)
                return run_compare(ns)
            finally:
                (tmp / "results" / name).unlink()

        checks = [
            ("identical run passes", run_with(base_doc, 0.25) == 0),
            ("-40% slowdown trips the 25% gate",
             run_with(slow_doc, 0.25) == 1),
            ("-40% slowdown passes a 50% gate",
             run_with(slow_doc, 0.50) == 0),
            ("identical serving run passes under --latency",
             run_with(serve_doc, 0.25, name="BENCH_serveself.json",
                      baseline=serve_doc, latency=True) == 0),
            ("-44% goodput trips the 25% gate without --latency",
             run_with(shed_doc, 0.25,
                      name="BENCH_serveself.json") == 1),
            ("+62% bare-p99 trips the 50% gate under --latency",
             run_with(tail_doc, 0.50, name="BENCH_serveself.json",
                      latency=True) == 1),
            ("+62% bare-p99 is ignored without --latency",
             run_with(tail_doc, 0.50,
                      name="BENCH_serveself.json") == 0),
            ("a dropped gated metric fails the gate",
             run_with(dropped_doc, 0.25) == 1),
            ("a dropped latency metric is ignored without --latency",
             run_with(no_latency_doc, 0.25,
                      name="BENCH_serveself.json") == 0),
        ]
    ok = all(passed for _, passed in checks)
    for name, passed in checks:
        print(f"self-test: {'ok' if passed else 'FAIL'}: {name}")
    print(f"bench_compare --self-test: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description="Diff BENCH_*.json against per-host baselines")
    ap.add_argument("--results", default="bench-results",
                    help="directory of freshly produced BENCH_*.json")
    ap.add_argument("--baselines", default="bench/baselines",
                    help="committed baseline root (per-host subdirs)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative slowdown that fails the gate")
    ap.add_argument("--latency", action="store_true",
                    help="also gate _us/_ms/_ns and wall_seconds "
                         "metrics (lower is better)")
    ap.add_argument("--update", action="store_true",
                    help="write current results as the host's baseline")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate logic on synthetic data")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(run_self_test())
    sys.exit(run_compare(args))


if __name__ == "__main__":
    main()
