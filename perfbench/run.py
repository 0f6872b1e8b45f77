#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, print the result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds the
library and the driver under .bench_build/ (about a minute and a half on
4 cores); later runs only check that the build is current.

One run prints, in order: a "host" line (CPU model, nproc, pool threads,
git SHA, oversubscribed), one line per metric by name and unit (the gated
ones and those reported beside them), and last the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list;
a traced run also writes a chrome trace under .bench_build/traces/.
The full record of each run goes to .bench_build/results/.

Exit status: 0 when every correctness check passed; 1 on a failed check,
a build failure, a missing metric or a malformed trace.

--self-check runs every workload briefly, untraced and traced, and fails
unless every metric named in BENCHMARK.json is printed with its unit and
a finite value (per-layer metrics may be a documented null) and each
chrome trace parses and nests.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160
# One malloc arena: otherwise which thread frees which tensor decides how
# much freed memory stays resident, and peak RSS wanders by tens of MB
# from run to run.
DRIVER_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    pass


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure (once) and build the driver; output goes to build.log."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    log_path = BUILD / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   env=env, cwd=ROOT,
                                   timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if r.returncode != 0:
                raise BenchError(f"build failed (exit {r.returncode}); "
                                 f"see {log_path}")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def run_driver(workload, seed, seconds, trace, trace_path):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           env=DRIVER_ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        raise BenchError(f"driver exited {r.returncode}: {r.stderr.strip()}")
    lines = r.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"driver printed no result: {r.stdout[-500:]!r}")


def select_metrics(raw, wanted, allow_null):
    """Pick BENCHMARK.json's metrics out of the driver's, checking each."""
    out, problems = {}, []
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = raw.get(name)
        if got is None:
            problems.append(f"{name}: not measured")
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
        value = got.get("value")
        if value is None:
            if not allow_null:
                problems.append(f"{name}: null")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: non-finite value {value!r}")
        out[name] = {"value": value, "unit": unit}
    return out, problems


def check_trace(path):
    """Problems with a chrome trace: unparsable, dangling parents, a child
    outside its parent, or spans on one track that do not form a stack."""
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"trace {path} does not parse: {e}"]
    if not events:
        return [f"trace {path} holds no spans"]
    eps = 1e-6
    by_id = {e["args"]["id"]: e for e in events}
    problems = []
    for e in events:
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"span {e['args']['id']} names a missing parent")
        elif (e["ts"] < p["ts"] - eps or
              e["ts"] + e["dur"] > p["ts"] + p["dur"] + eps):
            problems.append(f"span {e['args']['id']} ({e['name']}) lies "
                            f"outside its parent {parent} ({p['name']})")
    tracks = {}
    for e in events:
        tracks.setdefault(e["tid"], []).append(e)
    for tid, evs in tracks.items():
        stack = []
        for e in sorted(evs, key=lambda e: (e["ts"], -e["dur"])):
            while stack and e["ts"] >= stack[-1] - eps:
                stack.pop()
            if stack and e["ts"] + e["dur"] > stack[-1] + eps:
                problems.append(f"track {tid}: span {e['args']['id']} "
                                "overlaps a sibling without nesting")
            stack.append(e["ts"] + e["dur"])
    return problems[:10]


def run_once(spec, workload, seed, seconds, trace, quiet=False):
    """Run one workload; returns (result line object, problems)."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; one of {names}")
    for sub in ("traces", "results"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    trace_path = BUILD / "traces" / f"{tag}.json"
    raw = run_driver(workload, seed, seconds, trace, trace_path)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = select_metrics(raw["metrics"], wanted,
                                       allow_null=bool(trace))
    if trace:
        problems += check_trace(trace_path)
    problems += [f"check failed: {e}" for e in raw["errors"]]

    host = dict(raw["stamp"], git_sha=git_sha(), workload=workload,
                seed=seed, seconds=seconds, trace=trace)
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    host["error_frac"] = failed / attempted if attempted else None
    result = {"correct": bool(raw["correct"]) and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"host": host, "result": result, "all_metrics": raw["metrics"],
              "extra": raw["extra"], "problems": problems}
    (BUILD / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if not quiet:
        print(json.dumps({"host": host}))
        for group in (raw["metrics"], raw["extra"]):
            for name, m in group.items():
                value = "null" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {name:<48} {value:>14} {m['unit']}")
        for p in problems:
            print(f"  problem: {p}")
    return result, problems


def validate_spec(spec):
    problems = []
    names = set()
    for key in ("end_to_end", "per_layer", "workloads"):
        for m in spec.get(key, []):
            if not NAME_RE.match(m["name"]) or m["name"] in names:
                problems.append(f"bad or repeated name {m['name']!r}")
            names.add(m["name"])
            if key != "workloads" and not UNIT_RE.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r}")
    if len(spec.get("per_layer", [])) > 128:
        problems.append("more than 128 per-layer metrics")
    for m in spec.get("end_to_end", []):
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound {m['bound']} out of range")
    return problems


def self_check(spec, seconds):
    problems = validate_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            result, p = run_once(spec, w["name"], 1, seconds, trace,
                                 quiet=True)
            if not result["correct"]:
                p.append("correctness check failed")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                p.append("result keys differ from the contract")
            status = "ok" if not p else "FAIL"
            print(f"self-check {w['name']:<16} trace={trace} "
                  f"{len(result['metrics']):3d} metrics "
                  f"{time.monotonic() - t0:6.1f} s  {status}")
            problems += [f"{w['name']} trace={trace}: {x}" for x in p]
    for p in problems:
        print(f"  problem: {p}")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        spec = load_spec()
        build()
        if args.self_check:
            return 0 if self_check(spec, min(args.seconds, 4)) else 1
        if not args.workload:
            ap.error("--workload is required")
        result, problems = run_once(spec, args.workload, args.seed,
                                    args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if any(not p.startswith("check failed") for p in problems):
        print("perfbench: the run did not produce a valid result",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
