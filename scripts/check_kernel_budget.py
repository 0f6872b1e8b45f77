#!/usr/bin/env python3
"""Gate the micro-kernel policy registry's compile-time budget and codegen.

The registry generates every Eq. 3-feasible kernel from templates, so a
careless change (a new policy axis, an accidental O(grid^2) fold, an
instantiation that defeats the per-S translation-unit split) shows up
first as compile time. This script fails CI when

  1. any policy TU (microkernel_policies_s*.cpp, quantized_policies_*.cpp)
     takes longer than --max-seconds to compile stand-alone (each fp32 TU
     holds one kernel width's ~56 instantiations; the budget is several
     times the measured ~15 s so only real blow-ups trip it), or
  2. a policy object, read back with objdump, defines any local function
     or has a policy_*_kernel that calls anything but memcpy/memset. An
     outlined helper (GCC's local constprop clone of a tap-loop lambda,
     say) keeps the accumulator tile in memory and spills every FMA, so
     a kernel must compile to one flat body, or
  3. the built registry shrinks below --min-entries kernel entries or
     --min-blocks runtime (vw, vk) blocks — i.e. a refactor silently
     dropped specializations and convs would fall back to the generic
     kernel.

The registry count is probed by compiling and running a 5-line program
against the built libndirect_core.a, so it measures the product, not
the source.

Usage:
  check_kernel_budget.py [--source .] [--build build]
                         [--max-seconds 90] [--min-entries 216]
                         [--min-blocks 14] [--cxx g++]
                         [--flags "-O3 -march=native -std=c++20"]
                         [--objdump objdump]
"""
import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile
import time

PROBE = """
#include <cstdio>
#include "core/microkernel.h"
int main() {
  std::printf("entries=%zu blocks=%zu\\n",
              ndirect::kernel_registry().size(),
              ndirect::microkernel_blocks().size());
  return 0;
}
"""

# Callees a policy kernel may reach: the fused kernels' pack_row copies
# and zero-fills input rows.
ALLOWED_CALLEES = {"memcpy", "memset"}
KERNEL_RE = re.compile(r"policy_\w*kernel<")
FUNC_RE = re.compile(r"^[0-9a-f]+ <(.*)>:$")
BRANCH_RE = re.compile(r"\s(call|callq|jmp|jmpq|bl|blr|b)\s+(.*)$")
# A call's relocation: "memcpy-0x4" for an external callee, ".text+0xafc"
# for a local function in the same object.
RELOC_RE = re.compile(r"R_(?:X86_64_PLT32|X86_64_PC32|AARCH64_CALL26|"
                      r"AARCH64_JUMP26)\s+(\S+?)(?:-0x[0-9a-f]+)?$")


def codegen_problems(obj, objdump):
    """Local functions in `obj`, and calls out of its policy kernels."""
    problems = []
    r = subprocess.run(["nm", "-C", "--defined-only", obj],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return [f"nm failed: {r.stderr.strip()}"]
    for line in r.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "t":
            problems.append(f"defines local function {parts[2][:160]}")
    r = subprocess.run([objdump, "-d", "-r", "-C", "--no-show-raw-insn", obj],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return problems + [f"objdump failed: {r.stderr.strip()}"]
    # A relocated branch (a call, or a tail-call jump) names its target
    # on the relocation line after it; an unrelocated call (a same-
    # section local function) names it on its own line.
    func, callees, branch, pending = None, {}, False, None
    for line in r.stdout.splitlines():
        m = RELOC_RE.search(line)
        if m:
            if branch:
                callees.setdefault(func, set()).add(m.group(1))
            branch, pending = False, None
            continue
        if pending is not None:
            callees.setdefault(func, set()).add(pending)
        branch, pending = False, None
        m = FUNC_RE.match(line)
        if m:
            func = m.group(1)
            continue
        if func is None or not KERNEL_RE.search(func):
            continue
        m = BRANCH_RE.search(line)
        if m:
            branch = True
            op, target = m.group(1), m.group(2)
            if op in ("call", "callq", "bl", "blr"):
                pending = ("<indirect>" if target.startswith("*") or
                           op == "blr" else
                           target.split("<", 1)[-1].rstrip(">"))
    if pending is not None:
        callees.setdefault(func, set()).add(pending)
    for func, names in sorted(callees.items()):
        bad = sorted(n for n in names if n not in ALLOWED_CALLEES)
        if bad:
            problems.append(f"{func[:120]} calls {', '.join(bad)[:200]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--source", default=".")
    ap.add_argument("--build", default="build")
    ap.add_argument("--max-seconds", type=float, default=90.0,
                    help="per-TU compile budget")
    ap.add_argument("--min-entries", type=int, default=216)
    ap.add_argument("--min-blocks", type=int, default=14)
    ap.add_argument("--cxx", default=os.environ.get("CXX", "g++"))
    ap.add_argument("--flags", default="-O3 -march=native -std=c++20")
    ap.add_argument("--objdump", default="objdump")
    args = ap.parse_args()

    src = os.path.abspath(args.source)
    build = os.path.abspath(args.build)
    core_dir = os.path.join(src, "src/core")
    tus = sorted(glob.glob(os.path.join(core_dir, "microkernel_policies_s*.cpp"))
                 + glob.glob(os.path.join(core_dir, "quantized_policies_*.cpp")))
    if not tus:
        print("check_kernel_budget: no policy TUs found under", src)
        return 1

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        # 1. Per-TU compile-time budget; 2. codegen of each object.
        for tu in tus:
            out = os.path.join(tmp, os.path.basename(tu) + ".o")
            cmd = [args.cxx, *args.flags.split(), "-DNDEBUG",
                   "-I", os.path.join(src, "src"), "-c", tu, "-o", out]
            t0 = time.monotonic()
            r = subprocess.run(cmd, capture_output=True, text=True)
            dt = time.monotonic() - t0
            if r.returncode != 0:
                failures.append(f"{os.path.basename(tu)}: compile failed\n"
                                + r.stderr[-2000:])
                continue
            status = "ok" if dt <= args.max_seconds else "OVER BUDGET"
            print(f"  {os.path.basename(tu):34s} {dt:6.1f}s "
                  f"(budget {args.max_seconds:.0f}s) {status}")
            if dt > args.max_seconds:
                failures.append(
                    f"{os.path.basename(tu)}: {dt:.1f}s exceeds the "
                    f"{args.max_seconds:.0f}s budget")
            problems = codegen_problems(out, args.objdump)
            print(f"  {'':34s} codegen: "
                  f"{'ok' if not problems else f'{len(problems)} problems'}")
            failures += [f"{os.path.basename(tu)}: {p}" for p in problems]

        # 3. Registry completeness, probed from the built core library.
        core = os.path.join(build, "src/core/libndirect_core.a")
        runtime = os.path.join(build, "src/runtime/libndirect_runtime.a")
        if not os.path.exists(core):
            failures.append(f"missing {core} (build ndirect_core first)")
        else:
            probe_src = os.path.join(tmp, "probe.cpp")
            probe_bin = os.path.join(tmp, "probe")
            with open(probe_src, "w") as f:
                f.write(PROBE)
            cmd = [args.cxx, *args.flags.split(),
                   "-I", os.path.join(src, "src"), probe_src, core]
            if os.path.exists(runtime):
                cmd.append(runtime)
            cmd += ["-o", probe_bin]
            r = subprocess.run(cmd, capture_output=True, text=True)
            if r.returncode != 0:
                failures.append("registry probe failed to link:\n"
                                + r.stderr[-2000:])
            else:
                out = subprocess.run([probe_bin], capture_output=True,
                                     text=True).stdout.strip()
                print(f"  registry probe: {out}")
                vals = dict(kv.split("=") for kv in out.split())
                entries = int(vals.get("entries", 0))
                blocks = int(vals.get("blocks", 0))
                if entries < args.min_entries:
                    failures.append(f"registry has {entries} entries, "
                                    f"expected >= {args.min_entries}")
                if blocks < args.min_blocks:
                    failures.append(f"runtime table has {blocks} blocks, "
                                    f"expected >= {args.min_blocks}")

    if failures:
        print("check_kernel_budget: FAIL")
        for f in failures:
            print("  -", f)
        return 1
    print("check_kernel_budget: OK "
          f"({len(tus)} TUs within {args.max_seconds:.0f}s each, "
          "no outlined kernel code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
