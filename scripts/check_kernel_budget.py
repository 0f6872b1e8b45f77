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
     or has a policy_*_kernel that calls anything at all. An outlined
     helper (GCC's local constprop clone of a tap-loop lambda, say) keeps
     the accumulator tile in memory and spills every FMA, and a library
     call (a copy, say) makes the kernel save its live accumulators
     around it, so a kernel must compile to one flat body, or
  3. the built registries do not hold exactly the kernel entries and
     (vw, vk) blocks the register budget admits at the built
     lane count — i.e. a refactor silently dropped specializations and
     convs would fall back to the generic kernel. The int8 registry is
     gated the same way, per compiled backend: the 4-lane emulated grid
     always, plus the native dot grid (4 lanes for SDOT, 16 for VNNI)
     where the probe reports it compiled.

The registry is probed by compiling and running a short program against
the built libndirect_core.a, so it measures the product, not the source.
The probe prints the registry's size and the fp32 kernels' lane and
register counts (kKernelLanes, kKernelRegs); the expected counts are
computed here from the same budget kernel_block_feasible applies
(core/microkernel.h): at 4 lanes the paper's Eq. 3, ceil((vw+S-1)/4) +
vk/4 + vw*vk/4 <= regs; at 16 lanes (x86, AVX-512F) the tile, the S
filter sets and one broadcast register, (vw+S)*vk/lanes + 1 <= regs.
At 4 lanes that is 216 entries and 14 blocks, at 16 lanes 96 and 6.
Int8 entries are 2 strides per admitted block and S: 108 for the
emulated grid, plus 108 for SDOT or 48 for the 16-lane VNNI grid.
--min-entries / --min-blocks override the derived fp32 counts (as lower
bounds).

For information, each object's vector stack spills are counted: stores
of an xmm, ymm or zmm register to an %rsp/%rbp slot between a kernel's
first and last multiply-accumulate (an FMA, or in the int8 kernels a
VPDPBUSD, SDOT or the emulated ladder's PMADDWD) — the inner loop,
where a spill costs once per (c, r) row. (The tile store after the
loop parks the accumulators on the stack once per tile, which does not
count.)

Usage:
  check_kernel_budget.py [--source .] [--build build]
                         [--max-seconds 90] [--min-entries N]
                         [--min-blocks N] [--cxx g++]
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
#include "core/quantized_microkernel.h"
int main() {
  std::printf("entries=%zu blocks=%zu lanes=%d regs=%d max_vw=%d "
              "max_vk=%d i8_entries=%zu i8_dot=%d i8_dot_lanes=%d\\n",
              ndirect::kernel_registry().size(),
              ndirect::microkernel_blocks().size(), ndirect::kKernelLanes,
              ndirect::kKernelRegs, ndirect::kMaxVw, ndirect::kMaxVk,
              ndirect::int8_kernel_registry().size(),
              NDIRECT_INT8_DOT_COMPILED, ndirect::kI8DotLanes);
  return 0;
}
"""

# Kernel widths the policy registry unrolls (microkernel_policies_s*.cpp)
# and the (stride, tail-mode) variants of each block.
UNROLLED_S = (1, 3, 5, 7)
VARIANTS_PER_BLOCK = 4
# The int8 kernels have no tail variants: (stride) per block.
INT8_STRIDES = 2


def block_feasible(vw, vk, S, lanes, regs, max_vw, max_vk):
    """kernel_block_feasible (core/microkernel.h), in Python."""
    if vw < 4 or vw > max_vw or vk < lanes or vk > max_vk:
        return False
    if vw % 4 or vk % lanes:
        return False
    if lanes == 4:
        return (vw + S - 1 + 3) // 4 + vk // 4 + vw * vk // 4 <= regs
    return (vw + S) * (vk // lanes) + 1 <= regs


def expected_registry(lanes, regs, max_vw, max_vk):
    """(entries, blocks) the budget admits at this width."""
    def blocks(S):
        return sum(block_feasible(vw, vk, S, lanes, regs, max_vw, max_vk)
                   for vw in range(4, max_vw + 1, 4)
                   for vk in range(lanes, max_vk + 1, lanes))
    entries = VARIANTS_PER_BLOCK * sum(blocks(S) for S in UNROLLED_S)
    return entries, blocks(1)


def expected_int8_entries(dot, dot_lanes, max_vw, max_vk):
    """Int8 registry entries: per compiled backend, the blocks its
    budget admits (int8_block_feasible: kernel_block_feasible at the
    backend's lanes and 32 registers) x S x strides {1, 2}."""
    def entries(lanes):
        return INT8_STRIDES * sum(
            block_feasible(vw, vk, S, lanes, 32, max_vw, max_vk)
            for S in UNROLLED_S
            for vw in range(4, max_vw + 1, 4)
            for vk in range(lanes, max_vk + 1, lanes))
    return entries(4) + (entries(dot_lanes) if dot else 0)

# Callees a policy kernel may reach: none. The engine packs a window
# before its kernels run (pack_window), so no kernel copies anything.
ALLOWED_CALLEES = set()
KERNEL_RE = re.compile(r"policy_\w*kernel<")
FUNC_RE = re.compile(r"^[0-9a-f]+ <(.*)>:$")
BRANCH_RE = re.compile(r"\s(call|callq|jmp|jmpq|bl|blr|b)\s+(.*)$")
# A call's relocation: "memcpy-0x4" for an external callee, ".text+0xafc"
# for a local function in the same object.
RELOC_RE = re.compile(r"R_(?:X86_64_PLT32|X86_64_PC32|AARCH64_CALL26|"
                      r"AARCH64_JUMP26)\s+(\S+?)(?:-0x[0-9a-f]+)?$")
# A vector register stored to a stack slot (AT&T syntax), and a
# multiply-accumulate that marks a kernel's inner loop: an fp32 FMA, or
# an int8 dot (VPDPBUSD, SDOT, or the emulated ladder's PMADDWD).
SPILL_RE = re.compile(r"\sv?mov(?:[au]p[sd]|dq[au](?:32|64)?)\s+"
                      r"%([xyz])mm\d+,\s*-?(?:0x[0-9a-f]+)?\(%r[sb]p\)")
MAC_RE = re.compile(r"\s(?:vfn?m(?:add|sub)\d{3}ps|fmla|vpdpbusd|sdot|"
                    r"v?pmaddwd)\s")


def kernel_family(func):
    """'interior' or 'edge' of an fp32 kernel; 'int8/<backend>' of an
    int8 one."""
    if "i8_policy_kernel<" in func:
        backend = {"(ndirect::Int8Backend)1": "emulated",
                   "(ndirect::Int8Backend)2": "dot"}
        for key, name in backend.items():
            if key in func:
                return f"int8/{name}"
        return "int8"
    return "edge" if "TailMode)1" in func or "kEdge" in func else "interior"


def count_mac_span_spills(body, spills, func):
    """Spill stores between the first and last multiply-accumulate of
    one kernel body."""
    macs = [i for i, line in enumerate(body) if MAC_RE.search(line)]
    if not macs:
        return
    for line in body[macs[0]:macs[-1]]:
        m = SPILL_RE.search(line)
        if m:
            per_kernel = spills.setdefault(kernel_family(func), {})
            per_kernel[func] = per_kernel.get(func, 0) + 1
            regs = spills.setdefault("regs", {})
            regs[m.group(1)] = regs.get(m.group(1), 0) + 1


def codegen_problems(obj, objdump, spills):
    """Local functions in `obj`, and calls out of its policy kernels.
    Adds each kernel's inner-loop vector spill stores to `spills`
    ({family: {kernel: count}}) and their register classes to
    spills["regs"]."""
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
    bodies = {}
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
        bodies.setdefault(func, []).append(line)
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
    for func, body in bodies.items():
        count_mac_span_spills(body, spills, func)
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
    ap.add_argument("--min-entries", type=int, default=None,
                    help="override the entry count derived from the "
                         "built lane count (as a lower bound)")
    ap.add_argument("--min-blocks", type=int, default=None,
                    help="override the block count derived from the "
                         "built lane count (as a lower bound)")
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
            spills = {}
            problems = codegen_problems(out, args.objdump, spills)
            print(f"  {'':34s} codegen: "
                  f"{'ok' if not problems else f'{len(problems)} problems'}")
            regs = spills.pop("regs", {})
            if spills:
                fams = ", ".join(
                    f"{fam} {sum(k.values())} in {len(k)} kernels "
                    f"(max {max(k.values())})"
                    for fam, k in sorted(spills.items()))
                cls = "/".join(f"{c}mm {n}" for c, n in sorted(regs.items()))
                print(f"  {'':34s} inner-loop spill stores: {fams}; {cls}")
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
                vals = {k: int(v) for k, v in
                        (kv.split("=") for kv in out.split())}
                want_entries, want_blocks = expected_registry(
                    vals["lanes"], vals["regs"], vals["max_vw"],
                    vals["max_vk"])
                print(f"  register budget at {vals['lanes']} lanes / "
                      f"{vals['regs']} registers: {want_entries} entries, "
                      f"{want_blocks} blocks")
                for name, got, want, floor in (
                        ("entries", vals["entries"], want_entries,
                         args.min_entries),
                        ("blocks", vals["blocks"], want_blocks,
                         args.min_blocks)):
                    if floor is not None:
                        if got < floor:
                            failures.append(f"registry has {got} {name}, "
                                            f"expected >= {floor}")
                    elif got != want:
                        failures.append(f"registry has {got} {name}, the "
                                        f"register budget admits {want}")
                want_i8 = expected_int8_entries(
                    vals["i8_dot"], vals["i8_dot_lanes"], vals["max_vw"],
                    vals["max_vk"])
                dot = (f"dot at {vals['i8_dot_lanes']} lanes"
                       if vals["i8_dot"] else "no dot kernels")
                print(f"  int8 budget (emulated at 4 lanes, {dot}): "
                      f"{want_i8} entries")
                if vals["i8_entries"] != want_i8:
                    failures.append(f"int8 registry has {vals['i8_entries']} "
                                    f"entries, the register budget admits "
                                    f"{want_i8}")

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
