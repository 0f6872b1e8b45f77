// Per-block micro-kernel throughput, including the ragged edge tiles
// the policy registry specializes (partial-width wn < Vw, partial-
// channel kn < Vk with kn % 4 != 0, and both at once).
//
// Each shape resolves its kernel exactly the way the engine does: the
// tail block is the rounded-up multiple of 4 covering wn, and the tile
// dispatches to the interior policy kernel when it is full and to the
// masked-store edge kernel otherwise. Before the policy registry the
// same shapes ran a runtime-loop kernel with a scalar ragged store, so
// the ragged rows here are the headline of the registry's win; the
// full-tile row is the control that the interior path did not move.
//
// Results go to stdout and to BENCH_microkernel.json; the "gflops"
// leaves are gated against bench/baselines/<host>/ by bench_compare.py.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/microkernel.h"

#include "bench_util.h"

using namespace ndirect;
using namespace ndirect::bench;

namespace {

struct Shape {
  // The JSON key is prefix_<vw>x<vk>suffix, with the block it runs at
  // the build's lane count (12x8 names a 4-lane build's block, 12x16 a
  // 16-lane build's).
  const char* prefix;
  const char* suffix;
  int vw, vk, S, str;  // the conv's register block and geometry
  int tc, R;           // channel depth and filter height of one tile
  int wn, kn;          // the ragged extent actually stored
};

// The ragged shapes mirror real tails: ResNet-50 conv over a 7-wide
// output with the paper's 12x8 S=3 block (wn=7), a K tail that is not
// a multiple of 4 (kn=5), a both-ragged corner on the S=1 block, and a
// stride-2 S=7 stem tail. tc * R is sized so one tile's working set
// stays L1-resident: this measures the kernel, not the cache.
// The tc=8 rows are channel-tail tiles (e.g. C = 72 with tc = 64
// leaves an 8-deep remainder tile): with only tc * R compute rows per
// store, the store path is a first-order cost and the masked vector
// stores show their full effect.
const Shape kShapes[] = {
    {"w_tail", "_s3_wn7", 12, 8, 3, 1, 64, 3, 7, 8},
    {"k_tail", "_s3_kn5", 12, 8, 3, 1, 64, 3, 12, 5},
    {"wk_tail", "_s1", 8, 12, 1, 1, 256, 1, 5, 10},
    {"w_tail", "_s7_wn13", 20, 4, 7, 2, 3, 7, 13, 4},
    {"k_tail_1x1", "_tc8", 12, 8, 1, 1, 8, 1, 12, 5},
    {"w_tail", "_s3_tc8_wn6", 8, 8, 3, 1, 8, 3, 6, 8},
    {"wk_tail", "_s3_tc8", 12, 8, 3, 1, 8, 3, 7, 5},
    {"full", "_s3", 12, 8, 3, 1, 64, 3, 12, 8},
};

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_header("Micro-kernel: per-block GFLOPS incl. ragged edge tiles");
  print_row({"shape", "kernel", "class", "GFLOPS"}, {22, 12, 12, 9});

  JsonReport report("microkernel");
  std::mt19937 rng(42);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);

  for (Shape s : kShapes) {
    // The shapes list 4-lane blocks; a wider build runs them with Vk
    // rounded up to its lane count (12x8 is 12x16 at 16 lanes), and
    // names them by the block it runs.
    s.vk = (s.vk + kKernelLanes - 1) / kKernelLanes * kKernelLanes;
    const std::string name = std::string(s.prefix) + "_" +
                             std::to_string(s.vw) + "x" +
                             std::to_string(s.vk) + s.suffix;
    // The engine's tail rounding: the smallest multiple-of-4 block
    // covering wn (capped at the conv's vw).
    const int vw_used = std::min(s.vw, (s.wn + 3) / 4 * 4);
    const int packw = (vw_used - 1) * s.str + s.S;
    std::vector<float> pack(static_cast<std::size_t>(s.tc) * s.R * packw +
                            4);
    std::vector<float> ftile(static_cast<std::size_t>(s.tc) * s.R * s.S *
                             s.vk);
    std::vector<float> out(static_cast<std::size_t>(s.vk) * s.vw);
    for (float& v : pack) v = dist(rng);
    for (float& v : ftile) v = dist(rng);

    MicroArgs a;
    a.pack = pack.data();
    a.pack_c_stride = std::int64_t{s.R} * packw;
    a.pack_r_stride = packw;
    a.ftile = ftile.data();
    a.f_c_stride = std::int64_t{s.R} * s.S * s.vk;
    a.tc = s.tc;
    a.R = s.R;
    a.S = s.S;
    a.str = s.str;
    a.out = out.data();
    a.out_k_stride = s.vw;
    a.out_w_stride = 1;
    a.wn = s.wn;
    a.kn = s.kn;

    const KernelResolution kres =
        resolve_kernel(vw_used, s.vk, s.S, s.str);
    const bool interior = s.wn == vw_used && s.kn == s.vk;
    ComputeKernelFn fn = interior ? kres.interior : kres.edge;
    const double flops = 2.0 * s.wn * s.kn * s.tc * s.R * s.S;
    const double gflops = time_gflops(
        [&] {
          if (fn) {
            fn(a);
          } else {
            compute_kernel_generic(a, vw_used, s.vk);
          }
        },
        flops, cfg.min_seconds);

    char kernel[16];
    std::snprintf(kernel, sizeof kernel, "%dx%d S%d/%d", vw_used, s.vk,
                  s.S, s.str);
    const char* cls = fn == nullptr ? "generic"
                                    : kernel_class_name(kres.cls);
    print_row({name, kernel, cls, fmt(gflops, 3)}, {22, 12, 12, 9});

    char leaf[160];
    std::snprintf(leaf, sizeof leaf,
                  "{\"kernel\": \"%s\", \"class\": \"%s\", \"tile\": "
                  "\"wn%d kn%d\", \"gflops\": %.3f}",
                  kernel, cls, s.wn, s.kn, gflops);
    report.add_raw(name, leaf);
  }

  report.write();
  return 0;
}
