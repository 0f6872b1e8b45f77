// Google-benchmark microbenchmarks for the substrates: the Goto SGEMM
// (our OpenBLAS stand-in), its 8x12 micro-kernel, the nDirect
// micro-kernels, and the packing kernels. These are the building-block
// numbers behind every figure bench.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/filter_transform.h"
#include "core/microkernel.h"
#include "gemm/blocking.h"
#include "gemm/gemm.h"
#include "gemm/microkernel.h"
#include "gemm/pack.h"
#include "runtime/aligned_buffer.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace ndirect {
namespace {

void BM_SgemmSquare(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Tensor a = make_matrix(n, n), b = make_matrix(n, n), c = make_matrix(n, n);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    sgemm(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Conv-shaped GEMM: ResNet layer 3 lowered by im2col (batch 1).
void BM_SgemmConvShaped(benchmark::State& state) {
  const std::int64_t m = 64, n = 3136, k = 576;
  Tensor a = make_matrix(m, k), b = make_matrix(k, n), c = make_matrix(m, n);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    sgemm(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SgemmConvShaped);

void BM_GemmMicrokernel8x12(benchmark::State& state) {
  const int kc = static_cast<int>(state.range(0));
  AlignedBuffer<float> pa(static_cast<std::size_t>(kGemmMR) * kc);
  AlignedBuffer<float> pb(static_cast<std::size_t>(kGemmNR) * kc);
  AlignedBuffer<float> c(kGemmMR * kGemmNR);
  for (std::size_t i = 0; i < pa.size(); ++i) pa[i] = 0.5f;
  for (std::size_t i = 0; i < pb.size(); ++i) pb[i] = 0.25f;
  for (auto _ : state) {
    gemm_microkernel_8x12(kc, pa.data(), pb.data(), c.data(), kGemmNR,
                          false);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * kGemmMR * kGemmNR * kc *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmMicrokernel8x12)->Arg(64)->Arg(256);

// nDirect main micro-kernel (the planner's 3x3 block at the build's
// lane count: 12x8 at 4 lanes, 24x16 at 16) on an L1-resident tile: the
// Algorithm 3 inner loop in isolation.
void BM_NdirectMicrokernel3x3(benchmark::State& state) {
  const int tc = static_cast<int>(state.range(0));
  const RegisterBlock rb = solve_kernel_block(3);
  const int R = 3, S = 3, vw = rb.vw, vk = rb.vk;
  const int packw = vw + S - 1;
  AlignedBuffer<float> pack(static_cast<std::size_t>(tc) * R * packw + 4);
  AlignedBuffer<float> ftile(static_cast<std::size_t>(tc) * R * S * vk);
  AlignedBuffer<float> out(static_cast<std::size_t>(vk) * vw);
  for (std::size_t i = 0; i < pack.size(); ++i) pack[i] = 0.5f;
  for (std::size_t i = 0; i < ftile.size(); ++i) ftile[i] = 0.25f;

  MicroArgs a;
  a.pack = pack.data();
  a.pack_c_stride = R * packw;
  a.pack_r_stride = packw;
  a.ftile = ftile.data();
  a.f_c_stride = R * S * vk;
  a.tc = tc;
  a.R = R;
  a.S = S;
  a.str = 1;
  a.out = out.data();
  a.out_k_stride = vw;
  a.out_w_stride = 1;
  a.wn = vw;
  a.kn = vk;
  a.accumulate = false;

  ComputeKernelFn fn = find_unrolled_kernel(vw, vk, S, 1);
  for (auto _ : state) {
    fn(a);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * tc * R * S * vw * vk *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NdirectMicrokernel3x3)->Arg(16)->Arg(64);

// The same tile through the runtime-parameterized kernel: the gap is
// what the Ansor-substitute "generic codegen" loses.
void BM_NdirectMicrokernelGeneric(benchmark::State& state) {
  const int tc = static_cast<int>(state.range(0));
  const RegisterBlock rb = solve_kernel_block(3);
  const int R = 3, S = 3, vw = rb.vw, vk = rb.vk;
  const int packw = vw + S - 1;
  AlignedBuffer<float> pack(static_cast<std::size_t>(tc) * R * packw + 4);
  AlignedBuffer<float> ftile(static_cast<std::size_t>(tc) * R * S * vk);
  AlignedBuffer<float> out(static_cast<std::size_t>(vk) * vw);
  for (std::size_t i = 0; i < pack.size(); ++i) pack[i] = 0.5f;
  for (std::size_t i = 0; i < ftile.size(); ++i) ftile[i] = 0.25f;

  MicroArgs a;
  a.pack = pack.data();
  a.pack_c_stride = R * packw;
  a.pack_r_stride = packw;
  a.ftile = ftile.data();
  a.f_c_stride = R * S * vk;
  a.tc = tc;
  a.R = R;
  a.S = S;
  a.str = 1;
  a.out = out.data();
  a.out_k_stride = vw;
  a.out_w_stride = 1;
  a.wn = vw;
  a.kn = vk;
  a.accumulate = false;

  for (auto _ : state) {
    compute_kernel_generic(a, vw, vk);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * tc * R * S * vw * vk *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NdirectMicrokernelGeneric)->Arg(16)->Arg(64);

void BM_PackWindow(benchmark::State& state) {
  const int tc = static_cast<int>(state.range(0));
  const int R = 3, packw = 14, H = 56, W = 56;
  Tensor image = make_input_nchw(1, tc, H, W);
  fill_random(image, 3);
  AlignedBuffer<float> pack(static_cast<std::size_t>(tc) * R * packw + 4);
  PackGeometry g;
  g.src = image.data();
  g.chan_stride = H * W;
  g.row_stride = W;
  g.col_stride = 1;
  g.H = H;
  g.W = W;
  g.ih0 = 10;
  g.iw0 = 10;
  for (auto _ : state) {
    pack_window(pack.data(), g, tc, R, packw);
    benchmark::DoNotOptimize(pack.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          tc * R * packw * 4);
}
BENCHMARK(BM_PackWindow)->Arg(16)->Arg(64);

void BM_FilterTransformTile(benchmark::State& state) {
  const int K = 64, C = 64, R = 3, S = 3, vk = 8;
  Tensor filter = make_filter_kcrs(K, C, R, S);
  fill_random(filter, 4);
  AlignedBuffer<float> tile(static_cast<std::size_t>(K) * C * R * S);
  for (auto _ : state) {
    transform_filter_tile(filter.data(), K, C, R, S, 0, K, 0, C, vk,
                          tile.data());
    benchmark::DoNotOptimize(tile.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          K * C * R * S * 4);
}
BENCHMARK(BM_FilterTransformTile);

}  // namespace
}  // namespace ndirect

BENCHMARK_MAIN();
