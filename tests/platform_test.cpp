// Tests for the platform descriptors (Table 3), workloads (Table 4) and
// the analytical performance model. The model tests assert the
// *qualitative* claims of the paper's evaluation, not absolute numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "platform/perf_model.h"
#include "platform/specs.h"
#include "platform/workloads.h"
#include "simd/vec.h"

namespace ndirect {
namespace {

// ----------------------------------------------------------------------
// Table 3
// ----------------------------------------------------------------------

TEST(Specs, Table3ValuesAreVerbatim) {
  const auto specs = table3_platforms();
  ASSERT_EQ(specs.size(), 4u);
  const PlatformSpec& phytium = specs[0];
  EXPECT_EQ(phytium.name, "Phytium 2000+");
  EXPECT_EQ(phytium.cores, 64);
  EXPECT_DOUBLE_EQ(phytium.peak_gflops, 1126.4);
  EXPECT_DOUBLE_EQ(phytium.freq_ghz, 2.2);
  EXPECT_EQ(phytium.cache.l1d, 32u * 1024);
  EXPECT_EQ(phytium.cache.l2, 2u * 1024 * 1024);
  EXPECT_EQ(phytium.cache.l3, 0u);
  EXPECT_TRUE(phytium.cache.l2_shared);

  const PlatformSpec& kp920 = specs[1];
  EXPECT_EQ(kp920.cores, 64);
  EXPECT_DOUBLE_EQ(kp920.peak_gflops, 2662.4);
  EXPECT_EQ(kp920.cache.l3, 64ull * 1024 * 1024);

  const PlatformSpec& tx2 = specs[2];
  EXPECT_EQ(tx2.cores, 32);
  EXPECT_EQ(tx2.smt_per_core, 4);

  const PlatformSpec& rpi = specs[3];
  EXPECT_EQ(rpi.cores, 4);
  EXPECT_DOUBLE_EQ(rpi.peak_gflops, 56.8);
}

TEST(Specs, LookupByName) {
  EXPECT_EQ(platform_by_name("KP920").cores, 64);
  EXPECT_EQ(platform_by_name("RPi 4").cores, 4);
  EXPECT_THROW(platform_by_name("M1"), std::invalid_argument);
}

TEST(Specs, PeakMicrobenchmarkIsPositive) {
  const double peak = measure_peak_gflops_single_core();
  EXPECT_GT(peak, 0.5);    // any machine manages half a GFLOP
  EXPECT_LT(peak, 10000);  // and no single core does 10 TFLOPS FP32
}

TEST(Specs, HostPlatformIsProbedOnce) {
  const PlatformSpec& a = host_platform();
  const PlatformSpec& b = host_platform();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.cores, 1);
  EXPECT_GT(a.peak_gflops, 0);
  EXPECT_GT(a.bandwidth_gibs, 0);
}

// ----------------------------------------------------------------------
// Table 4
// ----------------------------------------------------------------------

TEST(Workloads, TwentyEightLayersWithExpectedMembership) {
  const auto layers = table4_layers(64);
  ASSERT_EQ(layers.size(), 28u);
  for (const ConvLayer& l : layers) {
    EXPECT_TRUE(l.params.valid()) << "layer " << l.id;
    EXPECT_EQ(l.params.N, 64);
    EXPECT_EQ(l.network, l.id <= 23 ? "ResNet-50" : "VGG-16");
  }
}

TEST(Workloads, SpotCheckAgainstTable4) {
  // Layer 1: 3 -> 64 channels, 224x224, 7x7, stride 2.
  const ConvLayer l1 = table4_layer(1, 8);
  EXPECT_EQ(l1.params.C, 3);
  EXPECT_EQ(l1.params.K, 64);
  EXPECT_EQ(l1.params.H, 224);
  EXPECT_EQ(l1.params.R, 7);
  EXPECT_EQ(l1.params.str, 2);
  EXPECT_EQ(l1.params.pad, 3);
  EXPECT_EQ(l1.params.P(), 112);

  // Layer 17: 1024 -> 2048, 14x14, 1x1, stride 2.
  const ConvLayer l17 = table4_layer(17, 8);
  EXPECT_EQ(l17.params.C, 1024);
  EXPECT_EQ(l17.params.K, 2048);
  EXPECT_EQ(l17.params.R, 1);
  EXPECT_EQ(l17.params.pad, 0);
  EXPECT_EQ(l17.params.P(), 7);

  // Layer 24 (VGG): 64 -> 64, 224x224, 3x3, stride 1.
  const ConvLayer l24 = table4_layer(24, 8);
  EXPECT_EQ(l24.network, "VGG-16");
  EXPECT_EQ(l24.params.H, 224);
  EXPECT_EQ(l24.params.P(), 224);  // same-padded
}

TEST(Workloads, ReconstructedRowsMatchResNetArchitecture) {
  // Rows 15/16/21 are reconstructed (see workloads.h); their output
  // shapes must chain correctly within ResNet-50.
  const ConvLayer l15 = table4_layer(15, 1);
  EXPECT_EQ(l15.params.C, 512);
  EXPECT_EQ(l15.params.K, 512);
  EXPECT_EQ(l15.params.P(), 7);  // 14 -> 7, stride 2
  const ConvLayer l16 = table4_layer(16, 1);
  EXPECT_EQ(l16.params.P(), 14);
  const ConvLayer l21 = table4_layer(21, 1);
  EXPECT_EQ(l21.params.H, 7);
  EXPECT_EQ(l21.params.P(), 7);
}

TEST(Workloads, ResnetSubsetIsFirstTwenty) {
  const auto layers = table4_resnet_layers(4);
  ASSERT_EQ(layers.size(), 20u);
  EXPECT_EQ(layers.front().id, 1);
  EXPECT_EQ(layers.back().id, 20);
}

TEST(Workloads, InvalidIdThrows) {
  EXPECT_THROW(table4_layer(0, 1), std::out_of_range);
  EXPECT_THROW(table4_layer(29, 1), std::out_of_range);
}

// ----------------------------------------------------------------------
// Performance model: the paper's qualitative claims
// ----------------------------------------------------------------------

PerfEstimate model(const char* platform, int layer_id,
                   ConvMethod method) {
  const PlatformSpec& spec = platform_by_name(platform);
  const ConvLayer layer = table4_layer(layer_id, spec.cores);
  return estimate_conv_perf(spec, layer.params, method, spec.cores);
}

TEST(PerfModel, NdirectWinsOnAlmostEveryLayer) {
  // Fig. 4: "nDirect performs best overall and consistently outperforms
  // the baseline methods across CONV layers and platforms."
  for (const char* platform : {"Phytium 2000+", "KP920", "ThunderX2"}) {
    int wins = 0;
    for (int id = 1; id <= 28; ++id) {
      const double nd = model(platform, id, ConvMethod::Ndirect).gflops;
      bool best = true;
      for (ConvMethod m :
           {ConvMethod::Im2colGemm, ConvMethod::LibxsmmStyle,
            ConvMethod::XnnpackStyle, ConvMethod::AclDirect}) {
        best &= nd >= model(platform, id, m).gflops;
      }
      wins += best;
    }
    EXPECT_GE(wins, 26) << platform;  // "most test cases"
  }
}

TEST(PerfModel, NdirectReaches70To80PctOnStride1_3x3) {
  // Section 8.1: "For most layers with str=1 ... 70%-80% of the CPU peak
  // performance", highest on R=S=3.
  for (int id : {3, 10, 16, 21, 26, 27, 28}) {  // 3x3 stride-1 layers
    const PerfEstimate e = model("Phytium 2000+", id, ConvMethod::Ndirect);
    EXPECT_GE(e.pct_peak, 60.0) << "layer " << id;
    EXPECT_LE(e.pct_peak, 90.0) << "layer " << id;
  }
}

TEST(PerfModel, Stride2DipsBelowStride1) {
  // Section 8.1: stride-2 layers pay an FAI penalty.
  const double s1 = model("Phytium 2000+", 10, ConvMethod::Ndirect).pct_peak;
  const double s2 = model("Phytium 2000+", 9, ConvMethod::Ndirect).pct_peak;
  EXPECT_LT(s2, s1);
}

TEST(PerfModel, OneByOneBelow3x3) {
  const double c3 = model("Phytium 2000+", 3, ConvMethod::Ndirect).pct_peak;
  const double c1 = model("Phytium 2000+", 5, ConvMethod::Ndirect).pct_peak;
  EXPECT_LT(c1, c3);
}

TEST(PerfModel, LibxsmmAroundHalfPeakAndBestBaseline) {
  // Fig. 1b: LIBXSMM (micro-kernels only) delivers ~50% of peak and is
  // the best-performing baseline; im2col+GEMM achieves ~40%.
  double lib_sum = 0, im2col_sum = 0;
  int count = 0;
  for (int id = 1; id <= 20; ++id) {
    lib_sum += model("Phytium 2000+", id, ConvMethod::LibxsmmStyle).pct_peak;
    im2col_sum +=
        model("Phytium 2000+", id, ConvMethod::Im2colGemm).pct_peak;
    ++count;
  }
  const double lib_avg = lib_sum / count, im2col_avg = im2col_sum / count;
  EXPECT_GT(lib_avg, 35.0);
  EXPECT_LT(lib_avg, 60.0);
  EXPECT_GT(im2col_avg, 20.0);
  EXPECT_LT(im2col_avg, lib_avg);
}

TEST(PerfModel, AclCollapsesOnMultiCore) {
  // Section 3.2: "ACL's direct convolution achieves only 5% of the
  // multi-core peak performance on Phytium 2000+".
  double worst = 100, sum = 0;
  for (int id = 1; id <= 20; ++id) {
    const double pct =
        model("Phytium 2000+", id, ConvMethod::AclDirect).pct_peak;
    worst = std::min(worst, pct);
    sum += pct;
  }
  EXPECT_LT(sum / 20, 12.0);
  EXPECT_LT(worst, 6.0);
}

TEST(PerfModel, NdirectOverAnsorMatchesFig6Band) {
  // Fig. 6: average speedup 1.92x / 1.82x / 1.51x on Phytium / KP920 /
  // ThunderX2, and nDirect wins every individual layer.
  for (const char* platform : {"Phytium 2000+", "KP920", "ThunderX2"}) {
    double geo = 0;
    for (int id = 1; id <= 20; ++id) {
      const double nd = model(platform, id, ConvMethod::Ndirect).gflops;
      const double an = model(platform, id, ConvMethod::AnsorTuned).gflops;
      EXPECT_GE(nd, an) << platform << " layer " << id;
      geo += std::log(nd / an);
    }
    geo = std::exp(geo / 20);
    EXPECT_GT(geo, 1.2) << platform;
    EXPECT_LT(geo, 2.5) << platform;
  }
}

TEST(PerfModel, AclGemmSitsBetweenAclDirectAndIm2col) {
  // Fig. 1b ordering: ACL_GEMM above ACL_DIRECT, below im2col+OpenBLAS.
  double gemm_sum = 0, direct_sum = 0, im2col_sum = 0;
  for (int id = 1; id <= 20; ++id) {
    gemm_sum += model("Phytium 2000+", id, ConvMethod::AclGemm).pct_peak;
    direct_sum +=
        model("Phytium 2000+", id, ConvMethod::AclDirect).pct_peak;
    im2col_sum +=
        model("Phytium 2000+", id, ConvMethod::Im2colGemm).pct_peak;
  }
  EXPECT_GT(gemm_sum, direct_sum);
  EXPECT_LT(gemm_sum, im2col_sum);
}

TEST(PerfModel, SmtOversubscriptionHelpsOnThunderX2) {
  // Fig. 9 runs 4 threads/core on ThunderX2; latency hiding must not
  // hurt and typically helps nDirect.
  const PlatformSpec& tx2 = platform_by_name("ThunderX2");
  const ConvLayer layer = table4_layer(10, tx2.cores * 4);
  const PerfEstimate base =
      estimate_conv_perf(tx2, layer.params, ConvMethod::Ndirect, tx2.cores);
  const PerfEstimate smt = estimate_conv_perf(
      tx2, layer.params, ConvMethod::Ndirect, tx2.cores * 4);
  EXPECT_GE(smt.gflops, base.gflops);
}

TEST(PerfModel, MemoryBoundCapsBandwidthHeavyMethods) {
  // ACL's K-split makes every thread stream the whole input; its
  // estimate must be memory-bound on the bandwidth-poor Phytium.
  const PerfEstimate e = model("Phytium 2000+", 5, ConvMethod::AclDirect);
  EXPECT_LE(e.memory_bound, e.compute_bound);
  EXPECT_EQ(e.gflops, std::min(e.compute_bound, e.memory_bound));
}

TEST(PerfModel, EstimatesNeverExceedPeakOrGoNegative) {
  for (const PlatformSpec& spec : table3_platforms()) {
    for (const ConvLayer& layer : table4_layers(spec.cores)) {
      for (ConvMethod m : all_methods()) {
        const PerfEstimate e =
            estimate_conv_perf(spec, layer.params, m, spec.cores);
        EXPECT_GT(e.gflops, 0) << spec.name << " " << method_name(m);
        EXPECT_LE(e.gflops, spec.peak_gflops * 1.0001)
            << spec.name << " " << method_name(m) << " layer " << layer.id;
      }
    }
  }
}

// Table 3's platforms plus one running this build's fp32 kernel width,
// so the model is also checked with the wide block's FAI.
std::vector<PlatformSpec> model_specs() {
  std::vector<PlatformSpec> specs = table3_platforms();
  PlatformSpec wide = platform_by_name("RPi 4");
  wide.name = "RPi 4 at kKernelLanes";
  wide.fp32_lanes = kKernelLanes;
  specs.push_back(wide);
  return specs;
}

TEST(PerfModel, EstimateNeverExceedsThreadsTimesCorePeak) {
  // The compute bound is the per-core peak times min(threads, cores):
  // t threads never get more than t cores' worth of FMA pipes.
  for (const PlatformSpec& spec : model_specs()) {
    for (const ConvLayer& layer : table4_layers(spec.cores)) {
      for (int t : {1, 2, 3, spec.cores / 2, spec.cores, 2 * spec.cores}) {
        const double cap = std::min(t, spec.cores) * spec.peak_per_core();
        for (ConvMethod m : all_methods()) {
          const PerfEstimate e = estimate_conv_perf(spec, layer.params, m, t);
          EXPECT_LE(e.gflops, cap * 1.0001)
              << spec.name << " " << method_name(m) << " layer " << layer.id
              << " threads " << t;
          EXPECT_LE(e.compute_bound, cap * 1.0001);
        }
      }
    }
  }
}

TEST(PerfModel, Int8DotRoofRunsAtTheFp32KernelWidth) {
  // The compute roof (compute_bound / (e_kernel * u_parallel)) of each
  // dtype: the dot kernels run at the spec's fp32 width and retire 4x
  // the MACs of its FMA; the emulated ladder is 128-bit everywhere, so
  // at 16 lanes its roof is a quarter of the fp32 one.
  for (const int lanes : {4, 16}) {
    PlatformSpec spec = platform_by_name("RPi 4");
    spec.fp32_lanes = lanes;
    for (const ConvLayer& layer : table4_layers(spec.cores)) {
      const auto roof = [&](ConvDtype d) {
        const PerfEstimate e = estimate_conv_perf(
            spec, layer.params, ConvMethod::Ndirect, spec.cores, d);
        return e.compute_bound / (e.e_kernel * e.u_parallel);
      };
      const double f32 = roof(ConvDtype::kF32);
      const double dot = roof(ConvDtype::kI8Dot);
      const double emu = roof(ConvDtype::kI8Emulated);
      EXPECT_NEAR(dot, 4.0 * f32, 1e-9 * dot) << "lanes " << lanes;
      EXPECT_NEAR(emu, f32 * 4.0 / lanes, 1e-9 * dot)
          << "lanes " << lanes;
    }
  }
}

TEST(PerfModel, NdirectEstimateDoesNotFallAsThreadsRiseToCores) {
  for (const PlatformSpec& spec : model_specs()) {
    for (const ConvLayer& layer : table4_layers(spec.cores)) {
      double prev = 0;
      for (int t = 1; t <= spec.cores; ++t) {
        const double g =
            estimate_conv_perf(spec, layer.params, ConvMethod::Ndirect, t)
                .gflops;
        EXPECT_GE(g, prev * (1 - 1e-9))
            << spec.name << " layer " << layer.id << " threads " << t;
        prev = g;
      }
    }
  }
}

TEST(PerfModel, KP920FastestInAbsoluteTerms) {
  // Fig. 4 middle panel tops out near 2000 GFLOPS; KP920 must dominate
  // the other platforms in absolute predicted throughput.
  const double kp = model("KP920", 26, ConvMethod::Ndirect).gflops;
  const double ph = model("Phytium 2000+", 26, ConvMethod::Ndirect).gflops;
  const double tx = model("ThunderX2", 26, ConvMethod::Ndirect).gflops;
  const double rp = model("RPi 4", 26, ConvMethod::Ndirect).gflops;
  EXPECT_GT(kp, ph);
  EXPECT_GT(kp, tx);
  EXPECT_GT(ph, rp);
}

}  // namespace
}  // namespace ndirect
