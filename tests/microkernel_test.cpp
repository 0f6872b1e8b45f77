// Direct unit tests for the nDirect micro-kernels: the generic and the
// fully unrolled policy kernels against a scalar tile oracle, plus
// store-path behaviours (NCHW transpose, NHWC direct, ragged,
// accumulate, epilogue). The registry kernels run at the
// build's lane count (kKernelLanes); the tests use the blocks the
// planner solves at that width, and the parity sweeps compare every
// registry kernel bitwise against the 128-bit generic kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/fai.h"
#include "core/microkernel.h"
#include "core/microkernel_generator.h"

namespace ndirect {
namespace {

struct TileProblem {
  int vw, vk, tc, R, S, str;
  int packw() const { return (vw - 1) * str + S; }
};

// Scalar oracle: out[w][k] = sum_{c,r,s} pack[c][r][w*str+s] * flt[c][r][s][k].
std::vector<float> oracle(const TileProblem& t,
                          const std::vector<float>& pack,
                          const std::vector<float>& ftile) {
  std::vector<float> out(static_cast<std::size_t>(t.vw) * t.vk, 0.0f);
  for (int c = 0; c < t.tc; ++c)
    for (int r = 0; r < t.R; ++r)
      for (int s = 0; s < t.S; ++s)
        for (int w = 0; w < t.vw; ++w)
          for (int k = 0; k < t.vk; ++k) {
            const float x =
                pack[static_cast<std::size_t>((c * t.R + r)) * t.packw() +
                     w * t.str + s];
            const float f =
                ftile[static_cast<std::size_t>(
                    ((c * t.R + r) * t.S + s)) * t.vk +
                      k];
            out[static_cast<std::size_t>(w) * t.vk + k] += x * f;
          }
  return out;
}

struct TileData {
  std::vector<float> pack;   // +4 slack for whole-vector loads
  std::vector<float> ftile;
  MicroArgs args;
  std::vector<float> out;    // staging [vw][vk], w-major like oracle
};

TileData make_tile(const TileProblem& t, unsigned seed) {
  TileData d;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  d.pack.resize(static_cast<std::size_t>(t.tc) * t.R * t.packw() + 4);
  d.ftile.resize(static_cast<std::size_t>(t.tc) * t.R * t.S * t.vk);
  for (float& v : d.pack) v = dist(rng);
  for (float& v : d.ftile) v = dist(rng);
  d.out.assign(static_cast<std::size_t>(t.vw) * t.vk, 0.0f);

  MicroArgs& a = d.args;
  a.pack = d.pack.data();
  a.pack_c_stride = std::int64_t{t.R} * t.packw();
  a.pack_r_stride = t.packw();
  a.ftile = d.ftile.data();
  a.f_c_stride = std::int64_t{t.R} * t.S * t.vk;
  a.tc = t.tc;
  a.R = t.R;
  a.S = t.S;
  a.str = t.str;
  a.out = d.out.data();
  // Store as [k][w] planes of width vw: out_k_stride = vw, w stride 1
  // (the NCHW shape with P*Q == vw).
  a.out_k_stride = t.vw;
  a.out_w_stride = 1;
  a.wn = t.vw;
  a.kn = t.vk;
  a.accumulate = false;
  return d;
}

// d.out is [k][w]; oracle returns [w][k].
void expect_matches_oracle(const TileProblem& t, const TileData& d,
                           const std::vector<float>& want,
                           float tol = 1e-4f) {
  for (int w = 0; w < t.vw; ++w) {
    for (int k = 0; k < t.vk; ++k) {
      ASSERT_NEAR(d.out[static_cast<std::size_t>(k) * t.vw + w],
                  want[static_cast<std::size_t>(w) * t.vk + k], tol)
          << "w=" << w << " k=" << k;
    }
  }
}

TEST(Microkernel, GenericMatchesOracleAcrossShapes) {
  const TileProblem problems[] = {
      {12, 8, 5, 3, 3, 1}, {8, 12, 7, 1, 1, 1}, {12, 8, 3, 3, 3, 2},
      {4, 4, 2, 5, 5, 1},  {20, 4, 4, 7, 7, 2}, {16, 8, 6, 2, 2, 1},
  };
  unsigned seed = 1;
  for (const TileProblem& t : problems) {
    TileData d = make_tile(t, seed++);
    compute_kernel_generic(d.args, t.vw, t.vk);
    expect_matches_oracle(t, d, oracle(t, d.pack, d.ftile));
  }
}

// The planner's 3x3 block at this build's width: 12x8 at 4 lanes (the
// paper's), 24x16 at 16 lanes.
RegisterBlock planned_3x3() { return solve_kernel_block(3); }

// The registry's policy kernel for a tile: the interior store when the
// tile fills its block, the masked-edge store otherwise.
ComputeKernelFn policy_kernel(const TileProblem& t, const MicroArgs& a) {
  const KernelResolution r = resolve_kernel(t.vw, t.vk, t.S, t.str);
  return a.wn == t.vw && a.kn == t.vk ? r.interior : r.edge;
}

TEST(Microkernel, UnrolledMatchesOracleForEveryInstantiation) {
  // The planner's block for every unrolled (S, str), and the narrowest
  // and widest registry blocks at S = 1.
  struct Inst {
    int vw, vk, S, str;
  };
  std::vector<Inst> insts;
  for (int S : {1, 3, 5, 7}) {
    const RegisterBlock b = solve_kernel_block(S);
    for (int str : {1, 2}) insts.push_back({b.vw, b.vk, S, str});
  }
  for (const RegisterBlock& b :
       {microkernel_blocks().front(), microkernel_blocks().back()}) {
    insts.push_back({b.vw, b.vk, 1, 1});
  }
  unsigned seed = 20;
  for (const Inst& i : insts) {
    ComputeKernelFn fn = find_unrolled_kernel(i.vw, i.vk, i.S, i.str);
    ASSERT_NE(fn, nullptr) << i.vw << "x" << i.vk << " S" << i.S << " str"
                           << i.str;
    const TileProblem t{i.vw, i.vk, 4, i.S, i.S, i.str};
    TileData d = make_tile(t, seed++);
    fn(d.args);
    expect_matches_oracle(t, d, oracle(t, d.pack, d.ftile));
  }
}

TEST(Microkernel, AccumulateAddsToExistingOutput) {
  const RegisterBlock b = planned_3x3();
  const TileProblem t{b.vw, b.vk, 3, 3, 3, 1};
  TileData d = make_tile(t, 30);
  for (float& v : d.out) v = 2.5f;
  d.args.accumulate = true;
  ComputeKernelFn fn = policy_kernel(t, d.args);
  ASSERT_NE(fn, nullptr);
  fn(d.args);
  const std::vector<float> want = oracle(t, d.pack, d.ftile);
  for (int w = 0; w < t.vw; ++w) {
    for (int k = 0; k < t.vk; ++k) {
      ASSERT_NEAR(d.out[static_cast<std::size_t>(k) * t.vw + w],
                  2.5f + want[static_cast<std::size_t>(w) * t.vk + k],
                  1e-4f);
    }
  }
}

TEST(Microkernel, RaggedStoreTouchesOnlyValidRegion) {
  const RegisterBlock b = planned_3x3();
  const TileProblem t{b.vw, b.vk, 3, 3, 3, 1};
  TileData d = make_tile(t, 31);
  for (float& v : d.out) v = -99.0f;
  d.args.wn = 7;
  d.args.kn = 5;
  ComputeKernelFn fn = policy_kernel(t, d.args);
  ASSERT_NE(fn, nullptr);
  fn(d.args);
  const std::vector<float> want = oracle(t, d.pack, d.ftile);
  for (int w = 0; w < t.vw; ++w) {
    for (int k = 0; k < t.vk; ++k) {
      const float got = d.out[static_cast<std::size_t>(k) * t.vw + w];
      if (w < 7 && k < 5) {
        ASSERT_NEAR(got, want[static_cast<std::size_t>(w) * t.vk + k],
                    1e-4f);
      } else {
        ASSERT_EQ(got, -99.0f) << "w=" << w << " k=" << k;
      }
    }
  }
}

TEST(Microkernel, NhwcStoreLayout) {
  // out strides for NHWC: k contiguous, w stride = vk.
  const TileProblem t{8, planned_3x3().vk, 2, 3, 3, 1};
  TileData d = make_tile(t, 32);
  d.args.out_k_stride = 1;
  d.args.out_w_stride = t.vk;
  ComputeKernelFn fn = policy_kernel(t, d.args);
  ASSERT_NE(fn, nullptr);
  fn(d.args);
  const std::vector<float> want = oracle(t, d.pack, d.ftile);
  for (int w = 0; w < t.vw; ++w) {
    for (int k = 0; k < t.vk; ++k) {
      ASSERT_NEAR(d.out[static_cast<std::size_t>(w) * t.vk + k],
                  want[static_cast<std::size_t>(w) * t.vk + k], 1e-4f);
    }
  }
}

TEST(Microkernel, EpilogueBiasAndReluInStorePath) {
  const RegisterBlock b = planned_3x3();
  const TileProblem t{b.vw, b.vk, 3, 3, 3, 1};
  TileData d = make_tile(t, 33);
  std::vector<float> bias(static_cast<std::size_t>(t.vk));
  for (int k = 0; k < t.vk; ++k) {
    bias[static_cast<std::size_t>(k)] = 0.5f * static_cast<float>(k - 4);
  }
  d.args.epi.bias = bias.data();
  d.args.epi.relu = true;
  ComputeKernelFn fn = policy_kernel(t, d.args);
  ASSERT_NE(fn, nullptr);
  fn(d.args);
  const std::vector<float> want = oracle(t, d.pack, d.ftile);
  for (int w = 0; w < t.vw; ++w) {
    for (int k = 0; k < t.vk; ++k) {
      const float expect = std::max(
          0.0f, want[static_cast<std::size_t>(w) * t.vk + k] +
                    bias[static_cast<std::size_t>(k)]);
      ASSERT_NEAR(d.out[static_cast<std::size_t>(k) * t.vw + w], expect,
                  1e-4f);
    }
  }
}

TEST(Microkernel, DispatchTableConsistency) {
  // The planner's blocks are unrolled.
  for (int S : {1, 3, 5, 7}) {
    const RegisterBlock b = solve_kernel_block(S);
    EXPECT_NE(find_unrolled_kernel(b.vw, b.vk, S, 1), nullptr) << "S" << S;
  }
  // Unrolled lookups reject non-instantiated (S, str) combos.
  const RegisterBlock b = planned_3x3();
  EXPECT_EQ(find_unrolled_kernel(b.vw, b.vk, 2, 1), nullptr);
  EXPECT_EQ(find_unrolled_kernel(b.vw, b.vk, 3, 3), nullptr);
}

// ---------------------------------------------------------------------
// Policy registry (template-generated kernel table).

TEST(PolicyRegistry, MatchesEq3FeasibilityAndIsComplete) {
  // kernel_block_feasible is the constexpr mirror of Eq. 3; it must
  // agree with the runtime predicate everywhere, including at kernel
  // widths the registry does not instantiate.
  for (int S : {1, 2, 3, 5, 7, 11}) {
    for (int vw = 4; vw <= kMaxVw; vw += 4) {
      for (int vk = 4; vk <= kMaxVk; vk += 4) {
        EXPECT_EQ(kernel_block_feasible(vw, vk, S),
                  register_block_feasible(vw, vk, S))
            << vw << "x" << vk << " S" << S;
      }
    }
  }
  EXPECT_FALSE(kernel_block_feasible(13, 8, 3));  // vw % 4
  EXPECT_FALSE(kernel_block_feasible(12, 6, 3));  // vk % 4
  EXPECT_FALSE(kernel_block_feasible(28, 4, 1));  // vw > kMaxVw
  // Wide vectors: vk a multiple of the lanes, vw still a multiple of 4
  // (quarter stores), and the x86 budget tile + S filter sets + 1.
  EXPECT_TRUE(kernel_block_feasible(24, 16, 7, 16, 32));   // 31 + 1
  EXPECT_FALSE(kernel_block_feasible(24, 8, 3, 16, 32));   // vk % 16
  EXPECT_EQ(broadcast_register_cost(24, 16, 3, 16), 28);

  // The registry instantiates every feasible block at the build's width
  // for each unrolled S, in two stride variants x two tail modes —
  // nothing missing, nothing extra, no duplicates.
  std::size_t expect = 0;
  for (int S : {1, 3, 5, 7}) {
    for (int vw = 4; vw <= kMaxVw; vw += 4) {
      for (int vk = kKernelLanes; vk <= kMaxVk; vk += kKernelLanes) {
        if (kernel_block_feasible(vw, vk, S, kKernelLanes, kKernelRegs))
          expect += 4;
      }
    }
  }
  const std::vector<KernelEntry>& reg = kernel_registry();
  EXPECT_EQ(reg.size(), expect);
  // Blocks x 2 strides x 2 tail modes: 54 at 4 lanes, 24 at 16.
  EXPECT_EQ(reg.size(), kKernelLanes == 16 ? 96u : 216u);
  std::set<std::array<int, 5>> seen;
  for (const KernelEntry& e : reg) {
    EXPECT_TRUE(
        kernel_block_feasible(e.vw, e.vk, e.S, kKernelLanes, kKernelRegs))
        << e.vw << "x" << e.vk << " S" << e.S;
    EXPECT_TRUE(e.str == 1 || e.str == 2) << e.str;
    EXPECT_NE(e.compute, nullptr);
    seen.insert({e.vw, e.vk, e.S, e.str, static_cast<int>(e.tail)});
  }
  EXPECT_EQ(seen.size(), reg.size()) << "duplicate registry entries";
}

TEST(PolicyRegistry, TapOrderFollowsTheTargetRegisterBudget) {
  // x86 broadcasts the input element from memory and always runs
  // input-stationary. NEON reads lanes of the ceil(packw/4)-register
  // window, so it runs input-stationary only where the window, the S
  // filter-vector sets and the tile fit its 32 registers.
  using detail::input_stationary_taps;
  const bool from_memory = kLaneOperandFromMemory;
  // ResNet-50's 3x3 block, 12x8 S=3: 4 + 6 + 24 = 34 on NEON.
  EXPECT_EQ((input_stationary_taps<12, 2, 3, 1>()), from_memory);
  // Its 7x7 stride-2 stem block, 20x4: 12 + 7 + 20 = 39 on NEON.
  EXPECT_EQ((input_stationary_taps<20, 1, 7, 2>()), from_memory);
  // 8x12 S=7 stride 2: 6 + 21 + 24, far past 32, yet x86 keeps the order.
  EXPECT_EQ((input_stationary_taps<8, 3, 7, 2>()), from_memory);
  // S = 1 holds one filter set either way: 2 + 3 + 24 = 29 fits NEON.
  EXPECT_TRUE((input_stationary_taps<8, 3, 1, 1>()));
  // A small S=3 block fits NEON too: 4x8 is 2 + 6 + 8 = 16.
  EXPECT_TRUE((input_stationary_taps<4, 2, 3, 1>()));
}

TEST(PolicyRegistry, BlocksEnumerateTheS1FeasibleSet) {
  // The blocks are exactly the S=1 feasible set at the build's width —
  // the superset, since the register cost grows with S — and each has
  // its unrolled S = 1 kernel. At 4 lanes that is Eq. 3's set.
  const std::vector<RegisterBlock>& blocks = microkernel_blocks();
  if (kKernelLanes == 4) {
    EXPECT_EQ(blocks.size(), feasible_register_blocks(1).size());
  }
  EXPECT_EQ(blocks.size(), kKernelLanes == 16 ? 6u : 14u);
  for (const RegisterBlock& b : blocks) {
    EXPECT_TRUE(
        kernel_block_feasible(b.vw, b.vk, 1, kKernelLanes, kKernelRegs))
        << b.vw << "x" << b.vk;
    EXPECT_NE(find_unrolled_kernel(b.vw, b.vk, 1, 1), nullptr);
  }
}

TEST(PolicyRegistry, SolvedBlockIsTheFaiMaximalRegistryBlock) {
  for (int S : {1, 2, 3, 5, 7}) {
    const RegisterBlock b = solve_kernel_block(S);
    EXPECT_TRUE(
        kernel_block_feasible(b.vw, b.vk, S, kKernelLanes, kKernelRegs))
        << "S" << S;
    for (const RegisterBlock& rival : microkernel_blocks()) {
      if (!kernel_block_feasible(rival.vw, rival.vk, S, kKernelLanes,
                                 kKernelRegs))
        continue;
      EXPECT_LE(fai_microkernel(rival.vw, rival.vk, S),
                fai_microkernel(b.vw, b.vk, S) + 1e-9)
          << "S" << S << " rival " << rival.vw << "x" << rival.vk;
    }
    // A 4-lane build plans exactly the paper's Eq. 3 solution.
    if (kKernelLanes == 4) {
      const RegisterBlock paper = solve_register_block(S);
      EXPECT_EQ(b.vw, paper.vw) << "S" << S;
      EXPECT_EQ(b.vk, paper.vk) << "S" << S;
    }
  }
  // The paper's block, the default 4-lane solution on every build.
  EXPECT_EQ(solve_register_block(3).vw, 12);
  EXPECT_EQ(solve_register_block(3).vk, 8);
  // The zmm block: every ResNet-50 kernel width gets 24x16.
  if (kKernelLanes == 16) {
    for (int S : {1, 3, 7}) {
      EXPECT_EQ(solve_kernel_block(S).vw, 24) << "S" << S;
      EXPECT_EQ(solve_kernel_block(S).vk, 16) << "S" << S;
    }
  }
}

TEST(PolicyRegistry, ResolveKernelClassifies) {
  // Registry hit: fully unrolled, separate interior and edge kernels.
  const RegisterBlock b = planned_3x3();
  KernelResolution r = resolve_kernel(b.vw, b.vk, 3, 1);
  EXPECT_EQ(r.cls, KernelClass::kUnrolled);
  EXPECT_STREQ(r.reason, "");
  EXPECT_NE(r.interior, nullptr);
  EXPECT_NE(r.edge, nullptr);
  EXPECT_NE(r.interior, r.edge);

  // S outside {1, 3, 5, 7}: the generic kernel, no registry slot.
  r = resolve_kernel(b.vw, b.vk, 2, 1);
  EXPECT_EQ(r.cls, KernelClass::kGeneric);
  EXPECT_NE(std::string(r.reason).find("kernel width"), std::string::npos)
      << r.reason;
  EXPECT_EQ(r.interior, nullptr);
  EXPECT_EQ(r.edge, nullptr);

  // Stride outside {1, 2}.
  r = resolve_kernel(b.vw, b.vk, 3, 3);
  EXPECT_EQ(r.cls, KernelClass::kGeneric);
  EXPECT_NE(std::string(r.reason).find("stride"), std::string::npos)
      << r.reason;

  // Feasible at S=1 but over the budget at S=7 (24x4 at 4 lanes, 12x8
  // at 8; at 16 lanes every block fits S = 7).
  for (const RegisterBlock& rb : microkernel_blocks()) {
    if (find_unrolled_kernel(rb.vw, rb.vk, 7, 1) != nullptr) continue;
    r = resolve_kernel(rb.vw, rb.vk, 7, 1);
    EXPECT_EQ(r.cls, KernelClass::kGeneric);
    EXPECT_NE(std::string(r.reason).find("Eq. 3"), std::string::npos)
        << r.reason;
    EXPECT_EQ(r.interior, nullptr);
  }

  // Outside the feasible set entirely: generic.
  r = resolve_kernel(20, 8, 3, 1);
  EXPECT_EQ(r.cls, KernelClass::kGeneric);
  EXPECT_NE(std::string(r.reason).find("outside the Eq. 3 feasible"),
            std::string::npos)
      << r.reason;
  EXPECT_EQ(r.interior, nullptr);
  EXPECT_EQ(r.edge, nullptr);

  EXPECT_STREQ(kernel_class_name(KernelClass::kUnrolled), "unrolled");
  EXPECT_STREQ(kernel_class_name(KernelClass::kGeneric), "generic");
}

// Run one registry entry and the 128-bit generic kernel on
// identically-seeded tiles and require bitwise-equal output planes: both
// issue the same per-accumulator FMA sequence (same c, r, s, w, k order;
// lane-FMA and dup+FMA round identically, at any vector width), so any
// difference is a store-path or quarter-split bug.
// The sentinel fill doubles as an untouched-region check. epi selects
// the epilogue: 0 = plain (also checked against the scalar oracle),
// 1 = accumulate, 2 = bias + relu, 3 = accumulate + bias + residual +
// relu (also checked against the oracle).
void expect_policy_matches_generic(const KernelEntry& e, int wn, int kn,
                                   int epi, bool nhwc, unsigned seed) {
  const TileProblem t{e.vw, e.vk, 3, 2, e.S, e.str};
  TileData d1 = make_tile(t, seed);
  TileData d2 = make_tile(t, seed);
  std::vector<float> bias(static_cast<std::size_t>(t.vk));
  for (int k = 0; k < t.vk; ++k) {
    bias[static_cast<std::size_t>(k)] = 0.25f * static_cast<float>(k - 3);
  }
  std::vector<float> residual(d1.out.size());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] = 0.125f * static_cast<float>(static_cast<int>(i % 11) - 5);
  }
  for (TileData* d : {&d1, &d2}) {
    MicroArgs& a = d->args;
    a.wn = wn;
    a.kn = kn;
    if (nhwc) {
      a.out_k_stride = 1;
      a.out_w_stride = t.vk;
    }
    const float fill = epi == 1 || epi == 3 ? 2.5f : -77.0f;
    for (float& v : d->out) v = fill;
    a.accumulate = epi == 1 || epi == 3;
    if (epi >= 2) {
      a.epi.bias = bias.data();
      a.epi.relu = true;
    }
    if (epi == 3) a.epi.residual = residual.data();
  }
  e.compute(d1.args);
  compute_kernel_generic(d2.args, t.vw, t.vk);
  for (std::size_t i = 0; i < d1.out.size(); ++i) {
    ASSERT_EQ(d1.out[i], d2.out[i])
        << e.vw << "x" << e.vk << " S" << e.S << " str" << e.str
        << (e.tail == TailMode::kEdge ? " edge" : " interior") << " wn="
        << wn << " kn=" << kn << " epi=" << epi
        << (nhwc ? " nhwc" : " nchw") << " out[" << i << "]";
  }
  if (epi == 0 || epi == 3) {
    const std::vector<float> want = oracle(t, d1.pack, d1.ftile);
    for (int w = 0; w < wn; ++w) {
      for (int k = 0; k < kn; ++k) {
        const std::size_t idx = static_cast<std::size_t>(
            k * d1.args.out_k_stride + w * d1.args.out_w_stride);
        float expect = want[static_cast<std::size_t>(w) * t.vk + k];
        if (epi == 3) {
          expect = std::max(2.5f + expect +
                                bias[static_cast<std::size_t>(k)] +
                                residual[idx],
                            0.0f);
        }
        ASSERT_NEAR(d1.out[idx], expect, 1e-4f)
            << e.vw << "x" << e.vk << " S" << e.S << " w=" << w
            << " k=" << k << " epi=" << epi;
      }
    }
  }
}

TEST(PolicyRegistry, ParitySweepEveryPolicyMatchesOracleAndGeneric) {
  // Every registered policy, every epilogue; edge policies additionally
  // at partial-width, partial-channel (kn % 4 != 0), both-ragged, and
  // half-vector shapes (kn = vk / 2: K = 8 on a 16-lane kernel, as in
  // a ResNet-50/8's first layers).
  unsigned seed = 100;
  for (const KernelEntry& e : kernel_registry()) {
    std::vector<std::pair<int, int>> shapes;
    shapes.emplace_back(e.vw, e.vk);
    if (e.tail == TailMode::kEdge) {
      shapes.emplace_back(e.vw, e.vk - 1);
      shapes.emplace_back(e.vw - 1, e.vk);
      shapes.emplace_back(e.vw / 2 + 1, e.vk / 2 + 1);
      shapes.emplace_back(e.vw - 1, std::max(1, e.vk / 2));
    }
    for (const auto& [wn, kn] : shapes) {
      for (int epi = 0; epi < 4; ++epi) {
        expect_policy_matches_generic(e, wn, kn, epi, /*nhwc=*/false,
                                      seed++);
      }
    }
  }
}

TEST(PolicyRegistry, EdgeStoreNhwcParity) {
  // The edge store's NHWC path (partial k-vectors, no transpose) on a
  // both-ragged tile with the bias+relu and the full residual epilogue.
  unsigned seed = 900;
  for (const KernelEntry& e : kernel_registry()) {
    if (e.tail != TailMode::kEdge) continue;
    for (int epi : {2, 3}) {
      expect_policy_matches_generic(e, e.vw - 1, e.vk - 1, epi,
                                    /*nhwc=*/true, seed++);
    }
  }
}

TEST(PolicyRegistry, InteriorStoreNhwcResidualParity) {
  // The interior store's NHWC path with the full residual epilogue.
  unsigned seed = 1300;
  for (const KernelEntry& e : kernel_registry()) {
    if (e.tail != TailMode::kInterior) continue;
    expect_policy_matches_generic(e, e.vw, e.vk, /*epi=*/3, /*nhwc=*/true,
                                  seed++);
  }
}

}  // namespace
}  // namespace ndirect
