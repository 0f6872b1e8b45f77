// Tests for the datatype/ISA generalization (Sections 3.3 and 10.1):
// the lanes/registers-parameterized Eq. 3/4 solver.
#include <gtest/gtest.h>

#include "core/fai.h"

namespace ndirect {
namespace {

// ----------------------------------------------------------------------
// Generalized Eq. 3 / Eq. 4
// ----------------------------------------------------------------------

TEST(GeneralizedSolver, DefaultsMatchPaperInstance) {
  // lanes=4, regs=32 must reproduce the FP32/ARMv8 result.
  const RegisterBlock fp32 = solve_register_block(3, 4, 32);
  EXPECT_EQ(fp32.vw, 12);
  EXPECT_EQ(fp32.vk, 8);
}

TEST(GeneralizedSolver, RegisterCostScalesWithLanes) {
  // FP64 on 128-bit: 2 lanes. (8,6) for S=3: ceil(10/2)+3+24 = 32.
  EXPECT_EQ(register_cost(8, 6, 3, 2), 32);
  // FP16 on 128-bit: 8 lanes. (16,16) for S=3: ceil(18/8)+2+32 = 37.
  EXPECT_EQ(register_cost(16, 16, 3, 8), 37);
}

TEST(GeneralizedSolver, EveryIsaInstanceIsFeasibleAndOptimal) {
  struct Isa {
    const char* name;
    int lanes, regs;
  };
  const Isa isas[] = {
      {"ARMv8 FP32", 4, 32},  {"ARMv8 FP64", 2, 32},
      {"ARMv8 FP16", 8, 32},  {"SVE-256 FP32", 8, 32},
      {"SVE-512 FP32", 16, 32}, {"AVX-512 FP32", 16, 32},
  };
  for (const Isa& isa : isas) {
    for (int S : {1, 3, 5, 7}) {
      const RegisterBlock b = solve_register_block(S, isa.lanes, isa.regs);
      EXPECT_TRUE(register_block_feasible(b.vw, b.vk, S, isa.lanes,
                                          isa.regs))
          << isa.name << " S=" << S;
      // Optimality over the enumerated space.
      const double best = fai_microkernel(b.vw, b.vk, S);
      for (const RegisterBlock& rival :
           feasible_register_blocks(S, isa.lanes, isa.regs)) {
        EXPECT_LE(fai_microkernel(rival.vw, rival.vk, S), best + 1e-9)
            << isa.name << " S=" << S;
      }
    }
  }
}

TEST(GeneralizedSolver, WiderVectorsRaiseAchievableFai) {
  // Section 10.1: wider SVE vectors admit larger blocks. The optimal
  // FAI must be non-decreasing in the lane count.
  double prev = 0;
  for (int lanes : {2, 4, 8, 16}) {
    const RegisterBlock b = solve_register_block(3, lanes, 32);
    const double fai = fai_microkernel(b.vw, b.vk, 3);
    EXPECT_GE(fai, prev) << "lanes=" << lanes;
    prev = fai;
  }
}

TEST(GeneralizedSolver, MoreRegistersNeverHurt) {
  const RegisterBlock small = solve_register_block(3, 4, 16);
  const RegisterBlock big = solve_register_block(3, 4, 32);
  EXPECT_GE(fai_microkernel(big.vw, big.vk, 3),
            fai_microkernel(small.vw, small.vk, 3));
}

}  // namespace
}  // namespace ndirect
