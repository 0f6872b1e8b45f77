// Register-block selection for the main micro-kernel (Section 5.2).
//
// The micro-kernel computes a Vw x Vk output tile per iteration of loop
// L9. The paper derives (Vw, Vk) from two pieces:
//
//   Eq. 3 (register budget):  ceil((Vw+S-1)/4) + Vk/4 + Vw*Vk/4 <= 32
//                             and Vk % 4 == 0,
//   Eq. 4 (objective):        FAI = 2*S*Vw*Vk / ((Vw+S-1) + S*Vk),
//
// i.e. input-row registers + one filter register set + accumulators must
// fit the 32 NEON registers, and the flops-per-loaded-element ratio of
// one L9 iteration is maximized. The paper solves this with Lagrange
// multipliers; the integer domain is tiny, so we maximize exactly by
// enumeration (and a test cross-checks against the relaxed continuous
// optimum). For S=3 this yields the paper's Vw=12, Vk=8.
//
// The functions below take the lane count (4 for FP32 on 128 bits) and
// register count as parameters. broadcast_register_cost is the budget
// of the x86 wide-vector kernels, whose broadcast comes from memory;
// the fp32 engine's block at the compiled width comes from
// solve_kernel_block (core/microkernel.h), which uses both counts.
#pragma once

#include <vector>

namespace ndirect {

struct RegisterBlock {
  int vw = 12;  ///< output positions per micro-kernel tile
  int vk = 8;   ///< output channels per micro-kernel tile
};

/// Registers used by a (vw, vk) block for kernel width S (LHS of Eq. 3).
/// `lanes` is the elements-per-vector of the datatype (4 for FP32 on a
/// 128-bit ISA — the paper's setting — 2 for FP64, 8 for FP16 or for
/// FP32 on 256-bit SVE; see Sections 3.3 and 10.1).
int register_cost(int vw, int vk, int S, int lanes = 4);

/// Registers a (vw, vk) block holds live in a kernel whose broadcast
/// FMA reads its scalar from memory (x86): the vw*vk/lanes accumulators,
/// the S filter-vector sets the input-stationary tap order keeps, and
/// one register for the broadcast element. The input window costs no
/// registers, so this count, not Eq. 3's, bounds the AVX-512 kernels.
constexpr int broadcast_register_cost(int vw, int vk, int S, int lanes) {
  return (vw + S) * (vk / lanes) + 1;
}

/// Eq. 4 generalized to any kernel width S (the paper instantiates S=3).
/// FAI counts flops per loaded element, so it is lane-width independent.
double fai_microkernel(int vw, int vk, int S);

/// True iff (vw, vk) satisfies Eq. 3 for kernel width S on an ISA with
/// `regs` vector registers of `lanes` elements, with the additional
/// implementation constraint vw % lanes == 0 (NCHW stores go through
/// lanes x lanes in-register transposes).
bool register_block_feasible(int vw, int vk, int S, int lanes = 4,
                             int regs = 32);

/// All feasible blocks for kernel width S (used by the ablation bench).
std::vector<RegisterBlock> feasible_register_blocks(int S, int lanes = 4,
                                                    int regs = 32);

/// The FAI-maximal block among `blocks` for kernel width S, with
/// solve_register_block's tie-break; `fallback` when `blocks` is empty.
RegisterBlock fai_maximal_block(const std::vector<RegisterBlock>& blocks,
                                int S, RegisterBlock fallback);

/// The FAI-maximal feasible block for kernel width S. Ties prefer the
/// larger vk: a taller filter vector amortizes each packed input element
/// over more output channels and halves the number of kv iterations.
/// The defaults give the paper's ARMv8/FP32 instantiation; other
/// (lanes, regs) pairs re-derive the block for FP64/FP16/SVE/AVX-512 as
/// Sections 3.3 and 10.1 describe.
RegisterBlock solve_register_block(int S, int lanes = 4, int regs = 32);

}  // namespace ndirect
