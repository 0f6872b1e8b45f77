#include "core/fai.h"

#include "simd/vec128.h"

namespace ndirect {

int register_cost(int vw, int vk, int S, int lanes) {
  const int input_regs = (vw + S - 1 + lanes - 1) / lanes;
  const int filter_regs = vk / lanes;
  const int acc_regs = vw * vk / lanes;
  return input_regs + filter_regs + acc_regs;
}

double fai_microkernel(int vw, int vk, int S) {
  const double flops = 2.0 * S * vw * vk;
  const double loads = (vw + S - 1) + static_cast<double>(S) * vk;
  return flops / loads;
}

bool register_block_feasible(int vw, int vk, int S, int lanes, int regs) {
  if (vw <= 0 || vk <= 0) return false;
  if (vk % lanes != 0) return false;  // Eq. 3 second condition
  if (vw % lanes != 0) return false;  // transpose-store constraint
  return register_cost(vw, vk, S, lanes) <= regs;
}

std::vector<RegisterBlock> feasible_register_blocks(int S, int lanes,
                                                    int regs) {
  std::vector<RegisterBlock> blocks;
  const int limit = lanes * regs;
  for (int vk = lanes; vk <= limit; vk += lanes) {
    for (int vw = lanes; vw <= limit; vw += lanes) {
      if (register_block_feasible(vw, vk, S, lanes, regs)) {
        blocks.push_back({vw, vk});
      }
    }
  }
  return blocks;
}

RegisterBlock fai_maximal_block(const std::vector<RegisterBlock>& blocks,
                                int S, RegisterBlock fallback) {
  RegisterBlock best = fallback;
  double best_fai = -1.0;
  for (const RegisterBlock& b : blocks) {
    const double fai = fai_microkernel(b.vw, b.vk, S);
    const bool better =
        fai > best_fai + 1e-12 ||
        (fai > best_fai - 1e-12 &&
         (b.vk > best.vk || (b.vk == best.vk && b.vw > best.vw)));
    if (better) {
      best = b;
      best_fai = fai;
    }
  }
  return best;
}

RegisterBlock solve_register_block(int S, int lanes, int regs) {
  return fai_maximal_block(feasible_register_blocks(S, lanes, regs), S,
                           {lanes, lanes});
}

}  // namespace ndirect
