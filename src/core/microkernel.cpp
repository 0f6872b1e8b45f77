#include "core/microkernel.h"

#include <algorithm>
#include <utility>

#include "core/microkernel_generator.h"
#include "simd/vec.h"

namespace ndirect {
namespace {

constexpr int L = kKernelLanes;
using V = vec<L>;

// Every (s, w) tap of one (c, r) row, runtime S and stride.
template <int VW, int VKV>
inline void cr_compute_runtime(V (&acc)[VW][VKV], const MicroArgs& a,
                               const float* brow, const float* frow) {
  constexpr int VK = VKV * L;
  for (int s = 0; s < a.S; ++s) {
    V f[VKV];
    for (int j = 0; j < VKV; ++j) f[j] = V::load(frow + s * VK + L * j);
    const float* b = brow + s;
    for (int w = 0; w < VW; ++w) {
      const V x = V::dup(b[w * a.str]);
      for (int j = 0; j < VKV; ++j) acc[w][j] = V::fma(acc[w][j], x, f[j]);
    }
  }
}

template <int VW, int VKV>
inline void store_runtime(const MicroArgs& a, const V (&acc)[VW][VKV]) {
  if (a.wn == VW && a.kn == VKV * L) {
    detail::store_wide_tile<L, VW, VKV, true>(a, acc);
  } else {
    detail::store_wide_tile<L, VW, VKV, false>(a, acc);
  }
}

// Runtime-S/stride specialized kernels: compile-time block, runtime
// kernel-width loops. These cover feasible blocks whose (S, str) has no
// unrolled policy (S outside {1, 3, 5, 7} or stride > 2); their stores
// go through the same interior/edge paths as the policy kernels, so
// ragged tiles stay vectorized here too.
template <int VW, int VKV>
void compute_kernel(const MicroArgs& a) {
  constexpr int VK = VKV * L;
  V acc[VW][VKV];
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) acc[w][j] = V::zero();
  }
  for (int c = 0; c < a.tc; ++c) {
    const float* brows = a.pack + c * a.pack_c_stride;
    const float* fc = a.ftile + c * a.f_c_stride;
    for (int r = 0; r < a.R; ++r) {
      cr_compute_runtime(acc, a, brows + r * a.pack_r_stride,
                         fc + static_cast<std::int64_t>(r) * a.S * VK);
    }
  }
  store_runtime(a, acc);
}

// Fused packing + first-kv compute (Section 5.3), runtime-S form.
template <int VW, int VKV>
void fused_kernel(const MicroArgs& a, const PackGeometry& g) {
  constexpr int VK = VKV * L;
  V acc[VW][VKV];
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) acc[w][j] = V::zero();
  }
  for (int c = 0; c < a.tc; ++c) {
    float* brows = a.pack + c * a.pack_c_stride;
    const float* fc = a.ftile + c * a.f_c_stride;
    for (int r = 0; r < a.R; ++r) {
      float* brow = brows + r * a.pack_r_stride;
      detail::pack_row(brow, g, c, g.ih0 + r, a.packw);
      cr_compute_runtime(acc, a, brow,
                         fc + static_cast<std::int64_t>(r) * a.S * VK);
    }
  }
  store_runtime(a, acc);
}

// Runtime-S dispatch table, generated from the same predicate as the
// policy registry (S = 1 gives the union over all kernel widths: the
// register cost only grows with S).
struct RuntimeEntry {
  int vw = 0;
  int vk = 0;
  ComputeKernelFn compute = nullptr;
  FusedKernelFn fused = nullptr;
};

template <int VW, int VK, typename Table>
constexpr void emit_runtime_block(Table& table, std::size_t& i) {
  if constexpr (detail::kernel_block_built(VW, VK, 1)) {
    table[i++] = RuntimeEntry{VW, VK, &compute_kernel<VW, VK / L>,
                              &fused_kernel<VW, VK / L>};
  }
}

template <int VW, typename Table>
constexpr void emit_runtime_row(Table& table, std::size_t& i) {
  [&]<int... Ks>(std::integer_sequence<int, Ks...>) {
    (emit_runtime_block<VW, (Ks + 1) * L>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVk / L>{});
}

constexpr auto build_runtime_table() {
  std::array<RuntimeEntry,
             static_cast<std::size_t>(detail::policy_block_count(1))>
      table{};
  std::size_t i = 0;
  [&]<int... Ws>(std::integer_sequence<int, Ws...>) {
    (emit_runtime_row<(Ws + 1) * 4>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVw / 4>{});
  return table;
}

constexpr auto kRuntimeTable = build_runtime_table();

const KernelEntry* find_policy(int vw, int vk, int S, int str,
                               TailMode tail) {
  for (const KernelEntry& e : kernel_registry()) {
    if (e.vw == vw && e.vk == vk && e.S == S && e.str == str &&
        e.tail == tail) {
      return &e;
    }
  }
  return nullptr;
}

}  // namespace

void pack_window(float* pack, const PackGeometry& geom, int tc, int R,
                 int packw) {
  for (int c = 0; c < tc; ++c) {
    for (int r = 0; r < R; ++r) {
      detail::pack_row(pack + (static_cast<std::int64_t>(c) * R + r) * packw,
                       geom, c, geom.ih0 + r, packw);
    }
  }
}

void compute_kernel_generic(const MicroArgs& a, int vw, int vk) {
  const int vkv = vk / 4;
  vec128f acc[kMaxVw][kMaxVk / 4];
  for (int w = 0; w < vw; ++w) {
    for (int j = 0; j < vkv; ++j) acc[w][j] = vzero();
  }
  for (int c = 0; c < a.tc; ++c) {
    const float* brows = a.pack + c * a.pack_c_stride;
    const float* fc = a.ftile + c * a.f_c_stride;
    for (int r = 0; r < a.R; ++r) {
      const float* brow = brows + r * a.pack_r_stride;
      const float* frow = fc + static_cast<std::int64_t>(r) * a.S * vk;
      for (int s = 0; s < a.S; ++s) {
        vec128f f[kMaxVk / 4];
        for (int j = 0; j < vkv; ++j) f[j] = vload(frow + s * vk + 4 * j);
        const float* b = brow + s;
        for (int w = 0; w < vw; ++w) {
          const vec128f x = vdup(b[w * a.str]);
          for (int j = 0; j < vkv; ++j) acc[w][j] = vfma(acc[w][j], x, f[j]);
        }
      }
    }
  }
  // Scalar spill-and-copy store: the generic kernel is the last-resort
  // path for blocks outside the registry, so it keeps the simplest
  // correct store rather than the vectorized interior/edge pair.
  float tile[kMaxVw][kMaxVk];
  for (int w = 0; w < vw; ++w) {
    for (int j = 0; j < vkv; ++j) vstore(&tile[w][4 * j], acc[w][j]);
  }
  for (int w = 0; w < a.wn; ++w) {
    for (int k = 0; k < a.kn; ++k) {
      const std::int64_t off = k * a.out_k_stride + w * a.out_w_stride;
      float* o = a.out + off;
      float v = a.accumulate ? *o + tile[w][k] : tile[w][k];
      if (a.epi.bias != nullptr) v += a.epi.bias[k];
      if (a.epi.residual != nullptr) v += a.epi.residual[off];
      if (a.epi.relu) v = std::max(v, 0.0f);
      *o = v;
    }
  }
}

void fused_kernel_generic(const MicroArgs& a, const PackGeometry& geom,
                          int vw, int vk) {
  pack_window(a.pack, geom, a.tc, a.R, a.packw);
  compute_kernel_generic(a, vw, vk);
}

RegisterBlock solve_kernel_block(int S) {
  // The runtime table holds the S = 1 set, a superset of every S's.
  std::vector<RegisterBlock> fits;
  for (const RegisterBlock& b : microkernel_blocks()) {
    if (detail::kernel_block_built(b.vw, b.vk, S)) fits.push_back(b);
  }
  // A kernel width no block fits falls back to the smallest block (the
  // runtime-S kernels take any S).
  return fai_maximal_block(fits, S, {4, L});
}

const std::vector<KernelEntry>& kernel_registry() {
  static const std::vector<KernelEntry> registry = [] {
    std::vector<KernelEntry> all;
    for (const detail::PolicySpan span :
         {detail::policy_entries_s1(), detail::policy_entries_s3(),
          detail::policy_entries_s5(), detail::policy_entries_s7()}) {
      all.insert(all.end(), span.data, span.data + span.size);
    }
    return all;
  }();
  return registry;
}

const std::vector<RegisterBlock>& microkernel_blocks() {
  static const std::vector<RegisterBlock> blocks = [] {
    std::vector<RegisterBlock> v;
    v.reserve(kRuntimeTable.size());
    for (const RuntimeEntry& e : kRuntimeTable) v.push_back({e.vw, e.vk});
    return v;
  }();
  return blocks;
}

const char* kernel_class_name(KernelClass cls) {
  switch (cls) {
    case KernelClass::kUnrolled: return "unrolled";
    case KernelClass::kSpecialized: return "specialized";
    case KernelClass::kGeneric: return "generic";
  }
  return "?";
}

KernelResolution resolve_kernel(int vw, int vk, int S, int str) {
  KernelResolution r;
  if (const KernelEntry* in = find_policy(vw, vk, S, str, TailMode::kInterior);
      in != nullptr) {
    const KernelEntry* ed = find_policy(vw, vk, S, str, TailMode::kEdge);
    r.interior = in->compute;
    r.interior_fused = in->fused;
    r.edge = ed->compute;
    r.edge_fused = ed->fused;
    r.cls = KernelClass::kUnrolled;
    r.reason = "";
    return r;
  }
  if (ComputeKernelFn fn = find_compute_kernel(vw, vk); fn != nullptr) {
    // The runtime-S kernel branches interior/edge internally, so it
    // serves both dispatch slots.
    r.interior = r.edge = fn;
    r.interior_fused = r.edge_fused = find_fused_kernel(vw, vk);
    r.cls = KernelClass::kSpecialized;
    if (str != 1 && str != 2) {
      r.reason = "stride outside the unrolled set {1, 2}";
    } else if (S != 1 && S != 3 && S != 5 && S != 7) {
      r.reason = "kernel width S outside the unrolled set {1, 3, 5, 7}";
    } else {
      r.reason = "block exceeds the Eq. 3 budget at this kernel width";
    }
    return r;
  }
  r.cls = KernelClass::kGeneric;
  r.reason = "block (vw, vk) outside the Eq. 3 feasible registry";
  return r;
}

ComputeKernelFn find_unrolled_kernel(int vw, int vk, int S, int str) {
  const KernelEntry* e = find_policy(vw, vk, S, str, TailMode::kInterior);
  return e != nullptr ? e->compute : nullptr;
}

ComputeKernelFn find_compute_kernel(int vw, int vk) {
  for (const RuntimeEntry& e : kRuntimeTable) {
    if (e.vw == vw && e.vk == vk) return e.compute;
  }
  return nullptr;
}

FusedKernelFn find_fused_kernel(int vw, int vk) {
  for (const RuntimeEntry& e : kRuntimeTable) {
    if (e.vw == vw && e.vk == vk) return e.fused;
  }
  return nullptr;
}

}  // namespace ndirect
