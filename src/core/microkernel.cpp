#include "core/microkernel.h"

#include <algorithm>
#include <cstring>

#include "core/microkernel_generator.h"
#include "simd/vec.h"

namespace ndirect {
namespace {

constexpr int L = kKernelLanes;

// Gather one (c, ih) input row segment of `packw` elements into `dst`,
// zero-filling where the window hangs over the (padded) border. The
// segment is contiguous in the input row for any stride, because the
// micro-kernel indexes the buffer as brow[w*str + s].
void pack_row(float* dst, const PackGeometry& g, int c, int ih, int packw) {
  if (ih < 0 || ih >= g.H) {
    std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(packw));
    return;
  }
  const float* row = g.src + c * g.chan_stride +
                     static_cast<std::int64_t>(ih) * g.row_stride;
  int t = 0;
  while (t < packw && g.iw0 + t * g.iw_step < 0) dst[t++] = 0.0f;
  int t_hi = packw;
  while (t_hi > t && g.iw0 + (t_hi - 1) * g.iw_step >= g.W) --t_hi;
  if (g.col_stride == 1 && g.iw_step == 1) {
    if (t_hi > t) {
      std::memcpy(dst + t, row + g.iw0 + t,
                  sizeof(float) * static_cast<std::size_t>(t_hi - t));
    }
  } else {
    for (int u = t; u < t_hi; ++u) {
      dst[u] = row[(g.iw0 + u * g.iw_step) * g.col_stride];
    }
  }
  for (int u = t_hi; u < packw; ++u) dst[u] = 0.0f;
}

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
      pack_row(pack + (static_cast<std::int64_t>(c) * R + r) * packw, geom,
               c, geom.ih0 + r, packw);
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

RegisterBlock solve_kernel_block(int S) {
  std::vector<RegisterBlock> fits;
  for (const RegisterBlock& b : microkernel_blocks()) {
    if (detail::kernel_block_built(b.vw, b.vk, S)) fits.push_back(b);
  }
  // A kernel width no block fits falls back to the smallest block, which
  // runs the generic kernel.
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
    for (int vw = 4; vw <= kMaxVw; vw += 4) {
      for (int vk = L; vk <= kMaxVk; vk += L) {
        if (detail::kernel_block_built(vw, vk, 1)) v.push_back({vw, vk});
      }
    }
    return v;
  }();
  return blocks;
}

const char* kernel_class_name(KernelClass cls) {
  switch (cls) {
    case KernelClass::kUnrolled: return "unrolled";
    case KernelClass::kGeneric: return "generic";
  }
  return "?";
}

KernelResolution resolve_kernel(int vw, int vk, int S, int str) {
  KernelResolution r;
  const KernelEntry* in = find_policy(vw, vk, S, str, TailMode::kInterior);
  if (in == nullptr) {
    if (!detail::kernel_block_built(vw, vk, 1)) {
      r.reason = "block (vw, vk) outside the Eq. 3 feasible registry";
    } else if (str != 1 && str != 2) {
      r.reason = "stride outside the unrolled set {1, 2}";
    } else if (S != 1 && S != 3 && S != 5 && S != 7) {
      r.reason = "kernel width S outside the unrolled set {1, 3, 5, 7}";
    } else {
      r.reason = "block exceeds the Eq. 3 budget at this kernel width";
    }
    return r;
  }
  r.interior = in->compute;
  r.edge = find_policy(vw, vk, S, str, TailMode::kEdge)->compute;
  r.cls = KernelClass::kUnrolled;
  return r;
}

ComputeKernelFn find_unrolled_kernel(int vw, int vk, int S, int str) {
  const KernelEntry* e = find_policy(vw, vk, S, str, TailMode::kInterior);
  return e != nullptr ? e->compute : nullptr;
}

}  // namespace ndirect
