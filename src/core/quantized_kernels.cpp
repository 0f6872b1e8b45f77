// Int8 kernel registry aggregation, once-per-conv resolution, backend
// selection, and the scalar reference kernel.
#include "core/quantized_microkernel.h"

#include <algorithm>

#include "runtime/cpu_info.h"
#include "runtime/env.h"

namespace ndirect {

const char* int8_backend_name(Int8Backend b) {
  switch (b) {
    case Int8Backend::kScalar: return "scalar";
    case Int8Backend::kEmulated: return "emulated";
    case Int8Backend::kDot:
      return NDIRECT_INT8_DOT_VNNI ? "vnni"
             : NDIRECT_INT8_DOT_COMPILED ? "sdot"
                                         : "dot";
  }
  return "?";
}

Int8Backend int8_preferred_backend() {
  // The env override is read per call (tests flip it); the hardware
  // probe is immutable for the process lifetime. A binary built for
  // VNNI never issues VPDPBUSD on a host that lacks it.
  if (env_flag("NDIRECT_FORCE_NO_DOTPROD")) return Int8Backend::kEmulated;
#if NDIRECT_INT8_DOT_COMPILED
  static const bool host_dot = [] {
    const CpuInfo cpu = probe_host_cpu();
    return NDIRECT_INT8_DOT_VNNI ? cpu.avx512vnni : cpu.asimddp;
  }();
  if (host_dot) return Int8Backend::kDot;
#endif
  return Int8Backend::kEmulated;
}

namespace {

/// kDot where it is compiled, kEmulated for every other request.
Int8Backend served_backend(Int8Backend b) {
  return b == Int8Backend::kDot && NDIRECT_INT8_DOT_COMPILED
             ? Int8Backend::kDot
             : Int8Backend::kEmulated;
}

}  // namespace

RegisterBlock int8_planned_block(int S, Int8Backend b) {
  // The 16-lane dot kernels share the fp32 kernels' width and budget.
  static_assert(!NDIRECT_INT8_DOT_COMPILED || kI8DotLanes == kKernelLanes);
  return int8_backend_lanes(served_backend(b)) == 16
             ? solve_kernel_block(S)
             : solve_register_block(S);
}

const std::vector<I8KernelEntry>& int8_kernel_registry() {
  static const std::vector<I8KernelEntry> registry = [] {
    std::vector<I8KernelEntry> all;
    for (const detail::I8PolicySpan span :
         {detail::i8_policy_entries_s1(), detail::i8_policy_entries_s3(),
          detail::i8_policy_entries_s5(),
          detail::i8_policy_entries_s7()}) {
      all.insert(all.end(), span.data, span.data + span.size);
    }
    return all;
  }();
  return registry;
}

const std::vector<RegisterBlock>& int8_microkernel_blocks(Int8Backend b) {
  static const auto blocks_of = [](Int8Backend backend) {
    std::vector<RegisterBlock> out;
    for (const I8KernelEntry& e : int8_kernel_registry()) {
      if (e.backend != backend) continue;
      const bool seen =
          std::any_of(out.begin(), out.end(), [&](const RegisterBlock& x) {
            return x.vw == e.vw && x.vk == e.vk;
          });
      if (!seen) out.push_back(RegisterBlock{e.vw, e.vk});
    }
    return out;
  };
  static const std::vector<RegisterBlock> emulated =
      blocks_of(Int8Backend::kEmulated);
  static const std::vector<RegisterBlock> dot = blocks_of(Int8Backend::kDot);
  return served_backend(b) == Int8Backend::kDot ? dot : emulated;
}

I8KernelResolution resolve_int8_kernel(int vw, int vk, int S, int str,
                                       Int8Backend preferred) {
  I8KernelResolution res;
  if (preferred == Int8Backend::kScalar) {
    res.reason = "scalar backend requested";
    return res;
  }
  const Int8Backend want = served_backend(preferred);
  if (want != preferred) {
    res.reason = "no native dot kernels compiled; emulated";
  }
  auto find = [&](Int8Backend b) -> const I8KernelEntry* {
    for (const I8KernelEntry& e : int8_kernel_registry()) {
      if (e.vw == vw && e.vk == vk && e.S == S && e.str == str &&
          e.backend == b) {
        return &e;
      }
    }
    return nullptr;
  };
  const I8KernelEntry* e = find(want);
  if (e == nullptr && want == Int8Backend::kDot) {
    e = find(Int8Backend::kEmulated);
    if (e != nullptr) res.reason = "block outside the dot grid; emulated";
  }
  if (e != nullptr) {
    res.fn = e->fn;
    res.backend = e->backend;
    return res;
  }
  if (S != 1 && S != 3 && S != 5 && S != 7) {
    res.reason = "kernel width S outside {1,3,5,7}";
  } else if (str > 2) {
    res.reason = "stride > 2";
  } else if (!int8_block_feasible(vw, vk, S, want)) {
    res.reason = "block outside the register budget";
  } else {
    res.reason = "policy not instantiated";
  }
  return res;
}

void int8_kernel_generic(const I8MicroArgs& a, int vw, int vk) {
  for (int k = 0; k < vk; ++k) {
    for (int w = 0; w < vw; ++w) a.acc[k * vw + w] = 0;
  }
  for (int c = 0; c < a.c4; ++c) {
    const std::int8_t* brows = a.pack + c * a.pack_c4_stride;
    const std::int8_t* fc = a.ftile + c * a.f_c4_stride;
    for (int r = 0; r < a.R; ++r) {
      const std::int8_t* brow = brows + r * a.pack_r_stride;
      const std::int8_t* frow =
          fc + static_cast<std::int64_t>(r) * a.S * vk * 4;
      for (int s = 0; s < a.S; ++s) {
        const std::int8_t* fv = frow + s * vk * 4;
        for (int w = 0; w < vw; ++w) {
          const std::int8_t* group = brow + (w * a.str + s) * 4;
          for (int k = 0; k < vk; ++k) {
            std::int32_t dot = 0;  // 4 products of |.| <= 2^14: no wrap
            for (int j = 0; j < 4; ++j) {
              dot += static_cast<std::int32_t>(group[j]) *
                     static_cast<std::int32_t>(fv[k * 4 + j]);
            }
            // Modular, like the vector kernels' adds (no signed
            // overflow on long reductions).
            std::int32_t& acc = a.acc[k * vw + w];
            acc = static_cast<std::int32_t>(static_cast<std::uint32_t>(acc) +
                                            static_cast<std::uint32_t>(dot));
          }
        }
      }
    }
  }
}

}  // namespace ndirect
