// Host CPU/cache probing. The tiling model (Eq. 1-2) needs L1/L2/L3 sizes;
// on the paper's platforms these come from Table 3, on the host they are
// probed from sysconf/sysfs with conservative fallbacks.
#pragma once

#include <cstddef>
#include <string>

namespace ndirect {

/// Cache capacities in bytes (0 means "absent", e.g. no L3 on Phytium).
struct CacheInfo {
  std::size_t l1d = 32 * 1024;
  std::size_t l2 = 512 * 1024;
  std::size_t l3 = 0;
  bool l2_shared = false;  ///< L2 shared between a core cluster (Phytium)?
};

struct CpuInfo {
  std::string name = "host";
  int logical_cores = 1;
  CacheInfo cache;
  /// ARMv8.2 dot-product extension (HWCAP asimddp): UDOT/SDOT issue four
  /// int8 MACs per 32-bit lane — the int8 path's 4x arithmetic lever.
  /// Always false on non-aarch64 hosts.
  bool asimddp = false;
  /// ARMv8.6 int8 matrix-multiply extension (HWCAP2 i8mm): adds USDOT /
  /// SMMLA. Detected for the host stamp; no kernel uses it yet.
  bool i8mm = false;
  /// x86 AVX512-VNNI (cpuid leaf 7 ECX bit 11): VPDPBUSD, the u8 x s8
  /// 4-way dot the x86 int8 kernels issue at 16 lanes. Always false on
  /// non-x86 hosts.
  bool avx512vnni = false;
};

/// Probe the calling machine. Never fails: unknown values keep defaults.
CpuInfo probe_host_cpu();

}  // namespace ndirect
