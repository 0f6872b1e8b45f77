#include "runtime/cpu_info.h"

#include <fstream>
#include <thread>

#include <unistd.h>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#endif

namespace ndirect {
namespace {

// Read e.g. "32K" / "2048K" / "1M" from a sysfs cache size file.
std::size_t read_sysfs_cache_size(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::string text;
  in >> text;
  if (text.empty()) return 0;
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    if (text[i] == 'K' || text[i] == 'k') value *= 1024;
    if (text[i] == 'M' || text[i] == 'm') value *= 1024 * 1024;
  }
  return value;
}

std::string read_sysfs_string(const std::string& path) {
  std::ifstream in(path);
  std::string text;
  if (in) std::getline(in, text);
  return text;
}

// The human CPU model string: "model name" on x86, "Hardware" on many
// ARM kernels (which list per-core implementer/part codes instead).
// Empty when /proc/cpuinfo has neither.
std::string probe_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line, hardware;
  while (in && std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t'))
      key.pop_back();
    std::size_t v = colon + 1;
    while (v < line.size() && (line[v] == ' ' || line[v] == '\t')) ++v;
    if (key == "model name") return line.substr(v);
    if (key == "Hardware") hardware = line.substr(v);
  }
  return hardware;
}

}  // namespace

CpuInfo probe_host_cpu() {
  CpuInfo info;
  const unsigned hc = std::thread::hardware_concurrency();
  info.logical_cores = hc == 0 ? 1 : static_cast<int>(hc);
  const std::string model = probe_cpu_model();
  if (!model.empty()) info.name = model;

#if defined(__aarch64__) && defined(__linux__)
  // HWCAP bits per the kernel's arch/arm64/include/uapi/asm/hwcap.h;
  // defined locally so old libc headers don't hide the features.
  constexpr unsigned long kHwcapAsimddp = 1ul << 20;
  constexpr unsigned long kHwcap2I8mm = 1ul << 13;
  info.asimddp = (getauxval(AT_HWCAP) & kHwcapAsimddp) != 0;
  info.i8mm = (getauxval(AT_HWCAP2) & kHwcap2I8mm) != 0;
#endif

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  info.avx512vnni = __builtin_cpu_supports("avx512vnni") != 0;
#endif

#ifdef _SC_LEVEL1_DCACHE_SIZE
  if (long s = sysconf(_SC_LEVEL1_DCACHE_SIZE); s > 0)
    info.cache.l1d = static_cast<std::size_t>(s);
  if (long s = sysconf(_SC_LEVEL2_CACHE_SIZE); s > 0)
    info.cache.l2 = static_cast<std::size_t>(s);
  if (long s = sysconf(_SC_LEVEL3_CACHE_SIZE); s > 0)
    info.cache.l3 = static_cast<std::size_t>(s);
#endif

  // sysfs is more reliable than sysconf on some kernels; prefer it when
  // present. Index layout: index0=L1d, index1=L1i, index2=L2, index3=L3.
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/";
  for (int idx = 0; idx < 6; ++idx) {
    const std::string dir = base + "index" + std::to_string(idx) + "/";
    const std::string level = read_sysfs_string(dir + "level");
    const std::string type = read_sysfs_string(dir + "type");
    const std::size_t size = read_sysfs_cache_size(dir + "size");
    if (size == 0) continue;
    if (level == "1" && (type == "Data" || type == "Unified"))
      info.cache.l1d = size;
    else if (level == "2")
      info.cache.l2 = size;
    else if (level == "3")
      info.cache.l3 = size;
  }
  return info;
}

}  // namespace ndirect
