// Persistent per-thread scratch arenas for the kernel hot paths.
//
// Every convolution call needs small, short-lived working buffers (the
// packed input window, the on-the-fly transformed filter tile). The seed
// engine heap-allocated these inside each worker on every call, a fixed
// cost that dominates exactly the small late-stage layers (7x7 spatial)
// where the kernel itself runs in microseconds. An arena instead lives
// as long as its OS thread: buffers grow monotonically to the high-water
// mark of the shapes the thread has executed and are reused verbatim on
// every later call, so steady-state inference performs zero heap
// allocations inside the loop nest.
//
// Concurrency model: one arena per OS thread (`this_thread_scratch()`),
// never shared. Pool workers and caller threads each get their own, so
// concurrent convolutions on different pools or engines can never alias
// a buffer. Oversubscribed task ids reuse their OS thread's arena
// sequentially, which is safe because a task's scratch use ends before
// the next task starts on that thread.
//
// Namespaces: a single OS thread can nonetheless be inside TWO
// convolutions at once — the re-entrant pool lets a worker that finished
// its slice of conv A claim a task of conv B while A's buffers are still
// live further up its own call stack (nested dispatch has the same
// shape). Each nesting level therefore addresses a disjoint namespace of
// slots: `floats(ns, slot, n)` with ns = the thread's current
// ScratchDepth level. Level 0 is the fixed hot-path storage; deeper
// levels grow lazily and are only touched by re-entrant execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/aligned_buffer.h"

namespace ndirect {

/// Independently grown buffers within one arena. A kernel that needs two
/// live buffers at once must use two distinct slots.
enum class ScratchSlot : int {
  kPack = 0,     ///< packed input window ([tc][R][packw] + vector slack)
  kFilterTile,   ///< on-the-fly transformed filter tile
  kAux0,         ///< int8: packed input window
  kAux1,         ///< int8: int32 accumulator tile
};

inline constexpr int kScratchSlotCount = 4;

/// A set of cache-line-aligned, grow-only float buffers owned by one OS
/// thread. Obtain via this_thread_scratch(); do not share across threads.
class ScratchArena {
 public:
  /// Buffer for `slot` holding at least `count` floats. Grows (and
  /// invalidates prior contents of that slot) only when `count` exceeds
  /// the slot's high-water mark; otherwise returns the existing storage
  /// untouched. The underlying allocation carries a cache line of tail
  /// slack, so kernels may read (not write) a few lanes past the end.
  float* floats(ScratchSlot slot, std::size_t count) {
    return floats(0, slot, count);
  }

  /// Same, within namespace `ns` (>= 0). Distinct namespaces never alias,
  /// so a task executing inside another task (re-entrant pool dispatch)
  /// addresses its own buffers by passing its nesting depth. Namespace 0
  /// is the pre-sized hot path; higher namespaces allocate on first use.
  float* floats(int ns, ScratchSlot slot, std::size_t count);

  /// Number of times any slot of this arena (re)allocated. Constant
  /// across calls once the arena is warm — tests assert on this.
  std::uint64_t grow_count() const { return grows_; }

  /// Current total capacity across slots, in bytes.
  std::size_t capacity_bytes() const;

  /// Free all slots (memory pressure / tests). The next floats() call
  /// reallocates.
  void release();

 private:
  AlignedBuffer<float> slots_[kScratchSlotCount];  ///< namespace 0
  /// Namespaces >= 1, laid out (ns-1)-major: entry
  /// (ns-1)*kScratchSlotCount + slot. Grown only by the owning thread.
  std::vector<AlignedBuffer<float>> extra_;
  std::uint64_t grows_ = 0;
};

/// The calling OS thread's persistent arena (thread-local singleton;
/// created on first use, freed at thread exit).
ScratchArena& this_thread_scratch();

/// RAII marker of one engine invocation on this thread. Construction
/// claims the thread's current nesting level (0 for the outermost
/// engine, 1 for an engine entered while level 0 is still live, ...);
/// destruction releases it. The claimed `level()` is the arena namespace
/// the invocation must pass to ScratchArena::floats, which is what keeps
/// a worker's re-entrant task from clobbering the pack buffer of the
/// convolution further down its own call stack.
class ScratchDepth {
 public:
  ScratchDepth();
  ~ScratchDepth();
  ScratchDepth(const ScratchDepth&) = delete;
  ScratchDepth& operator=(const ScratchDepth&) = delete;

  int level() const { return level_; }

 private:
  int level_;
};

/// Process-wide count of arena growth events across all threads.
/// Monotonic; a window with no growth proves the hot path ran
/// allocation-free (see runtime_test).
std::uint64_t scratch_grow_events();

}  // namespace ndirect
