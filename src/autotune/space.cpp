#include "autotune/space.h"

#include <algorithm>

#include "core/microkernel.h"

namespace ndirect {

bool schedule_valid(const Schedule& s, const ConvParams& p, int threads) {
  if (s.vw < 4 || s.vw > kMaxVw || s.vw % 4 != 0) return false;
  if (s.vk < 4 || s.vk > kMaxVk || s.vk % 4 != 0) return false;
  if (s.tc < 1 || s.tc > p.C) return false;
  if (s.tk < s.vk || s.tk % s.vk != 0) return false;
  if (s.th < 1 || s.th > p.P()) return false;
  if (s.ptn < 1 || threads % s.ptn != 0) return false;
  if (std::int64_t{s.ptn} > std::int64_t{p.N} * p.P()) return false;
  if (threads / s.ptn > p.K) return false;
  return true;
}

ScheduleSpace::ScheduleSpace(const ConvParams& p, int threads,
                             std::uint64_t seed)
    : params_(p), threads_(threads < 1 ? 1 : threads), rng_(seed) {
  // The (vw, vk) gene enumerates every 4-lane Eq. 3-feasible pair (the
  // S = 1 set, a superset of every larger S's), vw then vk. The tuned
  // schedules run on the 128-bit generic kernel (schedule_to_options),
  // which serves exactly these blocks whatever the build's kernel width.
  block_choices_ = feasible_register_blocks(1);
  std::sort(block_choices_.begin(), block_choices_.end(),
            [](const RegisterBlock& a, const RegisterBlock& b) {
              return a.vw != b.vw ? a.vw < b.vw : a.vk < b.vk;
            });

  // Power-of-two-ish ladders clipped to the problem bounds.
  for (int t : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}) {
    if (t <= p.C) tc_choices_.push_back(t);
  }
  if (tc_choices_.empty()) tc_choices_.push_back(1);
  if (tc_choices_.back() != p.C) tc_choices_.push_back(p.C);

  for (int m : {1, 2, 4, 8, 16, 32, 64}) tk_mult_choices_.push_back(m);

  const int P = p.P();
  for (int t : {1, 2, 4, 7, 8, 14, 16, 28, 32, 56, 112, 224}) {
    if (t <= P) th_choices_.push_back(t);
  }
  if (th_choices_.empty()) th_choices_.push_back(1);
  if (th_choices_.back() != P) th_choices_.push_back(P);

  for (int d = 1; d <= threads_; ++d) {
    if (threads_ % d == 0) ptn_choices_.push_back(d);
  }
}

std::size_t ScheduleSpace::approximate_size() const {
  return block_choices_.size() * tc_choices_.size() *
         tk_mult_choices_.size() * th_choices_.size() *
         ptn_choices_.size() * 2;
}

Schedule ScheduleSpace::sample_once() {
  auto pick = [&](const std::vector<int>& v) {
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(
        rng_)];
  };
  Schedule s;
  const RegisterBlock& rb =
      block_choices_[std::uniform_int_distribution<std::size_t>(
          0, block_choices_.size() - 1)(rng_)];
  s.vw = rb.vw;
  s.vk = rb.vk;
  s.tc = pick(tc_choices_);
  s.tk = pick(tk_mult_choices_) * s.vk;
  s.th = pick(th_choices_);
  s.ptn = pick(ptn_choices_);
  s.aot_filter = std::bernoulli_distribution(0.5)(rng_);
  return s;
}

Schedule ScheduleSpace::sample() {
  for (int attempt = 0; attempt < 256; ++attempt) {
    const Schedule s = sample_once();
    if (schedule_valid(s, params_, threads_)) return s;
  }
  // Degenerate spaces: construct a minimal valid schedule directly.
  Schedule s;
  s.vw = 4;
  s.vk = 4;
  s.tc = 1;
  s.tk = 4;
  s.th = 1;
  s.ptn = 1;
  return s;
}

Schedule ScheduleSpace::mutate(const Schedule& base) {
  for (int attempt = 0; attempt < 256; ++attempt) {
    Schedule s = base;
    const Schedule fresh = sample_once();
    switch (std::uniform_int_distribution<int>(0, 5)(rng_)) {
      case 0:
        // The register block is one gene: (vw, vk) move together so
        // every mutation lands on an instantiated kernel.
        s.vw = fresh.vw;
        s.vk = fresh.vk;
        s.tk = std::max(1, s.tk / s.vk) * s.vk;  // keep divisibility
        break;
      case 1: s.tc = fresh.tc; break;
      case 2: s.tk = fresh.tk / fresh.vk * s.vk; break;
      case 3: s.th = fresh.th; break;
      case 4: s.ptn = fresh.ptn; break;
      case 5: s.aot_filter = !s.aot_filter; break;
    }
    if (schedule_valid(s, params_, threads_)) return s;
  }
  return sample();
}

Schedule ScheduleSpace::crossover(const Schedule& a, const Schedule& b) {
  for (int attempt = 0; attempt < 256; ++attempt) {
    Schedule s;
    auto coin = [&] { return std::bernoulli_distribution(0.5)(rng_); };
    // Register block crosses over as one gene (see mutate).
    const Schedule& rb_parent = coin() ? a : b;
    s.vw = rb_parent.vw;
    s.vk = rb_parent.vk;
    s.tc = coin() ? a.tc : b.tc;
    s.tk = (coin() ? a.tk / a.vk : b.tk / b.vk) * s.vk;
    s.th = coin() ? a.th : b.th;
    s.ptn = coin() ? a.ptn : b.ptn;
    s.aot_filter = coin() ? a.aot_filter : b.aot_filter;
    if (schedule_valid(s, params_, threads_)) return s;
  }
  return mutate(a);
}

}  // namespace ndirect
