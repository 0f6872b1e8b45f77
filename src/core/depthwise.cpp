#include "core/depthwise.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/exec.h"
#include "simd/vec.h"

namespace ndirect {
namespace {

constexpr int L = kKernelLanes;
using V = vec<L>;

// The zero-padded copy of one input plane that every tap reads, laid out
// so that each tap is one constant offset from the output it feeds.
//
// Padded row y is input row y - pad (zero outside [0, H)), and its
// column phase f holds padded columns str * j + f (input column
// str * j + f - pad, zero outside [0, W)). The copy keeps phase f of
// padded row y as row y / str of block (f, y % str): `width` floats a
// row, `depth` rows a block. Output (oj, oi) takes tap (r, s) from
// padded row str * oj + r, column str * oi + s: block (s % str,
// r % str), row oj + r / str, column oi + s / str. Numbering the
// outputs t = oj * width + oi, tap (r, s) of output t is float
// t + taps[r * S + s] of the copy, whatever the stride, pad and width.
// So L consecutive outputs take each tap as one contiguous, unchecked
// vector load; lanes with oi >= Q are computed and never stored. At
// stride 1 a row may end inside the next row's zero left border
// (width >= W + pad), so 7x7 planes put two output rows in a 16-lane
// vector.
//
// Every plane of a run has this geometry, so a worker zeroes its copy
// once per run and each later plane overwrites only what holds input.
struct PlaneGeometry {
  int P, Q;
  int phases;    ///< column phases a tap reads: min(str, S)
  int parities;  ///< row classes y % str a tap reads: min(str, R)
  bool split2;   ///< stride 2, both phases: split by a vector permute
  int width;     ///< floats per row, a multiple of 4
  int depth;     ///< rows per block: P + (R - 1) / str
  std::int64_t block;              ///< floats per block
  std::vector<std::int64_t> taps;  ///< per (r, s), r-major
  /// Floats of the copy: the blocks, and the zero tail past them that
  /// the last vector's unstored lanes read.
  std::size_t copy_floats;
  /// A stride >= 3 (or a stride-2 1-column filter) stages each input
  /// row in a padded `line` of str * width floats past the copy.
  std::size_t line_floats;

  explicit PlaneGeometry(const DepthwiseParams& p)
      : P(p.P()),
        Q(p.Q()),
        phases(std::min(p.str, p.S)),
        parities(std::min(p.str, p.R)),
        split2(p.str == 2 && phases == 2),
        width((std::max(Q, p.str == 1 ? p.W + p.pad
                                      : Q + (p.S - 1) / p.str) +
               3) / 4 * 4),
        depth(P + (p.R - 1) / p.str),
        block(std::int64_t{depth} * width) {
    for (int r = 0; r < p.R; ++r) {
      for (int s = 0; s < p.S; ++s) {
        taps.push_back(block_at(s % p.str, r % p.str) +
                       std::int64_t{r / p.str} * width + s / p.str);
      }
    }
    const std::int64_t vectors = (outputs() + L - 1) / L;
    copy_floats = static_cast<std::size_t>(
        std::max(phases * parities * block,
                 *std::max_element(taps.begin(), taps.end()) + vectors * L));
    line_floats = p.str > 1 && !split2
                      ? static_cast<std::size_t>(p.str) * width
                      : 0;
  }
  std::int64_t block_at(int phase, int parity) const {
    return (std::int64_t{phase} * parities + parity) * block;
  }
  /// Flat outputs t = oj * width + oi.
  std::int64_t outputs() const { return std::int64_t{P} * width; }
};

// n floats, a vector at a time, the tail through a partial store.
void copy_row(float* dst, const float* src, int n) {
  int k = 0;
  for (; k + L <= n; k += L) V::load(src + k).store(dst + k);
  for (; k + 4 <= n; k += 4) vstore(dst + k, vload(src + k));
  if (k < n) vstore_lanes(dst + k, vload_lanes(src + k, n - k), n - k);
}

// The input plane `chan` into the copy `dst` (zero border in place).
// Stride 1 copies each input row into its row. Stride 2 splits each
// input row straight from the input: one vector permute turns 2L input
// columns into L columns of each phase, and the last step loads and
// stores only the row's own columns. Any other stride copies the row
// into the padded `line` and gathers the phases from it.
void pack_plane(const float* chan, const DepthwiseParams& p,
                const PlaneGeometry& g, float* dst) {
  const int str = p.str;
  const std::int64_t phase_stride = g.block_at(1, 0);
  // Stride 2: input column 2m is phase pad % 2, column pad / 2 + m;
  // input column 2m + 1 is phase (pad + 1) % 2, column (pad + 1) / 2 + m.
  const std::int64_t even_at = (p.pad & 1) * phase_stride + p.pad / 2;
  const std::int64_t odd_at =
      ((p.pad + 1) & 1) * phase_stride + (p.pad + 1) / 2;
  const int evens = std::max(0, std::min((p.W + 1) / 2, g.width - p.pad / 2));
  const int odds = std::max(0, std::min(p.W / 2, g.width - (p.pad + 1) / 2));
  const int span = std::clamp(str * g.width - p.pad, 0, p.W);
  float* line = dst + g.copy_floats;
  const int y_end = std::min((g.P - 1) * str + p.R, p.pad + p.H);
  // Padded row y is row y / str of the parity y % str blocks.
  int parity = p.pad % str, row = p.pad / str;
  for (int y = p.pad; y < y_end; ++y) {
    const float* src = chan + std::int64_t{y - p.pad} * p.W;
    float* at = dst + g.block_at(0, parity) + std::int64_t{row} * g.width;
    if (parity >= g.parities) {
      // No tap reads this row (R < str).
    } else if (str == 1) {
      copy_row(at + p.pad, src, p.W);
    } else if (g.split2) {
      for (int m = 0; 2 * m < p.W; m += L) {
        const int c = 2 * m;
        V even, odd;
        V::deinterleave(V::load_first(src + c, p.W - c),
                        V::load_first(src + c + L, p.W - c - L), &even, &odd);
        even.store_first(at + even_at + m, evens - m);
        odd.store_first(at + odd_at + m, odds - m);
      }
    } else {
      copy_row(line + p.pad, src, span);
      for (int f = 0; f < g.phases; ++f) {
        float* d = at + f * phase_stride;
        for (int j = 0; j < g.width; ++j) d[j] = line[str * j + f];
      }
    }
    if (++parity == str) {
      parity = 0;
      ++row;
    }
  }
}

// What the compute of one plane reads and writes.
struct PlaneArgs {
  const float* in;           ///< the copy
  const std::int64_t* taps;  ///< PlaneGeometry::taps
  const float* filter;       ///< the channel's R x S filter
  int taps_n;                ///< R * S
  int P, Q, width;
  float* out;  ///< the NCHW output plane, row stride Q
  // The store epilogue on this plane (core/epilogue.h).
  bool has_bias;
  vec128f bias;           ///< the channel's bias in every lane
  const float* residual;  ///< the residual's plane, or nullptr
  bool relu;
};

// The output a quarter of a flat vector stores to: row oj, column oi.
// width is a multiple of 4, so a quarter never straddles two rows.
struct Cursor {
  int oj = 0, oi = 0;
  void advance(int n, int width) {
    oi += n;
    if (oi == width) {
      oi = 0;
      ++oj;
    }
  }
};

// The lanes of the quarter at the cursor that are outputs. A residual
// is read at those lanes only, so it and the ReLU after it are applied
// here; the bias is already in.
[[gnu::always_inline]] inline void store_quarter(const PlaneArgs& a,
                                                 vec128f v, Cursor& c) {
  if (c.oj < a.P && c.oi < a.Q) {
    const std::int64_t off = std::int64_t{c.oj} * a.Q + c.oi;
    const int n = std::min(4, a.Q - c.oi);
    if (a.residual != nullptr) {
      v = vadd(v, vload_lanes(a.residual + off, n));
      if (a.relu) v = vrelu(v);
    }
    vstore_lanes(a.out + off, v, n);
  }
  c.advance(4, a.width);
}

// The vector at the cursor, finished by the store epilogue in registers:
// + bias, + residual, then the ReLU — finish_row's order and operations
// (core/epilogue.h), so every output is bitwise its. The epilogue goes
// over whole quarters, one branch per step (lanes that are not outputs
// are never stored), except a residual, which is read at outputs only.
// When every lane is an output of one row (most vectors of a wide
// plane) the quarters are stored whole; otherwise each stores the lanes
// that are outputs.
template <int... Qs>
[[gnu::always_inline]] inline void store_vector(
    const PlaneArgs& a, V v, Cursor& c, std::integer_sequence<int, Qs...>) {
  vec128f q[] = {v.template quarter<Qs>()...};
  if (a.has_bias) ((q[Qs] = vadd(q[Qs], a.bias)), ...);
  if (c.oj < a.P && c.oi + L <= a.Q) [[likely]] {
    const std::int64_t off = std::int64_t{c.oj} * a.Q + c.oi;
    if (a.residual != nullptr) {
      ((q[Qs] = vadd(q[Qs], vload(a.residual + off + 4 * Qs))), ...);
    }
    if (a.relu) ((q[Qs] = vrelu(q[Qs])), ...);
    (vstore(a.out + off + 4 * Qs, q[Qs]), ...);
    c.advance(L, a.width);
    return;
  }
  if (a.relu && a.residual == nullptr) ((q[Qs] = vrelu(q[Qs])), ...);
  (store_quarter(a, q[Qs], c), ...);
}

// NV vectors of flat outputs from t. kTaps > 0 fixes R * S at compile
// time (MobileNet's 3x3), so the taps unroll and the accumulators stay
// in registers; 0 reads it from `a`. Every accumulator takes its taps in
// (r, s) order, one FMA each, as a tap loop would.
template <int kTaps, int NV>
[[gnu::always_inline]] inline void conv_vectors(const PlaneArgs& a,
                                                std::int64_t t, Cursor& c) {
  const int taps = kTaps > 0 ? kTaps : a.taps_n;
  V acc[NV];
  for (int j = 0; j < NV; ++j) acc[j] = V::zero();
  for (int k = 0; k < taps; ++k) {
    const V f = V::dup(a.filter[k]);
    const float* x = a.in + a.taps[k] + t;
    for (int j = 0; j < NV; ++j) {
      acc[j] = V::fma(acc[j], V::load(x + j * L), f);
    }
  }
  for (int j = 0; j < NV; ++j) {
    store_vector(a, acc[j], c, std::make_integer_sequence<int, L / 4>{});
  }
}

// Every output of the plane, up to 4 vectors at a time. `a` is a local
// copy: the output stores cannot alias it, so its fields stay in
// registers.
template <int kTaps>
void conv_plane(const PlaneArgs a, std::int64_t outputs) {
  Cursor c;
  std::int64_t t = 0;
  for (; t + 4 * L <= outputs; t += 4 * L) conv_vectors<kTaps, 4>(a, t, c);
  switch ((outputs - t + L - 1) / L) {
    case 4: conv_vectors<kTaps, 4>(a, t, c); break;
    case 3: conv_vectors<kTaps, 3>(a, t, c); break;
    case 2: conv_vectors<kTaps, 2>(a, t, c); break;
    case 1: conv_vectors<kTaps, 1>(a, t, c); break;
    default: break;
  }
}

}  // namespace

Tensor depthwise_conv_nchw(const Tensor& input, const Tensor& filter,
                           const DepthwiseParams& p, ThreadPool* pool,
                           const ConvEpilogue& epi,
                           TelemetrySnapshot* telemetry) {
  if (!p.valid()) {
    throw std::invalid_argument("depthwise_conv: invalid parameters");
  }
  if (input.layout() != Layout::NCHW || input.rank() != 4 ||
      input.dim(0) != p.N || input.dim(1) != p.C || input.dim(2) != p.H ||
      input.dim(3) != p.W) {
    throw std::invalid_argument("depthwise_conv: input must be NCHW "
                                "[N,C,H,W], got " +
                                input.shape_string());
  }
  if (filter.layout() != Layout::KCRS || filter.rank() != 4 ||
      filter.dim(0) != p.C || filter.dim(1) != 1 || filter.dim(2) != p.R ||
      filter.dim(3) != p.S) {
    throw std::invalid_argument("depthwise_conv: filter must be [C,1,R,S], "
                                "got " +
                                filter.shape_string());
  }

  const PlaneGeometry g(p);
  Tensor out = make_output_nchw(p.N, p.C, g.P, g.Q);
  const std::int64_t hw_in = std::int64_t{p.H} * p.W;
  const std::int64_t hw_out = std::int64_t{g.P} * g.Q;
  const std::size_t scratch = g.copy_floats + g.line_floats;

  // One tile per (n, c) plane: channels are independent, so a tile is a
  // whole output plane with no reduction hazard (C is not a reduction
  // dimension here).
  ThreadPool& tp = exec_pool(pool);
  ExecOptions eo;
  eo.pool = &tp;
  eo.scratch[static_cast<int>(ScratchSlot::kPack)] = scratch;
  eo.telemetry = telemetry;
  const TileGrid grid =
      row_grid(std::int64_t{p.N} * p.C, static_cast<int>(tp.size()));
  // Whether each worker's copy still needs its zero border this run.
  std::vector<std::uint8_t> unzeroed(
      static_cast<std::size_t>(grid.workers()), 1);
  run_tiles(grid, eo, [&](auto& w, int item, int) {
    const std::int64_t c = item % p.C;
    const std::int64_t plane = item;  // (n, c) in NCHW order
    float* copy = w.scratch(ScratchSlot::kPack);
    w.timed_pack([&] {
      std::uint8_t& fresh = unzeroed[static_cast<std::size_t>(w.id())];
      if (fresh != 0) std::fill_n(copy, scratch, 0.0f);
      fresh = 0;
      pack_plane(input.data() + plane * hw_in, p, g, copy);
    });
    const PlaneArgs a{
        copy,
        g.taps.data(),
        filter.data() + c * p.R * p.S,
        p.R * p.S,
        g.P,
        g.Q,
        g.width,
        out.data() + plane * hw_out,
        epi.bias != nullptr,
        vdup(epi.bias != nullptr ? epi.bias[c] : 0.0f),
        epi.residual != nullptr ? epi.residual + plane * hw_out : nullptr,
        epi.relu};
    w.timed(Counter::kMicrokernelNs, [&] {
      if (p.R * p.S == 9) {
        conv_plane<9>(a, g.outputs());
      } else {
        conv_plane<0>(a, g.outputs());
      }
    });
  });
  return out;
}

Tensor depthwise_conv_reference(const Tensor& input, const Tensor& filter,
                                const DepthwiseParams& p) {
  const int P = p.P(), Q = p.Q();
  Tensor out = make_output_nchw(p.N, p.C, P, Q);
  for (int n = 0; n < p.N; ++n)
    for (int c = 0; c < p.C; ++c)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          double sum = 0;
          for (int r = 0; r < p.R; ++r) {
            const int ij = p.str * oj + r - p.pad;
            if (ij < 0 || ij >= p.H) continue;
            for (int s = 0; s < p.S; ++s) {
              const int ii = p.str * oi + s - p.pad;
              if (ii < 0 || ii >= p.W) continue;
              sum += static_cast<double>(input.at4(n, c, ij, ii)) *
                     static_cast<double>(filter.at4(c, 0, r, s));
            }
          }
          out.at4(n, c, oj, oi) = static_cast<float>(sum);
        }
  return out;
}

}  // namespace ndirect
