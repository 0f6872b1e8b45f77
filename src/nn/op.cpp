#include "nn/op.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>

#include "autotune/tuner.h"
#include "baselines/im2col_conv.h"
#include "baselines/naive_conv.h"
#include "simd/vec128.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

void expect_arity(const char* op, std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument(std::string(op) + ": expected " +
                                std::to_string(want) + " inputs, got " +
                                std::to_string(got));
  }
}

TensorShape shape_of(const Tensor& t) {
  return {static_cast<int>(t.dim(0)), static_cast<int>(t.dim(1)),
          static_cast<int>(t.dim(2)), static_cast<int>(t.dim(3))};
}

/// Content fingerprint of a weight tensor: the element count mixed with
/// up to 64 values sampled evenly across it (a few cache lines per
/// call — noise next to the convolution). A change slips through only
/// if it keeps the size and every sampled bit pattern; the dirty flag
/// of ConvOp::filter() remains the authoritative signal.
std::uint64_t filter_fingerprint(const float* data, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  const std::size_t samples = n < 64 ? n : 64;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t idx = samples > 1 ? i * (n - 1) / (samples - 1) : 0;
    std::uint32_t bits;
    std::memcpy(&bits, data + idx, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::string TensorShape::to_string() const {
  return "[" + std::to_string(N) + ", " + std::to_string(C) + ", " +
         std::to_string(H) + ", " + std::to_string(W) + "]";
}

const char* conv_backend_name(ConvBackend b) {
  switch (b) {
    case ConvBackend::Ndirect: return "ndirect";
    case ConvBackend::Im2colGemm: return "im2col+gemm";
    case ConvBackend::Tuned: return "tuned";
    case ConvBackend::Naive: return "naive";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ConvOp
// ---------------------------------------------------------------------------

ConvOp::ConvOp(ConvParams params, ConvBackend backend, std::uint64_t seed,
               bool bias)
    : params_(params),
      backend_(backend),
      filter_(make_filter_kcrs(params.K, params.C, params.R, params.S)) {
  // Kaiming-style scale keeps activation magnitudes stable through deep
  // stacks, so FP32 comparisons between backends stay meaningful.
  fill_random(filter_, seed);
  const float scale = std::sqrt(
      2.0f / (static_cast<float>(params.C) * params.R * params.S * 3));
  for (std::size_t i = 0; i < filter_.size(); ++i) filter_[i] *= scale;
  if (bias) {
    std::mt19937_64 rng(seed + 7);
    std::uniform_real_distribution<float> dist(-0.1f, 0.1f);
    bias_.resize(static_cast<std::size_t>(params.K));
    for (float& b : bias_) b = dist(rng);
  }
}

void ConvOp::set_backend(ConvBackend b) {
  backend_ = b;
  engine_.reset();
}

void ConvOp::set_pool(ThreadPool* pool) {
  if (pool_ == pool) return;
  pool_ = pool;
  engine_.reset();  // the pool pointer is baked into the engine's options
  qengine_.reset();
}

void ConvOp::set_worker_budget(int budget, int extra_stealers) {
  if (worker_budget_ == budget && extra_stealers_ == extra_stealers) return;
  worker_budget_ = budget;
  extra_stealers_ = extra_stealers;
  engine_.reset();  // the grid is re-planned from the new budget
}

void ConvOp::set_telemetry(TelemetrySnapshot* sink) {
  if (telemetry_ == sink) return;
  telemetry_ = sink;
  engine_.reset();  // the sink pointer is baked into the engines' options
  qengine_.reset();
}

TensorShape ConvOp::infer(const std::vector<TensorShape>& in) const {
  if (in.size() != 2) expect_arity("conv", in.size(), 1);
  const TensorShape& s = in[0];
  if (s.C != params_.C || s.H != params_.H || s.W != params_.W ||
      s.N != params_.N) {
    throw std::invalid_argument("conv: input shape " + s.to_string() +
                                " does not match " + params_.to_string());
  }
  const TensorShape out{params_.N, params_.K, params_.P(), params_.Q()};
  if (in.size() == 2 && !(in[1] == out)) {
    throw std::invalid_argument("conv: residual shape " + in[1].to_string() +
                                " is not the output's " + out.to_string());
  }
  return out;
}

void ConvOp::set_quantized(bool on) {
  if (quantized_ == on) return;
  quantized_ = on;
  packed_ = Tensor();
  qpacked_ = {};
}

bool ConvOp::repack_needed(bool have_packed) const {
  const std::uint64_t fp = filter_fingerprint(filter_.data(), filter_.size());
  if (have_packed && !filter_dirty_ && fp == packed_fingerprint_)
    return false;
  filter_dirty_ = false;
  packed_fingerprint_ = fp;
  return true;
}

Tensor ConvOp::quantized_forward(const Tensor& x,
                                 const float* residual) const {
  if (!qengine_) {
    Int8ConvOptions qopts;
    qopts.pool = pool_;
    qopts.telemetry = telemetry_;
    qengine_ = std::make_unique<Int8Conv>(params_, qopts);
  }
  if (repack_needed(!qpacked_.rowsum.empty())) {
    QuantizedFilterI8 q = quantize_filter_i8(filter_.data(), params_);
    qpacked_ = qengine_->pack_filter(q.values.data());
    qscales_ = std::move(q.scales);
  }
  const auto n = static_cast<std::size_t>(params_.input_elems());
  AlignedBuffer<std::uint8_t> qvalues(n);
  const QuantizedActivation qx =
      quantize_activation_u8(x.data(), n, qvalues.data());
  qdequant_.resize(static_cast<std::size_t>(params_.K));
  for (int k = 0; k < params_.K; ++k) {
    qdequant_[static_cast<std::size_t>(k)] =
        qx.scale * qscales_[static_cast<std::size_t>(k)];
  }
  Int8Epilogue epi;
  epi.dequant_scale = qdequant_.data();
  epi.bias = bias_.empty() ? nullptr : bias_.data();
  epi.relu = fused_relu_;
  epi.residual = residual;
  Tensor out({params_.N, params_.K, params_.P(), params_.Q()},
             Layout::NCHW);
  Int8Output dst;
  dst.f32 = out.data();
  qengine_->run(qvalues.data(), qx.zero_point, qpacked_, epi, dst,
                &qstats_);
  return out;
}

Tensor ConvOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const float* residual = in.size() > 1 ? in[1]->data() : nullptr;
  Tensor out;
  switch (backend_) {
    case ConvBackend::Ndirect: {
      if (quantized_) return quantized_forward(x, residual);
      if (!engine_) {
        // Inference configuration: persistent scratch arenas (the
        // default) plus the weights packed below, so steady-state
        // forward passes allocate nothing and never run the transform.
        NdirectOptions nopts;
        nopts.pool = pool_;
        nopts.threads = worker_budget_;
        nopts.extra_stealers = extra_stealers_;
        nopts.telemetry = telemetry_;
        engine_ = std::make_unique<NdirectConv>(params_, nopts);
      }
      if (repack_needed(packed_.size() != 0))
        packed_ = engine_->pack_filter(filter_.data());
      // Bias, residual and fused ReLU ride the store epilogue: zero
      // extra passes.
      ConvEpilogue epi;
      epi.bias = bias_.empty() ? nullptr : bias_.data();
      epi.relu = fused_relu_;
      epi.residual = residual;
      out = engine_->run(x, packed_, epi);
      return out;
    }
    case ConvBackend::Im2colGemm:
      out = im2col_conv_nchw(x, filter_, params_);
      break;
    case ConvBackend::Tuned: {
      // Fall back to a default schedule when the tuner was not run.
      Schedule s = schedule_;
      if (!has_schedule_) {
        s = Schedule{.vw = 8, .vk = 8, .tc = std::min(params_.C, 16),
                     .tk = 32 <= params_.K ? 32 : 8, .th = 4, .ptn = 1};
        if (!schedule_valid(s, params_, 1)) {
          s = Schedule{.vw = 4, .vk = 4, .tc = 1, .tk = 4, .th = 1,
                       .ptn = 1};
        }
      }
      out = tuned_conv(x, filter_, params_, s);
      break;
    }
    case ConvBackend::Naive:
      out = naive_conv_nchw(x, filter_, params_);
      break;
  }
  // Non-Ndirect backends cannot fuse into their stores; they apply the
  // same epilogue, in the same order, in one pass over each output plane
  // (the Ndirect path returned above with it folded into the stores).
  if (!bias_.empty() || residual != nullptr || fused_relu_) {
    const std::int64_t hw = std::int64_t{params_.P()} * params_.Q();
    for (int n = 0; n < params_.N; ++n) {
      for (int k = 0; k < params_.K; ++k) {
        const std::int64_t plane = (std::int64_t{n} * params_.K + k) * hw;
        finish_row(out.data() + plane, hw,
                   bias_.empty() ? nullptr : bias_.data() + k,
                   residual != nullptr ? residual + plane : nullptr,
                   fused_relu_);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// DepthwiseConvOp
// ---------------------------------------------------------------------------

DepthwiseConvOp::DepthwiseConvOp(DepthwiseParams params,
                                 std::uint64_t seed)
    : params_(params),
      filter_(make_filter_kcrs(params.C, 1, params.R, params.S)) {
  fill_random(filter_, seed);
  const float scale =
      std::sqrt(2.0f / (static_cast<float>(params.R) * params.S * 3));
  for (std::size_t i = 0; i < filter_.size(); ++i) filter_[i] *= scale;
}

TensorShape DepthwiseConvOp::infer(
    const std::vector<TensorShape>& in) const {
  expect_arity("dwconv", in.size(), 1);
  const TensorShape& s = in[0];
  if (s.C != params_.C || s.H != params_.H || s.W != params_.W ||
      s.N != params_.N) {
    throw std::invalid_argument("dwconv: input shape mismatch");
  }
  return {params_.N, params_.C, params_.P(), params_.Q()};
}

Tensor DepthwiseConvOp::forward(
    const std::vector<const Tensor*>& in) const {
  ConvEpilogue epi;
  epi.bias = bias_.empty() ? nullptr : bias_.data();
  epi.relu = fused_relu_;
  return depthwise_conv_nchw(*in.at(0), filter_, params_, pool_, epi,
                             telemetry_);
}

// ---------------------------------------------------------------------------
// Elementwise / normalization
// ---------------------------------------------------------------------------

TensorShape ReluOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("relu", in.size(), 1);
  return in[0];
}

Tensor ReluOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  Tensor out(x.dims(), x.layout());
  const float* s = x.data();
  float* d = out.data();
  const std::size_t n = out.size();
  std::size_t i = 0;
  // vrelu is std::max(x, 0.0f) lane by lane, NaN and -0 included.
  for (; i + kVecLanes <= n; i += kVecLanes) vstore(d + i, vrelu(vload(s + i)));
  for (; i < n; ++i) d[i] = std::max(s[i], 0.0f);
  return out;
}

BatchNormOp::BatchNormOp(int channels, std::uint64_t seed)
    : scale_(static_cast<std::size_t>(channels)),
      shift_(static_cast<std::size_t>(channels)) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> sdist(0.7f, 1.3f);
  std::uniform_real_distribution<float> bdist(-0.1f, 0.1f);
  for (float& s : scale_) s = sdist(rng);
  for (float& b : shift_) b = bdist(rng);
}

TensorShape BatchNormOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("batchnorm", in.size(), 1);
  if (in[0].C != static_cast<int>(scale_.size())) {
    throw std::invalid_argument("batchnorm: channel mismatch");
  }
  return in[0];
}

Tensor BatchNormOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const TensorShape s = shape_of(x);
  Tensor out({s.N, s.C, s.H, s.W}, Layout::NCHW);
  const std::int64_t hw = std::int64_t{s.H} * s.W;
  for (int n = 0; n < s.N; ++n) {
    for (int c = 0; c < s.C; ++c) {
      const float a = scale_[static_cast<std::size_t>(c)];
      const float b = shift_[static_cast<std::size_t>(c)];
      const float* src = x.data() + (std::int64_t{n} * s.C + c) * hw;
      float* dst = out.data() + (std::int64_t{n} * s.C + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) dst[i] = a * src[i] + b;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

TensorShape MaxPoolOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("maxpool", in.size(), 1);
  const TensorShape& s = in[0];
  const int P = (s.H + 2 * pad_ - kernel_) / stride_ + 1;
  const int Q = (s.W + 2 * pad_ - kernel_) / stride_ + 1;
  if (P <= 0 || Q <= 0) throw std::invalid_argument("maxpool: too small");
  return {s.N, s.C, P, Q};
}

Tensor MaxPoolOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const TensorShape s = shape_of(x);
  const int P = (s.H + 2 * pad_ - kernel_) / stride_ + 1;
  const int Q = (s.W + 2 * pad_ - kernel_) / stride_ + 1;
  Tensor out({s.N, s.C, P, Q}, Layout::NCHW);
  constexpr float kEmpty = -std::numeric_limits<float>::infinity();
  // Output columns [q_lo, q_hi) have their whole window inside the row,
  // so their taps need no bounds checks.
  const auto interior = [&](int oi) {
    const int i0 = oi * stride_ - pad_;
    return i0 >= 0 && i0 + kernel_ <= s.W;
  };
  int q_lo = 0;
  while (q_lo < Q && !interior(q_lo)) ++q_lo;
  int q_hi = q_lo;
  while (q_hi < Q && interior(q_hi)) ++q_hi;
  // Horizontal max of every input row first, then a vertical max over a
  // window's rows. Each step keeps the earlier of two equal values, as
  // std::max(best, v) does across the row-major window, so even a -0/+0
  // tie resolves as in a plain tap loop: the output is bitwise that of
  // the loop for any finite input. Every horizontal max starts from -inf,
  // so, as in the loop, a NaN tap never wins and never reaches hmax.
  std::vector<float> hmax(static_cast<std::size_t>(s.H) * Q);
  const std::int64_t plane = std::int64_t{s.H} * s.W;
  for (std::int64_t nc = 0; nc < std::int64_t{s.N} * s.C; ++nc) {
    const float* src = x.data() + nc * plane;
    for (int ih = 0; ih < s.H; ++ih) {
      const float* row = src + std::int64_t{ih} * s.W;
      float* h = hmax.data() + std::int64_t{ih} * Q;
      const auto border = [&](int oi) {
        float best = kEmpty;
        for (int q = 0; q < kernel_; ++q) {
          const int ii = oi * stride_ + q - pad_;
          if (ii >= 0 && ii < s.W) best = std::max(best, row[ii]);
        }
        h[oi] = best;
      };
      for (int oi = 0; oi < q_lo; ++oi) border(oi);
      for (int oi = q_hi; oi < Q; ++oi) border(oi);
      for (int oi = q_lo; oi < q_hi; ++oi) {
        const float* win = row + oi * stride_ - pad_;
        float best = kEmpty;
        for (int q = 0; q < kernel_; ++q) best = std::max(best, win[q]);
        h[oi] = best;
      }
    }
    float* dst = out.data() + nc * P * Q;
    for (int oj = 0; oj < P; ++oj) {
      float* o = dst + std::int64_t{oj} * Q;
      const int r_lo = std::max(0, oj * stride_ - pad_);
      const int r_hi = std::min(s.H, oj * stride_ - pad_ + kernel_);
      if (r_lo >= r_hi) {
        std::fill(o, o + Q, kEmpty);
        continue;
      }
      std::memcpy(o, hmax.data() + std::int64_t{r_lo} * Q,
                  sizeof(float) * static_cast<std::size_t>(Q));
      for (int ih = r_lo + 1; ih < r_hi; ++ih) {
        const float* h = hmax.data() + std::int64_t{ih} * Q;
        int oi = 0;
        for (; oi + 4 <= Q; oi += 4) {
          vstore(o + oi, vmax_ordered(vload(h + oi), vload(o + oi)));
        }
        for (; oi < Q; ++oi) o[oi] = std::max(o[oi], h[oi]);
      }
    }
  }
  return out;
}

TensorShape GlobalAvgPoolOp::infer(
    const std::vector<TensorShape>& in) const {
  expect_arity("gavgpool", in.size(), 1);
  return {in[0].N, in[0].C, 1, 1};
}

Tensor GlobalAvgPoolOp::forward(
    const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const TensorShape s = shape_of(x);
  Tensor out({s.N, s.C, 1, 1}, Layout::NCHW);
  const std::int64_t hw = std::int64_t{s.H} * s.W;
  for (int n = 0; n < s.N; ++n)
    for (int c = 0; c < s.C; ++c) {
      const float* src = x.data() + (std::int64_t{n} * s.C + c) * hw;
      double sum = 0;
      for (std::int64_t i = 0; i < hw; ++i) sum += src[i];
      out.at4(n, c, 0, 0) = static_cast<float>(sum / static_cast<double>(hw));
    }
  return out;
}

// ---------------------------------------------------------------------------
// Residual add / FC / softmax
// ---------------------------------------------------------------------------

TensorShape ConcatOp::infer(const std::vector<TensorShape>& in) const {
  if (in.empty()) throw std::invalid_argument("concat: needs inputs");
  TensorShape out = in[0];
  for (std::size_t i = 1; i < in.size(); ++i) {
    const TensorShape& s = in[i];
    if (s.N != out.N || s.H != out.H || s.W != out.W) {
      throw std::invalid_argument("concat: N/H/W mismatch " +
                                  out.to_string() + " vs " +
                                  s.to_string());
    }
    out.C += s.C;
  }
  return out;
}

Tensor ConcatOp::forward(const std::vector<const Tensor*>& in) const {
  std::vector<TensorShape> shapes;
  shapes.reserve(in.size());
  for (const Tensor* t : in) shapes.push_back(shape_of(*t));
  const TensorShape os = infer(shapes);
  Tensor out({os.N, os.C, os.H, os.W}, Layout::NCHW);
  const std::int64_t hw = std::int64_t{os.H} * os.W;
  int c_off = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const int ci = shapes[i].C;
    for (int n = 0; n < os.N; ++n) {
      const float* src = in[i]->data() + std::int64_t{n} * ci * hw;
      float* dst =
          out.data() + (std::int64_t{n} * os.C + c_off) * hw;
      std::memcpy(dst, src,
                  static_cast<std::size_t>(ci) * hw * sizeof(float));
    }
    c_off += ci;
  }
  return out;
}

TensorShape AddOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("add", in.size(), 2);
  if (!(in[0] == in[1])) {
    throw std::invalid_argument("add: shape mismatch " +
                                in[0].to_string() + " vs " +
                                in[1].to_string());
  }
  return in[0];
}

Tensor AddOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& a = *in.at(0);
  const Tensor& b = *in.at(1);
  Tensor out(a.dims(), a.layout());
  const float* x = a.data();
  const float* y = b.data();
  float* d = out.data();
  const std::size_t n = out.size();
  std::size_t i = 0;
  for (; i + kVecLanes <= n; i += kVecLanes)
    vstore(d + i, vadd(vload(x + i), vload(y + i)));
  for (; i < n; ++i) d[i] = x[i] + y[i];
  return out;
}

FcOp::FcOp(int in_features, int out_features, std::uint64_t seed)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(make_matrix(out_features, in_features)),
      bias_(static_cast<std::size_t>(out_features)) {
  fill_random(weights_, seed);
  const float scale = std::sqrt(2.0f / static_cast<float>(in_features));
  for (std::size_t i = 0; i < weights_.size(); ++i) weights_[i] *= scale;
  std::mt19937_64 rng(seed + 3);
  std::uniform_real_distribution<float> dist(-0.05f, 0.05f);
  for (float& b : bias_) b = dist(rng);
}

TensorShape FcOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("fc", in.size(), 1);
  const std::int64_t feats =
      std::int64_t{in[0].C} * in[0].H * in[0].W;
  if (feats != in_features_) {
    throw std::invalid_argument("fc: expected " +
                                std::to_string(in_features_) +
                                " features, got " + std::to_string(feats));
  }
  return {in[0].N, out_features_, 1, 1};
}

namespace {

// y[r] = b[r] + W[r, :] . x for ROWS consecutive weight rows, so each
// x vector load feeds ROWS FMAs. Every row reduces the same way — one
// vector accumulator over whole 4-float chunks, a fixed horizontal sum,
// then the scalar tail — whatever block it falls in.
template <int ROWS>
void fc_rows(const float* w, std::int64_t ldw, const float* x, int in,
             const float* b, float* y) {
  vec128f acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = vzero();
  int i = 0;
  for (; i + 4 <= in; i += 4) {
    const vec128f xv = vload(x + i);
    for (int r = 0; r < ROWS; ++r) {
      acc[r] = vfma(acc[r], vload(w + r * ldw + i), xv);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    float sum = vreduce_add(acc[r]);
    for (int t = i; t < in; ++t) sum += w[r * ldw + t] * x[t];
    y[r] = sum + b[r];
  }
}

}  // namespace

Tensor FcOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const int N = static_cast<int>(x.dim(0));
  Tensor out({N, out_features_, 1, 1}, Layout::NCHW);
  // GEMV straight over the row-major weights: no packing, so a forward
  // streams the matrix once. Row blocks run outermost, so a batch reuses
  // each block from cache; a sample's result does not depend on N.
  const float* w = weights_.data();
  constexpr int kRows = 4;
  for (int o = 0; o < out_features_; o += kRows) {
    const float* wo = w + std::int64_t{o} * in_features_;
    for (int n = 0; n < N; ++n) {
      const float* xn = x.data() + std::int64_t{n} * in_features_;
      float* yn = out.data() + std::int64_t{n} * out_features_ + o;
      if (o + kRows <= out_features_) {
        fc_rows<kRows>(wo, in_features_, xn, in_features_, &bias_[o], yn);
      } else {
        for (int r = 0; o + r < out_features_; ++r) {
          fc_rows<1>(wo + std::int64_t{r} * in_features_, in_features_, xn,
                     in_features_, &bias_[o + r], yn + r);
        }
      }
    }
  }
  return out;
}

TensorShape SoftmaxOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("softmax", in.size(), 1);
  return in[0];
}

Tensor SoftmaxOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const int N = static_cast<int>(x.dim(0));
  const std::int64_t feats = x.element_count() / N;
  Tensor out(x.dims(), x.layout());
  for (int n = 0; n < N; ++n) {
    const float* s = x.data() + n * feats;
    float* d = out.data() + n * feats;
    float mx = s[0];
    for (std::int64_t i = 1; i < feats; ++i) mx = std::max(mx, s[i]);
    double sum = 0;
    for (std::int64_t i = 0; i < feats; ++i) {
      d[i] = std::exp(s[i] - mx);
      sum += d[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < feats; ++i) d[i] *= inv;
  }
  return out;
}

}  // namespace ndirect
