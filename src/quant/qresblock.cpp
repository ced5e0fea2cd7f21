#include "quant/qresblock.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace tfacc {

namespace {

// INT16 activations keep ~2.7% headroom below the type limit so that
// rounding in the requantizers cannot saturate calibration-range values.
constexpr int kI16CalibMax = 32000;

}  // namespace

// --- Calibration ranges ------------------------------------------------------

MhaRanges::MhaRanges(std::size_t num_heads, CalibMethod method)
    : q_in(method),
      kv_in(method),
      q1(num_heads, RangeObserver(method)),
      k1(num_heads, RangeObserver(method)),
      v1(num_heads, RangeObserver(method)),
      p(method),
      g(method),
      out(method) {}

void MhaRanges::query(std::size_t h, const MatF& q1_rows) {
  q1.at(h).add(q1_rows);
}

void MhaRanges::key_value(std::size_t h, const MatF& k1_rows,
                          const MatF& v1_rows) {
  k1.at(h).add(k1_rows);
  v1.at(h).add(v1_rows);
}

void MhaRanges::output(const MatF& p_rows, const MatF& g_rows,
                       const MatF& out_rows) {
  p.add(p_rows);
  g.add(g_rows);
  out.add(out_rows);
}

FfnRanges::FfnRanges(CalibMethod method)
    : in(method), hidden(method), g(method), out(method) {}

void FfnRanges::output(const MatF& hidden_rows, const MatF& g_rows,
                       const MatF& out_rows) {
  hidden.add(hidden_rows);
  g.add(g_rows);
  out.add(out_rows);
}

MatI16 saturating_add_i16(const MatI16& a, const MatI16& b) {
  TFACC_CHECK_ARG(a.same_shape(b));
  MatI16 out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const std::int16_t* ar = a.row(r);
    const std::int16_t* br = b.row(r);
    std::int16_t* orow = out.row(r);
    for (int c = 0; c < a.cols(); ++c)
      orow[c] = saturate_i16(static_cast<std::int64_t>(ar[c]) + br[c]);
  }
  return out;
}

MatI16 requantize_i8_to_i16(const MatI8& m, const FixedPointScale& s) {
  MatI16 out(m.rows(), m.cols());
  kernels::requantize_i8_to_i16_into(m, s.mantissa, s.shift, out);
  return out;
}

// --- QuantizedLinear ---------------------------------------------------------

QuantizedLinear QuantizedLinear::build(const MatF& w,
                                       const std::vector<float>& bias,
                                       float in_scale, float out_scale,
                                       WeightGranularity granularity) {
  TFACC_CHECK_ARG(in_scale > 0.0f && out_scale > 0.0f);
  TFACC_CHECK_ARG(static_cast<int>(bias.size()) == w.cols());
  TFACC_CHECK_ARG_MSG(w.rows() <= kMaxK, "k=" << w.rows());
  const std::int32_t bound = bias_bound(w.rows());
  QuantizedLinear q;
  q.in_scale = in_scale;
  q.w_scale = calibrate(w, 127).scale;
  q.out_scale = out_scale;
  q.granularity = granularity;
  q.requant = FixedPointScale::from_double(
      static_cast<double>(in_scale) * q.w_scale / out_scale);
  // Each weight is quantized straight into its slot of the pack, in the
  // layout of the selected kernel table.
  q.wpack = PackedI8::zeros(w.rows(), w.cols(), kernels::packed_layout());
  if (granularity == WeightGranularity::kPerTensor) {
    // Through the hook quantizer's kernel (quantize_i8's), a block of whole
    // rows of w (contiguous) per call, staged in an L1-sized buffer.
    constexpr int kStageBytes = 16384;
    const int n = w.cols();
    const int block = std::max(1, kStageBytes / std::max(1, n));
    std::vector<std::int8_t> stage(static_cast<std::size_t>(block) * n);
    for (int r0 = 0; r0 < w.rows(); r0 += block) {
      const int h = std::min(block, w.rows() - r0);
      kernels::quantize_i8_span(w.row(r0), static_cast<std::size_t>(h) * n,
                                q.w_scale, stage.data());
      for (int r = 0; r < h; ++r)
        q.wpack.set_row(r0 + r, stage.data() + static_cast<std::size_t>(r) * n);
    }
    q.bias = quantize_bias(bias, in_scale, q.w_scale);
    for (std::int32_t& b : q.bias) b = std::clamp(b, -bound, bound);
    return q;
  }
  // Per-column: each output channel gets its own scale and requantizer.
  q.bias.resize(static_cast<std::size_t>(w.cols()));
  q.col_w_scale.resize(static_cast<std::size_t>(w.cols()));
  q.col_requant.resize(static_cast<std::size_t>(w.cols()));
  for (int j = 0; j < w.cols(); ++j) {
    float mx = 0.0f;
    for (int r = 0; r < w.rows(); ++r)
      mx = std::max(mx, std::abs(w(r, j)));
    const float ws = mx > 0.0f ? mx / 127.0f : 1.0f;
    q.col_w_scale[static_cast<std::size_t>(j)] = ws;
    for (int r = 0; r < w.rows(); ++r)
      q.wpack.data[q.wpack.offset(r, j)] =
          saturate_round<std::int8_t>(w(r, j) / ws);
    // Clamp before rounding, as quantize_bias does.
    const double qb = std::clamp(bias[static_cast<std::size_t>(j)] /
                                     (static_cast<double>(in_scale) * ws),
                                 -0x1p31, 0x1p31);
    q.bias[static_cast<std::size_t>(j)] =
        std::clamp(saturate_i32(std::llround(qb)), -bound, bound);
    q.col_requant[static_cast<std::size_t>(j)] = FixedPointScale::from_double(
        static_cast<double>(in_scale) * ws / out_scale);
  }
  return q;
}

MatI32 QuantizedLinear::accumulate(const MatI8& x) const {
  MatI32 out(x.rows(), wpack.n);
  kernels::gemm_i8_packed_bias_into(x, wpack, bias, out);
  return out;
}

MatI8 QuantizedLinear::requantize(const MatI32& acc) const {
  if (granularity == WeightGranularity::kPerTensor)
    return requantize_i8(acc, requant);
  TFACC_CHECK_ARG(acc.cols() == static_cast<int>(col_requant.size()));
  MatI8 out(acc.rows(), acc.cols());
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c)
      out(r, c) = col_requant[static_cast<std::size_t>(c)].apply_i8(acc(r, c));
  return out;
}

MatI8 QuantizedLinear::forward(const MatI8& x) const {
  return requantize(accumulate(x));
}

MatI8 QuantizedLinear::forward_relu(const MatI8& x) const {
  return requantize(relu_i32(accumulate(x)));
}

// --- MhaQuantized ------------------------------------------------------------

MhaQuantized MhaQuantized::build(const MhaWeights& w, const MhaRanges& ranges,
                                 SoftmaxImpl impl,
                                 WeightGranularity granularity) {
  TFACC_CHECK_ARG(!w.heads.empty());
  TFACC_CHECK_ARG(ranges.q1.size() == w.heads.size() &&
                  ranges.k1.size() == w.heads.size() &&
                  ranges.v1.size() == w.heads.size());
  const int head_dim = w.heads.front().wq.cols();
  TFACC_CHECK_ARG_MSG(impl != SoftmaxImpl::kHardware || head_dim == 64,
                      "the Fig. 6 datapath hard-codes the /8 = sqrt(64) scale");

  MhaQuantized m;
  m.d_model = w.wg.rows();
  m.num_heads = static_cast<int>(w.heads.size());
  m.head_dim = head_dim;
  m.softmax_impl = impl;
  m.q_in_scale = ranges.q_in.scale(127);
  m.kv_in_scale = ranges.kv_in.scale(127);
  m.p_scale = ranges.p.scale(127);
  m.g_scale = ranges.g.scale(kI16CalibMax);
  m.out_scale = ranges.out.scale(127);

  m.heads.resize(w.heads.size());
  for (std::size_t h = 0; h < w.heads.size(); ++h) {
    Head& qh = m.heads[h];
    qh.wq = QuantizedLinear::build(w.heads[h].wq, w.heads[h].bq, m.q_in_scale,
                                   ranges.q1[h].scale(127), granularity);
    qh.wk = QuantizedLinear::build(w.heads[h].wk, w.heads[h].bk, m.kv_in_scale,
                                   ranges.k1[h].scale(127), granularity);
    qh.wv = QuantizedLinear::build(w.heads[h].wv, w.heads[h].bv, m.kv_in_scale,
                                   ranges.v1[h].scale(127), granularity);
    qh.av_requant = FixedPointScale::from_double(
        static_cast<double>(hw::kProbScale) * qh.wv.out_scale / m.p_scale);
  }

  // W_G requantizes straight into the INT16 residual domain, so its
  // QuantizedLinear out_scale equals g_scale (requant field unused there).
  m.wg = QuantizedLinear::build(w.wg, w.bg, m.p_scale, m.g_scale);
  m.wg_to_g = FixedPointScale::from_double(
      static_cast<double>(m.p_scale) * m.wg.w_scale / m.g_scale);
  m.residual_to_g =
      FixedPointScale::from_double(static_cast<double>(m.q_in_scale) /
                                   m.g_scale);
  m.norm = hw::LayerNormUnit::build(w.norm, m.out_scale);
  return m;
}

MhaQuantized MhaQuantized::build(const MhaWeights& w, const Calibration& calib,
                                 SoftmaxImpl impl, CalibMethod method,
                                 WeightGranularity granularity) {
  TFACC_CHECK_ARG(!w.heads.empty());
  TFACC_CHECK_ARG(!calib.q.empty());
  TFACC_CHECK_ARG(calib.q.size() == calib.kv.size() &&
                  calib.q.size() == calib.mask.size());
  MhaRanges ranges(w.heads.size(), method);
  for (std::size_t s = 0; s < calib.q.size(); ++s) {
    ranges.q_in.add(calib.q[s]);
    ranges.kv_in.add(calib.kv[s]);
    mha_resblock_observed(calib.q[s], calib.kv[s], w, calib.mask[s], &ranges);
  }
  return build(w, ranges, impl, granularity);
}

MatI8 MhaQuantized::softmax(const MatI32& scores, const Mask& mask,
                            int head) const {
  TFACC_CHECK_ARG(head >= 0 && head < num_heads);
  const auto& qh = heads[static_cast<std::size_t>(head)];
  const double d_scale =
      static_cast<double>(qh.wq.out_scale) * qh.wk.out_scale;
  switch (softmax_impl) {
    case SoftmaxImpl::kHardware: {
      const hw::SoftmaxUnit unit(d_scale);
      return unit(scores, mask);
    }
    case SoftmaxImpl::kFloatExact: {
      const MatF d = dequantize_i32(scores, static_cast<float>(d_scale));
      const MatF probs = scaled_masked_softmax(
          d, mask, std::sqrt(static_cast<float>(head_dim)));
      return quantize_i8(probs, QuantParams{hw::kProbScale});
    }
  }
  TFACC_CHECK(false);
  return {};
}

namespace {

/// W_G projection + residual + LayerNorm, shared by the plain and cached
/// forward paths (both operate per row).
MatI8 mha_output_stage(const MhaQuantized& m, const MatI8& q,
                       const MatI8& p) {
  const MatI32 g_acc = m.wg.accumulate(p);
  const MatI16 g_proj = requantize_i16(g_acc, m.wg_to_g);
  const MatI16 g_res = requantize_i8_to_i16(q, m.residual_to_g);
  const MatI16 g = saturating_add_i16(g_proj, g_res);
  return m.norm(g);
}

}  // namespace

MatI8 MhaQuantized::forward(const MatI8& q, const MatI8& kv,
                            const Mask& mask) const {
  TFACC_CHECK_ARG(q.cols() == d_model && kv.cols() == d_model);
  TFACC_CHECK_ARG(mask.rows() == q.rows() && mask.cols() == kv.rows());

  MatI8 p(q.rows(), d_model);
  for (int h = 0; h < num_heads; ++h) {
    const auto& qh = heads[static_cast<std::size_t>(h)];
    const MatI8 q1 = qh.wq.forward(q);
    const MatI8 k1 = qh.wk.forward(kv);
    const MatI8 v1 = qh.wv.forward(kv);
    const MatI32 scores = gemm_nt_i8(q1, k1);
    const MatI8 probs = softmax(scores, mask, h);
    const MatI32 a = gemm_i8(probs, v1);
    p.set_block(0, h * head_dim, requantize_i8(a, qh.av_requant));
  }
  return mha_output_stage(*this, q, p);
}

// --- Cached (incremental-decode) path ---------------------------------------

QuantKvCache::QuantKvCache(std::size_t num_heads, int head_dim)
    : k1(num_heads, MatI8(0, head_dim)), v1(num_heads, MatI8(0, head_dim)) {}

MhaCachePtr QuantKvCache::clone() const {
  return std::make_unique<QuantKvCache>(*this);
}

int QuantKvCache::rows() const { return k1.empty() ? 0 : k1.front().rows(); }

QuantKvCache MhaQuantized::make_cache() const {
  return QuantKvCache(static_cast<std::size_t>(num_heads), head_dim);
}

void MhaQuantized::append_kv(const MatI8& kv, QuantKvCache& cache) const {
  TFACC_CHECK_ARG(kv.cols() == d_model);
  TFACC_CHECK_ARG(cache.k1.size() == heads.size());
  for (std::size_t h = 0; h < heads.size(); ++h) {
    cache.k1[h].append_rows(heads[h].wk.forward(kv));
    cache.v1[h].append_rows(heads[h].wv.forward(kv));
  }
}

BatchHookScratch& batch_hook_scratch() {
  thread_local BatchHookScratch s;
  return s;
}

void quant_kv_caches_into(const std::vector<MhaCache*>& caches,
                          BatchHookScratch& s) {
  s.kv.clear();
  s.ckv.clear();
  s.kv.reserve(caches.size());
  s.ckv.reserve(caches.size());
  for (MhaCache* c : caches) {
    QuantKvCache* q = &dynamic_cast<QuantKvCache&>(*c);
    s.kv.push_back(q);
    s.ckv.push_back(q);
  }
}

void mask_ptrs_into(const std::vector<Mask>& masks, BatchHookScratch& s) {
  s.masks.clear();
  s.masks.reserve(masks.size());
  for (const Mask& m : masks) s.masks.push_back(&m);
}

void MhaQuantized::append_kv_batch(
    const MatI8& kv, const std::vector<QuantKvCache*>& caches) const {
  TFACC_CHECK_ARG(kv.cols() == d_model);
  TFACC_CHECK_ARG(static_cast<int>(caches.size()) == kv.rows());
  for (std::size_t h = 0; h < heads.size(); ++h) {
    const MatI8 k1 = heads[h].wk.forward(kv);
    const MatI8 v1 = heads[h].wv.forward(kv);
    for (int r = 0; r < kv.rows(); ++r) {
      QuantKvCache& cache = *caches[static_cast<std::size_t>(r)];
      TFACC_CHECK_ARG(cache.k1.size() == heads.size());
      cache.k1[h].append_rows(k1.block(r, 0, 1, head_dim));
      cache.v1[h].append_rows(v1.block(r, 0, 1, head_dim));
    }
  }
}

MatI8 MhaQuantized::forward_cached_batch(
    const MatI8& q, const std::vector<const QuantKvCache*>& caches,
    const std::vector<const Mask*>& masks) const {
  const int n = q.rows();
  TFACC_CHECK_ARG(q.cols() == d_model);
  TFACC_CHECK_ARG(static_cast<int>(caches.size()) == n &&
                  static_cast<int>(masks.size()) == n);
  for (int r = 0; r < n; ++r)
    TFACC_CHECK_ARG(masks[static_cast<std::size_t>(r)]->rows() == 1 &&
                    masks[static_cast<std::size_t>(r)]->cols() ==
                        caches[static_cast<std::size_t>(r)]->rows());

  MatI8 p(n, d_model);
  for (int h = 0; h < num_heads; ++h) {
    const auto& qh = heads[static_cast<std::size_t>(h)];
    const MatI8 q1 = qh.wq.forward(q);  // one stacked projection
    for (int r = 0; r < n; ++r) {
      const QuantKvCache& cache = *caches[static_cast<std::size_t>(r)];
      const MatI8 q1_row = q1.block(r, 0, 1, head_dim);
      const MatI32 scores =
          gemm_nt_i8(q1_row, cache.k1[static_cast<std::size_t>(h)]);
      const MatI8 probs =
          softmax(scores, *masks[static_cast<std::size_t>(r)], h);
      const MatI32 a = gemm_i8(probs, cache.v1[static_cast<std::size_t>(h)]);
      p.set_block(r, h * head_dim, requantize_i8(a, qh.av_requant));
    }
  }
  return mha_output_stage(*this, q, p);
}

// --- FfnQuantized ------------------------------------------------------------

FfnQuantized FfnQuantized::build(const FfnWeights& w, const FfnRanges& ranges,
                                 float in_scale_override,
                                 WeightGranularity granularity) {
  FfnQuantized f;
  f.d_model = w.w1.rows();
  f.d_ff = w.w1.cols();
  f.in_scale = in_scale_override > 0.0f ? in_scale_override
                                        : ranges.in.scale(127);
  const float h_scale = ranges.hidden.scale(127);
  f.g_scale = ranges.g.scale(kI16CalibMax);
  f.out_scale = ranges.out.scale(127);

  f.w1 = QuantizedLinear::build(w.w1, w.b1, f.in_scale, h_scale, granularity);
  f.w2 = QuantizedLinear::build(w.w2, w.b2, h_scale, f.g_scale);
  f.w2_to_g = FixedPointScale::from_double(
      static_cast<double>(h_scale) * f.w2.w_scale / f.g_scale);
  f.residual_to_g =
      FixedPointScale::from_double(static_cast<double>(f.in_scale) /
                                   f.g_scale);
  f.norm = hw::LayerNormUnit::build(w.norm, f.out_scale);
  return f;
}

FfnQuantized FfnQuantized::build(const FfnWeights& w,
                                 const std::vector<MatF>& x_samples,
                                 CalibMethod method, float in_scale_override,
                                 WeightGranularity granularity) {
  TFACC_CHECK_ARG(!x_samples.empty());
  FfnRanges ranges(method);
  for (const MatF& x : x_samples) {
    ranges.in.add(x);
    ffn_resblock_observed(x, w, &ranges);
  }
  return build(w, ranges, in_scale_override, granularity);
}

MatI8 FfnQuantized::forward(const MatI8& x) const {
  TFACC_CHECK_ARG(x.cols() == d_model);
  const MatI8 hidden = w1.forward_relu(x);
  const MatI32 g_acc = w2.accumulate(hidden);
  const MatI16 g_proj = requantize_i16(g_acc, w2_to_g);
  const MatI16 g_res = requantize_i8_to_i16(x, residual_to_g);
  const MatI16 g = saturating_add_i16(g_proj, g_res);
  return norm(g);
}

}  // namespace tfacc
