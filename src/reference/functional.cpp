#include "reference/functional.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace tfacc {

Mask no_mask(int rows, int cols) { return Mask(rows, cols); }

Mask causal_mask(int s) {
  Mask m(s, s);
  for (int r = 0; r < s; ++r)
    for (int c = r + 1; c < s; ++c) m(r, c) = 1;
  return m;
}

Mask padding_mask(int rows, int cols, int valid_len) {
  TFACC_CHECK_ARG(valid_len >= 0 && valid_len <= cols);
  Mask m(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = valid_len; c < cols; ++c) m(r, c) = 1;
  return m;
}

MatF scaled_masked_softmax(const MatF& d, const Mask& mask, float scale_div) {
  TFACC_CHECK_ARG(d.rows() == mask.rows() && d.cols() == mask.cols());
  TFACC_CHECK_ARG(scale_div > 0.0f);
  MatF out(d.rows(), d.cols());
  for (int r = 0; r < d.rows(); ++r) {
    // Max over unmasked entries (log-sum-exp stabilization, Eq. 5).
    float mx = -std::numeric_limits<float>::infinity();
    for (int c = 0; c < d.cols(); ++c)
      if (mask(r, c) == 0) mx = std::max(mx, d(r, c) / scale_div);
    if (mx == -std::numeric_limits<float>::infinity()) {
      // Fully masked row: defined as all zeros (Eq. 4 has an empty sum).
      for (int c = 0; c < d.cols(); ++c) out(r, c) = 0.0f;
      continue;
    }
    float sum = 0.0f;
    for (int c = 0; c < d.cols(); ++c) {
      if (mask(r, c) == 0) {
        out(r, c) = std::exp(d(r, c) / scale_div - mx);
        sum += out(r, c);
      } else {
        out(r, c) = 0.0f;
      }
    }
    for (int c = 0; c < d.cols(); ++c) out(r, c) /= sum;
  }
  return out;
}

MatF layer_norm(const MatF& g, const LayerNormParams& p, float eps) {
  TFACC_CHECK_ARG(static_cast<int>(p.gamma.size()) == g.cols());
  TFACC_CHECK_ARG(static_cast<int>(p.beta.size()) == g.cols());
  MatF out(g.rows(), g.cols());
  const int n = g.cols();
  for (int r = 0; r < g.rows(); ++r) {
    double mean = 0.0;
    for (int c = 0; c < n; ++c) mean += g(r, c);
    mean /= n;
    double var = 0.0;
    for (int c = 0; c < n; ++c) {
      const double d = g(r, c) - mean;
      var += d * d;
    }
    var /= n;
    const double inv = 1.0 / std::sqrt(var + eps);
    for (int c = 0; c < n; ++c)
      out(r, c) = static_cast<float>((g(r, c) - mean) * inv * p.gamma[c] +
                                     p.beta[c]);
  }
  return out;
}

MatF attention_head(const MatF& q, const MatF& k, const MatF& v,
                    const Mask& mask) {
  TFACC_CHECK_ARG(q.cols() == k.cols() && k.rows() == v.rows());
  const MatF scores = gemm_nt(q, k);  // s_q × s_kv
  const float scale = std::sqrt(static_cast<float>(q.cols()));
  const MatF probs = scaled_masked_softmax(scores, mask, scale);
  return gemm(probs, v);
}

namespace {

// P: each head's attention over its own projections of q and kv, written
// into its column block; each head's projections go to `obs`.
MatF mha_heads(const MatF& q, const MatF& kv, const MhaWeights& w,
               const Mask& mask, MhaObserver* obs) {
  const int head_dim = w.heads.front().wv.cols();
  MatF p(q.rows(), static_cast<int>(w.heads.size()) * head_dim);
  for (std::size_t h = 0; h < w.heads.size(); ++h) {
    const auto& head = w.heads[h];
    const MatF qi = add_bias(gemm(q, head.wq), head.bq);
    const MatF ki = add_bias(gemm(kv, head.wk), head.bk);
    const MatF vi = add_bias(gemm(kv, head.wv), head.bv);
    if (obs != nullptr) {
      obs->query(h, qi);
      obs->key_value(h, ki, vi);
    }
    p.set_block(0, static_cast<int>(h) * head_dim,
                attention_head(qi, ki, vi, mask));
  }
  return p;
}

}  // namespace

MatF mha_output_stage(const MatF& q, const MatF& p, const MhaWeights& w,
                      MhaObserver* obs) {
  const MatF g = add(q, add_bias(gemm(p, w.wg), w.bg));
  MatF out = layer_norm(g, w.norm);
  if (obs != nullptr) obs->output(p, g, out);
  return out;
}

MatF mha_pre_norm(const MatF& q, const MatF& kv, const MhaWeights& w,
                  const Mask& mask) {
  return add(q, add_bias(gemm(mha_heads(q, kv, w, mask, nullptr), w.wg), w.bg));
}

MatF mha_resblock_observed(const MatF& q, const MatF& kv, const MhaWeights& w,
                           const Mask& mask, MhaObserver* obs) {
  return mha_output_stage(q, mha_heads(q, kv, w, mask, obs), w, obs);
}

MatF mha_resblock(const MatF& q, const MatF& kv, const MhaWeights& w,
                  const Mask& mask) {
  return mha_resblock_observed(q, kv, w, mask, nullptr);
}

MatF ffn_resblock_observed(const MatF& x, const FfnWeights& w,
                           FfnObserver* obs) {
  const MatF hidden = relu(add_bias(gemm(x, w.w1), w.b1));
  const MatF g = add(x, add_bias(gemm(hidden, w.w2), w.b2));
  MatF out = layer_norm(g, w.norm);
  if (obs != nullptr) obs->output(hidden, g, out);
  return out;
}

MatF ffn_resblock(const MatF& x, const FfnWeights& w) {
  return ffn_resblock_observed(x, w, nullptr);
}

}  // namespace tfacc
