#include "hwarith/layernorm_unit.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/fixed_point.hpp"
#include "hwarith/rsqrt_lut.hpp"
#include "tensor/kernels.hpp"

namespace tfacc::hw {

LayerNormUnit LayerNormUnit::build(const LayerNormParams& params,
                                   float out_scale) {
  TFACC_CHECK_ARG(out_scale > 0.0f);
  TFACC_CHECK_ARG(params.gamma.size() == params.beta.size());
  TFACC_CHECK_ARG(!params.gamma.empty());
  LayerNormUnit u;
  u.n_ = static_cast<int>(params.gamma.size());
  u.out_scale_ = out_scale;
  u.gq_.resize(params.gamma.size());
  u.bq_.resize(params.beta.size());
  for (std::size_t j = 0; j < params.gamma.size(); ++j) {
    u.gq_[j] = static_cast<std::int32_t>(std::lround(
        static_cast<double>(params.gamma[j]) / out_scale *
        (1 << kNormFracBits)));
    u.bq_[j] = static_cast<std::int32_t>(
        std::lround(static_cast<double>(params.beta[j]) / out_scale));
  }
  return u;
}

void LayerNormUnit::finish_row(const std::int16_t* g, std::int64_t sum,
                               std::int64_t sumsq, std::int8_t* out) const {
  // Integer variance proxy V = n·ΣG² − (ΣG)² = n²·var ≥ 0.
  const std::int64_t v = static_cast<std::int64_t>(n_) * sumsq - sum * sum;
  TFACC_CHECK_MSG(v >= 0, "negative variance proxy " << v);

  if (v == 0) {
    // Constant row: Eq. 6 with ε makes the normalized value 0, output β.
    for (int j = 0; j < n_; ++j)
      out[j] = saturate_i8(bq_[static_cast<std::size_t>(j)]);
    return;
  }

  // One ROM access per row, like the hardware: V is row-constant, so the
  // lookup is hoisted and only the multiply/shift runs per element
  // (bit-identical to calling mul_rsqrt per element). The γ/β loop runs
  // through the dispatched kernel (TFACC_KERNEL) — both kinds are exact.
  const RsqrtLut::Result rs = rsqrt_lut().lookup(v);
  const int norm_shift = RsqrtLut::kOutFracBits + rs.shift - kNormFracBits;
  kernels::layernorm_finish_into(g, n_, sum, rs.mantissa, norm_shift,
                                 2 * kNormFracBits, gq_.data(), bq_.data(),
                                 out);
}

void LayerNormUnit::row(const std::int16_t* g, std::int8_t* out) const {
  std::int64_t sum = 0, sumsq = 0;
  kernels::layernorm_stats(g, n_, &sum, &sumsq);
  finish_row(g, sum, sumsq, out);
}

Matrix<std::int8_t> LayerNormUnit::operator()(const MatI16& g) const {
  TFACC_CHECK_ARG_MSG(g.cols() == n_, "row width " << g.cols() << " vs " << n_);
  Matrix<std::int8_t> out(g.rows(), g.cols());
  for (int r = 0; r < g.rows(); ++r) row(g.row(r), out.row(r));
  return out;
}

}  // namespace tfacc::hw
