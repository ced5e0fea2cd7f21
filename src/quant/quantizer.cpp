#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hpp"

namespace tfacc {

void RangeObserver::add(const float* values, std::size_t n) {
  if (method_ == CalibMethod::kPercentile999) {
    for (std::size_t i = 0; i < n; ++i) abs_.push_back(std::abs(values[i]));
  } else {
    // The first value seeds the maximum, as std::max_element's does.
    std::size_t i = 0;
    if (count_ == 0 && n > 0) max_abs_ = std::abs(values[i++]);
    for (; i < n; ++i) max_abs_ = std::max(max_abs_, std::abs(values[i]));
  }
  count_ += n;
}

float RangeObserver::scale(int qmax) const {
  TFACC_CHECK_ARG(qmax > 0);
  if (count_ == 0) return 1.0f;
  float bound = max_abs_;
  if (method_ == CalibMethod::kPercentile999) {
    std::vector<float> ranked = abs_;
    const auto k = static_cast<std::size_t>(
        0.999 * static_cast<double>(count_ - 1));
    std::nth_element(ranked.begin(), ranked.begin() + k, ranked.end());
    bound = ranked[k];
  }
  if (bound <= 0.0f) return 1.0f;
  return bound / static_cast<float>(qmax);
}

QuantParams calibrate(const std::vector<float>& values, int qmax,
                      CalibMethod method) {
  RangeObserver range(method);
  range.add(values.data(), values.size());
  return QuantParams{range.scale(qmax)};
}

QuantParams calibrate(const MatF& values, int qmax, CalibMethod method) {
  RangeObserver range(method);
  range.add(values);
  return QuantParams{range.scale(qmax)};
}

QuantParams calibrate(const std::vector<MatF>& samples, int qmax,
                      CalibMethod method) {
  RangeObserver range(method);
  for (const MatF& m : samples) range.add(m);
  return QuantParams{range.scale(qmax)};
}

MatI8 quantize_i8(const MatF& m, QuantParams p) {
  TFACC_CHECK_ARG(p.scale > 0.0f);
  MatI8 out(m.rows(), m.cols());
  kernels::quantize_i8_into(m, p.scale, out);
  return out;
}

MatI16 quantize_i16(const MatF& m, QuantParams p) {
  TFACC_CHECK_ARG(p.scale > 0.0f);
  MatI16 out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = saturate_round<std::int16_t>(m(r, c) / p.scale);
  return out;
}

std::vector<std::int8_t> quantize_i8(const std::vector<float>& v,
                                     QuantParams p) {
  TFACC_CHECK_ARG(p.scale > 0.0f);
  std::vector<std::int8_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = saturate_round<std::int8_t>(v[i] / p.scale);
  return out;
}

std::vector<std::int32_t> quantize_bias(const std::vector<float>& bias,
                                        float in_scale, float w_scale) {
  TFACC_CHECK_ARG(in_scale > 0.0f && w_scale > 0.0f);
  const double acc_scale = static_cast<double>(in_scale) * w_scale;
  std::vector<std::int32_t> out(bias.size());
  // Clamp before rounding: llround's result is unspecified past int64, where
  // it returns INT64_MIN on x86 and flips a huge positive bias negative.
  for (std::size_t i = 0; i < bias.size(); ++i)
    out[i] = saturate_i32(
        std::llround(std::clamp(bias[i] / acc_scale, -0x1p31, 0x1p31)));
  return out;
}

MatF dequantize(const MatI8& m, QuantParams p) {
  MatF out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = static_cast<float>(m(r, c)) * p.scale;
  return out;
}

MatF dequantize_i16(const MatI16& m, QuantParams p) {
  MatF out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = static_cast<float>(m(r, c)) * p.scale;
  return out;
}

MatF dequantize_i32(const MatI32& m, float scale) {
  MatF out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = static_cast<float>(m(r, c)) * scale;
  return out;
}

MatI8 requantize_i8(const MatI32& acc, const FixedPointScale& s) {
  MatI8 out(acc.rows(), acc.cols());
  kernels::requantize_i8_into(acc, s.mantissa, s.shift, out);
  return out;
}

MatI16 requantize_i16(const MatI32& acc, const FixedPointScale& s) {
  MatI16 out(acc.rows(), acc.cols());
  kernels::requantize_i16_into(acc, s.mantissa, s.shift, out);
  return out;
}

}  // namespace tfacc
