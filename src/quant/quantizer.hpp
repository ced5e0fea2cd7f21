// Symmetric INT8/INT16 quantization (Section V.A of the paper, following
// Bhandare et al. [2]: all trainable matrices and activations in Fig. 3 are
// quantized with INT8; accumulators are INT32; requantization uses the
// fixed-point multiplier of common/fixed_point.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "common/fixed_point.hpp"
#include "tensor/matrix.hpp"

namespace tfacc {

/// Symmetric quantization parameters: real = raw * scale.
struct QuantParams {
  float scale = 1.0f;
};

/// How activation ranges are reduced to a scale.
enum class CalibMethod {
  kMaxAbs,         ///< scale = max|x| / qmax
  kPercentile999,  ///< scale = 99.9th percentile of |x| / qmax (clips outliers)
};

/// Folds values into one range as they arrive, so a calibration set need
/// not be kept: kMaxAbs keeps one running maximum of |x|, kPercentile999
/// keeps every |x|. However the values are split across add() calls,
/// scale() is the same, bit for bit.
class RangeObserver {
 public:
  explicit RangeObserver(CalibMethod method = CalibMethod::kMaxAbs)
      : method_(method) {}

  void add(const float* values, std::size_t n);
  void add(const MatF& m) { add(m.data(), m.size()); }

  /// The scale that maps the range into [-qmax, qmax]: the bound (max|x|, or
  /// the 99.9th percentile of |x|) over qmax; 1.0 when no value was added or
  /// the bound is zero.
  float scale(int qmax) const;

 private:
  CalibMethod method_;
  std::size_t count_ = 0;
  float max_abs_ = 0.0f;    // kMaxAbs
  std::vector<float> abs_;  // kPercentile999
};

/// Compute a scale so values map into [-qmax, qmax]: RangeObserver's scale
/// over the values.
QuantParams calibrate(const std::vector<float>& values, int qmax,
                      CalibMethod method = CalibMethod::kMaxAbs);
QuantParams calibrate(const MatF& values, int qmax,
                      CalibMethod method = CalibMethod::kMaxAbs);
/// Calibrate over several sample matrices (activation calibration set).
QuantParams calibrate(const std::vector<MatF>& samples, int qmax,
                      CalibMethod method = CalibMethod::kMaxAbs);

/// Symmetric quantization: raw = saturate_round(x / scale), i.e. round half
/// away from zero, ±inf and huge values saturate to the type's limits, NaN
/// becomes 0. The MatF int8 overload is the dispatched hook quantizer
/// (kernels::quantize_i8_into).
MatI8 quantize_i8(const MatF& m, QuantParams p);
MatI16 quantize_i16(const MatF& m, QuantParams p);
std::vector<std::int8_t> quantize_i8(const std::vector<float>& v,
                                     QuantParams p);

/// Bias vectors are quantized straight into accumulator units:
/// raw = round(b / (in_scale * w_scale)).
std::vector<std::int32_t> quantize_bias(const std::vector<float>& bias,
                                        float in_scale, float w_scale);

MatF dequantize(const MatI8& m, QuantParams p);
MatF dequantize_i16(const MatI16& m, QuantParams p);
MatF dequantize_i32(const MatI32& m, float scale);

/// Requantize an INT32 accumulator matrix to INT8/INT16 with a fixed-point
/// multiplier (the hardware path: int32 × mantissa >> shift, round, saturate).
MatI8 requantize_i8(const MatI32& acc, const FixedPointScale& s);
MatI16 requantize_i16(const MatI32& acc, const FixedPointScale& s);

}  // namespace tfacc
