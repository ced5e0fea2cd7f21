// Fixed-point and saturating-integer helpers shared by the quantizer and the
// bit-accurate hardware arithmetic units.
//
// The accelerator datapath is INT8 activations/weights with INT32 accumulators
// (Section V.A of the paper). Requantization back to INT8 is modeled the way
// hardware does it: multiply by an integer mantissa and arithmetic-shift right
// with round-to-nearest (round-half-away-from-zero), then saturate.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace tfacc {

/// Saturate a wide integer into [lo, hi].
template <typename T>
constexpr T clamp(T v, T lo, T hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Saturate an int64 value to the int8 range.
constexpr std::int8_t saturate_i8(std::int64_t v) {
  return static_cast<std::int8_t>(
      clamp<std::int64_t>(v, std::numeric_limits<std::int8_t>::min(),
                          std::numeric_limits<std::int8_t>::max()));
}

/// Saturate an int64 value to the int16 range.
constexpr std::int16_t saturate_i16(std::int64_t v) {
  return static_cast<std::int16_t>(
      clamp<std::int64_t>(v, std::numeric_limits<std::int16_t>::min(),
                          std::numeric_limits<std::int16_t>::max()));
}

/// Saturate an int64 value to the int32 range.
constexpr std::int32_t saturate_i32(std::int64_t v) {
  return static_cast<std::int32_t>(
      clamp<std::int64_t>(v, std::numeric_limits<std::int32_t>::min(),
                          std::numeric_limits<std::int32_t>::max()));
}

/// Round a float to nearest, half away from zero, and saturate it to T's
/// range; NaN becomes 0. Clamps before rounding: llround's result is
/// unspecified past int64, where x86 returns INT64_MIN and would flip +inf
/// or 1e19 to T's minimum.
template <typename T>
T saturate_round(float v) {
  if (std::isnan(v)) return 0;
  constexpr auto lo = static_cast<float>(std::numeric_limits<T>::min());
  constexpr auto hi = static_cast<float>(std::numeric_limits<T>::max());
  return static_cast<T>(std::llround(clamp(v, lo, hi)));
}

/// Arithmetic shift right with round-to-nearest, half away from zero.
/// This matches a hardware rounding adder in front of the shifter.
constexpr std::int64_t rounding_shift_right(std::int64_t v, int shift) {
  if (shift <= 0) return v << -shift;
  const std::int64_t bias = std::int64_t{1} << (shift - 1);
  if (v >= 0) return (v + bias) >> shift;
  return -((-v + bias) >> shift);
}

/// A requantization multiplier `m * 2^-k` with an integer mantissa, exactly as
/// a hardware requantizer implements a real-valued scale. The mantissa is
/// normalized into [2^(bits-1), 2^bits) so precision is constant.
struct FixedPointScale {
  std::int32_t mantissa = 0;  ///< normalized integer mantissa (0 => scale 0)
  int shift = 0;              ///< right-shift applied after the multiply

  /// Number of mantissa bits used for normalization.
  static constexpr int kMantissaBits = 15;

  /// Shift range of from_double. Below kMinShift, v·mantissa << −shift
  /// wraps for a 33-bit v. Above kMaxShift the rounding bias 2^(shift−1)
  /// leaves int64; every caller's |v·mantissa| is below 2⁴⁷, so such a scale
  /// rounds every value to 0, exactly as the zero scale does.
  static constexpr int kMinShift = -15;
  static constexpr int kMaxShift = 62;

  /// Build the fixed-point representation of a non-negative real scale.
  /// Throws CheckError on a non-finite scale or one needing a shift below
  /// kMinShift; a scale needing a shift above kMaxShift becomes zero.
  static FixedPointScale from_double(double scale) {
    TFACC_CHECK_ARG_MSG(std::isfinite(scale) && scale >= 0.0,
                        "scale=" << scale);
    FixedPointScale fps;
    if (scale == 0.0) return fps;
    int shift = 0;
    double m = scale;
    while (m < (1 << (kMantissaBits - 1))) {
      m *= 2.0;
      ++shift;
    }
    while (m >= (1 << kMantissaBits)) {
      m /= 2.0;
      --shift;
    }
    fps.mantissa = static_cast<std::int32_t>(m + 0.5);
    if (fps.mantissa == (1 << kMantissaBits)) {  // rounding overflowed
      fps.mantissa >>= 1;
      --shift;
    }
    TFACC_CHECK_ARG_MSG(shift >= kMinShift,
                        "scale=" << scale << " needs shift " << shift);
    if (shift > kMaxShift) return FixedPointScale{};
    fps.shift = shift;
    return fps;
  }

  /// The real value this fixed-point scale represents.
  double to_double() const {
    if (mantissa == 0) return 0.0;
    double v = static_cast<double>(mantissa);
    int s = shift;
    while (s > 0) { v *= 0.5; --s; }
    while (s < 0) { v *= 2.0; ++s; }
    return v;
  }

  /// Apply the scale to an int32 accumulator: round((v * mantissa) >> shift).
  std::int64_t apply(std::int64_t v) const {
    return rounding_shift_right(v * mantissa, shift);
  }

  /// Apply and saturate to int8 — the full hardware requantization step.
  std::int8_t apply_i8(std::int64_t v) const { return saturate_i8(apply(v)); }

  /// Apply and saturate to int16.
  std::int16_t apply_i16(std::int64_t v) const { return saturate_i16(apply(v)); }
};

/// A signed fixed-point value with a compile-time number of fraction bits.
/// Used by the softmax / layernorm hardware models (e.g. Q8.8, Q2.14).
template <int FracBits>
struct Fixed {
  static_assert(FracBits >= 0 && FracBits < 32);
  std::int32_t raw = 0;

  static constexpr int kFracBits = FracBits;
  static constexpr std::int32_t kOne = std::int32_t{1} << FracBits;

  static Fixed from_raw(std::int32_t r) { return Fixed{r}; }
  /// Round v·2^FracBits to nearest, half away from zero, and saturate it to
  /// int32; NaN becomes 0. Clamps before the integer cast, which is
  /// undefined for ±inf and for values past int64.
  static Fixed from_double(double v) {
    if (std::isnan(v)) return Fixed{0};
    constexpr auto lo =
        static_cast<double>(std::numeric_limits<std::int32_t>::min());
    constexpr auto hi =
        static_cast<double>(std::numeric_limits<std::int32_t>::max());
    const double x = clamp(v * static_cast<double>(kOne), lo, hi);
    return Fixed{static_cast<std::int32_t>(x + (x >= 0 ? 0.5 : -0.5))};
  }
  double to_double() const { return static_cast<double>(raw) / kOne; }

  Fixed operator+(Fixed o) const { return Fixed{raw + o.raw}; }
  Fixed operator-(Fixed o) const { return Fixed{raw - o.raw}; }
  bool operator<(Fixed o) const { return raw < o.raw; }
  bool operator==(Fixed o) const { return raw == o.raw; }
};

}  // namespace tfacc
