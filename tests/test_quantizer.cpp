// Unit tests for src/quant/quantizer: calibration, quantize/dequantize,
// fixed-point requantization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "quant/quantizer.hpp"
#include "tensor/compare.hpp"
#include "tensor/ops.hpp"

namespace tfacc {
namespace {

TEST(Calibrate, MaxAbsUsesLargestMagnitude) {
  const QuantParams p = calibrate(std::vector<float>{-6.35f, 1.0f, 2.0f}, 127);
  EXPECT_NEAR(p.scale, 6.35f / 127.0f, 1e-6);
}

TEST(Calibrate, AllZeroFallsBackToUnitScale) {
  const QuantParams p = calibrate(std::vector<float>{0.0f, 0.0f}, 127);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
}

TEST(Calibrate, PercentileClipsOutliers) {
  std::vector<float> v(10000, 1.0f);
  v[0] = 1000.0f;  // single outlier
  const QuantParams pm = calibrate(v, 127, CalibMethod::kMaxAbs);
  const QuantParams pp = calibrate(v, 127, CalibMethod::kPercentile999);
  EXPECT_GT(pm.scale, 1.0f);
  EXPECT_NEAR(pp.scale, 1.0f / 127.0f, 1e-5);
}

TEST(Calibrate, MultiSampleTakesGlobalRange) {
  MatF a(1, 2), b(1, 2);
  a(0, 0) = 1.0f;
  b(0, 1) = -12.7f;
  const QuantParams p = calibrate(std::vector<MatF>{a, b}, 127);
  EXPECT_NEAR(p.scale, 0.1f, 1e-6);
}

// --- RangeObserver against a flat oracle ------------------------------------
// The oracle ranks the flattened |x| with the standard algorithms. The
// observer must give its scale bit for bit, whether a matrix arrives whole
// or row by row across many add() calls, as a cached decode delivers it.

/// The scale of `values` computed directly: std::max_element or
/// std::nth_element over the flattened |x|.
float oracle_scale(const MatF& values, int qmax, CalibMethod method) {
  std::vector<float> absvals(values.data(), values.data() + values.size());
  for (float& v : absvals) v = std::abs(v);
  if (absvals.empty()) return 1.0f;
  float bound = 0.0f;
  if (method == CalibMethod::kMaxAbs) {
    bound = *std::max_element(absvals.begin(), absvals.end());
  } else {
    const auto k = static_cast<std::size_t>(
        0.999 * static_cast<double>(absvals.size() - 1));
    std::nth_element(absvals.begin(), absvals.begin() + k, absvals.end());
    bound = absvals[k];
  }
  return bound <= 0.0f ? 1.0f : bound / static_cast<float>(qmax);
}

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// Expects the observer, fed `m` whole or row by row, and calibrate() to
/// give the oracle's scale under both methods at both qmax values.
void expect_matches_oracle(const MatF& m) {
  for (const CalibMethod method :
       {CalibMethod::kMaxAbs, CalibMethod::kPercentile999}) {
    for (const int qmax : {127, 32000}) {
      const int id = static_cast<int>(method);
      SCOPED_TRACE(::testing::Message() << "method " << id << " qmax " << qmax);
      const float want = oracle_scale(m, qmax, method);
      RangeObserver whole(method);
      whole.add(m);
      RangeObserver rows(method);
      for (int r = 0; r < m.rows(); ++r) rows.add(m.block(r, 0, 1, m.cols()));
      EXPECT_EQ(bits(whole.scale(qmax)), bits(want)) << want;
      EXPECT_EQ(bits(rows.scale(qmax)), bits(want)) << want;
      EXPECT_EQ(bits(calibrate(m, qmax, method).scale), bits(want)) << want;
    }
  }
}

TEST(RangeObserver, RowByRowMatchesFlatOracle) {
  Rng rng(21);
  // 1073 values: the percentile's rank falls inside, not on the maximum.
  MatF m(37, 29);
  fill_normal(m, rng, 0.0f, 3.0f);
  m(5, 7) = -40.0f;  // an outlier the percentile clips
  m(30, 2) = 39.0f;
  expect_matches_oracle(m);
}

TEST(RangeObserver, EmptyAndAllZeroGiveUnitScale) {
  expect_matches_oracle(MatF(0, 5));
  expect_matches_oracle(MatF(4, 3));
  for (const CalibMethod method :
       {CalibMethod::kMaxAbs, CalibMethod::kPercentile999}) {
    RangeObserver range(method);
    EXPECT_EQ(range.scale(127), 1.0f);
    range.add(MatF(0, 5));
    EXPECT_EQ(range.scale(127), 1.0f);
    range.add(MatF(2, 3));
    EXPECT_EQ(range.scale(32000), 1.0f);
  }
}

TEST(RangeObserver, SignedZerosAndInfinities) {
  const float inf = std::numeric_limits<float>::infinity();
  expect_matches_oracle(MatF{{-0.0f, 0.0f}, {0.0f, -0.0f}});
  // An infinity first seeds the maximum; one in a later row replaces it.
  expect_matches_oracle(MatF{{-inf, 0.5f}, {-0.0f, 2.0f}, {0.0f, 1.0f}});
  expect_matches_oracle(MatF{{-0.0f, 0.5f}, {-2.0f, 0.0f}, {inf, -inf}});
  // Enough values that the percentile's rank is finite among infinities.
  MatF m(40, 50);
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      m(r, c) = (r + c) % 2 == 0 ? -0.0f : static_cast<float>(r - c);
  m(0, 1) = -inf;
  m(39, 48) = inf;
  expect_matches_oracle(m);
}

// A NaN first poisons max_element's maximum and a later one is passed
// over; the running maximum keeps that, row split or not.
TEST(RangeObserver, MaxAbsTreatsNanAsMaxElementDoes) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const MatF nan_first{{nan, 1.0f}, {2.0f, -3.0f}};
  const MatF nan_later{{1.0f, nan}, {-3.0f, 2.0f}};
  for (const MatF* m : {&nan_first, &nan_later}) {
    const float want = oracle_scale(*m, 127, CalibMethod::kMaxAbs);
    RangeObserver rows;
    for (int r = 0; r < m->rows(); ++r) rows.add(m->block(r, 0, 1, m->cols()));
    EXPECT_EQ(bits(rows.scale(127)), bits(want)) << want;
  }
}

TEST(Quantize, RoundTripErrorBoundedByHalfStep) {
  Rng rng(3);
  MatF m(16, 16);
  fill_normal(m, rng, 0, 2);
  const QuantParams p = calibrate(m, 127);
  const MatF back = dequantize(quantize_i8(m, p), p);
  EXPECT_LE(max_abs_diff(m, back), 0.5 * p.scale + 1e-7);
}

TEST(Quantize, SaturatesOutOfRange) {
  MatF m{{100.0f, -100.0f}};
  const MatI8 q = quantize_i8(m, QuantParams{0.1f});
  EXPECT_EQ(q(0, 0), 127);
  EXPECT_EQ(q(0, 1), -128);
}

// Every overload saturates ±inf and values past int64 (where llround alone
// returns INT64_MIN on x86, the negative limit after saturation), maps NaN
// to 0 and rounds ties half away from zero. A row of 14 fills the
// dispatched int8 quantizer's 8-lane body and its tail.
constexpr float kPow2Scale = 0.25f;  // every x / scale below is exact

void expect_quantizes(const std::vector<float>& x, const std::vector<int>& i8,
                      const std::vector<int>& i16) {
  MatF m(1, static_cast<int>(x.size()));
  std::copy(x.begin(), x.end(), m.data());
  const QuantParams p{kPow2Scale};
  const MatI8 q8 = quantize_i8(m, p);
  const MatI16 q16 = quantize_i16(m, p);
  const std::vector<std::int8_t> qv = quantize_i8(x, p);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const int c = static_cast<int>(i);
    EXPECT_EQ(q8(0, c), i8[i]) << "quantize_i8 of " << x[i];
    EXPECT_EQ(q16(0, c), i16[i]) << "quantize_i16 of " << x[i];
    EXPECT_EQ(qv[i], i8[i]) << "quantize_i8 (vector) of " << x[i];
  }
}

TEST(Quantize, SaturatesInfinitiesAndHugeValues) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  constexpr float huge = 1e19f * kPow2Scale;  // x / scale = 1e19 > 2^63
  expect_quantizes(
      {inf, -inf, huge, -huge, inf, huge, -inf, -huge, 200 * kPow2Scale,
       inf, huge, -huge, -inf, inf},
      {127, -128, 127, -128, 127, 127, -128, -128, 127, 127, 127, -128, -128,
       127},
      {32767, -32768, 32767, -32768, 32767, 32767, -32768, -32768, 200,
       32767, 32767, -32768, -32768, 32767});
}

TEST(Quantize, NanIsZeroAndTiesRoundAwayFromZero) {
  constexpr float nan = std::numeric_limits<float>::quiet_NaN();
  constexpr float s = kPow2Scale;
  expect_quantizes(
      {nan, 0.5f * s, -0.5f * s, 1.5f * s, -1.5f * s, 2.5f * s, -2.5f * s,
       std::nextafter(0.5f, 0.0f) * s, nan, 0.5f * s, -0.5f * s, 2.5f * s,
       -2.5f * s, -0.0f},
      {0, 1, -1, 2, -2, 3, -3, 0, 0, 1, -1, 3, -3, 0},
      {0, 1, -1, 2, -2, 3, -3, 0, 0, 1, -1, 3, -3, 0});
}

TEST(Quantize, I16RoundTrip) {
  Rng rng(4);
  MatF m(8, 8);
  fill_normal(m, rng, 0, 5);
  const QuantParams p = calibrate(m, 32000);
  const MatF back = dequantize_i16(quantize_i16(m, p), p);
  EXPECT_LE(max_abs_diff(m, back), 0.5 * p.scale + 1e-7);
}

TEST(QuantizeBias, LandsInAccumulatorUnits) {
  const std::vector<float> bias{1.0f, -0.5f};
  const auto q = quantize_bias(bias, 0.1f, 0.01f);  // acc scale 1e-3
  EXPECT_EQ(q[0], 1000);
  EXPECT_EQ(q[1], -500);
}

TEST(Requantize, MatchesRealValuedRescaling) {
  Rng rng(5);
  MatI32 acc(12, 12);
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c)
      acc(r, c) = rng.uniform_int(-200000, 200000);
  const double ratio = 4.2e-4;
  const auto fps = FixedPointScale::from_double(ratio);
  const MatI8 q = requantize_i8(acc, fps);
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c) {
      const double real = acc(r, c) * ratio;
      EXPECT_NEAR(static_cast<double>(q(r, c)),
                  clamp<double>(real, -128.0, 127.0), 0.75)
          << acc(r, c);
    }
}

TEST(Requantize, I16Path) {
  MatI32 acc{{1000000, -1000000}};
  const auto fps = FixedPointScale::from_double(0.01);
  const MatI16 q = requantize_i16(acc, fps);
  EXPECT_NEAR(q(0, 0), 10000, 1);
  EXPECT_NEAR(q(0, 1), -10000, 1);
}

TEST(Requantize, QuantizedGemmTracksFloatGemm) {
  // The full INT8 pipeline: quantize inputs/weights, int GEMM, requantize —
  // result must track the FP32 GEMM within accumulated quantization error.
  Rng rng(6);
  MatF x(8, 32), w(32, 8);
  fill_normal(x, rng, 0, 1);
  fill_normal(w, rng, 0, 0.5);
  const QuantParams px = calibrate(x, 127);
  const QuantParams pw = calibrate(w, 127);
  const MatF y = gemm(x, w);
  const QuantParams py = calibrate(y, 127);

  const MatI32 acc = gemm_i8(quantize_i8(x, px), quantize_i8(w, pw));
  const auto fps = FixedPointScale::from_double(
      static_cast<double>(px.scale) * pw.scale / py.scale);
  const MatF yq = dequantize(requantize_i8(acc, fps), py);
  EXPECT_GT(cosine_similarity(y, yq), 0.999);
  EXPECT_LT(max_abs_diff(y, yq) / calibrate(y, 1).scale, 0.05);
}

}  // namespace
}  // namespace tfacc
