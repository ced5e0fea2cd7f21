// Unit tests for src/common: checks, fixed point, configuration presets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/fixed_point.hpp"
#include "common/random.hpp"
#include "hwarith/exp_ln.hpp"

namespace tfacc {
namespace {

TEST(Check, ThrowsWithLocation) {
  try {
    TFACC_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Check, ArgCheckThrows) {
  EXPECT_THROW(TFACC_CHECK_ARG(false), CheckError);
  EXPECT_NO_THROW(TFACC_CHECK_ARG(true));
}

TEST(Saturate, Int8Bounds) {
  EXPECT_EQ(saturate_i8(127), 127);
  EXPECT_EQ(saturate_i8(128), 127);
  EXPECT_EQ(saturate_i8(-128), -128);
  EXPECT_EQ(saturate_i8(-129), -128);
  EXPECT_EQ(saturate_i8(0), 0);
  EXPECT_EQ(saturate_i8(1'000'000), 127);
  EXPECT_EQ(saturate_i8(-1'000'000), -128);
}

TEST(Saturate, Int16Bounds) {
  EXPECT_EQ(saturate_i16(32767), 32767);
  EXPECT_EQ(saturate_i16(32768), 32767);
  EXPECT_EQ(saturate_i16(-32769), -32768);
}

TEST(RoundingShift, RoundsHalfAwayFromZero) {
  EXPECT_EQ(rounding_shift_right(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(rounding_shift_right(-5, 1), -3);  // -2.5 -> -3
  EXPECT_EQ(rounding_shift_right(4, 1), 2);
  EXPECT_EQ(rounding_shift_right(-4, 1), -2);
  EXPECT_EQ(rounding_shift_right(7, 2), 2);    // 1.75 -> 2
  EXPECT_EQ(rounding_shift_right(100, 0), 100);
}

TEST(RoundingShift, NegativeShiftIsLeftShift) {
  EXPECT_EQ(rounding_shift_right(3, -2), 12);
}

TEST(FixedPointScale, RoundTripsRealScales) {
  for (double s : {1.0, 0.5, 0.037, 3.25, 1e-4, 127.0, 1e-9}) {
    const auto fps = FixedPointScale::from_double(s);
    EXPECT_NEAR(fps.to_double(), s, s * 1e-4) << "scale " << s;
  }
}

TEST(FixedPointScale, ZeroScaleMapsEverythingToZero) {
  const auto fps = FixedPointScale::from_double(0.0);
  EXPECT_EQ(fps.apply(123456), 0);
  EXPECT_EQ(fps.apply_i8(-987), 0);
}

TEST(FixedPointScale, ApplyMatchesRealArithmetic) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double scale = std::exp(rng.uniform(-12.0, 3.0));
    const auto fps = FixedPointScale::from_double(scale);
    const std::int64_t v = rng.uniform_int(-2'000'000, 2'000'000);
    const double expected = static_cast<double>(v) * scale;
    const double got = static_cast<double>(fps.apply(v));
    // Mantissa has 15 bits: relative error bounded by ~2^-15 plus rounding.
    EXPECT_NEAR(got, expected, std::abs(expected) * 2e-4 + 0.51)
        << "v=" << v << " scale=" << scale;
  }
}

TEST(Fixed, ConvertsAndAdds) {
  using Q10 = Fixed<10>;
  const auto a = Q10::from_double(1.5);
  EXPECT_EQ(a.raw, 1536);
  EXPECT_DOUBLE_EQ(a.to_double(), 1.5);
  EXPECT_EQ((a + Q10::from_double(0.25)).raw, 1792);
  EXPECT_EQ((a - a).raw, 0);
}

TEST(Fixed, FromDoubleSaturatesOutOfRangeAndNonFinite) {
  using Q10 = Fixed<10>;
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  const double inf = std::numeric_limits<double>::infinity();
  // 1e16 · 2^10 is past int64, where the cast used to be undefined.
  for (const double v : {inf, 1e16, 2097152.0})
    EXPECT_EQ(Q10::from_double(v).raw, kMax) << v;
  for (const double v : {-inf, -1e16, -2097152.5})
    EXPECT_EQ(Q10::from_double(v).raw, kMin) << v;
  EXPECT_EQ(Q10::from_double(std::nan("")).raw, 0);
  // Values in range still round half away from zero.
  EXPECT_EQ(Q10::from_double(2097151.9990234375).raw, kMax);
  EXPECT_EQ(Q10::from_double(-0.5 / 1024).raw, -1);
  EXPECT_EQ(Q10::from_double(0.49 / 1024).raw, 0);

  // The float helpers of the softmax units reach from_double: an EXP input
  // far below range gives 0, an LN input far above saturates.
  EXPECT_EQ(hw::exp_unit(-1e16), 0.0);
  EXPECT_EQ(hw::exp_unit(-inf), 0.0);
  const double ln_max =
      static_cast<double>(hw::ln_unit_q10(kMax)) / hw::kSoftmaxOne;
  EXPECT_EQ(hw::ln_unit(1e16), ln_max);
  EXPECT_EQ(hw::ln_unit(inf), ln_max);
}

TEST(ModelConfig, Table1PresetsSatisfyThePattern) {
  for (const auto& cfg : ModelConfig::table1()) {
    EXPECT_NO_THROW(cfg.validate()) << cfg.name;
    EXPECT_EQ(cfg.d_model, 64 * cfg.num_heads) << cfg.name;
    EXPECT_EQ(cfg.d_ff, 4 * cfg.d_model) << cfg.name;
    EXPECT_EQ(cfg.head_dim, 64) << cfg.name;
  }
}

TEST(ModelConfig, Table1Values) {
  const auto base = ModelConfig::transformer_base();
  EXPECT_EQ(base.d_model, 512);
  EXPECT_EQ(base.d_ff, 2048);
  EXPECT_EQ(base.num_heads, 8);
  const auto big = ModelConfig::transformer_big();
  EXPECT_EQ(big.d_model, 1024);
  EXPECT_EQ(big.num_heads, 16);
  const auto bb = ModelConfig::bert_base();
  EXPECT_EQ(bb.d_model, 768);
  EXPECT_EQ(bb.num_heads, 12);
  const auto bl = ModelConfig::bert_large();
  EXPECT_EQ(bl.d_model, 1024);
  EXPECT_EQ(bl.d_ff, 4096);
}

TEST(ModelConfig, ValidateRejectsBrokenPattern) {
  ModelConfig cfg = ModelConfig::transformer_base();
  cfg.d_ff = 1000;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg = ModelConfig::transformer_base();
  cfg.num_heads = 7;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ModelConfig, PartitionBlockCounts) {
  const auto base = ModelConfig::transformer_base();
  EXPECT_EQ(base.wg_blocks(), 8);    // h blocks of W_G (Fig. 4)
  EXPECT_EQ(base.w1_blocks(), 32);   // 4h blocks of W_1
  EXPECT_EQ(base.w2_blocks(), 8);    // h blocks of W_2
}

TEST(AcceleratorConfig, DefaultsValidate) {
  AcceleratorConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.sa_rows, 64);
  EXPECT_EQ(cfg.sa_cols, 64);
  EXPECT_DOUBLE_EQ(cfg.clock_mhz, 200.0);
}

TEST(AcceleratorConfig, RejectsNonPositive) {
  AcceleratorConfig cfg;
  cfg.sa_rows = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg = {};
  cfg.clock_mhz = -1;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, RespectsIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

}  // namespace
}  // namespace tfacc
