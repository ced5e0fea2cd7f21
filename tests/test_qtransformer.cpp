// Tests for whole-model quantization: calibration capture, backend routing,
// agreement between the quantized backend and the accelerator backend, and
// the guards that keep extreme but finite weights out of undefined behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/fixed_point.hpp"
#include "core/backend.hpp"
#include "quant/qtransformer.hpp"
#include "tensor/compare.hpp"

namespace tfacc {
namespace {

ModelConfig hw_tiny() {
  // Smallest hardware-compatible config: one 64-wide head.
  ModelConfig cfg;
  cfg.name = "hw-tiny";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 1;
  return cfg;
}

Transformer make_model(int vocab, Rng& rng) {
  return Transformer(TransformerWeights::random(hw_tiny(), vocab, rng));
}

TEST(CapturingBackend, RecordsEveryBlockInvocation) {
  Rng rng(1);
  Transformer model = make_model(20, rng);
  CaptureStore store;
  model.set_backend(capturing_backend(store));
  // The capturing backend overrides only the batch-style mha/ffn hooks, so
  // supports_cached_decode() is false and the decode loop falls back to
  // full recompute — every block invocation must be recorded.
  model.translate_greedy({3, 4, 5}, 6);
  model.set_backend(ResBlockBackend{});
  // 1 encoder MHA + 1 decoder self + 1 decoder cross = 3 distinct MHA blocks;
  // 2 distinct FFN blocks (encoder + decoder).
  ASSERT_EQ(store.mha.size(), 3u);
  ASSERT_EQ(store.ffn.size(), 2u);
  for (const auto& [w, calib] : store.mha) {
    EXPECT_GT(calib.q.size(), 0u);
    EXPECT_EQ(calib.q.size(), calib.kv.size());
    EXPECT_EQ(calib.q.size(), calib.mask.size());
  }
  // First-capture order is (stack, layer, sublayer) order.
  const TransformerWeights& weights = model.weights();
  EXPECT_EQ(store.mha[0].weights, &weights.encoder_layers[0].mha);
  EXPECT_EQ(store.mha[1].weights, &weights.decoder_layers[0].self_mha);
  EXPECT_EQ(store.mha[2].weights, &weights.decoder_layers[0].cross_mha);
  EXPECT_EQ(store.ffn[0].weights, &weights.encoder_layers[0].ffn);
  EXPECT_EQ(store.ffn[1].weights, &weights.decoder_layers[0].ffn);
}

TEST(QuantizedTransformer, BuildsAndTranslatesCloseToFp32) {
  Rng rng(2);
  Transformer model = make_model(24, rng);
  const std::vector<TokenSeq> calib{{3, 4, 5}, {6, 7, 8, 9}, {10, 11}};
  const auto qt = QuantizedTransformer::build(model, calib,
                                              /*max_len=*/8,
                                              SoftmaxImpl::kHardware);
  // Encoder memories must be numerically close between FP32 and INT8 paths.
  const TokenSeq src{3, 4, 5};
  const MatF ref = model.encode(src);
  model.set_backend(qt.backend());
  const MatF got = model.encode(src);
  model.set_backend(ResBlockBackend{});
  EXPECT_GT(cosine_similarity(ref, got), 0.98);
}

TEST(QuantizedTransformer, UnknownBlockThrows) {
  Rng rng(3);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kFloatExact);
  const MhaWeights stranger = MhaWeights::random(hw_tiny(), rng);
  EXPECT_THROW(qt.mha_for(stranger), CheckError);
}

TEST(QuantizedTransformer, TranslateRestoresBackend) {
  Rng rng(4);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  const TokenSeq fp32_before = model.translate_greedy({3, 4}, 6);
  qt.translate_greedy(model, {3, 4}, 6);
  // After the quantized call the FP32 backend must be active again.
  EXPECT_EQ(model.translate_greedy({3, 4}, 6), fp32_before);
}

// A throw out of calibration or out of a quantized decode must leave the
// FP32 default backend installed: at build(), the capturing backend would
// otherwise write into the dead CaptureStore on the next encode (the ASan
// job catches that); at translate_greedy, the INT8 backend would stay on.
TEST(QuantizedTransformer, BuildThatThrowsRestoresFp32Backend) {
  Rng rng(7);
  Transformer model = make_model(20, rng);
  const MatF fp32 = model.encode({3, 4, 5});
  // Token 99 is outside the 20-token vocabulary.
  EXPECT_THROW(QuantizedTransformer::build(model, {{3, 4, 5}, {3, 99}}, 6,
                                           SoftmaxImpl::kHardware),
               CheckError);
  EXPECT_TRUE(model.encode({3, 4, 5}) == fp32);
}

TEST(QuantizedTransformer, TranslateThatThrowsRestoresFp32Backend) {
  Rng rng(8);
  Transformer model = make_model(20, rng);
  const MatF fp32 = model.encode({3, 4, 5});
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  EXPECT_THROW(qt.translate_greedy(model, {3, 99}, 6), CheckError);
  EXPECT_TRUE(model.encode({3, 4, 5}) == fp32);
}

TEST(AcceleratorBackend, AgreesWithQuantizedBackendBitForBit) {
  // The accelerator computes the exact same INT8 arithmetic as the quantized
  // functional model, so the two backends must produce identical floats.
  Rng rng(5);
  Transformer model = make_model(24, rng);
  const std::vector<TokenSeq> calib{{3, 4, 5, 6}, {7, 8, 9}};
  const auto qt = QuantizedTransformer::build(model, calib, 8,
                                              SoftmaxImpl::kHardware);
  const TokenSeq src{4, 6, 8};

  model.set_backend(qt.backend());
  const MatF memory_q = model.encode(src);
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  model.set_backend(accelerator_backend(qt, acc, &fuser));
  const MatF memory_a = model.encode(src);
  model.set_backend(ResBlockBackend{});

  EXPECT_DOUBLE_EQ(max_abs_diff(memory_q, memory_a), 0.0);
  EXPECT_EQ(stats.mha_runs, 1);
  EXPECT_EQ(stats.ffn_runs, 1);
  EXPECT_GT(stats.total_cycles(), 0);
}

TEST(AcceleratorBackend, AccumulatesCyclesAcrossDecode) {
  Rng rng(6);
  Transformer model = make_model(20, rng);
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}}, 6,
                                              SoftmaxImpl::kHardware);
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  model.set_backend(accelerator_backend(qt, acc, &fuser));
  model.translate_greedy({3, 4, 5}, 6);
  model.set_backend(ResBlockBackend{});
  EXPECT_GT(stats.mha_runs, stats.ffn_runs);  // self + cross per decoder step
  EXPECT_GT(stats.microseconds(200.0), 0.0);
}

// --- Extreme but finite weights ---------------------------------------------
// load_weights accepts any finite float, so quantizing a model must turn an
// absurd magnitude into a clean decode or a CheckError, never into undefined
// behaviour. The sanitizer CI job runs these with halt_on_error.

TEST(FixedPointScale, RejectsNonFiniteAndHugeScalesAndZeroesTinyOnes) {
  EXPECT_THROW(
      FixedPointScale::from_double(std::numeric_limits<double>::infinity()),
      CheckError);
  EXPECT_THROW(FixedPointScale::from_double(std::nan("")), CheckError);
  // Shift −15 is the last one whose left shift cannot wrap a 33-bit value.
  EXPECT_EQ(FixedPointScale::from_double(std::ldexp(1.0, 29)).shift, -15);
  EXPECT_THROW(FixedPointScale::from_double(std::ldexp(1.0, 30)), CheckError);
  // Shift 62 is the last one kept; past it the scale is zero, which rounds
  // every accumulator to 0 exactly as the tiny scale would.
  EXPECT_EQ(FixedPointScale::from_double(std::ldexp(1.0, -48)).shift, 62);
  for (const double tiny : {std::ldexp(1.0, -49), 1e-40}) {
    const FixedPointScale s = FixedPointScale::from_double(tiny);
    EXPECT_EQ(s.mantissa, 0) << tiny;
    EXPECT_EQ(s.shift, 0) << tiny;
    EXPECT_EQ(s.apply(std::numeric_limits<std::int32_t>::max()), 0) << tiny;
  }
}

TEST(QuantizedLinear, ClampsBiasToTheDotProductHeadroom) {
  MatF w(64, 2);
  w.fill(0.5f);
  EXPECT_EQ(QuantizedLinear::bias_bound(64), 2147483647 - 64 * 16384);
  for (const auto g :
       {WeightGranularity::kPerTensor, WeightGranularity::kPerColumn}) {
    const QuantizedLinear q =
        QuantizedLinear::build(w, {1e38f, -1e38f}, 1.0f, 1.0f, g);
    EXPECT_EQ(q.bias[0], QuantizedLinear::bias_bound(64));
    EXPECT_EQ(q.bias[1], -QuantizedLinear::bias_bound(64));
  }
  MatF tall(QuantizedLinear::kMaxK + 1, 1);
  tall.fill(0.5f);
  EXPECT_THROW(QuantizedLinear::build(tall, {0.0f}, 1.0f, 1.0f), CheckError);
}

/// The model of the extreme-weight cases, before its perturbation.
TransformerWeights tiny_weights() {
  Rng rng(3);
  return TransformerWeights::random(hw_tiny(), 12, rng);
}

/// Quantizes a model of `weights` on one source sentence and decodes that
/// sentence on the quantized and on the accelerator backend. Each must
/// decode or throw CheckError; with `must_decode`, each must decode.
void expect_decode_or_check_error(const TransformerWeights& weights,
                                  const char* what, bool must_decode) {
  const TokenSeq src{3, 4, 5, 6};
  for (const bool accelerator : {false, true}) {
    Transformer model(weights);
    bool decoded = false;
    try {
      const auto qt =
          QuantizedTransformer::build(model, {src}, 8, SoftmaxImpl::kHardware);
      Accelerator acc;
      AcceleratorStats stats;
      DecodeStepFuser fuser(acc, &stats);
      model.set_backend(accelerator ? accelerator_backend(qt, acc, &fuser)
                                    : qt.backend());
      model.translate_greedy(src, 8);
      model.set_backend(ResBlockBackend{});
      decoded = true;
    } catch (const CheckError&) {
      model.set_backend(ResBlockBackend{});
    }
    EXPECT_TRUE(decoded || !must_decode)
        << what << " threw CheckError on the "
        << (accelerator ? "accelerator" : "quantized") << " backend";
  }
}

void scale(MatF& m, float factor) {
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c) m(r, c) *= factor;
}

TEST(QuantizedTransformer, ExtremeFiniteWeightsDecodeOrThrow) {
  // Requantization scales so tiny that from_double normalized them to shift
  // 100, 127 and 71: rounding_shift_right then shifted past 64 bits.
  TransformerWeights w = tiny_weights();
  w.encoder_layers[0].ffn.w1(0, 0) = 1e30f;
  expect_decode_or_check_error(w, "encoder w1(0,0) = 1e30", false);
  w = tiny_weights();
  w.encoder_layers[0].ffn.w1(0, 0) = 1e38f;
  expect_decode_or_check_error(w, "encoder w1(0,0) = 1e38", false);
  w = tiny_weights();
  scale(w.encoder_layers[0].ffn.w2, 1e20f);
  expect_decode_or_check_error(w, "encoder w2 x 1e20", false);

  // Biases quantized to the int32 limit: the fused-bias GEMM's seed plus
  // the dot product overflowed int32.
  w = tiny_weights();
  w.encoder_layers[0].ffn.b2[0] = 1e38f;
  expect_decode_or_check_error(w, "encoder b2[0] = 1e38", false);
  w = tiny_weights();
  scale(w.encoder_layers[0].ffn.w2, 1e-10f);  // all 64 columns
  expect_decode_or_check_error(w, "encoder w2 x 1e-10", false);

  // Controls: extreme too, and they decoded cleanly before the guards.
  w = tiny_weights();
  scale(w.encoder_layers[0].ffn.w2, 1e10f);
  expect_decode_or_check_error(w, "encoder w2 x 1e10", true);
  w = tiny_weights();
  w.encoder_layers[0].mha.heads[0].wq(0, 0) = 1e-30f;
  expect_decode_or_check_error(w, "encoder wq(0,0) = 1e-30", true);
}

}  // namespace
}  // namespace tfacc
