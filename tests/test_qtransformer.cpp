// Tests for whole-model quantization: calibration capture, backend routing,
// and agreement between the quantized backend and the accelerator backend.
#include <gtest/gtest.h>

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
  EXPECT_EQ(store.mha.size(), 3u);
  EXPECT_EQ(store.ffn.size(), 2u);
  for (const auto& [w, calib] : store.mha) {
    EXPECT_GT(calib.q.size(), 0u);
    EXPECT_EQ(calib.q.size(), calib.kv.size());
    EXPECT_EQ(calib.q.size(), calib.mask.size());
  }
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

}  // namespace
}  // namespace tfacc
