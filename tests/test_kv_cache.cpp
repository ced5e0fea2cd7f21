// Equivalence suite for KV-cached incremental decode: the cached path must
// be *bit-identical* to full recompute for greedy and beam search across all
// three backends (FP32 reference, INT8 quantized, accelerator simulator) and
// through the serve Scheduler at several card counts. Also pins the satellite
// fixes: positional encoding past 512 and the non-mutating Timeline lookup.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "nlp/synthetic.hpp"
#include "quant/qtransformer.hpp"
#include "reference/transformer.hpp"
#include "serve/scheduler.hpp"
#include "tensor/ops.hpp"

namespace tfacc {
namespace {

// Multi-layer, multi-head micro model: exercises per-layer caches and
// per-head K/V blocks without the 64-wide hardware constraint.
ModelConfig micro_config() {
  ModelConfig cfg;
  cfg.name = "kv-micro";
  cfg.d_model = 32;
  cfg.d_ff = 128;
  cfg.num_heads = 2;
  cfg.head_dim = 16;
  cfg.num_encoder_layers = 2;
  cfg.num_decoder_layers = 2;
  return cfg;
}

// Hardware-compatible model (head_dim 64 = SA columns) for the quantized and
// accelerator backends.
ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "kv-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 2;
  return cfg;
}

std::vector<TokenSeq> test_sources() {
  return {{3, 4, 5, 6}, {7, 8, 9}, {10, 3, 11, 4, 12}, {5, 5, 6}};
}

// --- FP32 reference ----------------------------------------------------------

TEST(KvCacheReference, GreedyBitIdenticalToFullRecompute) {
  Rng rng(21);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  for (const TokenSeq& src : test_sources()) {
    EXPECT_EQ(model.translate_greedy(src, 16, DecodeMode::kKvCache),
              model.translate_greedy(src, 16, DecodeMode::kFullRecompute))
        << "src[0]=" << src[0];
  }
}

TEST(KvCacheReference, BeamBitIdenticalToFullRecompute) {
  Rng rng(22);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  Transformer::BeamConfig beam;
  beam.beam_size = 3;
  for (const TokenSeq& src : test_sources()) {
    EXPECT_EQ(model.translate_beam(src, 12, beam, DecodeMode::kKvCache),
              model.translate_beam(src, 12, beam,
                                   DecodeMode::kFullRecompute))
        << "src[0]=" << src[0];
  }
}

TEST(KvCacheReference, DecodeStepMatchesNextTokenLogitsBitwise) {
  Rng rng(23);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  const TokenSeq src{3, 4, 5};
  const MatF memory = model.encode(src);
  const int src_valid = static_cast<int>(src.size());

  DecodeState state = model.begin_decode(memory, src_valid);
  TokenSeq tgt{kBosId};
  for (int step = 0; step < 6; ++step) {
    const auto cached = model.decode_step(state, tgt.back());
    const auto full = model.next_token_logits(tgt, memory, src_valid);
    ASSERT_EQ(cached.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i)
      EXPECT_EQ(cached[i], full[i]) << "step " << step << " logit " << i;
    tgt.push_back(3 + step);  // arbitrary forced continuation
  }
}

TEST(KvCacheReference, PaddedSourceMasksIdentically) {
  Rng rng(24);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  const TokenSeq padded{3, 4, 5, kPadId, kPadId};
  EXPECT_EQ(model.translate_greedy(padded, 12, DecodeMode::kKvCache),
            model.translate_greedy(padded, 12, DecodeMode::kFullRecompute));
}

// --- INT8 quantized backend --------------------------------------------------

struct QuantFixture {
  Transformer model;
  QuantizedTransformer qt;

  explicit QuantFixture(SoftmaxImpl impl = SoftmaxImpl::kHardware)
      : model(make_weights()),
        qt(QuantizedTransformer::build(model, {{3, 4, 5}, {6, 7}}, 12,
                                       impl)) {}

 private:
  static TransformerWeights make_weights() {
    Rng rng(31);
    return TransformerWeights::random(hw_config(), 20, rng);
  }
};

TEST(KvCacheQuantized, GreedyBitIdenticalToFullRecompute) {
  QuantFixture fx;
  fx.model.set_backend(fx.qt.backend());
  for (const TokenSeq& src : test_sources()) {
    EXPECT_EQ(fx.model.translate_greedy(src, 12, DecodeMode::kKvCache),
              fx.model.translate_greedy(src, 12,
                                        DecodeMode::kFullRecompute))
        << "src[0]=" << src[0];
  }
}

TEST(KvCacheQuantized, BeamBitIdenticalToFullRecompute) {
  QuantFixture fx;
  fx.model.set_backend(fx.qt.backend());
  Transformer::BeamConfig beam;
  beam.beam_size = 3;
  for (const TokenSeq& src : test_sources()) {
    EXPECT_EQ(fx.model.translate_beam(src, 10, beam, DecodeMode::kKvCache),
              fx.model.translate_beam(src, 10, beam,
                                      DecodeMode::kFullRecompute))
        << "src[0]=" << src[0];
  }
}

TEST(KvCacheQuantized, FloatExactSoftmaxAlsoBitIdentical) {
  QuantFixture fx(SoftmaxImpl::kFloatExact);
  fx.model.set_backend(fx.qt.backend());
  EXPECT_EQ(fx.model.translate_greedy({3, 4, 5, 6}, 12, DecodeMode::kKvCache),
            fx.model.translate_greedy({3, 4, 5, 6}, 12,
                                      DecodeMode::kFullRecompute));
}

TEST(KvCacheQuantized, ForwardCachedMatchesForwardRowwise) {
  QuantFixture fx;
  // Drive one quantized block directly: one-slot cached queries against an
  // incrementally grown cache must reproduce the full batch forward rows.
  const MhaWeights& w = fx.model.weights().decoder_layers[0].self_mha;
  const MhaQuantized& qm = fx.qt.mha_for(w);
  Rng rng(41);
  MatF x(5, fx.model.weights().config.d_model);
  fill_normal(x, rng, 0.0f, 1.0f);
  const MatI8 q_all = qm.quantize_q(x);
  const MatI8 kv_all = qm.quantize_kv(x);
  const MatI8 full = qm.forward(q_all, kv_all, causal_mask(5));

  QuantKvCache cache = qm.make_cache();
  for (int t = 0; t < 5; ++t) {
    const MatI8 q_row = q_all.block(t, 0, 1, q_all.cols());
    qm.append_kv_batch(kv_all.block(t, 0, 1, kv_all.cols()), {&cache});
    const Mask mask = no_mask(1, t + 1);
    const MatI8 out = qm.forward_cached_batch(q_row, {&cache}, {&mask});
    for (int c = 0; c < out.cols(); ++c)
      EXPECT_EQ(out(0, c), full(t, c)) << "row " << t << " col " << c;
  }
}

// --- Accelerator simulator backend ------------------------------------------

TEST(KvCacheAccelerator, GreedyAndBeamBitIdenticalToFullRecompute) {
  QuantFixture fx;
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  fx.model.set_backend(accelerator_backend(fx.qt, acc, &fuser));
  Transformer::BeamConfig beam;
  beam.beam_size = 3;
  for (const TokenSeq& src : test_sources()) {
    EXPECT_EQ(fx.model.translate_greedy(src, 12, DecodeMode::kKvCache),
              fx.model.translate_greedy(src, 12,
                                        DecodeMode::kFullRecompute));
    EXPECT_EQ(fx.model.translate_beam(src, 10, beam, DecodeMode::kKvCache),
              fx.model.translate_beam(src, 10, beam,
                                      DecodeMode::kFullRecompute));
  }
  EXPECT_GT(stats.mha_runs, 0);
  EXPECT_GT(stats.total_cycles(), 0);
}

TEST(KvCacheAccelerator, AcceleratorAgreesWithQuantizedBackend) {
  QuantFixture fx;
  Accelerator acc;
  fx.model.set_backend(fx.qt.backend());
  std::vector<TokenSeq> quant_out;
  for (const TokenSeq& src : test_sources())
    quant_out.push_back(fx.model.translate_greedy(src, 12));
  fx.model.set_backend(accelerator_backend(fx.qt, acc));
  for (std::size_t i = 0; i < test_sources().size(); ++i)
    EXPECT_EQ(fx.model.translate_greedy(test_sources()[i], 12),
              quant_out[i]);
}

TEST(KvCacheAccelerator, CachedDecodeCostsFewerModeledCycles) {
  QuantFixture fx;
  Accelerator acc;
  const TokenSeq src{3, 4, 5, 6, 7, 8};
  AcceleratorStats cached, naive;
  DecodeStepFuser cached_fuser(acc, &cached), naive_fuser(acc, &naive);
  fx.model.set_backend(accelerator_backend(fx.qt, acc, &cached_fuser));
  fx.model.translate_greedy(src, 12, DecodeMode::kKvCache);
  fx.model.set_backend(accelerator_backend(fx.qt, acc, &naive_fuser));
  fx.model.translate_greedy(src, 12, DecodeMode::kFullRecompute);
  EXPECT_LT(cached.total_cycles(), naive.total_cycles());
}

// --- Serve Scheduler ---------------------------------------------------------

// The packed KV-cached farm against serial full-recompute decode on an
// independently built accelerator backend: same tokens at every card
// count, far fewer modeled cycles.
TEST(KvCacheScheduler, CachedFarmMatchesFullRecomputeAtAllCardCounts) {
  SyntheticTranslationTask task(24, 5, 7);
  Rng rng(51);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), task.vocab_size(), rng);
  std::vector<TokenSeq> calib, sources;
  for (int i = 0; i < 3; ++i) calib.push_back(task.sample(rng).source);
  for (int i = 0; i < 7; ++i) sources.push_back(task.sample(rng).source);
  const int max_len = task.max_len() + 2;

  Transformer model(weights);
  const auto qt = QuantizedTransformer::build(model, calib, max_len,
                                              SoftmaxImpl::kHardware);
  const Accelerator acc;
  AcceleratorStats naive;
  DecodeStepFuser fuser(acc, &naive);
  model.set_backend(accelerator_backend(qt, acc, &fuser));
  std::vector<TokenSeq> baseline;
  for (const TokenSeq& src : sources)
    baseline.push_back(
        model.translate_greedy(src, max_len, DecodeMode::kFullRecompute));
  model.set_backend(ResBlockBackend{});

  for (const int cards : {1, 2, 4}) {
    SchedulerConfig cfg;
    cfg.num_cards = cards;
    cfg.max_len = max_len;
    Scheduler sched(weights, calib, cfg);
    const ScheduleReport rep = sched.run(sources);
    ASSERT_EQ(rep.outputs.size(), baseline.size());
    for (std::size_t i = 0; i < rep.outputs.size(); ++i)
      EXPECT_EQ(rep.outputs[i], baseline[i])
          << cards << " cards, sentence " << i;
    EXPECT_LT(rep.total_cycles(), naive.total_cycles()) << cards;
  }
}

// --- Backend-override safety --------------------------------------------------

TEST(KvCacheSafety, PartialMhaOverrideFallsBackToFullRecompute) {
  Rng rng(71);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  const TokenSeq src{3, 4, 5};
  const TokenSeq base = model.translate_greedy(src, 8);

  // Overriding only `mha` (the capturing/instrumentation pattern) must not
  // let the cached path silently bypass the override: the decode loop falls
  // back to full recompute, where every MHA call goes through it.
  int mha_calls = 0;
  ResBlockBackend counting;
  counting.mha = [&mha_calls](const MatF& q, const MatF& kv,
                              const MhaWeights& w, const Mask& m) {
    ++mha_calls;
    return mha_resblock(q, kv, w, m);
  };
  EXPECT_FALSE(counting.supports_cached_decode());
  model.set_backend(counting);
  EXPECT_EQ(model.translate_greedy(src, 8), base);
  // Encoder layers alone would give num_encoder_layers calls; the decoder
  // (self + cross per layer per step) pushes well past that — proof every
  // decoder MHA went through the override.
  EXPECT_GT(mha_calls, 2 * micro_config().num_encoder_layers);

  // Overriding the cached hooks alongside mha is trusted again.
  ResBlockBackend full;
  EXPECT_TRUE(full.supports_cached_decode());
  full.mha = [](const MatF& q, const MatF& kv, const MhaWeights& w,
                const Mask& m) { return mha_resblock(q, kv, w, m); };
  EXPECT_FALSE(full.supports_cached_decode());
  full.mha_cached_batch = [](const MatF& q,
                             const std::vector<MhaCache*>& caches,
                             const MhaWeights& w,
                             const std::vector<Mask>& masks, bool append) {
    return ref_mha_cached_batch(q, caches, w, masks, append);
  };
  EXPECT_TRUE(full.supports_cached_decode());
}

// --- Satellite regressions ----------------------------------------------------

TEST(LongSequence, EmbedGrowsPositionalTablePast512) {
  Rng rng(61);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  TokenSeq long_tgt(600, 3);
  const MatF y = model.embed(long_tgt, model.weights().tgt_embedding);
  EXPECT_EQ(y.rows(), 600);
  // Rows below the old cap are unchanged by the regrowth.
  const MatF pe = positional_encoding(600, micro_config().d_model);
  TokenSeq short_tgt(4, 3);
  const MatF y2 = model.embed(short_tgt, model.weights().tgt_embedding);
  for (int c = 0; c < y2.cols(); ++c) EXPECT_EQ(y2(3, c), y(3, c));
}

TEST(LongSequence, IncrementalDecodePast512Positions) {
  Rng rng(62);
  Transformer model(TransformerWeights::random(micro_config(), 20, rng));
  const MatF memory = model.encode({3, 4, 5});
  DecodeState state = model.begin_decode(memory, 3);
  // Force 520 steps; before the fix this threw "sequence too long" at 512.
  std::vector<float> logits;
  for (int step = 0; step < 520; ++step)
    logits = model.decode_step(state, 3 + (step % 7));
  EXPECT_EQ(state.steps, 520);
  for (float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(TimelineReport, FfnRunDoesNotGrowEmptySoftmaxLedger) {
  QuantFixture fx;
  Accelerator acc;
  const FfnWeights& w = fx.model.weights().decoder_layers[0].ffn;
  const FfnQuantized& qf = fx.qt.ffn_for(w);
  MatI8 x(3, fx.model.weights().config.d_model);
  const auto result = acc.run_ffn(qf, x);
  EXPECT_EQ(result.report.softmax_busy, 0);
  // The report must not have materialized a "Softmax" module ledger.
  for (const auto& m : result.report.timeline.modules())
    EXPECT_NE(m.name(), "Softmax");
  EXPECT_EQ(result.report.timeline.find("Softmax"), nullptr);
  EXPECT_NE(result.report.timeline.find("SA"), nullptr);
}

}  // namespace
}  // namespace tfacc
