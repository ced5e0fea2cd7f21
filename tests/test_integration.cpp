// Cross-module integration tests: a full encoder layer through the
// accelerator vs the FP32 reference, and an end-to-end train → quantize →
// accelerate pipeline on the synthetic task.
#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "nlp/bleu.hpp"
#include "nlp/synthetic.hpp"
#include "perf/resource_model.hpp"
#include "quant/qtransformer.hpp"
#include "tensor/compare.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace tfacc {
namespace {

ModelConfig hw_tiny() {
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

TEST(Integration, EncoderLayerOnAcceleratorTracksReference) {
  // MHA + FFN chained through the accelerator, compared against the pure
  // FP32 functional path.
  const ModelConfig cfg = hw_tiny();
  Rng rng(1);
  const EncoderLayerWeights layer = EncoderLayerWeights::random(cfg, rng);
  const int s = 20;
  const Mask mask = no_mask(s, s);

  std::vector<MatF> xs;
  MhaQuantized::Calibration mha_calib;
  std::vector<MatF> ffn_calib;
  for (int i = 0; i < 3; ++i) {
    MatF x(s, cfg.d_model);
    fill_normal(x, rng, 0, 1);
    mha_calib.q.push_back(x);
    mha_calib.kv.push_back(x);
    mha_calib.mask.push_back(mask);
    ffn_calib.push_back(mha_resblock(x, x, layer.mha, mask));
    xs.push_back(x);
  }
  const auto qm =
      MhaQuantized::build(layer.mha, mha_calib, SoftmaxImpl::kHardware);
  const auto qf = FfnQuantized::build(layer.ffn, ffn_calib);

  MatF x(s, cfg.d_model);
  fill_normal(x, rng, 0, 1);
  const MatF ref = ffn_resblock(mha_resblock(x, x, layer.mha, mask), layer.ffn);

  Accelerator acc;
  const auto mha_out = acc.run_mha(qm, qm.quantize_q(x), qm.quantize_kv(x),
                                   mask);
  const MatF mha_f = qm.dequantize_out(mha_out.out);
  const auto ffn_out = acc.run_ffn(qf, qf.quantize_in(mha_f));
  const MatF got = qf.dequantize_out(ffn_out.out);

  EXPECT_GT(cosine_similarity(ref, got), 0.985);
  EXPECT_GT(mha_out.report.total_cycles, 0);
  EXPECT_GT(ffn_out.report.total_cycles, 0);
}

TEST(Integration, TrainQuantizeAccelerateRoundTrip) {
  // Miniature Section V.A pipeline: train briefly on the synthetic task,
  // quantize, run greedy decode on the accelerator backend, and require the
  // INT8 translations to track the FP32 translations.
  const SyntheticTranslationTask task(10, 3, 6);
  Rng rng(2);
  Trainer trainer(TransformerWeights::random(hw_tiny(), task.vocab_size(),
                                             rng));
  const auto train_set = task.corpus(48, rng);
  for (int epoch = 0; epoch < 10; ++epoch)
    for (std::size_t i = 0; i < train_set.size(); i += 8)
      trainer.train_batch(std::vector<SentencePair>(
          train_set.begin() + i,
          train_set.begin() + std::min(i + 8, train_set.size())));

  Transformer model(trainer.take_weights());
  const auto eval_set = task.corpus(10, rng);

  std::vector<TokenSeq> calib_sources;
  for (int i = 0; i < 4; ++i) calib_sources.push_back(train_set[i].source);
  const auto qt = QuantizedTransformer::build(
      model, calib_sources, task.max_len() + 2, SoftmaxImpl::kHardware);

  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);

  std::vector<TokenSeq> fp32_out, int8_out;
  for (const auto& pair : eval_set) {
    fp32_out.push_back(model.translate_greedy(pair.source,
                                              task.max_len() + 2));
    model.set_backend(accelerator_backend(qt, acc, &fuser));
    int8_out.push_back(model.translate_greedy(pair.source,
                                              task.max_len() + 2));
    model.set_backend(ResBlockBackend{});
  }
  // INT8-on-accelerator decodes must stay close to FP32 decodes.
  const double agreement = corpus_bleu(int8_out, fp32_out, 2, /*smooth=*/true);
  EXPECT_GT(agreement, 60.0) << "INT8 vs FP32 decode divergence";
  EXPECT_GT(stats.mha_runs, 0);
  EXPECT_GT(stats.total_cycles(), 0);
}

TEST(Integration, ResourceAndLatencyModelsAgreeOnUtilization) {
  // The power model consumes the simulator's utilization: wire them together
  // the way the Table II/III benches do.
  Accelerator acc;
  const RunReport rep = acc.time_mha(64, 64, 512, 8);
  const ResourceModel resources;
  const double watts =
      resources.total_power_w(64, 64, rep.clock_mhz, rep.sa_mac_utilization());
  EXPECT_GT(watts, 10.0);
  EXPECT_LT(watts, 25.0);
}

}  // namespace
}  // namespace tfacc
