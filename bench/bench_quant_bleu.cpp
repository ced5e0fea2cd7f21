// Reproduces the Section V.A experiment: the effect of INT8 quantization and
// of the simplified softmax on translation BLEU.
//
// Paper (Transformer-base on IWSLT'16 De-En, tst2014):
//   FP32:                         23.88 BLEU
//   INT8, FP32-internal softmax:  23.48 BLEU   (step one)
//   INT8 + simplified softmax:    23.57 BLEU   (step two)
//
// SUBSTITUTION (DESIGN.md §4): no IWSLT corpus or pretrained checkpoint is
// available here, so a small hardware-compatible Transformer (d_model = 64,
// one 64-wide head — the Fig. 6 datapath requires head_dim 64) is trained
// in-process on the synthetic De→En-like task of src/nlp, then evaluated in
// the same three configurations, with the step-two variant additionally run
// through the cycle-level accelerator (bit-identical by construction).
// Absolute BLEU differs from the paper; the reproduced claim is the *shape*:
// a small INT8 drop, and the simplified softmax being BLEU-neutral. Exits 1
// when the accelerator run's BLEU differs from the functional step-two
// model's (it prints MISMATCH).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/backend.hpp"
#include "nlp/bleu.hpp"
#include "nlp/synthetic.hpp"
#include "quant/qtransformer.hpp"
#include "table.hpp"
#include "train/trainer.hpp"

namespace {

using namespace tfacc;

ModelConfig bleu_config() {
  ModelConfig cfg;
  cfg.name = "synthetic-nmt";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 1;
  return cfg;
}

double bleu_with_backend(Transformer& model, const ResBlockBackend& backend,
                         const std::vector<SentencePair>& eval_set,
                         int max_len) {
  model.set_backend(backend);
  std::vector<TokenSeq> hyps, refs;
  for (const auto& pair : eval_set) {
    hyps.push_back(model.translate_greedy(pair.source, max_len));
    refs.push_back(pair.reference);
  }
  model.set_backend(ResBlockBackend{});
  return corpus_bleu(hyps, refs, 4, /*smooth=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  // Defaults sized for ~1 minute of training; override for deeper runs:
  //   bench_quant_bleu [train_sentences] [epochs]
  const int train_sentences = argc > 1 ? std::atoi(argv[1]) : 512;
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 12;

  const SyntheticTranslationTask task(24, 4, 10);
  Rng rng(2024);
  const auto train_set = task.corpus(train_sentences, rng);
  const auto eval_set = task.corpus(64, rng);
  const int max_len = task.max_len() + 2;

  bench::title("Section V.A — training the translation model (substitution)");
  std::printf("task: synthetic De->En-like (lexicon %d, verb-second reorder)\n"
              "model: %s (d_model=64, 1 head, 1+1 layers) — hardware-compatible\n"
              "corpus: %d train / %zu eval sentences, %d epochs\n\n",
              task.lexicon_size(), bleu_config().name.c_str(), train_sentences,
              eval_set.size(), epochs);

  AdamConfig adam;
  adam.lr = 2e-3f;
  Trainer trainer(
      TransformerWeights::random(bleu_config(), task.vocab_size(), rng), adam);
  const int batch = 16;
  for (int e = 0; e < epochs; ++e) {
    float loss = 0.0f;
    int batches = 0;
    for (std::size_t i = 0; i < train_set.size(); i += batch) {
      loss += trainer.train_batch(std::vector<SentencePair>(
          train_set.begin() + i,
          train_set.begin() + std::min(i + batch, train_set.size())));
      ++batches;
    }
    std::printf("  epoch %2d  mean loss %.4f\n", e + 1, loss / batches);
  }

  Transformer model(trainer.take_weights());

  // Calibration set for post-training quantization: a slice of training data.
  std::vector<TokenSeq> calib_sources;
  for (int i = 0; i < 16; ++i) calib_sources.push_back(train_set[i].source);
  const auto qt_exact = QuantizedTransformer::build(
      model, calib_sources, max_len, SoftmaxImpl::kFloatExact);
  const auto qt_hw = QuantizedTransformer::build(model, calib_sources, max_len,
                                                 SoftmaxImpl::kHardware);

  const double bleu_fp32 =
      bleu_with_backend(model, ResBlockBackend{}, eval_set, max_len);
  const double bleu_int8 =
      bleu_with_backend(model, qt_exact.backend(), eval_set, max_len);
  const double bleu_int8_hw =
      bleu_with_backend(model, qt_hw.backend(), eval_set, max_len);

  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  const double bleu_accel = bleu_with_backend(
      model, accelerator_backend(qt_hw, acc, &fuser), eval_set, max_len);

  bench::title("Section V.A — BLEU under quantization (paper vs ours)");
  std::printf("%-38s | %12s | %12s\n", "configuration", "paper (IWSLT)",
              "ours (synth)");
  bench::rule(72);
  std::printf("%-38s | %12.2f | %12.2f\n", "FP32", 23.88, bleu_fp32);
  std::printf("%-38s | %12.2f | %12.2f\n",
              "INT8, FP32-internal softmax (step 1)", 23.48, bleu_int8);
  std::printf("%-38s | %12.2f | %12.2f\n",
              "INT8 + simplified softmax (step 2)", 23.57, bleu_int8_hw);
  std::printf("%-38s | %12s | %12.2f\n",
              "step 2 on cycle-level accelerator", "-", bleu_accel);

  bench::title("Shape check");
  std::printf("paper deltas:  INT8 %-+.2f BLEU, simplified softmax %-+.2f\n",
              23.48 - 23.88, 23.57 - 23.48);
  std::printf("our deltas:    INT8 %-+.2f BLEU, simplified softmax %-+.2f\n",
              bleu_int8 - bleu_fp32, bleu_int8_hw - bleu_int8);
  const bool identical = bleu_accel == bleu_int8_hw;
  std::printf("accelerator == functional step-2 model: %s\n",
              identical ? "bit-identical (expected)" : "MISMATCH");
  std::printf("\naccelerator activity during evaluation: %ld MHA + %ld FFN "
              "ResBlock runs, %.1f ms simulated at 200 MHz\n",
              stats.mha_runs, stats.ffn_runs,
              stats.microseconds(200.0) / 1000.0);
  return identical ? 0 : 1;
}
