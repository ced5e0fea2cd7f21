// End-to-end machine translation on the accelerator: train a small
// encoder-decoder Transformer on the synthetic De→En-like task, quantize it,
// and greedily translate test sentences with every ResBlock running through
// the cycle-level accelerator — the deployment the paper motivates
// (embeddings/output on the host, MHA/FFN ResBlocks on the FPGA).
//
//   $ ./examples/translate [train_sentences] [epochs]
#include <cstdio>
#include <cstdlib>

#include "core/backend.hpp"
#include "nlp/bleu.hpp"
#include "nlp/synthetic.hpp"
#include "quant/qtransformer.hpp"
#include "reference/serialize.hpp"
#include "train/trainer.hpp"

namespace {

using namespace tfacc;

void print_tokens(const char* tag, const TokenSeq& seq) {
  std::printf("  %-10s", tag);
  for (int t : seq) std::printf(" %3d", t);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int train_sentences = argc > 1 ? std::atoi(argv[1]) : 384;
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 10;

  // Hardware-compatible small model: one 64-wide head per the Fig. 6 softmax.
  ModelConfig cfg;
  cfg.name = "synthetic-nmt";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 1;

  const SyntheticTranslationTask task(24, 4, 9);
  Rng rng(7);
  std::printf("training %s on the synthetic task (%d sentences, %d epochs)...\n",
              cfg.name.c_str(), train_sentences, epochs);
  AdamConfig adam;
  adam.lr = 2e-3f;
  Trainer trainer(TransformerWeights::random(cfg, task.vocab_size(), rng),
                  adam);
  const auto train_set = task.corpus(train_sentences, rng);
  for (int e = 0; e < epochs; ++e) {
    float loss = 0;
    int n = 0;
    for (std::size_t i = 0; i < train_set.size(); i += 16) {
      loss += trainer.train_batch(std::vector<SentencePair>(
          train_set.begin() + i,
          train_set.begin() + std::min(i + 16, train_set.size())));
      ++n;
    }
    if ((e + 1) % 2 == 0)
      std::printf("  epoch %2d, mean loss %.4f\n", e + 1, loss / n);
  }

  Transformer model(trainer.take_weights());
  std::vector<TokenSeq> calib;
  for (int i = 0; i < 12; ++i) calib.push_back(train_set[i].source);
  const int max_len = task.max_len() + 2;
  const auto qt =
      QuantizedTransformer::build(model, calib, max_len, SoftmaxImpl::kHardware);

  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);

  std::printf("\ntranslating 5 test sentences on the accelerator backend:\n");
  const auto tests = task.corpus(5, rng);
  for (const auto& pair : tests) {
    model.set_backend(accelerator_backend(qt, acc, &fuser));
    const TokenSeq hyp = model.translate_greedy(pair.source, max_len);
    model.set_backend(ResBlockBackend{});
    std::printf("\n");
    print_tokens("source:", pair.source);
    print_tokens("reference:", pair.reference);
    print_tokens("output:", hyp);
    std::printf("  sentence BLEU: %.1f\n", sentence_bleu(hyp, pair.reference));
  }

  std::printf("\naccelerator totals: %ld MHA runs, %ld FFN runs, "
              "%lld cycles = %.2f ms at 200 MHz\n",
              stats.mha_runs, stats.ffn_runs,
              static_cast<long long>(stats.total_cycles()),
              stats.microseconds(200.0) / 1000.0);

  // Corpus BLEU on a larger test set: FP32 greedy, FP32 beam-4, and the
  // INT8 accelerator backend.
  const auto eval_set = task.corpus(40, rng);
  std::vector<TokenSeq> refs, fp32_hyps, beam_hyps, accel_hyps;
  for (const auto& pair : eval_set) {
    refs.push_back(pair.reference);
    fp32_hyps.push_back(model.translate_greedy(pair.source, max_len));
    beam_hyps.push_back(model.translate_beam(pair.source, max_len));
    model.set_backend(accelerator_backend(qt, acc));
    accel_hyps.push_back(model.translate_greedy(pair.source, max_len));
    model.set_backend(ResBlockBackend{});
  }
  std::printf("\ncorpus BLEU (40 sentences): FP32 greedy %.2f | FP32 beam-4 "
              "%.2f | INT8-on-accelerator %.2f\n",
              corpus_bleu(fp32_hyps, refs, 4, true),
              corpus_bleu(beam_hyps, refs, 4, true),
              corpus_bleu(accel_hyps, refs, 4, true));

  // Persist the trained model so other tools can reuse it.
  const char* out_path = "synthetic_nmt.tfacc";
  save_weights(model.weights(), out_path);
  std::printf("trained weights saved to %s (load with "
              "tfacc::load_weights)\n", out_path);
  return 0;
}
