// EXTENSION (the paper's stated future work): latency of the *complete*
// Transformer inference on the accelerator — full encoder pass and greedy
// decoding — including per-layer weight DMA (the Fig. 5 weight memory holds
// one layer) and the KV-cache decoding mode. GPU baseline from the same
// calibrated eager model used for Table III.
//
// The last section measures the *functional* stack (the code that actually
// produces tokens) decoding with and without KV caches, next to the modeled
// cached/naive ratio — since the incremental-decode rework, the measured
// system exercises the same O(L²) path the cycle model assumes.
#include <chrono>
#include <cstdio>

#include "core/full_model.hpp"
#include "perf/gpu_model.hpp"
#include "reference/transformer.hpp"
#include "table.hpp"
#include "tensor/kernels.hpp"

namespace {

/// Wall seconds of `out_len` forced decode steps (tokens fed cyclically so
/// an early EOS cannot shorten the comparison) on the reference stack.
double decode_wall_seconds(const tfacc::Transformer& model,
                           const tfacc::MatF& memory, int src_valid,
                           int out_len, tfacc::DecodeMode mode) {
  using namespace tfacc;
  const auto t0 = std::chrono::steady_clock::now();
  if (mode == DecodeMode::kKvCache) {
    DecodeState state = model.begin_decode(memory, src_valid);
    for (int t = 0; t < out_len; ++t) model.decode_step(state, 3 + (t % 7));
  } else {
    TokenSeq tgt{kBosId};
    for (int t = 0; t < out_len; ++t) {
      model.next_token_logits(tgt, memory, src_valid);
      tgt.push_back(3 + (t % 7));
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace tfacc;
  const ModelConfig cfg = ModelConfig::transformer_base();
  const int s = 64;

  bench::title("Full encoder pass (6 layers, s = 64, Transformer-base)");
  std::printf("%-22s | %12s %12s %12s | %10s\n", "weight streaming",
              "compute cyc", "DMA cyc", "exposed", "total us");
  bench::rule(84);
  for (bool db : {true, false}) {
    DmaConfig dma;
    dma.double_buffered = db;
    const FullModelScheduler sched({}, dma);
    const FullModelReport rep = sched.encoder_pass(cfg, s);
    std::printf("%-22s | %12lld %12lld %12lld | %10.1f\n",
                db ? "double-buffered" : "serial reload",
                static_cast<long long>(rep.compute_cycles),
                static_cast<long long>(rep.dma_cycles),
                static_cast<long long>(rep.dma_exposed_cycles),
                rep.microseconds());
  }
  const double gpu_layer =
      gpu_mha_latency(s, cfg.d_model, cfg.num_heads).total_us +
      gpu_ffn_latency(s, cfg.d_model, cfg.d_ff).total_us;
  std::printf("GPU eager baseline (6 layers): %.1f us\n",
              6.0 * gpu_layer);

  bench::title("Greedy decoding, 32 output tokens from a 64-token source");
  std::printf("%-28s | %14s %12s | %10s\n", "decoder mode", "compute cyc",
              "exposed DMA", "ms total");
  bench::rule(76);
  const FullModelScheduler sched;
  const FullModelReport naive = sched.greedy_decode(cfg, 64, 32, false);
  const FullModelReport cached = sched.greedy_decode(cfg, 64, 32, true);
  std::printf("%-28s | %14lld %12lld | %10.2f\n", "naive (recompute rows)",
              static_cast<long long>(naive.compute_cycles),
              static_cast<long long>(naive.dma_exposed_cycles),
              naive.microseconds() / 1000.0);
  std::printf("%-28s | %14lld %12lld | %10.2f\n", "KV cache",
              static_cast<long long>(cached.compute_cycles),
              static_cast<long long>(cached.dma_exposed_cycles),
              cached.microseconds() / 1000.0);
  std::printf(
      "\nKV caching removes %.0f%% of decode compute — less than one might\n"
      "expect, because below ~%d rows every tile pass is bounded by the\n"
      "64-cycle weight load, not by row streaming. Weight movement (loads +\n"
      "DMA) is the first-order cost of autoregressive decoding on this\n"
      "architecture, the same wall real LLM serving hits.\n",
      100.0 * (1.0 - static_cast<double>(cached.compute_cycles) /
                         naive.compute_cycles),
      64 - 8);

  bench::title("Tokens/second vs output length (KV cache, double-buffered)");
  std::printf("%10s | %12s %12s\n", "out tokens", "ms", "tok/s");
  bench::rule();
  for (int out : {8, 16, 32, 64, 128}) {
    const FullModelReport rep = sched.greedy_decode(cfg, 64, out, true);
    std::printf("%10d | %12.2f %12.0f\n", out, rep.microseconds() / 1000.0,
                out / (rep.microseconds() * 1e-6));
  }

  bench::title("DMA bandwidth sensitivity (KV cache, 32 tokens)");
  std::printf("%16s | %12s %14s\n", "bytes/cycle", "ms total",
              "exposed DMA %");
  bench::rule();
  for (double bpc : {16.0, 32.0, 64.0, 128.0, 256.0}) {
    DmaConfig dma;
    dma.bytes_per_cycle = bpc;
    const FullModelScheduler s2({}, dma);
    const FullModelReport rep = s2.greedy_decode(cfg, 64, 32, true);
    std::printf("%16.0f | %12.2f %13.1f%%\n", bpc,
                rep.microseconds() / 1000.0,
                100.0 * rep.dma_exposed_cycles / rep.total_cycles);
  }

  bench::title(
      "Measured functional decode: KV cache vs full recompute "
      "(Transformer-base, FP32 reference stack)");
  Rng rng(7);
  Transformer model(TransformerWeights::random(cfg, /*vocab=*/256, rng));
  const TokenSeq bench_src(16, 3);
  const MatF memory = model.encode(bench_src);
  const int src_valid = static_cast<int>(bench_src.size());
  std::printf("%10s | %12s %12s %10s | %12s\n", "out tokens", "naive s",
              "cached s", "speedup", "modeled x");
  bench::rule(70);
  double speedup_at_32 = 0.0;
  for (const int out : {8, 16, 32}) {
    const double naive_s = decode_wall_seconds(model, memory, src_valid, out,
                                               DecodeMode::kFullRecompute);
    const double cached_s = decode_wall_seconds(model, memory, src_valid, out,
                                                DecodeMode::kKvCache);
    const double modeled =
        static_cast<double>(
            sched.greedy_decode(cfg, src_valid, out, false).compute_cycles) /
        sched.greedy_decode(cfg, src_valid, out, true).compute_cycles;
    const double speedup = naive_s / cached_s;
    if (out == 32) speedup_at_32 = speedup;
    std::printf("%10d | %12.3f %12.3f %9.2fx | %11.2fx\n", out, naive_s,
                cached_s, speedup, modeled);
  }
  std::printf(
      "\ncached speedup at 32 tokens: %.2fx (target >= 3x: %s)\n"
      "The measured ratio exceeds the modeled compute-cycle ratio: the\n"
      "accelerator model is weight-load bound at small row counts, while\n"
      "the host FP32 stack pays the full O(L^3) arithmetic.\n",
      speedup_at_32, speedup_at_32 >= 3.0 ? "PASS" : "FAIL");

  // The same KV-cached decode under each GEMM kernel kind. FP32 stays
  // bit-identical across kinds (the SIMD f32 kernel keeps the scalar
  // per-element accumulation order, vectorizing across output columns), so
  // this isolates the kernel dispatch on the measured token loop.
  bench::title("Measured decode tokens/sec per kernel variant (KV cache, "
               "32 tokens, FP32 reference stack)");
  std::printf("%10s | %12s %12s | %9s\n", "kernel", "wall s", "tok/s",
              "vs scalar");
  bench::rule(56);
  double kernel_scalar_s = 0.0;
  for (const kernels::Kind kind :
       {kernels::Kind::kScalar, kernels::Kind::kSimd}) {
    kernels::set_kind(kind);
    const double secs =
        decode_wall_seconds(model, memory, src_valid, 32, DecodeMode::kKvCache);
    if (kind == kernels::Kind::kScalar) kernel_scalar_s = secs;
    std::printf("%10s | %12.3f %12.0f | %8.2fx\n", kernels::kind_name(kind),
                secs, 32.0 / secs, kernel_scalar_s > 0 ? kernel_scalar_s / secs
                                                       : 1.0);
  }
  kernels::refresh_from_env();  // restore the environment's selection

  return speedup_at_32 >= 3.0 ? 0 : 1;
}
