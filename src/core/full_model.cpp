#include "core/full_model.hpp"

#include <cmath>

#include "common/check.hpp"

namespace tfacc {

void DmaConfig::validate() const {
  TFACC_CHECK_MSG(bytes_per_cycle > 0, "bytes_per_cycle " << bytes_per_cycle);
}

std::int64_t mha_weight_bytes(const ModelConfig& cfg) {
  const std::int64_t dm = cfg.d_model;
  // W_Q/W_K/W_V across heads + W_G, INT8; biases INT32.
  return 4 * dm * dm + 4 * dm * 4;
}

std::int64_t ffn_weight_bytes(const ModelConfig& cfg) {
  const std::int64_t dm = cfg.d_model, dff = cfg.d_ff;
  return 2 * dm * dff + (dff + dm) * 4;
}

FullModelScheduler::FullModelScheduler(AcceleratorConfig acc_cfg,
                                       DmaConfig dma)
    : acc_(acc_cfg), dma_(dma) {
  dma_.validate();
}

Cycle FullModelScheduler::dma_cycles(std::int64_t bytes) const {
  return static_cast<Cycle>(
      std::ceil(static_cast<double>(bytes) / dma_.bytes_per_cycle));
}

namespace {

/// Resolve DMA exposure: with double buffering, stage i's weights stream
/// during stage i-1's compute; the first stage always pays its DMA in full.
void finalize(FullModelReport& rep, bool double_buffered, double clock_mhz) {
  Cycle prev_compute = 0;
  for (auto& stage : rep.stages) {
    stage.dma_exposed = double_buffered
                            ? std::max<Cycle>(0, stage.dma - prev_compute)
                            : stage.dma;
    rep.compute_cycles += stage.compute;
    rep.dma_cycles += stage.dma;
    rep.dma_exposed_cycles += stage.dma_exposed;
    prev_compute = stage.compute;
  }
  rep.total_cycles = rep.compute_cycles + rep.dma_exposed_cycles;
  rep.clock_mhz = clock_mhz;
}

}  // namespace

void FullModelScheduler::push_stage(FullModelReport& rep, std::string name,
                                    Cycle compute,
                                    std::int64_t weight_bytes) const {
  rep.stages.push_back(
      StageLatency{std::move(name), compute, dma_cycles(weight_bytes), 0});
}

FullModelReport FullModelScheduler::encoder_pass(const ModelConfig& cfg,
                                                 int s) const {
  cfg.validate();
  TFACC_CHECK_ARG(s > 0);
  FullModelReport rep;
  const Cycle mha = acc_.time_mha(s, s, cfg.d_model, cfg.num_heads)
                        .total_cycles;
  const Cycle ffn = acc_.time_ffn(s, cfg.d_model, cfg.d_ff).total_cycles;
  for (int l = 0; l < cfg.num_encoder_layers; ++l) {
    push_stage(rep, "enc" + std::to_string(l) + ".mha", mha,
               mha_weight_bytes(cfg));
    push_stage(rep, "enc" + std::to_string(l) + ".ffn", ffn,
               ffn_weight_bytes(cfg));
  }
  finalize(rep, dma_.double_buffered, acc_.config().clock_mhz);
  return rep;
}

FullModelReport FullModelScheduler::greedy_decode(const ModelConfig& cfg,
                                                  int src_len, int out_len,
                                                  bool kv_cache) const {
  cfg.validate();
  TFACC_CHECK_ARG(src_len > 0 && out_len > 0);
  FullModelReport rep;

  // Encoder once.
  const FullModelReport enc = encoder_pass(cfg, src_len);
  rep.stages = enc.stages;

  // Decoder: one pass per emitted token; every decoder layer's weights
  // stream in each step (the weight memory holds one layer).
  for (int t = 1; t <= out_len; ++t) {
    const std::string step = "tok" + std::to_string(t);
    Cycle self_c, cross_c, ffn_c;
    if (kv_cache) {
      self_c = acc_.time_mha_cached(t, cfg.d_model, cfg.num_heads,
                                    /*project_kv_rows=*/1)
                   .total_cycles;
      // Cross-attention K/V are projections of the encoder memory: computed
      // at the first step, cached afterwards.
      cross_c = acc_.time_mha_cached(src_len, cfg.d_model, cfg.num_heads,
                                     t == 1 ? src_len : 0)
                    .total_cycles;
      ffn_c = acc_.time_ffn(1, cfg.d_model, cfg.d_ff).total_cycles;
    } else {
      self_c = acc_.time_mha(t, t, cfg.d_model, cfg.num_heads).total_cycles;
      cross_c = acc_.time_mha(t, src_len, cfg.d_model, cfg.num_heads)
                    .total_cycles;
      ffn_c = acc_.time_ffn(t, cfg.d_model, cfg.d_ff).total_cycles;
    }
    for (int l = 0; l < cfg.num_decoder_layers; ++l) {
      const std::string tag = step + ".dec" + std::to_string(l);
      push_stage(rep, tag + ".self", self_c, mha_weight_bytes(cfg));
      push_stage(rep, tag + ".cross", cross_c, mha_weight_bytes(cfg));
      push_stage(rep, tag + ".ffn", ffn_c, ffn_weight_bytes(cfg));
    }
  }
  finalize(rep, dma_.double_buffered, acc_.config().clock_mhz);
  return rep;
}

}  // namespace tfacc
