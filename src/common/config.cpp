#include "common/config.hpp"

#include "common/check.hpp"

namespace tfacc {

void ModelConfig::validate() const {
  TFACC_CHECK_MSG(d_model > 0 && d_ff > 0 && num_heads > 0 && head_dim > 0,
                  "config " << name);
  // Compared by division, so a hostile config (a tampered weight-file
  // header) cannot overflow head_dim * num_heads or 4 * d_model.
  TFACC_CHECK_MSG(d_model % num_heads == 0 && d_model / num_heads == head_dim,
                  name << ": d_model must equal head_dim*h (Table I pattern)");
  TFACC_CHECK_MSG(d_ff % 4 == 0 && d_ff / 4 == d_model,
                  name << ": d_ff must equal 4*d_model (Table I pattern)");
  TFACC_CHECK_MSG(num_encoder_layers >= 0 && num_decoder_layers >= 0,
                  name << ": negative layer count");
}

ModelConfig ModelConfig::transformer_base() {
  return ModelConfig{"transformer-base", 512, 2048, 8, 64, 6, 6};
}

ModelConfig ModelConfig::transformer_big() {
  return ModelConfig{"transformer-big", 1024, 4096, 16, 64, 6, 6};
}

ModelConfig ModelConfig::bert_base() {
  return ModelConfig{"bert-base", 768, 3072, 12, 64, 12, 0};
}

ModelConfig ModelConfig::bert_large() {
  return ModelConfig{"bert-large", 1024, 4096, 16, 64, 24, 0};
}

ModelConfig ModelConfig::tiny() {
  return ModelConfig{"tiny", 128, 512, 2, 64, 2, 2};
}

std::vector<ModelConfig> ModelConfig::table1() {
  return {transformer_base(), transformer_big(), bert_base(), bert_large()};
}

void SequenceConfig::validate() const {
  TFACC_CHECK_MSG(seq_len > 0, "seq_len=" << seq_len);
  TFACC_CHECK_MSG(batch > 0, "batch=" << batch);
}

void AcceleratorConfig::validate() const {
  TFACC_CHECK(sa_rows > 0 && sa_cols > 0 && tile_k > 0);
  TFACC_CHECK(tile_drain_cycles >= 0 && weight_load_cycles >= 0);
  TFACC_CHECK(accum_depth_tiles > 0 && accum_spill_cycles >= 0);
  TFACC_CHECK(softmax_pipeline_depth >= 0 && layernorm_lut_latency >= 0);
  TFACC_CHECK(clock_mhz > 0.0);
  TFACC_CHECK_ARG_MSG(prefill_chunk_rows >= 1,
                      "prefill_chunk_rows must be >= 1, got "
                          << prefill_chunk_rows);
}

}  // namespace tfacc
