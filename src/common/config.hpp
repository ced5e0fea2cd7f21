// Model and accelerator configuration.
//
// Table I of the paper: every Transformer/BERT variant satisfies
// d_model = 64 h and d_ff = 4 d_model = 256 h, the pattern that makes the
// Section III matrix partitioning work with a single s×64 systolic array.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tfacc {

/// Hyper-parameters of a Transformer encoder/decoder layer pair, following
/// Table I of the paper. `head_dim` (d_k) is 64 in every published variant.
struct ModelConfig {
  std::string name = "transformer-base";
  int d_model = 512;   ///< model (embedding) width
  int d_ff = 2048;     ///< inner FFN width
  int num_heads = 8;   ///< h
  int head_dim = 64;   ///< d_k = d_model / h (64 for all Table I variants)
  int num_encoder_layers = 6;
  int num_decoder_layers = 6;

  /// Validate the Table I pattern the partitioning method relies on.
  /// Throws CheckError when violated.
  void validate() const;

  /// d_model / head_dim — number of 64-column blocks in W_G (Fig. 4).
  int wg_blocks() const { return d_model / head_dim; }
  /// d_ff / head_dim — number of 64-column blocks in W_1 (4h, Fig. 4).
  int w1_blocks() const { return d_ff / head_dim; }
  /// d_model / head_dim — number of 64-column blocks in W_2 (h, Fig. 4).
  int w2_blocks() const { return d_model / head_dim; }

  // --- Table I presets -----------------------------------------------------
  static ModelConfig transformer_base();
  static ModelConfig transformer_big();
  static ModelConfig bert_base();
  static ModelConfig bert_large();
  /// A reduced configuration (d_model=128, h=2, d_ff=512) used by unit tests
  /// and the in-repo trained translation model. Follows the same pattern.
  static ModelConfig tiny();
  /// All four published variants in Table I order.
  static std::vector<ModelConfig> table1();
};

/// Workload parameters for one ResBlock invocation (Section V: batch 1, s=64).
struct SequenceConfig {
  int seq_len = 64;    ///< s, the (max) sequence length
  int batch = 1;       ///< batch size (the paper evaluates batch 1)

  void validate() const;
};

/// Which latency strategy the LayerNorm module uses (Fig. 7 of the paper).
enum class LayerNormStrategy {
  kStraightforward,  ///< mean pass, then variance pass, then output
  kStepOne,          ///< running ΣG accumulators fed during G production
  kStepOneAndTwo,    ///< + var = E[G²] − E[G]²; ΣG² also accumulated online
};

/// Micro-architectural parameters of the modeled accelerator.
/// Defaults correspond to the paper's evaluated design point (64×64 SA,
/// 200 MHz on an xcvu13p).
struct AcceleratorConfig {
  int sa_rows = 64;         ///< physical systolic-array rows (matrix rows/chunk)
  int sa_cols = 64;         ///< physical systolic-array cols (= head_dim)
  int tile_k = 64;          ///< inner-dimension tile (weight tile is tile_k×sa_cols)
  int tile_drain_cycles = 8;   ///< per-tile pipeline-skew / drain bubble
  int weight_load_cycles = 64; ///< cycles to load one weight tile (double-buffered)
  int accum_depth_tiles = 8;   ///< partial-sum buffer depth, in inner-dim tiles
  int accum_spill_cycles = 128;  ///< write-out + read-back of one s×64 partial
                                 ///< block when an op exceeds accum_depth_tiles
  int softmax_pipeline_depth = 12;  ///< EXP/SUM/LN/EXP pipeline fill latency
  int layernorm_lut_latency = 4;    ///< x^(-0.5) LUT + multiply latency
  double clock_mhz = 200.0;         ///< Vivado-reported achievable clock
  bool overlap_softmax = true;      ///< run softmax parallel to V·W_V (Alg. 1 l.6)
  /// Max encoder query rows one prefill chunk contributes to a serve step
  /// ledger (the scheduler splices admitted sentences' encoder passes into
  /// its packed step ledgers in chunks of this size); the first chunk of
  /// each MHA sublayer additionally carries the sentence's one-time K/V
  /// projection.
  int prefill_chunk_rows = 16;
  /// Run the typed schedule verifier (analysis/verifier.hpp) over EVERY
  /// ledger the accelerator builds, throwing CheckError with the full
  /// diagnostic list on any violation. Off by default (verification is
  /// O(ops log ops) per ledger); the CI benches, tools/schedule_lint, and
  /// the paranoid tests turn it on.
  bool verify_schedules = false;
  LayerNormStrategy layernorm_strategy = LayerNormStrategy::kStepOneAndTwo;

  void validate() const;
};

}  // namespace tfacc
