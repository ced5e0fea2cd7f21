// Post-training quantization of a whole Transformer: range every ResBlock's
// activations while the FP32 model decodes the calibration set, build the
// quantized blocks from those ranges, and expose a ResBlockBackend that
// routes every block through its INT8 model. This is the software side of
// the Section V.A experiment.
#pragma once

#include <vector>

#include "quant/qresblock.hpp"
#include "reference/transformer.hpp"

namespace tfacc {

/// All ResBlocks of one model, quantized. A block is found by the address of
/// its FP32 weights, so the TransformerWeights of the model used at build
/// time must stay alive for the lifetime of this object. Every Transformer
/// view over those same weights (see Transformer's shared-weights
/// constructor) can use it: the blocks hold no mutable state, so views on
/// different threads may share one QuantizedTransformer.
class QuantizedTransformer {
 public:
  /// Calibrate by greedily translating `calib_sources` on the FP32 model's
  /// KV-cache path, the only FP32 pass: the sentences decode in lockstep,
  /// one decode_step_batch row per sentence still decoding, and each row
  /// equals the sentence's own translate_greedy. As the decode computes
  /// each block, every value that block's INT8 build needs is folded into
  /// its ranges (MhaRanges, FfnRanges). Then every block is built from its
  /// ranges with no GEMM. A block sees each distinct row of those decodes
  /// once, so every `method` ranks each row once; max-abs scales equal
  /// those of a full-recompute capture, which repeats rows. `model` gets
  /// the FP32 default backend back on every exit, also when calibration
  /// throws.
  static QuantizedTransformer build(Transformer& model,
                                    const std::vector<TokenSeq>& calib_sources,
                                    int max_len, SoftmaxImpl impl,
                                    CalibMethod method = CalibMethod::kMaxAbs);

  /// Backend computing every ResBlock with its INT8 model
  /// (dequantizing back to FP32 at block boundaries, as deployment does).
  /// Includes the cached-MHA hooks: K/V caches hold already-quantized INT8
  /// rows, so incremental decode is bit-identical to full recompute.
  ResBlockBackend backend() const;

  /// The quantized block of `w`; CheckError for weights the model does not
  /// own. A scan over at most 3 x layers blocks.
  const MhaQuantized& mha_for(const MhaWeights& w) const;
  const FfnQuantized& ffn_for(const FfnWeights& w) const;

  /// Convenience: translate with the quantized backend installed, then
  /// reinstall the FP32 default backend (also when the decode throws).
  TokenSeq translate_greedy(Transformer& model, const TokenSeq& src,
                            int max_len,
                            DecodeMode mode = DecodeMode::kKvCache) const;

 private:
  /// One entry per block, in calibration's first-seen order.
  struct MhaBlock {
    const MhaWeights* weights;
    MhaQuantized q;
  };
  struct FfnBlock {
    const FfnWeights* weights;
    FfnQuantized q;
  };
  std::vector<MhaBlock> mha_;
  std::vector<FfnBlock> ffn_;
};

}  // namespace tfacc
