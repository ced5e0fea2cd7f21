// FP32 functional ("golden") implementations of every operation the
// accelerator computes: scaled masked-softmax (Eq. 1/4), LayerNorm (Eq. 6-8),
// scaled dot-product attention, the MHA ResBlock (Fig. 2/3a) and the FFN
// ResBlock (Eq. 2 / Fig. 3b).
#pragma once

#include <cstddef>
#include <cstdint>

#include "reference/weights.hpp"
#include "tensor/matrix.hpp"

namespace tfacc {

/// Attention mask: entry 1 means "illegal connection, mask out" (paper Eq. 4),
/// entry 0 means attend.
using Mask = Matrix<std::uint8_t>;

/// All-zero (attend to everything) mask of shape rows×cols.
Mask no_mask(int rows, int cols);

/// Causal (subsequent-position) mask used by decoder self-attention.
Mask causal_mask(int s);

/// Padding mask: positions >= valid_len of the key axis are masked for all
/// query rows.
Mask padding_mask(int rows, int cols, int valid_len);

/// Row-wise softmax of (D / scale_div) with masked entries forced to zero
/// (paper Eq. 4; the paper's scale is a fixed /8 = sqrt(d_k)).
/// A fully-masked row yields all zeros.
MatF scaled_masked_softmax(const MatF& d, const Mask& mask,
                           float scale_div = 8.0f);

/// LayerNorm over the last dimension with learnable γ/β (paper Eq. 6).
MatF layer_norm(const MatF& g, const LayerNormParams& p, float eps = 1e-8f);

/// Attention(Q_i, K_i, V_i) = softmax(Mask(Q_i·K_iᵀ / √d_k))·V_i (Eq. 1) for
/// one head with already-projected q/k/v (s×64 each).
MatF attention_head(const MatF& q, const MatF& k, const MatF& v,
                    const Mask& mask);

/// Receives the FP32 intermediates of an MHA ResBlock from its observed
/// forms (mha_resblock_observed, ref_mha_cached_batch_observed) as they
/// compute them: post-training calibration ranges every value its INT8
/// build needs this way, with no second FP32 pass.
class MhaObserver {
 public:
  virtual ~MhaObserver() = default;
  /// Head h projected the query rows to q1.
  virtual void query(std::size_t h, const MatF& q1) = 0;
  /// Head h projected K/V rows to k1 and v1 (a cached call reports only the
  /// rows it appends).
  virtual void key_value(std::size_t h, const MatF& k1, const MatF& v1) = 0;
  /// The concatenated heads P, the pre-norm G and the block output.
  virtual void output(const MatF& p, const MatF& g, const MatF& out) = 0;
};

/// Receives the FP32 intermediates of an FFN ResBlock from
/// ffn_resblock_observed.
class FfnObserver {
 public:
  virtual ~FfnObserver() = default;
  /// The ReLU hidden layer, the pre-norm G and the block output.
  virtual void output(const MatF& hidden, const MatF& g, const MatF& out) = 0;
};

/// Full MHA ResBlock: heads → concat → W_G projection → +residual(Q) → LN.
/// q is s_q×d_model; k and v inputs are the same matrix `kv` (s_kv×d_model),
/// matching Fig. 3a where K = V.
MatF mha_resblock(const MatF& q, const MatF& kv, const MhaWeights& w,
                  const Mask& mask);
/// mha_resblock, reporting each head's Q/K/V projections, then P, G and the
/// output to `obs` when it is not null. Without an observer it is
/// mha_resblock.
MatF mha_resblock_observed(const MatF& q, const MatF& kv, const MhaWeights& w,
                           const Mask& mask, MhaObserver* obs);

/// The output stage of the MHA ResBlock over the concatenated heads P:
/// G = q + P·W_G + b_G, then LayerNorm. Both MHA forms end in it; it reports
/// P, G and the output to `obs` when it is not null.
MatF mha_output_stage(const MatF& q, const MatF& p, const MhaWeights& w,
                      MhaObserver* obs);

/// FFN(x) = ReLU(x·W1 + b1)·W2 + b2, then +residual and LayerNorm (Eq. 2).
MatF ffn_resblock(const MatF& x, const FfnWeights& w);
/// ffn_resblock, reporting the hidden layer, G and the output to `obs` when
/// it is not null.
MatF ffn_resblock_observed(const MatF& x, const FfnWeights& w,
                           FfnObserver* obs);

/// The MHA ResBlock's pre-LayerNorm intermediate G = q + Sublayer(q, kv);
/// exposed for LayerNorm-module validation.
MatF mha_pre_norm(const MatF& q, const MatF& kv, const MhaWeights& w,
                  const Mask& mask);

}  // namespace tfacc
