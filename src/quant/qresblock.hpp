// Quantized functional models of the MHA and FFN ResBlocks.
//
// These define, matrix-wise, the exact INT8/INT16/INT32 arithmetic the
// accelerator datapath performs; the cycle-level simulator in src/core must
// (and is tested to) reproduce these outputs bit-for-bit. The two-step
// quantization of Section V.A maps to SoftmaxImpl:
//   kFloatExact — step one: everything INT8 except the softmax internals
//   kHardware   — step two: the Fig. 6 shift-add softmax datapath
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "hwarith/layernorm_unit.hpp"
#include "hwarith/softmax_unit.hpp"
#include "quant/quantizer.hpp"
#include "tensor/pack.hpp"
#include "reference/decode_state.hpp"
#include "reference/functional.hpp"
#include "reference/weights.hpp"

namespace tfacc {

/// INT8 K/V cache of one quantized MHA block: the *already-requantized*
/// per-head K₁/V₁ rows (outputs of wk/wv.forward). Storing the INT8 rows —
/// not FP32 rows requantized per step — makes cached decode bit-identical
/// to full recompute by construction: each row is quantized exactly once.
class QuantKvCache final : public MhaCache {
 public:
  QuantKvCache(std::size_t num_heads, int head_dim);
  MhaCachePtr clone() const override;
  int rows() const override;

  std::vector<MatI8> k1, v1;  // per head, rows × head_dim
};

/// Which softmax the quantized model (and the accelerator) uses.
enum class SoftmaxImpl {
  kFloatExact,  ///< FP32 softmax on dequantized scores, probs quantized to INT8
  kHardware,    ///< bit-accurate Fig. 6 log-sum-exp shift-add datapath
};

/// Weight-scale granularity of a quantized linear layer.
/// Per-column ("per output channel") costs one requantization multiplier
/// per SA column instead of one shared — cheap in hardware (the s adders of
/// Fig. 5 already sit per column) and more accurate.
enum class WeightGranularity { kPerTensor, kPerColumn };

/// A quantized linear sublayer y = x·W + b with INT8 in/out.
/// The requantizer folds (in_scale·w_scale[j])/out_scale into one
/// fixed-point multiply per output column (shared when per-tensor).
struct QuantizedLinear {
  PackedI8 wpack;  // k × n quantized weights, packed for the GEMM kernels
  std::vector<std::int32_t> bias;   // n, in accumulator units
  float in_scale = 1.0f;
  float w_scale = 1.0f;             // per-tensor scale (max of col scales)
  float out_scale = 1.0f;
  FixedPointScale requant;          // per-tensor (in·w)/out
  WeightGranularity granularity = WeightGranularity::kPerTensor;
  std::vector<float> col_w_scale;            // per column, when per-column
  std::vector<FixedPointScale> col_requant;  // per column, when per-column

  /// Largest inner dimension build() accepts: every k-term int8 dot product
  /// (|Σ| ≤ k·2¹⁴) fits int32.
  static constexpr int kMaxK = 131071;

  /// The bias bound build() clamps to at inner dimension k: a seed within
  /// ±bias_bound(k) plus any k-term int8 dot product, partial sums included,
  /// fits int32 — the precondition of the packed fused-bias GEMM.
  static constexpr std::int32_t bias_bound(int k) {
    return std::numeric_limits<std::int32_t>::max() - k * (1 << 14);
  }

  /// Quantize FP32 weights/bias given the input scale and the calibrated
  /// output scale. Throws CheckError when w has more than kMaxK rows.
  static QuantizedLinear build(
      const MatF& w, const std::vector<float>& bias, float in_scale,
      float out_scale,
      WeightGranularity granularity = WeightGranularity::kPerTensor);

  /// INT32 accumulators of x·W + b (what leaves the systolic array + adders):
  /// the packed fused-bias kernel, exactly add_bias_i32(gemm_i8(x, W), b).
  MatI32 accumulate(const MatI8& x) const;
  /// Requantize a full-width accumulator matrix to INT8.
  MatI8 requantize(const MatI32& acc) const;
  /// Full INT8 output (accumulate → requantize).
  MatI8 forward(const MatI8& x) const;
  /// With ReLU applied on the accumulator before requantization (Fig. 5:
  /// the ReLU sits right after the bias adders).
  MatI8 forward_relu(const MatI8& x) const;
};

/// The activation ranges an MHA block's INT8 build needs: its Q and K=V
/// inputs, each head's Q/K/V projections, P, G and the output. As an
/// MhaObserver it folds what an observed FP32 block reports; the inputs are
/// the caller's to fold (a cached self-attention step's K=V input is its
/// query rows).
struct MhaRanges final : MhaObserver {
  MhaRanges(std::size_t num_heads, CalibMethod method);

  RangeObserver q_in, kv_in;
  std::vector<RangeObserver> q1, k1, v1;  ///< per head
  RangeObserver p, g, out;

  void query(std::size_t h, const MatF& q1_rows) override;
  void key_value(std::size_t h, const MatF& k1_rows,
                 const MatF& v1_rows) override;
  void output(const MatF& p_rows, const MatF& g_rows,
              const MatF& out_rows) override;
};

/// The activation ranges an FFN block's INT8 build needs: its input, the
/// hidden layer, G and the output. As an FfnObserver it folds what an
/// observed FP32 block reports; the input is the caller's to fold.
struct FfnRanges final : FfnObserver {
  explicit FfnRanges(CalibMethod method);

  RangeObserver in, hidden, g, out;

  void output(const MatF& hidden_rows, const MatF& g_rows,
              const MatF& out_rows) override;
};

/// Quantized MHA ResBlock (Fig. 3a datapath).
struct MhaQuantized {
  int d_model = 0;
  int num_heads = 0;
  int head_dim = 0;
  SoftmaxImpl softmax_impl = SoftmaxImpl::kHardware;

  float q_in_scale = 1.0f;   ///< scale of the INT8 Q (query/residual) input
  float kv_in_scale = 1.0f;  ///< scale of the INT8 K=V input

  struct Head {
    QuantizedLinear wq, wk, wv;
    FixedPointScale av_requant;  ///< (probs·v_scale)/p_scale for Attention·V
  };
  std::vector<Head> heads;

  float p_scale = 1.0f;            ///< scale of the concatenated P matrix
  QuantizedLinear wg;              ///< output projection (requant handled below)
  float g_scale = 1.0f;            ///< INT16 scale of the pre-norm G
  FixedPointScale wg_to_g;         ///< (p_scale·wg_scale)/g_scale
  FixedPointScale residual_to_g;   ///< q_in_scale/g_scale
  float out_scale = 1.0f;
  hw::LayerNormUnit norm = {};

  /// Calibration samples: parallel vectors of FP32 inputs seen by the block.
  struct Calibration {
    std::vector<MatF> q, kv;
    std::vector<Mask> mask;
  };

  /// Quantize from the folded ranges; runs no FP32 GEMM. `granularity`
  /// applies to the INT8-output projections (W_Q/W_K/W_V); W_G requantizes
  /// into the INT16 residual domain and stays per-tensor.
  static MhaQuantized build(
      const MhaWeights& w, const MhaRanges& ranges, SoftmaxImpl impl,
      WeightGranularity granularity = WeightGranularity::kPerTensor);
  /// Fold the samples through the observed FP32 block, then build from
  /// their ranges.
  static MhaQuantized build(
      const MhaWeights& w, const Calibration& calib, SoftmaxImpl impl,
      CalibMethod method = CalibMethod::kMaxAbs,
      WeightGranularity granularity = WeightGranularity::kPerTensor);

  /// Run the quantized block. q/kv are INT8 at q_in_scale/kv_in_scale.
  MatI8 forward(const MatI8& q, const MatI8& kv, const Mask& mask) const;

  /// Empty K/V cache shaped for this block.
  QuantKvCache make_cache() const;
  /// Project `kv` rows (INT8 at kv_in_scale) and append their K₁/V₁ to the
  /// cache — how a cross cache takes the whole encoder memory at once.
  void append_kv(const MatI8& kv, QuantKvCache& cache) const;

  /// Packed decode step: project the stacked new K/V rows (row r belongs to
  /// slot r) in ONE pass through wk/wv and scatter row r into caches[r].
  /// Bit-identical to per-slot append_kv — the projections/requantizers are
  /// row-independent.
  void append_kv_batch(const MatI8& kv,
                       const std::vector<QuantKvCache*>& caches) const;
  /// forward() against cached K₁/V₁ for many slots at once: only q is
  /// projected, and row r attends over caches[r] under masks[r]
  /// (1 × caches[r]->rows()). The Q projection and the output stage (W_G,
  /// residual, LayerNorm) run over the stacked rows; attention/softmax stay
  /// per slot. Row r is bit-identical to forward()'s row over the same K/V.
  MatI8 forward_cached_batch(const MatI8& q,
                             const std::vector<const QuantKvCache*>& caches,
                             const std::vector<const Mask*>& masks) const;

  /// INT8 attention probabilities for one head's score accumulators —
  /// shared by forward() and the accelerator simulator.
  MatI8 softmax(const MatI32& scores, const Mask& mask, int head) const;

  /// Quantize an FP32 input at the calibrated scales.
  MatI8 quantize_q(const MatF& q) const {
    return quantize_i8(q, QuantParams{q_in_scale});
  }
  MatI8 quantize_kv(const MatF& kv) const {
    return quantize_i8(kv, QuantParams{kv_in_scale});
  }
  /// Dequantize the block output.
  MatF dequantize_out(const MatI8& y) const {
    return dequantize(y, QuantParams{out_scale});
  }
};

/// Quantized FFN ResBlock (Fig. 3b datapath).
struct FfnQuantized {
  int d_model = 0;
  int d_ff = 0;

  float in_scale = 1.0f;
  QuantizedLinear w1;              ///< ReLU folded into forward
  QuantizedLinear w2;
  float g_scale = 1.0f;
  FixedPointScale w2_to_g;         ///< (h_scale·w2_scale)/g_scale
  FixedPointScale residual_to_g;   ///< in_scale/g_scale
  float out_scale = 1.0f;
  hw::LayerNormUnit norm = {};

  /// Quantize from the folded ranges; runs no FP32 GEMM. A positive
  /// `in_scale_override` replaces the input range's scale. `granularity`
  /// applies to W_1 (INT8 hidden output); W_2 requantizes into the INT16
  /// residual domain and stays per-tensor.
  static FfnQuantized build(
      const FfnWeights& w, const FfnRanges& ranges,
      float in_scale_override = 0.0f,
      WeightGranularity granularity = WeightGranularity::kPerTensor);
  /// Fold the samples through the observed FP32 block, then build from
  /// their ranges.
  static FfnQuantized build(
      const FfnWeights& w, const std::vector<MatF>& x_samples,
      CalibMethod method = CalibMethod::kMaxAbs,
      float in_scale_override = 0.0f,
      WeightGranularity granularity = WeightGranularity::kPerTensor);

  MatI8 forward(const MatI8& x) const;

  MatI8 quantize_in(const MatF& x) const {
    return quantize_i8(x, QuantParams{in_scale});
  }
  MatF dequantize_out(const MatI8& y) const {
    return dequantize(y, QuantParams{out_scale});
  }
};

/// Thread-local marshalling scratch for the packed decode hooks: the
/// cache/mask pointer views and the per-slot totals are rebuilt every step,
/// but their buffers persist, so a warm step's hook does zero heap
/// allocations (PR 8). Each hook invocation overwrites the previous one's
/// contents — don't hold views across calls.
struct BatchHookScratch {
  std::vector<QuantKvCache*> kv;
  std::vector<const QuantKvCache*> ckv;
  std::vector<const Mask*> masks;
  std::vector<int> totals;
};
BatchHookScratch& batch_hook_scratch();

/// Downcast a backend hook's cache list to the INT8 caches (throws on a
/// foreign cache type) into `s.kv`, plus its const view into `s.ckv` —
/// shared marshalling of the mha_cached_batch hooks in qtransformer and
/// core/backend (no allocation once warm).
void quant_kv_caches_into(const std::vector<MhaCache*>& caches,
                          BatchHookScratch& s);
/// Address-of view of a hook's mask list, as forward_cached_batch consumes,
/// into `s.masks` (no allocation once warm).
void mask_ptrs_into(const std::vector<Mask>& masks, BatchHookScratch& s);

/// Saturating INT16 residual add: sat16(a + b) elementwise.
MatI16 saturating_add_i16(const MatI16& a, const MatI16& b);

/// Requantize an INT8 matrix to INT16 under a fixed-point scale
/// (the residual path: q_in_scale → g_scale); dispatched through
/// kernels::requantize_i8_to_i16_into.
MatI16 requantize_i8_to_i16(const MatI8& m, const FixedPointScale& s);

}  // namespace tfacc
