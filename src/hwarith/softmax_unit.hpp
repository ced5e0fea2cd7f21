// The scaled masked-softmax datapath of Fig. 6, bit-accurate.
//
// The module receives one row of the score matrix D = Q_i·K_iᵀ as INT32
// accumulators (real value = raw · d_scale), applies the /8 scaling (">>3" in
// Fig. 6 — √d_k = 8), masks illegal positions, and produces INT8
// probabilities with scale 1/127 using the log-sum-exp formulation (Eq. 5):
//
//   stage 1: running max of D over unmasked entries
//   stage 2: y_j = EXP((D_j − D_max)·scale/8), SUM = Σ y_j
//   stage 3: L = LN(SUM)
//   stage 4: out_j = EXP((D_j − D_max)·scale/8 − L) → quantize to INT8
//
// No divider and no general multiplier appear anywhere on the path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fixed_point.hpp"
#include "hwarith/exp_ln.hpp"
#include "tensor/matrix.hpp"

namespace tfacc::hw {

/// Scale of the INT8 probability outputs (q = round(p * 127)).
inline constexpr float kProbScale = 1.0f / 127.0f;

/// Bit-accurate model of the paper's Softmax module.
class SoftmaxUnit {
 public:
  /// `d_scale` is the real value of one LSB of the INT32 score input
  /// (i.e. scale(Q_i) * scale(K_i)); the unit folds the /√d_k = /8 into its
  /// input conversion, mirroring the ">>3" of Fig. 6.
  explicit SoftmaxUnit(double d_scale);

  /// Ablation constructor: use the generic secant-slope PWL tables at the
  /// given resolution instead of the shipped 4-segment dyadic design.
  SoftmaxUnit(double d_scale, PwlResolution resolution);

  /// Process one row. `d` and `mask` have length n; mask 1 = illegal.
  /// Fully-masked rows produce all zeros.
  /// Reuses an internal scratch buffer (no allocation per row once warm),
  /// so one SoftmaxUnit must not process rows from multiple threads.
  void row(const std::int32_t* d, const std::uint8_t* mask, int n,
           std::int8_t* out) const;

  /// Matrix convenience wrapper: out(i,j) over all rows of `d`.
  Matrix<std::int8_t> operator()(const MatI32& d,
                                 const Matrix<std::uint8_t>& mask) const;

 private:
  std::int32_t exp_fx(std::int32_t x) const;
  std::int32_t ln_fx(std::int64_t v) const;

  FixedPointScale to_q10_;  // d_scale/8, expressed in Q.10 LSBs
  std::optional<PwlResolution> resolution_;  // empty = shipped dyadic design
  // Per-row exp-argument scratch, hoisted out of row()'s hot path so the
  // attention inner loop is allocation-free. Pool-backed (tensor/arena.hpp)
  // so even a freshly constructed unit recycles a warm thread's buffer
  // instead of hitting the heap. Entries for masked columns are left stale;
  // every read in stage 4 is guarded by the same mask.
  mutable PoolVec<std::int32_t> x_q10_;
};

}  // namespace tfacc::hw
