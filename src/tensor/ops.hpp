// Dense matrix kernels used by both the reference model (float) and the
// quantized/accelerator models (int8 → int32).
#pragma once

#include <cstdint>

#include "common/random.hpp"
#include "tensor/matrix.hpp"

namespace tfacc {

// --- GEMM ------------------------------------------------------------------

/// C = A·B with float accumulation. A is m×k, B is k×n, C is m×n.
MatF gemm(const MatF& a, const MatF& b);

/// C = A·B with int32 accumulation over int8 operands (the SA datapath).
MatI32 gemm_i8(const MatI8& a, const MatI8& b);

/// C = A·Bᵀ (float). Used by attention scores Q·Kᵀ.
MatF gemm_nt(const MatF& a, const MatF& b);

/// C = A·Bᵀ with int32 accumulation over int8 operands.
MatI32 gemm_nt_i8(const MatI8& a, const MatI8& b);

/// C = Aᵀ·B (float). The weight-gradient shape dW = Xᵀ·dY in backprop.
MatF gemm_tn(const MatF& a, const MatF& b);

// --- Structure ---------------------------------------------------------------

template <typename T>
Matrix<T> transpose(const Matrix<T>& a) {
  Matrix<T> out(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  return out;
}

/// Horizontally concatenate blocks of equal row count: [a | b | ...].
template <typename T>
Matrix<T> hconcat(const std::vector<Matrix<T>>& blocks) {
  TFACC_CHECK_ARG(!blocks.empty());
  int cols = 0;
  for (const auto& b : blocks) {
    TFACC_CHECK_ARG_MSG(b.rows() == blocks.front().rows(),
                        "hconcat: mismatched row counts");
    cols += b.cols();
  }
  Matrix<T> out(blocks.front().rows(), cols);
  int c0 = 0;
  for (const auto& b : blocks) {
    out.set_block(0, c0, b);
    c0 += b.cols();
  }
  return out;
}

/// Split a matrix into equal-width column blocks (Fig. 4 partitioning).
template <typename T>
std::vector<Matrix<T>> split_cols(const Matrix<T>& a, int block_cols) {
  TFACC_CHECK_ARG_MSG(block_cols > 0 && a.cols() % block_cols == 0,
                      "cols=" << a.cols() << " block=" << block_cols);
  std::vector<Matrix<T>> out;
  out.reserve(a.cols() / block_cols);
  for (int c0 = 0; c0 < a.cols(); c0 += block_cols)
    out.push_back(a.block(0, c0, a.rows(), block_cols));
  return out;
}

// --- Elementwise -------------------------------------------------------------

/// out = a + b (same shape).
template <typename T>
Matrix<T> add(const Matrix<T>& a, const Matrix<T>& b) {
  TFACC_CHECK_ARG(a.same_shape(b));
  Matrix<T> out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) out(r, c) = a(r, c) + b(r, c);
  return out;
}

/// Add a length-cols bias row vector to every row.
MatF add_bias(const MatF& a, const std::vector<float>& bias);

/// Add an int32 bias row vector to an int32 accumulator matrix.
MatI32 add_bias_i32(const MatI32& a, const std::vector<std::int32_t>& bias);

/// Elementwise max(x, 0). relu_i32 clamps its argument in place, so an
/// accumulator temporary moves in and out without a copy.
MatF relu(const MatF& a);
MatI32 relu_i32(MatI32 a);

/// Column sums (bias-gradient shape).
std::vector<float> col_sums(const MatF& a);

/// dst += src (same shape), in place.
void accumulate(MatF& dst, const MatF& src);
void accumulate(std::vector<float>& dst, const std::vector<float>& src);

// --- Initialization ----------------------------------------------------------

/// Fill with uniform floats in [lo, hi).
void fill_uniform(MatF& m, Rng& rng, float lo, float hi);

/// Fill with normal(mean, stddev) floats.
void fill_normal(MatF& m, Rng& rng, float mean, float stddev);

/// Fill with uniform int8 in [lo, hi].
void fill_uniform_i8(MatI8& m, Rng& rng, int lo = -128, int hi = 127);

}  // namespace tfacc
