// Pre-packed B operands for the packed GEMM kernels.
//
// The SA-style GEMMs all compute C = A·B where B is a weight matrix that is
// quantized once at load time and then read on every step. Packing B as Bᵀ
// (one contiguous row per *output column*, padded to a 64-byte multiple and
// 64-byte aligned) turns every output element into a dot product of two
// contiguous streams — the layout marian-dev's int16 kernels use — so the
// inner loop is a straight-line SIMD reduction with no strided loads.
//
// The pack is built once (QuantizedLinear::build), never on the hot path.
// Zero padding beyond k is arithmetically inert (0·x = 0 exactly).
#pragma once

#include <cstdint>

#include "tensor/matrix.hpp"

namespace tfacc {

template <typename T>
struct PackedB {
  int k = 0;      // logical inner dimension (B is k×n)
  int n = 0;      // logical output columns
  int k_pad = 0;  // row stride in elements: k rounded up to 64 bytes

  // Pooled storage is 64-byte aligned (tensor/arena.hpp), so row(0) — and,
  // because k_pad is a 64-byte multiple, every row — starts on a cache line.
  PoolVec<T> data;

  bool empty() const { return n == 0; }

  /// Contiguous packed column j of the original B (length k_pad, zero tail).
  const T* row(int j) const {
    return data.data() + static_cast<std::size_t>(j) * k_pad;
  }
};

using PackedI8 = PackedB<std::int8_t>;
using PackedI16 = PackedB<std::int16_t>;

/// Transpose-and-pad pack of B (k×n) for the packed GEMM kernels.
PackedI8 pack_b_i8(const MatI8& b);
PackedI16 pack_b_i16(const MatI16& b);

/// Inverse of pack_b_* (drops the padding); round-trip tested.
MatI8 unpack_b_i8(const PackedI8& p);
MatI16 unpack_b_i16(const PackedI16& p);

}  // namespace tfacc
