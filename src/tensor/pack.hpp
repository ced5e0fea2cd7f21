// Pre-packed B operands for the packed GEMM kernels.
//
// The SA-style GEMMs all compute C = A·B where B is a weight matrix that is
// quantized once at load time and then read on every step. The pack stores
// B (k×n) as ⌈n/8⌉ column panels of 8 output columns each. A panel is
// ⌈k/2⌉ k-pairs, and k-pair q of panel p is the 16 elements
//
//   B(2q, 8p), B(2q+1, 8p), B(2q, 8p+1), B(2q+1, 8p+1), …, B(2q+1, 8p+7),
//
// zero past k and past n. Widened to int16, one k-pair is the operand of
// one madd_epi16 against a broadcast (a[2q], a[2q+1]): its eight int32
// lanes are that pair's terms of eight consecutive output columns, so the
// AVX2 kernel (tensor/kernels.cpp) accumulates whole output vectors and
// reads each panel front to back.
//
// The pack is built once (QuantizedLinear::build), never on the hot path.
// Zero padding is arithmetically inert (0·x = 0 exactly).
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/matrix.hpp"

namespace tfacc {

template <typename T>
struct PackedB {
  static constexpr int kPanelCols = 8;               // columns per panel
  static constexpr int kPairElems = 2 * kPanelCols;  // elements per k-pair

  int k = 0;  // logical inner dimension (B is k×n)
  int n = 0;  // logical output columns

  // Pooled storage is 64-byte aligned (tensor/arena.hpp), so panel 0 starts
  // on a cache line, and no 16-byte k-pair of an int8 pack straddles one.
  PoolVec<T> data;

  bool empty() const { return n == 0; }

  /// Elements per panel: ⌈k/2⌉ k-pairs.
  std::size_t panel_stride() const {
    return static_cast<std::size_t>((k + 1) / 2) * kPairElems;
  }

  /// Offset of B(r, c) in data, 0 ≤ r < k, 0 ≤ c < n.
  std::size_t offset(int r, int c) const {
    const auto ur = static_cast<std::size_t>(r);
    const auto uc = static_cast<std::size_t>(c);
    return uc / kPanelCols * panel_stride() + ur / 2 * kPairElems +
           uc % kPanelCols * 2 + ur % 2;
  }

  /// Element B(r, c) of the original matrix.
  T operator()(int r, int c) const { return data[offset(r, c)]; }
};

using PackedI8 = PackedB<std::int8_t>;
using PackedI16 = PackedB<std::int16_t>;

/// k-pair column-panel pack of B (k×n) for the packed GEMM kernels.
PackedI8 pack_b_i8(const MatI8& b);
PackedI16 pack_b_i16(const MatI16& b);

/// Inverse of pack_b_* (drops the padding); round-trip tested.
MatI8 unpack_b_i8(const PackedI8& p);
MatI16 unpack_b_i16(const PackedI16& p);

}  // namespace tfacc
