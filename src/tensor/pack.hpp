// Pre-packed B operands for the packed GEMM kernels.
//
// The SA-style GEMMs all compute C = A·B where B is a weight matrix that is
// quantized once at load time and then read on every step. The pack stores
// B (k×n) as column panels, in one of two layouts, each the operand order of
// one fast kernel (tensor/kernels.cpp):
//
//   layout  | panel           | group of k      | read by
//   --------|-----------------|-----------------|---------------------------
//   kPairs  | 8 columns,      | k-pair q: 16    | the AVX2 table (and the
//           | ⌈k/2⌉ k-pairs   | elements        | scalar one)
//   kQuads  | 16 columns, k   | k-quad q: 64    | the AMX table
//           | padded to 64    | elements        |
//
// A group q of panel p holds, column by column, the group's consecutive k of
// that column: for k-pairs
//
//   B(2q, 8p), B(2q+1, 8p), B(2q, 8p+1), B(2q+1, 8p+1), …, B(2q+1, 8p+7),
//
// and for k-quads B(4q, 16p), …, B(4q+3, 16p), B(4q, 16p+1), …, B(4q+3,
// 16p+15). Both are zero past k and past n.
//  * Widened to int16, one k-pair is the operand of one madd_epi16 against
//    a broadcast (a[2q], a[2q+1]): its eight int32 lanes are that pair's
//    terms of eight consecutive output columns, so the AVX2 kernel
//    accumulates whole output vectors and reads each panel front to back.
//  * Sixteen k-quads (64 k of one panel) are one AMX B tile of 16 rows of 64
//    bytes as TDPBSSD reads it, so the AMX kernel loads B straight from the
//    pack; k padded to a multiple of 64 makes every tile whole.
//
// pack_b_i8 packs in the layout of the selected kernel table. A fast kernel
// takes only its own layout (CheckError otherwise); the scalar table reads
// either through offset(). At serve widths (k a multiple of 64, n of 16)
// both layouts hold exactly k·n elements.
//
// The pack is built once (QuantizedLinear::build), never on the hot path.
// Zero padding is arithmetically inert (0·x = 0 exactly).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/matrix.hpp"

namespace tfacc {

enum class PackLayout : std::uint8_t { kPairs = 0, kQuads = 1 };

const char* pack_layout_name(PackLayout layout);

template <typename T>
struct PackedB {
  static constexpr int kQuadBlockK = 64;  // kQuads pads k to this

  int k = 0;  // logical inner dimension (B is k×n)
  int n = 0;  // logical output columns
  PackLayout layout = PackLayout::kPairs;

  // Pooled storage is 64-byte aligned (tensor/arena.hpp), so panel 0 starts
  // on a cache line, and no group of an int8 pack straddles one.
  PoolVec<T> data;

  /// An all-zero k×n pack in `layout`, padding included: write B(r, c) at
  /// data[offset(r, c)] or a row at a time with set_row.
  static PackedB zeros(int k, int n, PackLayout layout) {
    TFACC_CHECK_ARG_MSG(k >= 0 && n >= 0, "k=" << k << " n=" << n);
    PackedB p;
    p.k = k;
    p.n = n;
    p.layout = layout;
    const auto panels =
        static_cast<std::size_t>((n + p.panel_cols() - 1) / p.panel_cols());
    p.data.assign(panels * p.panel_stride(), T{});
    return p;
  }

  bool empty() const { return n == 0; }

  /// Columns per panel: 8 (kPairs) or 16 (kQuads).
  int panel_cols() const { return layout == PackLayout::kQuads ? 16 : 8; }

  /// Elements per panel: k padded to whole groups (kPairs) or to a multiple
  /// of kQuadBlockK (kQuads), times the panel's columns.
  std::size_t panel_stride() const {
    return layout == PackLayout::kQuads
               ? static_cast<std::size_t>((k + kQuadBlockK - 1) / kQuadBlockK) *
                     kQuadBlockK * 16
               : static_cast<std::size_t>((k + 1) / 2) * 16;
  }

  /// Offset of B(r, c) in data, 0 ≤ r < k, 0 ≤ c < n.
  std::size_t offset(int r, int c) const {
    return layout == PackLayout::kQuads ? offset_in<16, 4>(r, c)
                                        : offset_in<8, 2>(r, c);
  }

  /// Element B(r, c) of the original matrix.
  T operator()(int r, int c) const { return data[offset(r, c)]; }

  /// Offset of B(r, c) in panels of kCols columns and groups of kGroup k.
  template <int kCols, int kGroup>
  std::size_t offset_in(int r, int c) const {
    const auto ur = static_cast<std::size_t>(r);
    const auto uc = static_cast<std::size_t>(c);
    return uc / kCols * panel_stride() + ur / kGroup * (kGroup * kCols) +
           uc % kCols * kGroup + ur % kGroup;
  }

  /// Writes row r of B, the n values at src, into its slots.
  void set_row(int r, const T* src) {
    if (layout == PackLayout::kQuads) {
      set_row_in<16, 4>(r, src);
    } else {
      set_row_in<8, 2>(r, src);
    }
  }

  /// set_row in panels of kCols columns and groups of kGroup k. Slots are
  /// indices, not pointers: no pointer is formed into an empty pack (n = 0)
  /// or past the last panel.
  template <int kCols, int kGroup>
  void set_row_in(int r, const T* src) {
    if (n == 0) return;
    const std::size_t stride = panel_stride();
    std::size_t slot = offset_in<kCols, kGroup>(r, 0);
    int c0 = 0;
    for (; c0 + kCols <= n; c0 += kCols, slot += stride)
      for (int c = 0; c < kCols; ++c) data[slot + c * kGroup] = src[c0 + c];
    for (int c = 0; c < n - c0; ++c) data[slot + c * kGroup] = src[c0 + c];
  }
};

using PackedI8 = PackedB<std::int8_t>;
using PackedI16 = PackedB<std::int16_t>;

/// Pack of B (k×n) in `layout`.
PackedI8 pack_b_i8(const MatI8& b, PackLayout layout);
/// Pack of B in the layout the selected kernel table reads
/// (kernels::packed_layout()).
PackedI8 pack_b_i8(const MatI8& b);
/// k-pair pack of an int16 B (its GEMM is the scalar loop on every table).
PackedI16 pack_b_i16(const MatI16& b);

/// Inverse of pack_b_* (drops the padding); round-trip tested.
MatI8 unpack_b_i8(const PackedI8& p);
MatI16 unpack_b_i16(const PackedI16& p);

}  // namespace tfacc
