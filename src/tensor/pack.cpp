#include "tensor/pack.hpp"

#include <algorithm>

namespace tfacc {
namespace {

template <typename T>
PackedB<T> pack_b(const Matrix<T>& b) {
  constexpr int kPanelCols = PackedB<T>::kPanelCols;
  PackedB<T> out;
  out.k = b.rows();
  out.n = b.cols();
  const int k = out.k, n = out.n;
  const int panels = (n + kPanelCols - 1) / kPanelCols;
  const std::size_t stride = out.panel_stride();
  out.data.assign(static_cast<std::size_t>(panels) * stride, T{});
  // Panel by panel, so that the writes run front to back through the block.
  for (int p = 0; p < panels; ++p) {
    const int cols = std::min(kPanelCols, n - p * kPanelCols);
    T* panel = out.data.data() + static_cast<std::size_t>(p) * stride;
    for (int r = 0; r < k; ++r) {
      const T* src = b.row(r) + p * kPanelCols;
      T* dst = panel + out.offset(r, 0);
      for (int c = 0; c < cols; ++c) dst[2 * c] = src[c];
    }
  }
  return out;
}

template <typename T>
Matrix<T> unpack_b(const PackedB<T>& p) {
  Matrix<T> out(p.k, p.n);
  for (int r = 0; r < p.k; ++r)
    for (int c = 0; c < p.n; ++c) out(r, c) = p(r, c);
  return out;
}

}  // namespace

PackedI8 pack_b_i8(const MatI8& b) { return pack_b(b); }
PackedI16 pack_b_i16(const MatI16& b) { return pack_b(b); }

MatI8 unpack_b_i8(const PackedI8& p) { return unpack_b(p); }
MatI16 unpack_b_i16(const PackedI16& p) { return unpack_b(p); }

}  // namespace tfacc
