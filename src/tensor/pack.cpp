#include "tensor/pack.hpp"

namespace tfacc {
namespace {

template <typename T>
PackedB<T> pack_b(const Matrix<T>& b) {
  constexpr int kPadElems = static_cast<int>(64 / sizeof(T));
  PackedB<T> out;
  out.k = b.rows();
  out.n = b.cols();
  out.k_pad = (b.rows() + kPadElems - 1) / kPadElems * kPadElems;
  out.data.assign(static_cast<std::size_t>(out.n) * out.k_pad, T{});
  for (int j = 0; j < out.n; ++j) {
    T* dst = out.data.data() + static_cast<std::size_t>(j) * out.k_pad;
    for (int p = 0; p < out.k; ++p) dst[p] = b(p, j);
  }
  return out;
}

template <typename T>
Matrix<T> unpack_b(const PackedB<T>& p) {
  Matrix<T> out(p.k, p.n);
  for (int j = 0; j < p.n; ++j) {
    const T* src = p.row(j);
    for (int r = 0; r < p.k; ++r) out(r, j) = src[r];
  }
  return out;
}

}  // namespace

PackedI8 pack_b_i8(const MatI8& b) { return pack_b(b); }
PackedI16 pack_b_i16(const MatI16& b) { return pack_b(b); }

MatI8 unpack_b_i8(const PackedI8& p) { return unpack_b(p); }
MatI16 unpack_b_i16(const PackedI16& p) { return unpack_b(p); }

}  // namespace tfacc
