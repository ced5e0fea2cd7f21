#include "tensor/pack.hpp"

#include "tensor/kernels.hpp"

namespace tfacc {
namespace {

template <typename T>
PackedB<T> pack_b(const Matrix<T>& b, PackLayout layout) {
  PackedB<T> out = PackedB<T>::zeros(b.rows(), b.cols(), layout);
  for (int r = 0; r < b.rows(); ++r) out.set_row(r, b.row(r));
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

const char* pack_layout_name(PackLayout layout) {
  return layout == PackLayout::kQuads ? "k-quad" : "k-pair";
}

PackedI8 pack_b_i8(const MatI8& b, PackLayout layout) {
  return pack_b(b, layout);
}
PackedI8 pack_b_i8(const MatI8& b) {
  return pack_b(b, kernels::packed_layout());
}
PackedI16 pack_b_i16(const MatI16& b) { return pack_b(b, PackLayout::kPairs); }

MatI8 unpack_b_i8(const PackedI8& p) { return unpack_b(p); }
MatI16 unpack_b_i16(const PackedI16& p) { return unpack_b(p); }

}  // namespace tfacc
