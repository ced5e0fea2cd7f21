#include "tensor/ops.hpp"

#include <algorithm>

#include "tensor/kernels.hpp"

namespace tfacc {

// The GEMM entry points delegate to the kernel dispatch table
// (tensor/kernels.hpp): TFACC_KERNEL selects scalar or SIMD, and both kinds
// are bit-identical (integer accumulation is exact; the float kernels pin
// the scalar summation order).

MatF gemm(const MatF& a, const MatF& b) {
  TFACC_CHECK_ARG_MSG(a.cols() == b.rows(), "gemm: " << a.rows() << 'x'
                                                     << a.cols() << " * "
                                                     << b.rows() << 'x'
                                                     << b.cols());
  MatF out(a.rows(), b.cols());
  kernels::gemm_f32_into(a, b, out);
  return out;
}

MatI32 gemm_i8(const MatI8& a, const MatI8& b) {
  TFACC_CHECK_ARG_MSG(a.cols() == b.rows(), "gemm_i8: " << a.rows() << 'x'
                                                        << a.cols() << " * "
                                                        << b.rows() << 'x'
                                                        << b.cols());
  MatI32 out(a.rows(), b.cols());
  kernels::gemm_i8_into(a, b, out);
  return out;
}

MatF gemm_nt(const MatF& a, const MatF& b) {
  TFACC_CHECK_ARG_MSG(a.cols() == b.cols(), "gemm_nt: inner dims "
                                                << a.cols() << " vs "
                                                << b.cols());
  MatF out(a.rows(), b.rows());
  kernels::gemm_nt_f32_into(a, b, out);
  return out;
}

MatI32 gemm_nt_i8(const MatI8& a, const MatI8& b) {
  TFACC_CHECK_ARG_MSG(a.cols() == b.cols(), "gemm_nt_i8: inner dims "
                                                << a.cols() << " vs "
                                                << b.cols());
  MatI32 out(a.rows(), b.rows());
  kernels::gemm_nt_i8_into(a, b, out);
  return out;
}

MatF gemm_tn(const MatF& a, const MatF& b) {
  TFACC_CHECK_ARG_MSG(a.rows() == b.rows(), "gemm_tn: outer dims "
                                                << a.rows() << " vs "
                                                << b.rows());
  MatF out(a.cols(), b.cols());
  for (int p = 0; p < a.rows(); ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < a.cols(); ++i) {
      float* orow = out.row(i);
      const float av = arow[i];
      for (int j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

std::vector<float> col_sums(const MatF& a) {
  std::vector<float> out(static_cast<std::size_t>(a.cols()), 0.0f);
  for (int r = 0; r < a.rows(); ++r) {
    const float* row = a.row(r);
    for (int c = 0; c < a.cols(); ++c)
      out[static_cast<std::size_t>(c)] += row[c];
  }
  return out;
}

void accumulate(MatF& dst, const MatF& src) {
  TFACC_CHECK_ARG(dst.same_shape(src));
  for (int r = 0; r < dst.rows(); ++r)
    for (int c = 0; c < dst.cols(); ++c) dst(r, c) += src(r, c);
}

void accumulate(std::vector<float>& dst, const std::vector<float>& src) {
  TFACC_CHECK_ARG(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

MatF add_bias(const MatF& a, const std::vector<float>& bias) {
  TFACC_CHECK_ARG(static_cast<int>(bias.size()) == a.cols());
  MatF out = a;
  for (int r = 0; r < out.rows(); ++r) {
    float* row = out.row(r);
    for (int c = 0; c < out.cols(); ++c) row[c] += bias[c];
  }
  return out;
}

MatI32 add_bias_i32(const MatI32& a, const std::vector<std::int32_t>& bias) {
  TFACC_CHECK_ARG(static_cast<int>(bias.size()) == a.cols());
  MatI32 out = a;
  for (int r = 0; r < out.rows(); ++r) {
    std::int32_t* row = out.row(r);
    for (int c = 0; c < out.cols(); ++c) row[c] += bias[c];
  }
  return out;
}

MatF relu(const MatF& a) {
  MatF out = a;
  for (int r = 0; r < out.rows(); ++r)
    for (int c = 0; c < out.cols(); ++c)
      if (out(r, c) < 0.0f) out(r, c) = 0.0f;
  return out;
}

MatI32 relu_i32(MatI32 a) {
  // A branch-free clamp the compiler vectorizes: a sign test per element
  // mispredicts on about half of an accumulator row.
  std::int32_t* v = a.data();
  for (std::size_t i = 0; i < a.size(); ++i) v[i] = std::max(v[i], 0);
  return a;
}

void fill_uniform(MatF& m, Rng& rng, float lo, float hi) {
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      m(r, c) = static_cast<float>(rng.uniform(lo, hi));
}

void fill_normal(MatF& m, Rng& rng, float mean, float stddev) {
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      m(r, c) = static_cast<float>(rng.normal(mean, stddev));
}

void fill_uniform_i8(MatI8& m, Rng& rng, int lo, int hi) {
  TFACC_CHECK_ARG(lo >= -128 && hi <= 127 && lo <= hi);
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      m(r, c) = static_cast<std::int8_t>(rng.uniform_int(lo, hi));
}

}  // namespace tfacc
