#include "hwarith/softmax_unit.hpp"

#include "common/check.hpp"
#include "hwarith/exp_ln.hpp"
#include "tensor/kernels.hpp"

// The batched row path vectorizes the shipped 4-segment dyadic design with
// per-function target("avx2") + a runtime CPU check, exactly like
// tensor/kernels.cpp — the binary carries no -march requirement.
#if defined(__x86_64__) || defined(__i386__)
#define TFACC_SOFTMAX_X86 1
#include <immintrin.h>
#endif

namespace tfacc::hw {

namespace {

#if TFACC_SOFTMAX_X86

// hot-path: allocation-free region — the batched softmax row runs inside the
// attention inner loop; everything here writes caller-owned buffers only.

/// rounding_shift_right(prod, s) + clamp for four int64 products — the same
/// branchless reformulation as tensor/kernels.cpp's requantizer (valid for
/// 1 <= s <= 48 and |prod| < 2^46; here |diff·mantissa| < 2^31·2^15).
__attribute__((target("avx2"))) __m256i sm_round_clamp_avx2(
    __m256i prod, __m256i bias, __m128i count, __m256i offset,
    __m256i offset_shifted, __m256i lo, __m256i hi) {
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), prod);
  __m256i x = _mm256_add_epi64(_mm256_add_epi64(prod, bias), neg);
  x = _mm256_sub_epi64(_mm256_srl_epi64(_mm256_add_epi64(x, offset), count),
                       offset_shifted);
  x = _mm256_blendv_epi8(x, hi, _mm256_cmpgt_epi64(x, hi));
  x = _mm256_blendv_epi8(x, lo, _mm256_cmpgt_epi64(lo, x));
  return x;
}

/// The EXP unit (exp_unit_q10's dyadic 4-segment PWL), 8 lanes at once.
/// Lanes must be in [kExpMinArg, 0]; lanes at kExpMinArg produce 0 exactly
/// like the scalar early-out. For in-range x the scalar `rshift >= 31` guard
/// is unreachable (x > −16·1024 ⇒ rshift ≤ 24).
__attribute__((target("avx2"))) __m256i exp_q10_avx2(__m256i x) {
  // t = x·log2(e) by shift-add: x + x/2 − x/16 + x/256.
  const __m256i t = _mm256_add_epi32(
      _mm256_sub_epi32(_mm256_add_epi32(x, _mm256_srai_epi32(x, 1)),
                       _mm256_srai_epi32(x, 4)),
      _mm256_srai_epi32(x, 8));
  const __m256i n = _mm256_srai_epi32(t, kSoftmaxFracBits);  // floor, <= 0
  const __m256i f =
      _mm256_sub_epi32(t, _mm256_slli_epi32(n, kSoftmaxFracBits));
  const __m256i seg = _mm256_srli_epi32(f, 8);  // f ∈ [0,1024) ⇒ seg ∈ [0,3]
  const __m256i df = _mm256_and_si256(f, _mm256_set1_epi32(0xFF));
  // kPow2Start gather: permutevar8x32 indexed by seg (duplicated table).
  const __m256i start = _mm256_permutevar8x32_epi32(
      _mm256_setr_epi32(1024, 1218, 1448, 1722, 1024, 1218, 1448, 1722), seg);
  // The four dyadic secant slopes, selected per lane.
  const __m256i s0 =
      _mm256_add_epi32(_mm256_srli_epi32(df, 1), _mm256_srli_epi32(df, 2));
  const __m256i s1 = _mm256_sub_epi32(df, _mm256_srli_epi32(df, 3));
  const __m256i s2 = _mm256_add_epi32(df, _mm256_srli_epi32(df, 4));
  const __m256i s3 = _mm256_add_epi32(df, _mm256_srli_epi32(df, 2));
  __m256i slope = s0;
  slope = _mm256_blendv_epi8(
      slope, s1, _mm256_cmpeq_epi32(seg, _mm256_set1_epi32(1)));
  slope = _mm256_blendv_epi8(
      slope, s2, _mm256_cmpeq_epi32(seg, _mm256_set1_epi32(2)));
  slope = _mm256_blendv_epi8(
      slope, s3, _mm256_cmpeq_epi32(seg, _mm256_set1_epi32(3)));
  const __m256i frac = _mm256_add_epi32(start, slope);
  // y = rounding_shift_right(frac, −n): frac > 0, bias = (1 << rs) >> 1
  // (0 when rs = 0), then a logical variable shift.
  const __m256i rshift = _mm256_sub_epi32(_mm256_setzero_si256(), n);
  const __m256i bias =
      _mm256_srli_epi32(_mm256_sllv_epi32(_mm256_set1_epi32(1), rshift), 1);
  __m256i y = _mm256_srlv_epi32(_mm256_add_epi32(frac, bias), rshift);
  // Scalar unit returns 0 at (or below) the PWL range floor.
  y = _mm256_and_si256(
      y, _mm256_cmpgt_epi32(x, _mm256_set1_epi32(kExpMinArg)));
  return y;
}

/// One full softmax row, batched 8 columns per iteration. Bit-identical to
/// the scalar stages for every column: integer max/min are order-independent,
/// the Q.10 conversion reuses the requantizer reformulation, and the EXP unit
/// is ported shift-for-shift. Returns false (touching nothing) when the
/// unmasked spread overflows int32 — the caller reruns the scalar stages.
__attribute__((target("avx2"))) bool softmax_row_avx2(
    const FixedPointScale& conv, const std::int32_t* d,
    const std::uint8_t* mask, int n, std::int32_t* x_q10, std::int8_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  // Stage 1: masked running max (and min, for the int32-spread gate).
  __m256i vmax = _mm256_set1_epi32(INT32_MIN);
  __m256i vmin = _mm256_set1_epi32(INT32_MAX);
  __m256i vany = zero;
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i d8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + j));
    const __m256i m8 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + j)));
    const __m256i legal = _mm256_cmpeq_epi32(m8, zero);
    vany = _mm256_or_si256(vany, legal);
    vmax = _mm256_max_epi32(
        vmax, _mm256_blendv_epi8(_mm256_set1_epi32(INT32_MIN), d8, legal));
    vmin = _mm256_min_epi32(
        vmin, _mm256_blendv_epi8(_mm256_set1_epi32(INT32_MAX), d8, legal));
  }
  alignas(32) std::int32_t lmax[8];
  alignas(32) std::int32_t lmin[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lmax), vmax);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lmin), vmin);
  bool any = _mm256_movemask_epi8(vany) != 0;
  std::int32_t dmax = INT32_MIN;
  std::int32_t dmin = INT32_MAX;
  for (int k = 0; k < 8; ++k) {
    if (lmax[k] > dmax) dmax = lmax[k];
    if (lmin[k] < dmin) dmin = lmin[k];
  }
  for (; j < n; ++j) {
    if (mask[j]) continue;
    any = true;
    if (d[j] > dmax) dmax = d[j];
    if (d[j] < dmin) dmin = d[j];
  }
  if (!any) {  // fully masked row: empty sum in Eq. 4, defined as zeros
    for (j = 0; j < n; ++j) out[j] = 0;
    return true;
  }
  // The vector conversion multiplies the int32 lane (D_j − D_max); bail out
  // to scalar (which converts in int64) if the unmasked spread overflows.
  if (static_cast<std::int64_t>(dmax) - dmin > INT32_MAX) return false;

  // Stage 2: x_j = clamp(conv(D_j − D_max)), SUM = Σ exp(x_j) (legal only).
  const __m256i dmax8 = _mm256_set1_epi32(dmax);
  const __m256i mant = _mm256_set1_epi64x(conv.mantissa);
  const __m256i cbias =
      _mm256_set1_epi64x(std::int64_t{1} << (conv.shift - 1));
  const __m128i ccount = _mm_cvtsi32_si128(conv.shift);
  const __m256i coffset = _mm256_set1_epi64x(std::int64_t{1} << 62);
  const __m256i coff_sh =
      _mm256_set1_epi64x((std::int64_t{1} << 62) >> conv.shift);
  const __m256i clo = _mm256_set1_epi64x(kExpMinArg);
  const __m256i chi = _mm256_set1_epi64x(0);
  __m256i sum64 = zero;
  for (j = 0; j + 8 <= n; j += 8) {
    const __m256i d8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + j));
    const __m256i m8 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + j)));
    const __m256i legal = _mm256_cmpeq_epi32(m8, zero);
    // Masked lanes may wrap here; their x is still clamped into the EXP
    // domain below and their contribution is zeroed before the sum.
    const __m256i ds = _mm256_sub_epi32(d8, dmax8);
    const __m256i pe = _mm256_mul_epi32(ds, mant);  // dwords 0,2,4,6
    const __m256i po = _mm256_mul_epi32(
        _mm256_shuffle_epi32(ds, _MM_SHUFFLE(3, 3, 1, 1)), mant);  // 1,3,5,7
    const __m256i xe = sm_round_clamp_avx2(pe, cbias, ccount, coffset,
                                           coff_sh, clo, chi);
    const __m256i xo = sm_round_clamp_avx2(po, cbias, ccount, coffset,
                                           coff_sh, clo, chi);
    const __m256i x8 =
        _mm256_blend_epi32(xe, _mm256_slli_epi64(xo, 32), 0b10101010);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x_q10 + j), x8);
    const __m256i e8 = _mm256_and_si256(exp_q10_avx2(x8), legal);
    sum64 = _mm256_add_epi64(
        sum64, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(e8)));
    sum64 = _mm256_add_epi64(
        sum64, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(e8, 1)));
  }
  alignas(32) std::int64_t lsum[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lsum), sum64);
  std::int64_t sum_q10 = (lsum[0] + lsum[1]) + (lsum[2] + lsum[3]);
  for (; j < n; ++j) {
    if (mask[j]) continue;
    const std::int64_t diff = static_cast<std::int64_t>(d[j]) - dmax;
    std::int64_t x = conv.apply(diff);
    if (x < kExpMinArg) x = kExpMinArg;
    x_q10[j] = static_cast<std::int32_t>(x);
    sum_q10 += exp_unit_q10(static_cast<std::int32_t>(x));
  }
  // The max element contributes exp(0) = 1.0, so sum >= 1.0 always holds.
  TFACC_CHECK(sum_q10 >= kSoftmaxOne);

  // Stage 3: log of the denominator (one LN per row, as in hardware).
  const std::int32_t log_sum = ln_unit_q10(sum_q10);

  // Stage 4: out_j = exp(x_j − log_sum) → INT8 (scale 1/127). y ≤ 1024, so
  // (y·127 + 512) >> 10 ≤ 127 and the scalar saturate never binds.
  const __m256i logsum8 = _mm256_set1_epi32(log_sum);
  const __m256i minarg8 = _mm256_set1_epi32(kExpMinArg);
  const __m256i pick = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
  for (j = 0; j + 8 <= n; j += 8) {
    const __m256i m8 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + j)));
    const __m256i legal = _mm256_cmpeq_epi32(m8, zero);
    const __m256i x8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x_q10 + j));
    __m256i arg = _mm256_sub_epi32(x8, logsum8);
    arg = _mm256_max_epi32(arg, minarg8);
    arg = _mm256_min_epi32(arg, zero);  // LN rounding can overshoot the max
    const __m256i y = exp_q10_avx2(arg);
    __m256i o = _mm256_srli_epi32(
        _mm256_add_epi32(_mm256_mullo_epi32(y, _mm256_set1_epi32(127)),
                         _mm256_set1_epi32(512)),
        kSoftmaxFracBits);
    o = _mm256_and_si256(o, legal);
    const __m256i packed =
        _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(o, pick), join);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j),
                     _mm256_castsi256_si128(packed));
  }
  for (; j < n; ++j) {
    if (mask[j]) {
      out[j] = 0;
      continue;
    }
    std::int64_t arg = static_cast<std::int64_t>(x_q10[j]) - log_sum;
    if (arg < kExpMinArg) arg = kExpMinArg;
    if (arg > 0) arg = 0;
    const std::int32_t y = exp_unit_q10(static_cast<std::int32_t>(arg));
    out[j] = saturate_i8(rounding_shift_right(
        static_cast<std::int64_t>(y) * 127, kSoftmaxFracBits));
  }
  return true;
}

// hot-path: region end

#endif  // TFACC_SOFTMAX_X86

}  // namespace

SoftmaxUnit::SoftmaxUnit(double d_scale)
    : to_q10_(FixedPointScale::from_double(d_scale / 8.0 *
                                           (1 << kSoftmaxFracBits))) {
  TFACC_CHECK_ARG(d_scale > 0.0);
}

SoftmaxUnit::SoftmaxUnit(double d_scale, PwlResolution resolution)
    : SoftmaxUnit(d_scale) {
  resolution_ = resolution;
}

std::int32_t SoftmaxUnit::exp_fx(std::int32_t x) const {
  return resolution_ ? exp_unit_q10(x, *resolution_) : exp_unit_q10(x);
}

std::int32_t SoftmaxUnit::ln_fx(std::int64_t v) const {
  return resolution_ ? ln_unit_q10(v, *resolution_) : ln_unit_q10(v);
}

// hot-path: allocation-free
void SoftmaxUnit::row(const std::int32_t* d, const std::uint8_t* mask, int n,
                      std::int8_t* out) const {
  TFACC_CHECK_ARG(n > 0);

  // One-time warm-up growth of the scratch row, amortized to zero.
  if (x_q10_.size() < static_cast<std::size_t>(n))
    x_q10_.resize(static_cast<std::size_t>(n));  // lint: allow(hot-path-alloc)
  std::int32_t* x_q10 = x_q10_.data();

#if TFACC_SOFTMAX_X86
  // Batched row model (gprof hotspot #2): only the shipped dyadic design is
  // vectorized, and only where the requantizer reformulation is proven exact
  // (1 ≤ shift ≤ 48; the int32-spread gate lives inside). Both fast kinds
  // run it (the AMX table is the AVX2 one but for its GEMM); kScalar, and a
  // host without AVX2, keep the reference loop.
  if (!resolution_ && n >= 8 && to_q10_.shift >= 1 && to_q10_.shift <= 48 &&
      kernels::selected() != kernels::Kind::kScalar &&
      kernels::simd_available() &&
      softmax_row_avx2(to_q10_, d, mask, n, x_q10, out))
    return;
#endif

  // Stage 1: running max over unmasked entries (integer compare — the input
  // scale is positive so the raw ordering is the real ordering).
  bool any = false;
  std::int32_t dmax = 0;
  for (int j = 0; j < n; ++j) {
    if (mask[j]) continue;
    if (!any || d[j] > dmax) dmax = d[j];
    any = true;
  }
  if (!any) {  // fully masked row: empty sum in Eq. 4, defined as zeros
    for (int j = 0; j < n; ++j) out[j] = 0;
    return;
  }

  // Stage 2: exponentials of the negated distances to the max, and their sum.
  std::int64_t sum_q10 = 0;
  for (int j = 0; j < n; ++j) {
    if (mask[j]) continue;
    const std::int64_t diff = static_cast<std::int64_t>(d[j]) - dmax;  // <= 0
    std::int64_t x = to_q10_.apply(diff);
    if (x < kExpMinArg) x = kExpMinArg;
    x_q10[j] = static_cast<std::int32_t>(x);
    sum_q10 += exp_fx(static_cast<std::int32_t>(x));
  }
  // The max element contributes exp(0) = 1.0, so sum >= 1.0 always holds.
  TFACC_CHECK(sum_q10 >= kSoftmaxOne);

  // Stage 3: log of the denominator.
  const std::int32_t log_sum = ln_fx(sum_q10);

  // Stage 4: out_j = exp(x_j - log_sum), quantized to INT8 (scale 1/127).
  for (int j = 0; j < n; ++j) {
    if (mask[j]) {
      out[j] = 0;
      continue;
    }
    std::int64_t arg = static_cast<std::int64_t>(x_q10[j]) - log_sum;
    if (arg < kExpMinArg) arg = kExpMinArg;
    if (arg > 0) arg = 0;  // rounding in LN can make the max slightly positive
    const std::int32_t y = exp_fx(static_cast<std::int32_t>(arg));
    out[j] = saturate_i8(
        rounding_shift_right(static_cast<std::int64_t>(y) * 127,
                             kSoftmaxFracBits));
  }
}

Matrix<std::int8_t> SoftmaxUnit::operator()(
    const MatI32& d, const Matrix<std::uint8_t>& mask) const {
  TFACC_CHECK_ARG(d.rows() == mask.rows() && d.cols() == mask.cols());
  Matrix<std::int8_t> out(d.rows(), d.cols());
  for (int r = 0; r < d.rows(); ++r)
    row(d.row(r), mask.row(r), d.cols(), out.row(r));
  return out;
}

}  // namespace tfacc::hw
