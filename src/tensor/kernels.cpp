#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/check.hpp"
#include "common/fixed_point.hpp"

// Intrinsics headers are safe to include without -march flags; the AVX2
// paths are compiled per-function via __attribute__((target("avx2"))) and
// only ever *called* after a runtime __builtin_cpu_supports check, so the
// binary stays runnable on any x86-64 host.
#if defined(__x86_64__) || defined(__i386__)
#define TFACC_KERNELS_X86 1
#include <immintrin.h>
#endif
// The AMX kernel is 64-bit only, and asks Linux for the tile state.
#if TFACC_KERNELS_X86 && defined(__x86_64__) && defined(__linux__)
#define TFACC_KERNELS_AMX 1
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace tfacc::kernels {

namespace {

Kind kind_from_env_or_default() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* spec = std::getenv("TFACC_KERNEL");
  if (spec == nullptr || *spec == '\0')
    return amx_available() ? Kind::kAmx : Kind::kSimd;
  Kind kind = Kind::kSimd;
  TFACC_CHECK_ARG_MSG(parse_kind(spec, &kind),
                      "TFACC_KERNEL='" << spec << "' (want scalar|simd|amx)");
  return kind;
}

// Memory-ordering contract for the dispatch slot (pinned):
// std::memory_order_relaxed is sufficient on BOTH sides, by design. The slot
// publishes only a Kind, and table() maps it to one of three constexpr
// kernel tables, so no data written at run time is published alongside the
// store: there is nothing to acquire/release. The tables are bit-identical
// on every input they take (the test_kernels equivalence grid + bench_gemm
// --smoke prove it), so a racing reader observing the old kind merely runs
// another, equally-correct kernel once. (A pack built for one fast table is
// refused by the other, whatever the ordering: code that switches between
// them repacks, see kernels.hpp.) kRelaxedDispatchOrder names the contract so
// a change that publishes run-time-written data through the slot cannot
// silently inherit it: such a change must replace the named constant, not
// add one more bare memory_order argument.
constexpr std::memory_order kRelaxedDispatchOrder =
    std::memory_order_relaxed;

std::atomic<Kind>& kind_slot() {
  static std::atomic<Kind> slot{kind_from_env_or_default()};
  return slot;
}

// ---------------------------------------------------------------------------
// Scalar kernels: the original tensor/ops triple loops, verbatim. These are
// the semantic reference the AVX2 kernels must match bit-for-bit, the
// fallback outside the AVX2 kernels' envelopes, and the "before" side of the
// wall-clock speedup gate.
// ---------------------------------------------------------------------------

// hot-path: allocation-free region — every kernel in this namespace runs
// inside decode_step_batch; they write pre-shaped outputs and never touch
// the heap (scripts/lint_invariants.py scans the region until the matching
// '// hot-path: region end').

template <typename T, typename Acc>
void gemm_scalar(const Matrix<T>& a, const Matrix<T>& b, Matrix<Acc>& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    Acc* orow = out.row(i);
    for (int j = 0; j < n; ++j) orow[j] = Acc{};
    const T* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const Acc av = arow[p];
      const T* brow = b.row(p);
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

template <typename T, typename Acc>
void gemm_nt_scalar(const Matrix<T>& a, const Matrix<T>& b, Matrix<Acc>& out) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const T* arow = a.row(i);
    Acc* orow = out.row(i);
    for (int j = 0; j < b.rows(); ++j) {
      const T* brow = b.row(j);
      Acc acc{};
      for (int p = 0; p < k; ++p) acc += static_cast<Acc>(arow[p]) * brow[p];
      orow[j] = acc;
    }
  }
}

template <typename T, typename Acc>
void gemm_packed_scalar(const Matrix<T>& a, const PackedB<T>& bp,
                        const std::int32_t* bias, Matrix<Acc>& out) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const T* arow = a.row(i);
    Acc* orow = out.row(i);
    for (int j = 0; j < bp.n; ++j) {
      Acc acc = bias != nullptr ? static_cast<Acc>(bias[j]) : Acc{};
      for (int p = 0; p < k; ++p) acc += static_cast<Acc>(arow[p]) * bp(p, j);
      orow[j] = acc;
    }
  }
}

/// Saturate to the output element type (int8 or int16).
template <typename OutT>
OutT saturate_narrow(std::int64_t v) {
  if constexpr (sizeof(OutT) == 1) return saturate_i8(v);
  else return saturate_i16(v);  // NOLINT(readability-else-after-return)
}

/// The quantizer's original requantize loops, verbatim: (r,c) indexing and
/// FixedPointScale::apply per element.
template <typename OutT>
void requantize_scalar(const MatI32& acc, std::int32_t mantissa, int shift,
                       Matrix<OutT>& out) {
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c)
      out(r, c) = saturate_narrow<OutT>(rounding_shift_right(
          static_cast<std::int64_t>(acc(r, c)) * mantissa, shift));
}

/// The hook quantizer's loop: one IEEE division and saturate_round per
/// element.
void quantize_i8_scalar(const float* x, std::size_t n, float scale,
                        std::int8_t* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = saturate_round<std::int8_t>(x[i] / scale);
}

/// The residual requantizer's original loop, verbatim: apply_i16 per
/// element.
void requantize_i8_to_i16_scalar(const MatI8& m, std::int32_t mantissa,
                                 int shift, MatI16& out) {
  const FixedPointScale s{mantissa, shift};
  for (int r = 0; r < m.rows(); ++r) {
    const std::int8_t* mr = m.row(r);
    std::int16_t* orow = out.row(r);
    for (int c = 0; c < m.cols(); ++c) orow[c] = s.apply_i16(mr[c]);
  }
}

/// LayerNormUnit::row's accumulator loop, verbatim.
void layernorm_stats_scalar(const std::int16_t* g, int n, std::int64_t* sum,
                            std::int64_t* sumsq) {
  std::int64_t s = 0, q = 0;
  for (int j = 0; j < n; ++j) {
    s += g[j];
    q += static_cast<std::int64_t>(g[j]) * g[j];
  }
  *sum = s;
  *sumsq = q;
}

/// LayerNormUnit::finish_row's γ/β loop, verbatim.
void layernorm_finish_scalar(const std::int16_t* g, int n, std::int64_t sum,
                             std::int32_t rs_mantissa, int norm_shift,
                             int gamma_shift, const std::int32_t* gq,
                             const std::int32_t* bq, std::int8_t* out) {
  for (int j = 0; j < n; ++j) {
    const std::int64_t t = static_cast<std::int64_t>(n) * g[j] - sum;
    const std::int64_t norm =
        rounding_shift_right(t * rs_mantissa, norm_shift);
    const std::int64_t scaled =
        rounding_shift_right(norm * gq[j], gamma_shift);
    out[j] = saturate_i8(scaled + bq[j]);
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86, runtime-dispatched). Integer reductions use
// sign-extension to int16 + pmaddwd, which is exact for int8 operands
// (|pair sum| ≤ 2·128² < 2³¹). The f32 kernel vectorizes across output
// columns and blocks rows of A, with separate mul+add — the target
// attribute enables AVX2 only (no FMA), so no contraction can change the
// scalar path's per-element rounding. A kernel whose reformulation holds
// only inside an envelope checks it first and hands other inputs to the
// scalar loop.
// ---------------------------------------------------------------------------

#if TFACC_KERNELS_X86

__attribute__((target("avx2"))) void gemm_i8_avx2(const MatI8& a,
                                                  const MatI8& b,
                                                  MatI32& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (n == 0) return;  // row() may be null on an empty matrix (memset UB)
  for (int i = 0; i < m; ++i) {
    std::int32_t* orow = out.row(i);
    std::memset(orow, 0, static_cast<std::size_t>(n) * sizeof(std::int32_t));
    const std::int8_t* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const std::int8_t* brow = b.row(p);
      const __m256i av = _mm256_set1_epi16(arow[p]);
      int j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m256i b16 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + j)));
        // int8·int8 products fit int16 exactly (|v| ≤ 128·128 < 2¹⁵).
        const __m256i prod = _mm256_mullo_epi16(av, b16);
        const __m256i lo =
            _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
        const __m256i hi =
            _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1));
        __m256i* o = reinterpret_cast<__m256i*>(orow + j);
        _mm256_storeu_si256(o, _mm256_add_epi32(_mm256_loadu_si256(o), lo));
        __m256i* o2 = reinterpret_cast<__m256i*>(orow + j + 8);
        _mm256_storeu_si256(o2, _mm256_add_epi32(_mm256_loadu_si256(o2), hi));
      }
      const std::int32_t avs = arow[p];
      for (; j < n; ++j) orow[j] += avs * brow[j];
    }
  }
}

// --- AVX2 FP32 GEMM --------------------------------------------------------
// out = A·B, one block of MR ≤ 4 rows of A at a time. The block walks k in
// groups of kF32KGroup rows of B, and each group sweeps the full width of B
// in tiles of MR rows × NV vectors of 8 columns: an output vector is loaded
// once per group (set to +0 on the first), takes the group's products in
// ascending p, and is stored once, and each 8-float B vector it loads is
// multiplied into every row of the block. So B is read once per row block,
// front to back along its rows, where a row-at-a-time loop reads it once
// per row: the reuse the systolic array gets from passing s rows through a
// loaded weight block. (Tiles that run all of k walk B down its columns,
// which ran slower than a row-at-a-time loop at n = 2048; blocking the
// columns of a one-row product does too.) A partial last vector loads and
// stores through a lane mask.
//
// Per element this is the scalar loop's arithmetic: start at +0, then per p
// in ascending order one rounded multiply (a·b) and one rounded add (acc +
// product) — the target attribute enables AVX2 only (no FMA), so nothing
// contracts. The outputs are bit-identical to the scalar table's, signed
// zeros, infinities and NaN payloads included, and a row's result does not
// depend on the rows stacked with it. (Where two different NaNs meet in one
// multiply or add, which one comes out is the compiler's choice of operand
// order, in the scalar loop as here: the C++ source does not fix it.)

constexpr int kF32Lanes = 8;
constexpr int kF32KGroup = 8;

/// What every tile of one k-group of one row block shares.
struct F32Group {
  const float* a;    // A(i, p0); row r at a + r·lda
  std::size_t lda;
  const float* b;    // B(p0, 0); row q at b + q·ldb
  std::size_t ldb;
  int kg;            // k-steps in the group
  bool first;        // the block's first group: accumulators start at +0
  float* out;        // out(i, 0); row r at out + r·ldb
};

/// The MR × 8·NV outputs from column j; with kMaskLast the last vector is
/// partial and `mask` selects its columns.
template <int MR, int NV, bool kMaskLast>
__attribute__((target("avx2"))) void f32_tile_avx2(const F32Group& g, int j,
                                                   __m256i mask) {
  // Copied out of g, which the output stores might alias as far as the
  // compiler can tell.
  float* const out = g.out + j;
  const float* const a = g.a;
  const float* const b = g.b + j;
  const std::size_t lda = g.lda, ldb = g.ldb;
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      float* const o = out + r * ldb + v * kF32Lanes;
      acc[r][v] = g.first                         ? _mm256_setzero_ps()
                  : kMaskLast && v == NV - 1 ? _mm256_maskload_ps(o, mask)
                                              : _mm256_loadu_ps(o);
    }
  for (int q = 0; q < g.kg; ++q) {
    __m256 bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      const float* const bq = b + q * ldb + v * kF32Lanes;
      bv[v] = kMaskLast && v == NV - 1 ? _mm256_maskload_ps(bq, mask)
                                       : _mm256_loadu_ps(bq);
    }
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + q);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      float* const o = out + r * ldb + v * kF32Lanes;
      if (kMaskLast && v == NV - 1) {
        _mm256_maskstore_ps(o, mask, acc[r][v]);
      } else {
        _mm256_storeu_ps(o, acc[r][v]);
      }
    }
}

/// The last `count` ≤ NV vectors from column j, the last of them partial
/// when `partial`: one tile of that many vectors.
template <int MR, int NV>
__attribute__((target("avx2"))) void f32_edge_avx2(const F32Group& g, int j,
                                                   int count, bool partial,
                                                   __m256i mask) {
  if constexpr (NV > 0) {
    if (count < NV) {
      f32_edge_avx2<MR, NV - 1>(g, j, count, partial, mask);
    } else if (partial) {
      f32_tile_avx2<MR, NV, true>(g, j, mask);
    } else {
      f32_tile_avx2<MR, NV, false>(g, j, mask);
    }
  }
}

/// Rows [i, i + MR) of out = A·B, 0 < k.
template <int MR>
__attribute__((target("avx2"))) void f32_rows_avx2(const MatF& a, int i,
                                                   const MatF& b, MatF& out) {
  // Tiles of 4×2 vectors (8 accumulators, 2 B vectors and a broadcast) on
  // full row blocks, r×3 on the 1–3 remainder rows.
  constexpr int NV = MR == 4 ? 2 : 3;
  const int k = a.cols(), n = b.cols();
  const int full = n / kF32Lanes;
  const int vecs = (n + kF32Lanes - 1) / kF32Lanes;
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(n % kF32Lanes),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (int p0 = 0; p0 < k; p0 += kF32KGroup) {
    const F32Group g{.a = a.row(i) + p0,
                     .lda = static_cast<std::size_t>(k),
                     .b = b.row(p0),
                     .ldb = static_cast<std::size_t>(n),
                     .kg = std::min(kF32KGroup, k - p0),
                     .first = p0 == 0,
                     .out = out.row(i)};
    int v = 0;
    for (; v + NV <= full; v += NV)
      f32_tile_avx2<MR, NV, false>(g, v * kF32Lanes, mask);
    f32_edge_avx2<MR, NV>(g, v * kF32Lanes, vecs - v, vecs > full, mask);
  }
}

__attribute__((target("avx2"))) void gemm_f32_avx2(const MatF& a,
                                                   const MatF& b, MatF& out) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;  // row() may be null on an empty matrix
  if (k == 0) {
    std::memset(out.data(), 0, out.size() * sizeof(float));
    return;
  }
  int i = 0;
  for (; i + 4 <= m; i += 4) f32_rows_avx2<4>(a, i, b, out);
  if (m - i == 1) f32_rows_avx2<1>(a, i, b, out);
  if (m - i == 2) f32_rows_avx2<2>(a, i, b, out);
  if (m - i == 3) f32_rows_avx2<3>(a, i, b, out);
}

// --- AVX2 INT8 A·Bᵀ microkernel --------------------------------------------
// The attention scores: out(i, j) = Σ_p a(i, p)·b(j, p), rows of A and B
// contiguous, k elements each.
//
// A tile is MR rows of A times NR rows of B whose MR·NR 256-bit accumulators
// stay in registers: each widened A row feeds NR madds and each widened B row
// MR madds, and the horizontal reduction runs once per tile — one hadd tree
// per four outputs — instead of once per element. Full 4-row blocks run 4×2
// tiles (8 accumulators, 4 widened A rows and 1 B row: 13 of the 16 ymm
// registers); the 1–3 remainder rows, the one-row QKᵀ of every cached decode
// step among them, run r×4 tiles so that their reduction is still shared by
// four outputs. Columns past the last whole tile run one at a time (4×1,
// r×1). The 16-wide steps stop at k rounded down to 16 and a scalar loop
// finishes the k tail. The products are exact (cvtepi8_epi16 + madd_epi16)
// and the sums are reordered integer additions, so the result equals the
// scalar loop's wherever that loop is defined: |Σ| ≤ k·2¹⁴.

/// The operands of one out = A·Bᵀ call.
struct AbtI8 {
  const std::int8_t* a;
  const std::int8_t* b;
  std::int32_t* out;
  std::size_t ldo;  // output row stride in elements
  int k;            // row length of A and B
};

__attribute__((target("avx2"))) __m256i widen16_i8(const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// The horizontal sums of four accumulators, in argument order.
__attribute__((target("avx2"))) __m128i hsum4_epi32(__m256i v0, __m256i v1,
                                                    __m256i v2, __m256i v3) {
  // [v0 v1 v2 v3 partials of lanes 0–3 | the same of lanes 4–7]
  const __m256i s = _mm256_hadd_epi32(_mm256_hadd_epi32(v0, v1),
                                      _mm256_hadd_epi32(v2, v3));
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}

/// Output element (i, j).
std::int32_t* abt_out(const AbtI8& g, int i, int j) {
  return g.out + static_cast<std::size_t>(i) * g.ldo + j;
}

/// Adds the k tail [k16, k) of the mr×nr outputs at (i, j): the scalar loop.
void abt_tail_i8(const AbtI8& g, int i, int j, int mr, int nr, int k16) {
  for (int r = 0; r < mr; ++r) {
    const std::int8_t* ar = g.a + static_cast<std::size_t>(i + r) * g.k;
    std::int32_t* orow = abt_out(g, i + r, j);
    for (int c = 0; c < nr; ++c) {
      const std::int8_t* bc = g.b + static_cast<std::size_t>(j + c) * g.k;
      std::int32_t dot = 0;
      for (int p = k16; p < g.k; ++p)
        dot += static_cast<std::int32_t>(ar[p]) * bc[p];
      orow[c] += dot;
    }
  }
}

/// The MR×NR output tile at (i, j). Not inlined: GCC 12 inlines the tiles
/// into gemm_nt_i8_avx2, and there they ran up to 17% slower (16×512×64).
template <int MR, int NR>
__attribute__((target("avx2"), noinline)) void abt_tile_i8_avx2(
    const AbtI8& g, int i, int j) {
  const std::int8_t* a = g.a + static_cast<std::size_t>(i) * g.k;
  const std::int8_t* b = g.b + static_cast<std::size_t>(j) * g.k;
  // Accumulators in (row, column) order, padded with zeros to whole groups
  // of four for the reduction.
  constexpr int kAcc = (MR * NR + 3) / 4 * 4;
  __m256i acc[kAcc] = {};
  const int k16 = g.k / 16 * 16;
  for (int p = 0; p < k16; p += 16) {
    __m256i aw[MR];
    for (int r = 0; r < MR; ++r) aw[r] = widen16_i8(a + r * g.k + p);
    for (int c = 0; c < NR; ++c) {
      const __m256i bw = widen16_i8(b + c * g.k + p);
      for (int r = 0; r < MR; ++r)
        acc[r * NR + c] =
            _mm256_add_epi32(acc[r * NR + c], _mm256_madd_epi16(aw[r], bw));
    }
  }
  // One hadd tree per four outputs; an r×4 tile's four are one output row.
  for (int q = 0; q < kAcc; q += 4) {
    const __m128i s = hsum4_epi32(acc[q], acc[q + 1], acc[q + 2], acc[q + 3]);
    if constexpr (NR == 4) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(abt_out(g, i + q / 4, j)),
                       s);
    } else {
      alignas(16) std::int32_t sum[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(sum), s);
      for (int t = 0; t < 4 && q + t < MR * NR; ++t)
        abt_out(g, i + (q + t) / NR, j)[(q + t) % NR] = sum[t];
    }
  }
  if (k16 < g.k) abt_tail_i8(g, i, j, MR, NR, k16);
}

/// Rows [i, i + MR) of out, 1 ≤ MR ≤ 3: r×4 tiles, then single columns.
template <int MR>
__attribute__((target("avx2"))) void abt_rows_i8_avx2(const AbtI8& g, int i,
                                                      int n) {
  int j = 0;
  for (; j + 4 <= n; j += 4) abt_tile_i8_avx2<MR, 4>(g, i, j);
  for (; j < n; ++j) abt_tile_i8_avx2<MR, 1>(g, i, j);
}

__attribute__((target("avx2"))) void gemm_nt_i8_avx2(const MatI8& a,
                                                     const MatI8& b,
                                                     MatI32& out) {
  const AbtI8 g{a.data(), b.data(), out.data(),
                static_cast<std::size_t>(b.rows()), a.cols()};
  const int m = a.rows(), n = b.rows();
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    int j = 0;
    for (; j + 2 <= n; j += 2) abt_tile_i8_avx2<4, 2>(g, i, j);
    if (j < n) abt_tile_i8_avx2<4, 1>(g, i, j);
  }
  if (m - i == 1) abt_rows_i8_avx2<1>(g, i, n);
  if (m - i == 2) abt_rows_i8_avx2<2>(g, i, n);
  if (m - i == 3) abt_rows_i8_avx2<3>(g, i, n);
}

// --- AVX2 packed-B INT8 GEMM -----------------------------------------------
// out = seed ⊕ A·B over the k-pair column panels of tensor/pack.hpp, one
// block of MR ≤ 4 rows of A at a time. Per chunk of kPackedKChunk k, the
// block's A rows are widened to int16 into a stack buffer, an odd k's last
// pair padded with a zero, so that a row's k-pair (a[2q], a[2q+1]) is one
// int32 to broadcast. madd_epi16 of that broadcast against a panel's widened
// k-pair gives the pair's terms of the panel's eight output columns, so an
// accumulator holds eight consecutive outputs of one row. It is seeded with
// a vector load of the bias (or, on later chunks, of out itself) and stored
// straight back to the output row: no horizontal reduction and no scalar
// edge. A partial last panel loads and stores through a lane mask, and the
// pack's zero padding makes an odd k's last pair inert.
//
// A tile is MR rows × NP panels: 4×2 over full row blocks (8 accumulators,
// 2 widened panels and a broadcast: 11 of the 16 ymm registers), r×3 over
// the 1–3 remainder rows, whose fewer rows amortize a widened panel less;
// the column edge runs what is left of NP. The products are exact (|pair
// sum| ≤ 2·128² = 2¹⁵) and the sums are reordered integer additions, so the
// result equals the scalar loop's wherever that loop is defined: |Σ| ≤
// k·2¹⁴, and QuantizedLinear::build clamps each bias so that seed + Σ fits
// int32, partial sums included.

constexpr int kPanelCols = 8;               // columns per k-pair panel
constexpr int kPairElems = 2 * kPanelCols;  // elements per k-pair
constexpr int kChunkPairs = kPackedKChunk / 2;
static_assert(kPackedKChunk % 16 == 0, "a chunk is whole 16-wide widenings");

/// What every tile of one k-chunk of one row block shares.
struct PanelChunkI8 {
  const std::int32_t* a;     // widened A: row r's pairs at a + r·kChunkPairs
  const std::int8_t* b;      // panel 0 at the chunk's first pair
  std::size_t panel_stride;  // elements per panel
  int pairs;                 // k-pairs in the chunk
  const std::int32_t* seed;  // bias on the first chunk, or null for zero
  bool from_out;             // later chunks: seed from out
  std::int32_t* out;         // row 0 of the block
  std::size_t ldo;           // output row stride in elements
};

/// Widens the kc ≤ kPackedKChunk int8 values at a to ⌈kc/2⌉ int16 k-pairs
/// at w (32-byte aligned), an odd kc's last pair padded with a zero.
__attribute__((target("avx2"))) void widen_pairs_i8(const std::int8_t* a,
                                                    int kc, std::int32_t* w) {
  int x = 0;
  for (; x + 16 <= kc; x += 16)
    _mm256_store_si256(reinterpret_cast<__m256i*>(w + x / 2),
                       widen16_i8(a + x));
  if (x < kc) {
    alignas(16) std::int8_t tail[16] = {};
    std::memcpy(tail, a + x, static_cast<std::size_t>(kc - x));
    _mm256_store_si256(reinterpret_cast<__m256i*>(w + x / 2),
                       widen16_i8(tail));
  }
}

/// Eight int32 lanes at p: all of them, or with `masked` those under mask.
__attribute__((target("avx2"))) __m256i load_lanes(const std::int32_t* p,
                                                   bool masked,
                                                   __m256i mask) {
  return masked ? _mm256_maskload_epi32(p, mask)
                : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) void store_lanes(std::int32_t* p, bool masked,
                                                 __m256i mask, __m256i v) {
  if (masked) {
    _mm256_maskstore_epi32(p, mask, v);
  } else {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
}

/// The MR × 8·NP outputs of panels [pan, pan + NP); with kMaskLast the last
/// panel is partial and `mask` selects its columns.
template <int MR, int NP, bool kMaskLast>
__attribute__((target("avx2"))) void panel_tile_i8_avx2(const PanelChunkI8& g,
                                                        int pan,
                                                        __m256i mask) {
  // Copied out of g, which the output stores might alias as far as the
  // compiler can tell.
  const int j = pan * kPanelCols;
  std::int32_t* const out = g.out + j;
  const std::size_t ldo = g.ldo;
  __m256i acc[MR][NP];
#pragma GCC unroll 4
  for (int c = 0; c < NP; ++c) {
    const bool masked = kMaskLast && c == NP - 1;
    const int col = c * kPanelCols;
    if (g.from_out) {
#pragma GCC unroll 4
      for (int r = 0; r < MR; ++r)
        acc[r][c] = load_lanes(out + r * ldo + col, masked, mask);
    } else {
      const __m256i s = g.seed != nullptr
                            ? load_lanes(g.seed + j + col, masked, mask)
                            : _mm256_setzero_si256();
#pragma GCC unroll 4
      for (int r = 0; r < MR; ++r) acc[r][c] = s;
    }
  }
  const std::int8_t* b = g.b + static_cast<std::size_t>(pan) * g.panel_stride;
  for (int q = 0; q < g.pairs; ++q) {
    __m256i bw[NP];
#pragma GCC unroll 4
    for (int c = 0; c < NP; ++c)
      bw[c] = widen16_i8(b + c * g.panel_stride + q * kPairElems);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256i av = _mm256_set1_epi32(g.a[r * kChunkPairs + q]);
#pragma GCC unroll 4
      for (int c = 0; c < NP; ++c)
        acc[r][c] = _mm256_add_epi32(acc[r][c], _mm256_madd_epi16(av, bw[c]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 4
    for (int c = 0; c < NP; ++c)
      store_lanes(out + r * ldo + c * kPanelCols, kMaskLast && c == NP - 1,
                  mask, acc[r][c]);
}

/// The last `count` ≤ NP panels from `pan`, the last of them partial when
/// `partial`: one tile of that many panels.
template <int MR, int NP>
__attribute__((target("avx2"))) void panel_edge_i8_avx2(const PanelChunkI8& g,
                                                        int pan, int count,
                                                        bool partial,
                                                        __m256i mask) {
  if constexpr (NP > 0) {
    if (count < NP) {
      panel_edge_i8_avx2<MR, NP - 1>(g, pan, count, partial, mask);
    } else if (partial) {
      panel_tile_i8_avx2<MR, NP, true>(g, pan, mask);
    } else {
      panel_tile_i8_avx2<MR, NP, false>(g, pan, mask);
    }
  }
}

/// Rows [i, i + MR) of out = seed ⊕ A·B.
template <int MR>
__attribute__((target("avx2"))) void panel_rows_i8_avx2(
    const MatI8& a, int i, const PackedI8& bp, const std::int32_t* bias,
    MatI32& out) {
  constexpr int NP = MR == 4 ? 2 : 3;
  alignas(32) std::int32_t aw[MR * kChunkPairs];
  const int full = bp.n / kPanelCols;
  const int panels = (bp.n + kPanelCols - 1) / kPanelCols;
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(bp.n % kPanelCols),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  PanelChunkI8 g{.a = aw,
                 .b = nullptr,
                 .panel_stride = bp.panel_stride(),
                 .pairs = 0,
                 .seed = bias,
                 .from_out = false,
                 .out = out.row(i),
                 .ldo = static_cast<std::size_t>(bp.n)};
  // One pass per chunk; a k = 0 product is one empty pass that stores the
  // seed.
  for (int k0 = 0; k0 == 0 || k0 < bp.k; k0 += kPackedKChunk) {
    const int kc = std::min(kPackedKChunk, bp.k - k0);
    for (int r = 0; r < MR; ++r)
      widen_pairs_i8(a.row(i + r) + k0, kc, aw + r * kChunkPairs);
    g.b = bp.data.data() + static_cast<std::size_t>(k0 / 2) * kPairElems;
    g.pairs = (kc + 1) / 2;
    g.from_out = k0 > 0;
    int pan = 0;
    for (; pan + NP <= full; pan += NP)
      panel_tile_i8_avx2<MR, NP, false>(g, pan, mask);
    panel_edge_i8_avx2<MR, NP>(g, pan, panels - pan, panels > full, mask);
  }
}

__attribute__((target("avx2"))) void gemm_i8_packed_avx2(
    const MatI8& a, const PackedI8& bp, const std::int32_t* bias,
    MatI32& out) {
  if (bp.n == 0) return;
  const int m = a.rows();
  int i = 0;
  for (; i + 4 <= m; i += 4) panel_rows_i8_avx2<4>(a, i, bp, bias, out);
  if (m - i == 1) panel_rows_i8_avx2<1>(a, i, bp, bias, out);
  if (m - i == 2) panel_rows_i8_avx2<2>(a, i, bp, bias, out);
  if (m - i == 3) panel_rows_i8_avx2<3>(a, i, bp, bias, out);
}

#if TFACC_KERNELS_AMX

// --- AMX-INT8 packed-B GEMM ------------------------------------------------
// out = seed ⊕ A·B over the k-quad panels of tensor/pack.hpp, one block of
// up to 16 rows of A at a time. TDPBSSD adds to a 16-column int32 tile of C
// the products of an A tile (the block's rows, 64 k each) and a B tile of
// 16 rows of 64 bytes, row q holding B(4q..4q+3, c) for the panel's 16
// columns c: one 64-k block of a packed panel, just as it lies in memory.
// So the tiles play the paper's SA: a block of rows streams through a
// loaded weight block 64 deep, while four C tiles (tmm0–3) hold 64 output
// columns, the SA's width, down the whole of k. Per 64-k block the A tile
// (tmm4) is loaded once for the four panels, whose B tiles rotate through
// tmm5–7. The C tiles start from the bias by a stride-0 tile load (every
// row reads the same 16 values), or from zero.
//
// The tile configuration is per-thread state that Linux saves and restores
// with the thread. So a thread loads it only when its block row count
// changes, and keeps it (and the tiles) between calls: loading it and
// releasing the tiles on every call made serial one-row decode at d_model
// 64 15–20% slower than on the AVX2 table. GCC's intrinsics are inline
// asm that names its tile register literally, so tile numbers are spelled
// out, and that asm declares none of the memory a tile load reads: every
// buffer a tile load reads is filled before a compiler barrier. Without
// one, GCC 12 dropped the stores that fill the local configuration, and the
// first tile load faulted.
//
// ASan instruments no tile load or store, so no tile may reach past the
// end of A, the bias or out: each partial tile goes through a zeroed stack
// buffer instead. Those are A's k tail (k not a multiple of 64), and the
// last panel's bias and C tile (n not a multiple of 16). The row tail needs
// none, because a short last block is configured with its own row count.
// The pack's zero padding makes every B tile whole.
//
// The sums are exact: TDPBSSD multiplies signed int8 into int32 and adds
// modulo 2³², so it gives the scalar loop's integers wherever that loop is
// defined (|Σ| ≤ k·2¹⁴, and QuantizedLinear::build clamps each bias so that
// seed + Σ fits int32).

constexpr int kAmxRows = 16;                  // rows of A per block
constexpr int kAmxK = PackedI8::kQuadBlockK;  // k per tile: 64 bytes a row
constexpr int kAmxCols = 16;                  // columns of a panel and tile
constexpr int kAmxPanels = 4;                 // C tiles tmm0–3
constexpr std::size_t kAmxTileB = kAmxK * kAmxCols;  // bytes per B tile

/// A palette-1 tile configuration, as ldtilecfg reads it.
struct AmxConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(AmxConfig) == 64);

/// The block row count the calling thread's tiles are configured for, or 0.
thread_local int amx_configured_rows = 0;

/// Configures blocks of `rows` rows, unless the calling thread's tiles
/// already are: the C tiles tmm0–3 and the A tile tmm4 `rows` × 64 bytes,
/// the B tiles tmm5–7 16 × 64 bytes.
__attribute__((target("amx-tile"))) void amx_configure(int rows) {
  if (rows == amx_configured_rows) return;
  AmxConfig cfg;
  for (int t = 0; t < 8; ++t) {
    cfg.colsb[t] = 64;
    cfg.rows[t] = static_cast<std::uint8_t>(t < 5 ? rows : kAmxK / 4);
  }
  asm volatile("" : : "r"(&cfg) : "memory");  // keeps the stores above
  _tile_loadconfig(&cfg);
  amx_configured_rows = rows;
}

/// What every panel group of one row block shares.
struct AmxBlock {
  const std::int8_t* a;           // A(i0, 0); row r at a + r·lda
  std::size_t lda;
  const std::int8_t* a_tail;      // the block's k tail, zero-padded: 64 a row
  int kfull;                      // whole 64-k blocks in A's rows
  int kblocks;                    // 64-k blocks in the pack
  const std::int8_t* b;           // panel 0 of the pack
  std::size_t panel_stride;       // bytes per panel
  const std::int32_t* bias;       // or null for a zero seed
  const std::int32_t* bias_tail;  // the partial last panel's bias, padded
  std::int32_t* c_tail;           // the partial last panel's C tile
  std::int32_t* out;              // out(i0, 0)
  int n;                          // output columns
  int rows;                       // rows in the block
};

/// Panels [pan, pan + NP) of the block: seed NP C tiles, walk k, store.
template <int NP>
__attribute__((target("amx-tile,amx-int8"))) void amx_panels(
    const AmxBlock& g, int pan) {
  const int col0 = pan * kAmxCols;
  // Only the matrix's last panel can be partial, and then it is this
  // group's last.
  const int last_cols = std::min(kAmxCols, g.n - col0 - (NP - 1) * kAmxCols);
  const bool partial = last_cols < kAmxCols;
  const std::int32_t* seed[NP];
  std::int32_t* dst[NP];
  long ldc[NP];
  for (int j = 0; j < NP; ++j) {
    seed[j] = g.bias != nullptr ? g.bias + col0 + j * kAmxCols : nullptr;
    dst[j] = g.out + col0 + j * kAmxCols;
    ldc[j] = static_cast<long>(g.n) * 4;
  }
  if (partial) {
    seed[NP - 1] = g.bias_tail;
    dst[NP - 1] = g.c_tail;
    ldc[NP - 1] = kAmxCols * 4;
  }
  if (g.bias != nullptr) {
    _tile_loadd(0, seed[0], 0);
    if constexpr (NP > 1) _tile_loadd(1, seed[1], 0);
    if constexpr (NP > 2) _tile_loadd(2, seed[2], 0);
    if constexpr (NP > 3) _tile_loadd(3, seed[3], 0);
  } else {
    _tile_zero(0);
    if constexpr (NP > 1) _tile_zero(1);
    if constexpr (NP > 2) _tile_zero(2);
    if constexpr (NP > 3) _tile_zero(3);
  }
  const std::size_t ps = g.panel_stride;
  const std::int8_t* b = g.b + static_cast<std::size_t>(pan) * ps;
  for (int kb = 0; kb < g.kblocks; ++kb, b += kAmxTileB) {
    if (kb < g.kfull) {
      _tile_loadd(4, g.a + static_cast<std::size_t>(kb) * kAmxK, g.lda);
    } else {
      _tile_loadd(4, g.a_tail, kAmxK);
    }
    _tile_loadd(5, b, kAmxK);
    _tile_dpbssd(0, 4, 5);
    if constexpr (NP > 1) {
      _tile_loadd(6, b + ps, kAmxK);
      _tile_dpbssd(1, 4, 6);
    }
    if constexpr (NP > 2) {
      _tile_loadd(7, b + 2 * ps, kAmxK);
      _tile_dpbssd(2, 4, 7);
    }
    if constexpr (NP > 3) {
      _tile_loadd(5, b + 3 * ps, kAmxK);
      _tile_dpbssd(3, 4, 5);
    }
  }
  _tile_stored(0, dst[0], ldc[0]);
  if constexpr (NP > 1) _tile_stored(1, dst[1], ldc[1]);
  if constexpr (NP > 2) _tile_stored(2, dst[2], ldc[2]);
  if constexpr (NP > 3) _tile_stored(3, dst[3], ldc[3]);
  if (partial) {
    std::int32_t* o = g.out + col0 + (NP - 1) * kAmxCols;
    for (int r = 0; r < g.rows; ++r)
      std::memcpy(o + static_cast<std::size_t>(r) * g.n,
                  g.c_tail + r * kAmxCols,
                  static_cast<std::size_t>(last_cols) * 4);
  }
}

__attribute__((target("amx-tile,amx-int8"))) void gemm_i8_packed_amx(
    const MatI8& a, const PackedI8& bp, const std::int32_t* bias,
    MatI32& out) {
  const int m = a.rows(), k = bp.k, n = bp.n;
  if (m == 0 || n == 0) return;
  const int panels = (n + kAmxCols - 1) / kAmxCols;
  // The partial tiles' buffers, zeroed only where a partial tile exists:
  // no serve width has one, and a one-row call is short enough for 2 KB of
  // stores to show. Only their first `tail` bytes of a row (A) and `n % 16`
  // values (bias) are ever written, so the rest stays zero.
  alignas(64) std::int8_t a_tail[kAmxRows * kAmxK];
  alignas(64) std::int32_t bias_tail[kAmxCols];
  alignas(64) std::int32_t c_tail[kAmxRows * kAmxCols];
  if (k % kAmxK != 0) std::memset(a_tail, 0, sizeof a_tail);
  if (n % kAmxCols != 0) {
    std::memset(bias_tail, 0, sizeof bias_tail);
    std::memset(c_tail, 0, sizeof c_tail);
    if (bias != nullptr)
      std::memcpy(bias_tail, bias + (panels - 1) * kAmxCols,
                  static_cast<std::size_t>(n % kAmxCols) * 4);
  }
  AmxBlock g{.a = nullptr,
             .lda = static_cast<std::size_t>(k),
             .a_tail = a_tail,
             .kfull = k / kAmxK,
             .kblocks = (k + kAmxK - 1) / kAmxK,
             .b = bp.data.data(),
             .panel_stride = bp.panel_stride(),
             .bias = bias,
             .bias_tail = bias_tail,
             .c_tail = c_tail,
             .out = nullptr,
             .n = n,
             .rows = 0};
  for (int i0 = 0; i0 < m; i0 += kAmxRows) {
    const int rows = std::min(kAmxRows, m - i0);
    amx_configure(rows);
    g.a = a.row(i0);
    g.out = out.row(i0);
    g.rows = rows;
    if (g.kfull < g.kblocks) {
      const int tail = k - g.kfull * kAmxK;
      for (int r = 0; r < rows; ++r)
        std::memcpy(a_tail + r * kAmxK, a.row(i0 + r) + g.kfull * kAmxK,
                    static_cast<std::size_t>(tail));
    }
    asm volatile("" : : : "memory");  // the tails are filled
    int pan = 0;
    for (; pan + kAmxPanels <= panels; pan += kAmxPanels)
      amx_panels<kAmxPanels>(g, pan);
    if (panels - pan == 1) amx_panels<1>(g, pan);
    if (panels - pan == 2) amx_panels<2>(g, pan);
    if (panels - pan == 3) amx_panels<3>(g, pan);
  }
}

#endif  // TFACC_KERNELS_AMX

// --- AVX2 requantization ---------------------------------------------------
// Branchless reformulation of rounding_shift_right(v·m, s) for s ≥ 1:
//
//   round(p, s) = (p + bias + (p < 0 ? −1 : 0)) >>ₐ s,   bias = 2^(s−1)
//
// (for p < 0, −((−p + bias) >> s) = floor((p − bias + 2^s − 1)/2^s) and
// 2^s − 1 − bias = bias − 1). AVX2 has no 64-bit arithmetic shift, so it is
// emulated: x >>ₐ s = ((x + 2^62) >>ₗ s) − 2^(62−s), valid while x + 2^62
// stays in [0, 2^63). Here |p| = |v·m| < 2^31·2^15 = 2^46 and bias ≤ 2^47
// (the kernels hand any s outside 1 ≤ s ≤ 48 to the scalar loop), so
// |x| < 2^48. The products come from _mm256_mul_epi32 on the even/odd
// 32-bit lanes — it sign-extends the low dword of each 64-bit lane, which
// is exactly the int32 accumulator value.

/// The broadcast operands of one (mantissa, shift) requantization that
/// saturates to [lo, hi]; 1 ≤ shift ≤ 48.
struct RequantAvx2 {
  __m256i mvec, bias, offset, offset_shifted, lo, hi;
  __m128i count;
};

/// Clamps four int64 lanes to [lo, hi].
__attribute__((target("avx2"))) __m256i clamp_epi64(__m256i x, __m256i lo,
                                                    __m256i hi) {
  x = _mm256_blendv_epi8(x, hi, _mm256_cmpgt_epi64(x, hi));
  return _mm256_blendv_epi8(x, lo, _mm256_cmpgt_epi64(lo, x));
}

/// Round, emulated-arithmetic-shift, and clamp four int64 products.
__attribute__((target("avx2"))) __m256i requant_round_clamp_avx2(
    __m256i prod, const RequantAvx2& k) {
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), prod);
  __m256i x = _mm256_add_epi64(_mm256_add_epi64(prod, k.bias), neg);
  x = _mm256_sub_epi64(
      _mm256_srl_epi64(_mm256_add_epi64(x, k.offset), k.count),
      k.offset_shifted);
  return clamp_epi64(x, k.lo, k.hi);
}

__attribute__((target("avx2"))) RequantAvx2 requant_avx2(std::int32_t mantissa,
                                                        int shift,
                                                        std::int64_t lo,
                                                        std::int64_t hi) {
  return {_mm256_set1_epi64x(mantissa),
          _mm256_set1_epi64x(std::int64_t{1} << (shift - 1)),
          _mm256_set1_epi64x(std::int64_t{1} << 62),
          _mm256_set1_epi64x((std::int64_t{1} << 62) >> shift),
          _mm256_set1_epi64x(lo),
          _mm256_set1_epi64x(hi),
          _mm_cvtsi32_si128(shift)};
}

/// Eight int32 lanes in order from the int32 values of the even (dwords 0,
/// 2, 4, 6) and the odd (1, 3, 5, 7) lanes, each held sign-extended in an
/// int64 lane: the low dwords re-interleaved.
__attribute__((target("avx2"))) __m256i join_even_odd_avx2(__m256i even,
                                                           __m256i odd) {
  return _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0b10101010);
}

/// Eight int32 lanes → eight clamped int32 results in lane order: multiply
/// the even and odd dwords separately (mul_epi32 eats the low dword of each
/// 64-bit lane), round/clamp each half, then re-interleave the low dwords.
__attribute__((target("avx2"))) __m256i requant_8lanes_avx2(
    __m256i x, const RequantAvx2& k) {
  const __m256i pe = _mm256_mul_epi32(x, k.mvec);  // dwords 0,2,4,6
  const __m256i po = _mm256_mul_epi32(
      _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 1, 1)), k.mvec);  // 1,3,5,7
  return join_even_odd_avx2(requant_round_clamp_avx2(pe, k),
                            requant_round_clamp_avx2(po, k));
}

/// Stores eight int32 lanes, each within int8 range, to out[0, 8): byte 0
/// of each dword per 128-bit lane, then the two lanes' words joined.
__attribute__((target("avx2"))) void store_8lanes_i8_avx2(__m256i v,
                                                          std::int8_t* out) {
  const __m256i pick = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                   _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                       _mm256_shuffle_epi8(v, pick), join)));
}

/// Stores eight int32 lanes, each within int16 range, to out[0, 8).
__attribute__((target("avx2"))) void store_8lanes_i16_avx2(__m256i v,
                                                           std::int16_t* out) {
  const __m256i pick = _mm256_setr_epi8(
      0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i join = _mm256_setr_epi32(0, 1, 4, 5, 0, 0, 0, 0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                       _mm256_shuffle_epi8(v, pick), join)));
}

__attribute__((target("avx2"))) void requantize_i8_avx2(const MatI32& acc,
                                                        std::int32_t mantissa,
                                                        int shift,
                                                        MatI8& out) {
  if (shift < 1 || shift > 48) {
    requantize_scalar(acc, mantissa, shift, out);
    return;
  }
  const RequantAvx2 k = requant_avx2(mantissa, shift, -128, 127);
  const int n = acc.cols();
  for (int r = 0; r < acc.rows(); ++r) {
    const std::int32_t* in = acc.row(r);
    std::int8_t* o = out.row(r);
    int c = 0;
    for (; c + 8 <= n; c += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + c));
      store_8lanes_i8_avx2(requant_8lanes_avx2(v, k), o + c);
    }
    for (; c < n; ++c)
      o[c] = saturate_i8(rounding_shift_right(
          static_cast<std::int64_t>(in[c]) * mantissa, shift));
  }
}

__attribute__((target("avx2"))) void requantize_i16_avx2(const MatI32& acc,
                                                         std::int32_t mantissa,
                                                         int shift,
                                                         MatI16& out) {
  if (shift < 1 || shift > 48) {
    requantize_scalar(acc, mantissa, shift, out);
    return;
  }
  const RequantAvx2 k = requant_avx2(mantissa, shift, -32768, 32767);
  const int n = acc.cols();
  for (int r = 0; r < acc.rows(); ++r) {
    const std::int32_t* in = acc.row(r);
    std::int16_t* o = out.row(r);
    int c = 0;
    for (; c + 8 <= n; c += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + c));
      store_8lanes_i16_avx2(requant_8lanes_avx2(v, k), o + c);
    }
    for (; c < n; ++c)
      o[c] = saturate_i16(rounding_shift_right(
          static_cast<std::int64_t>(in[c]) * mantissa, shift));
  }
}

// --- AVX2 INT8 boundary kernels --------------------------------------------
// Both are elementwise and run over a matrix as one contiguous row.
//
// The residual requantizer sign-extends eight int8 lanes to int32 and runs
// them through the INT32 requantizer's lanes: |v·mantissa| ≤ 2⁷·2³¹ = 2³⁸
// for any int32 mantissa, inside the emulated shift's envelope.
//
// The hook quantizer divides exactly as the scalar loop does, q = x / scale,
// then rounds half away from zero without llround: t = trunc(q) and
// f = q − t are exact in float (f is q itself below 1, and above it
// q/2 < t ≤ q, so Sterbenz's lemma applies), so r = t + [f ≥ ½] − [f ≤ −½]
// is llround(q) wherever that is defined; past 2²³ every float is an integer,
// f = 0 and r = t. Clamping r to [−128, 127] equals the scalar clamp before
// rounding: rounding is monotone and keeps the integer bounds. ±inf have
// f = NaN, take no step and clamp to the bounds; NaN lanes are zeroed.

__attribute__((target("avx2"))) __m256i quantize_8lanes_avx2(const float* x,
                                                             __m256 scale) {
  const __m256 q = _mm256_div_ps(_mm256_loadu_ps(x), scale);
  const __m256 t = _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 f = _mm256_sub_ps(q, t);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 up = _mm256_and_ps(
      _mm256_cmp_ps(f, _mm256_set1_ps(0.5f), _CMP_GE_OQ), one);
  const __m256 down = _mm256_and_ps(
      _mm256_cmp_ps(f, _mm256_set1_ps(-0.5f), _CMP_LE_OQ), one);
  __m256 r = _mm256_sub_ps(_mm256_add_ps(t, up), down);
  r = _mm256_min_ps(_mm256_max_ps(r, _mm256_set1_ps(-128.0f)),
                    _mm256_set1_ps(127.0f));
  r = _mm256_and_ps(r, _mm256_cmp_ps(q, q, _CMP_ORD_Q));  // NaN → 0
  return _mm256_cvttps_epi32(r);
}

__attribute__((target("avx2"))) void quantize_i8_avx2(const float* in,
                                                      std::size_t n,
                                                      float scale,
                                                      std::int8_t* o) {
  const __m256 s = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store_8lanes_i8_avx2(quantize_8lanes_avx2(in + i, s), o + i);
  for (; i < n; ++i) o[i] = saturate_round<std::int8_t>(in[i] / scale);
}

__attribute__((target("avx2"))) void requantize_i8_to_i16_avx2(
    const MatI8& m, std::int32_t mantissa, int shift, MatI16& out) {
  if (shift < 1 || shift > 48) {
    requantize_i8_to_i16_scalar(m, mantissa, shift, out);
    return;
  }
  const RequantAvx2 k = requant_avx2(mantissa, shift, -32768, 32767);
  const std::int8_t* in = m.data();
  std::int16_t* o = out.data();
  const std::size_t n = m.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(in + i)));
    store_8lanes_i16_avx2(requant_8lanes_avx2(v, k), o + i);
  }
  const FixedPointScale s{mantissa, shift};
  for (; i < n; ++i) o[i] = s.apply_i16(in[i]);
}

// --- AVX2 LayerNorm row kernels --------------------------------------------
// Stats: 8 int16 lanes per iteration; squares via pmulld on sign-extended
// int32 (≤ 2¹⁵·2¹⁵ = 2³⁰, exact — pmaddwd would wrap on a (−32768)² pair),
// both reductions widened to four int64 lane accumulators, so any n is exact.
// Finish: 8 lanes per step. t = n·g − sum is computed in int32 lanes, which
// hold it for n ≤ 2¹⁴ (|t| ≤ 2n·2¹⁵ ≤ 2³⁰). As in the requantizer, the even
// and the odd dwords then run as four int64 lanes each (mul_epi32 on the low
// dwords is exact) through both rounding shifts' branchless reformulation,
// take βq sign-extended and the int8 clamp, and the eight results are
// stored as bytes in one go. The intermediate clamp bounds are a no-op by
// Cauchy–Schwarz: Σtⱼ² = n·V gives |norm| ≤ √n·2¹³ < 2²¹, hence
// |norm·γq| < 2⁵² — inside the emulated arithmetic shift's valid range.

__attribute__((target("avx2"))) void layernorm_stats_avx2(const std::int16_t* g,
                                                          int n,
                                                          std::int64_t* sum,
                                                          std::int64_t* sumsq) {
  __m256i sacc = _mm256_setzero_si256();
  __m256i qacc = _mm256_setzero_si256();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(g + j));
    const __m256i v32 = _mm256_cvtepi16_epi32(raw);
    const __m256i sq32 = _mm256_mullo_epi32(v32, v32);
    sacc = _mm256_add_epi64(
        sacc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v32)));
    sacc = _mm256_add_epi64(
        sacc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v32, 1)));
    qacc = _mm256_add_epi64(
        qacc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sq32)));
    qacc = _mm256_add_epi64(
        qacc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(sq32, 1)));
  }
  alignas(32) std::int64_t ls[4];
  alignas(32) std::int64_t lq[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(ls), sacc);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lq), qacc);
  std::int64_t s = (ls[0] + ls[1]) + (ls[2] + ls[3]);
  std::int64_t q = (lq[0] + lq[1]) + (lq[2] + lq[3]);
  for (; j < n; ++j) {
    s += g[j];
    q += static_cast<std::int64_t>(g[j]) * g[j];
  }
  *sum = s;
  *sumsq = q;
}

/// Four lanes of the finish loop, from t = n·g − sum, γq and βq in the low
/// dword of each int64 lane.
__attribute__((target("avx2"))) __m256i layernorm_finish_4lanes_avx2(
    __m256i t, __m256i gq, __m256i bq, const RequantAvx2& norm,
    const RequantAvx2& gamma, __m256i i8lo, __m256i i8hi) {
  const __m256i nv = requant_round_clamp_avx2(_mm256_mul_epi32(t, norm.mvec),
                                              norm);
  const __m256i scaled =
      requant_round_clamp_avx2(_mm256_mul_epi32(nv, gq), gamma);
  // mul_epi32 by one sign-extends βq's low dword.
  const __m256i bq64 = _mm256_mul_epi32(bq, _mm256_set1_epi64x(1));
  return clamp_epi64(_mm256_add_epi64(scaled, bq64), i8lo, i8hi);
}

__attribute__((target("avx2"))) void layernorm_finish_avx2(
    const std::int16_t* g, int n, std::int64_t sum, std::int32_t rs_mantissa,
    int norm_shift, int gamma_shift, const std::int32_t* gq,
    const std::int32_t* bq, std::int8_t* out) {
  // t = n·g − sum must fit the int32 lanes (n ≤ 2¹⁴ bounds |t| ≤ 2³⁰)
  // and both emulated arithmetic shifts need 1 ≤ s ≤ 48 (see requantize).
  if (n > 16384 || norm_shift < 1 || norm_shift > 48 || gamma_shift < 1 ||
      gamma_shift > 48) {
    layernorm_finish_scalar(g, n, sum, rs_mantissa, norm_shift, gamma_shift,
                            gq, bq, out);
    return;
  }
  const __m256i nvec = _mm256_set1_epi32(n);
  // Modular: the int32 lanes of t are its low dwords whatever sum is.
  const __m256i sumv = _mm256_set1_epi32(static_cast<std::int32_t>(sum));
  constexpr std::int64_t kWide = std::int64_t{1} << 40;
  const RequantAvx2 norm = requant_avx2(rs_mantissa, norm_shift, -kWide, kWide);
  // The γ stage's mantissas are the per-lane γq; its mvec goes unused.
  const RequantAvx2 gamma = requant_avx2(0, gamma_shift, -kWide, kWide);
  const __m256i i8lo = _mm256_set1_epi64x(-128);
  const __m256i i8hi = _mm256_set1_epi64x(127);
  constexpr int kOdd = _MM_SHUFFLE(3, 3, 1, 1);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i g32 = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(g + j)));
    const __m256i t = _mm256_sub_epi32(_mm256_mullo_epi32(g32, nvec), sumv);
    const __m256i gqv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gq + j));
    const __m256i bqv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq + j));
    const __m256i even = layernorm_finish_4lanes_avx2(t, gqv, bqv, norm,
                                                      gamma, i8lo, i8hi);
    const __m256i odd = layernorm_finish_4lanes_avx2(
        _mm256_shuffle_epi32(t, kOdd), _mm256_shuffle_epi32(gqv, kOdd),
        _mm256_shuffle_epi32(bqv, kOdd), norm, gamma, i8lo, i8hi);
    store_8lanes_i8_avx2(join_even_odd_avx2(even, odd), out + j);
  }
  for (; j < n; ++j) {
    const std::int64_t t = static_cast<std::int64_t>(n) * g[j] - sum;
    const std::int64_t nv = rounding_shift_right(t * rs_mantissa, norm_shift);
    const std::int64_t scaled = rounding_shift_right(nv * gq[j], gamma_shift);
    out[j] = saturate_i8(scaled + bq[j]);
  }
}

#endif  // TFACC_KERNELS_X86

// hot-path: region end

// ---------------------------------------------------------------------------
// Dispatch: one table of entry points per implementation (the
// functor-per-device pattern), chosen in one place, table(). The int16 GEMMs
// and the f32 A·Bᵀ run the scalar loop on every host and sit in no table:
// nothing outside the tests runs an int16 GEMM, and the f32 reduction must
// keep one accumulator in ascending-p order to stay bit-identical.
// ---------------------------------------------------------------------------

struct KernelTable {
  // The B layout pack_b_i8 builds for this table, and the only one its
  // fast packed GEMM takes (the scalar one reads either).
  PackLayout layout;
  void (*gemm_f32)(const MatF&, const MatF&, MatF&);
  void (*gemm_i8)(const MatI8&, const MatI8&, MatI32&);
  void (*gemm_nt_i8)(const MatI8&, const MatI8&, MatI32&);
  void (*gemm_i8_packed)(const MatI8&, const PackedI8&, const std::int32_t*,
                         MatI32&);
  void (*requantize_i8)(const MatI32&, std::int32_t, int, MatI8&);
  void (*requantize_i16)(const MatI32&, std::int32_t, int, MatI16&);
  void (*quantize_i8)(const float*, std::size_t, float, std::int8_t*);
  void (*requantize_i8_to_i16)(const MatI8&, std::int32_t, int, MatI16&);
  void (*layernorm_stats)(const std::int16_t*, int, std::int64_t*,
                          std::int64_t*);
  void (*layernorm_finish)(const std::int16_t*, int, std::int64_t,
                           std::int32_t, int, int, const std::int32_t*,
                           const std::int32_t*, std::int8_t*);
};

constexpr KernelTable kScalarTable = {
    .layout = PackLayout::kPairs,
    .gemm_f32 = gemm_scalar<float, float>,
    .gemm_i8 = gemm_scalar<std::int8_t, std::int32_t>,
    .gemm_nt_i8 = gemm_nt_scalar<std::int8_t, std::int32_t>,
    .gemm_i8_packed = gemm_packed_scalar<std::int8_t, std::int32_t>,
    .requantize_i8 = requantize_scalar<std::int8_t>,
    .requantize_i16 = requantize_scalar<std::int16_t>,
    .quantize_i8 = quantize_i8_scalar,
    .requantize_i8_to_i16 = requantize_i8_to_i16_scalar,
    .layernorm_stats = layernorm_stats_scalar,
    .layernorm_finish = layernorm_finish_scalar,
};

#if TFACC_KERNELS_X86
constexpr KernelTable kAvx2Table = {
    .layout = PackLayout::kPairs,
    .gemm_f32 = gemm_f32_avx2,
    .gemm_i8 = gemm_i8_avx2,
    .gemm_nt_i8 = gemm_nt_i8_avx2,
    .gemm_i8_packed = gemm_i8_packed_avx2,
    .requantize_i8 = requantize_i8_avx2,
    .requantize_i16 = requantize_i16_avx2,
    .quantize_i8 = quantize_i8_avx2,
    .requantize_i8_to_i16 = requantize_i8_to_i16_avx2,
    .layernorm_stats = layernorm_stats_avx2,
    .layernorm_finish = layernorm_finish_avx2,
};
#endif

#if TFACC_KERNELS_AMX
/// The AVX2 table with the packed GEMM on AMX tiles, over k-quad packs.
constexpr KernelTable amx_table(KernelTable t) {
  t.layout = PackLayout::kQuads;
  t.gemm_i8_packed = gemm_i8_packed_amx;
  return t;
}
constexpr KernelTable kAmxTable = amx_table(kAvx2Table);
#endif

/// The one choice of table: a kind runs its own table where the host has
/// its unit, and otherwise the next one down (kAmx → kSimd → kScalar).
const KernelTable& table() {
#if TFACC_KERNELS_X86
  switch (selected()) {
    case Kind::kAmx:
#if TFACC_KERNELS_AMX
      if (amx_available()) return kAmxTable;
#endif
      [[fallthrough]];
    case Kind::kSimd:
      if (simd_available()) return kAvx2Table;
      break;
    case Kind::kScalar:
      break;
  }
#endif
  return kScalarTable;
}

/// The selected table, where its packed GEMM reads bp's layout.
const KernelTable& packed_table(const PackedI8& bp) {
  const KernelTable& t = table();
  TFACC_CHECK_ARG_MSG(&t == &kScalarTable || bp.layout == t.layout,
                      "a " << pack_layout_name(bp.layout)
                           << " pack handed to a table that reads "
                           << pack_layout_name(t.layout)
                           << " packs: pack under the kind that runs it");
  return t;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kScalar:
      return "scalar";
    case Kind::kSimd:
      return "simd";
    case Kind::kAmx:
      return "amx";
  }
  return "?";
}

bool parse_kind(const char* spec, Kind* out) {
  if (spec == nullptr || out == nullptr) return false;
  const std::string_view s(spec);
  if (s == "scalar") {
    *out = Kind::kScalar;
  } else if (s == "simd") {
    *out = Kind::kSimd;
  } else if (s == "amx") {
    *out = Kind::kAmx;
  } else {
    return false;
  }
  return true;
}

Kind selected() { return kind_slot().load(kRelaxedDispatchOrder); }

void set_kind(Kind kind) {
  kind_slot().store(kind, kRelaxedDispatchOrder);
}

Kind refresh_from_env() {
  const Kind kind = kind_from_env_or_default();
  set_kind(kind);
  return kind;
}

bool simd_available() {
#if TFACC_KERNELS_X86
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

bool amx_available() {
#if TFACC_KERNELS_AMX
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!simd_available() ||
        __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
      return false;
    constexpr unsigned kAmxTile = 1U << 24, kAmxInt8 = 1U << 25;  // EDX
    if ((edx & kAmxTile) == 0 || (edx & kAmxInt8) == 0) return false;
    // Linux grants the tile state only on request, once for the process.
    constexpr int kReqXcompPerm = 0x1023;  // ARCH_REQ_XCOMP_PERM
    constexpr int kXtileData = 18;         // XFEATURE_XTILEDATA
    return syscall(SYS_arch_prctl, kReqXcompPerm, kXtileData) == 0;
  }();
  return has;
#else
  return false;
#endif
}

PackLayout packed_layout() { return table().layout; }

const char* capability() { return simd_available() ? "avx2" : "generic"; }

// --- Entry points ----------------------------------------------------------

void gemm_f32_into(const MatF& a, const MatF& b, MatF& out) {
  TFACC_CHECK_ARG(a.cols() == b.rows());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.cols());
  table().gemm_f32(a, b, out);
}

void gemm_i8_into(const MatI8& a, const MatI8& b, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == b.rows());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.cols());
  table().gemm_i8(a, b, out);
}

void gemm_i16_into(const MatI16& a, const MatI16& b, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == b.rows());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.cols());
  gemm_scalar(a, b, out);
}

void gemm_nt_f32_into(const MatF& a, const MatF& b, MatF& out) {
  TFACC_CHECK_ARG(a.cols() == b.cols());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.rows());
  gemm_nt_scalar(a, b, out);
}

void gemm_nt_i8_into(const MatI8& a, const MatI8& b, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == b.cols());
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == b.rows());
  table().gemm_nt_i8(a, b, out);
}

void gemm_i8_packed_into(const MatI8& a, const PackedI8& bp, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == bp.k);
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == bp.n);
  packed_table(bp).gemm_i8_packed(a, bp, nullptr, out);
}

void gemm_i8_packed_bias_into(const MatI8& a, const PackedI8& bp,
                              const std::vector<std::int32_t>& bias,
                              MatI32& out) {
  TFACC_CHECK_ARG(static_cast<int>(bias.size()) == bp.n);
  TFACC_CHECK_ARG(a.cols() == bp.k);
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == bp.n);
  packed_table(bp).gemm_i8_packed(a, bp, bias.data(), out);
}

void gemm_i16_packed_into(const MatI16& a, const PackedI16& bp, MatI32& out) {
  TFACC_CHECK_ARG(a.cols() == bp.k);
  TFACC_CHECK_ARG(out.rows() == a.rows() && out.cols() == bp.n);
  gemm_packed_scalar(a, bp, nullptr, out);
}

void requantize_i8_into(const MatI32& acc, std::int32_t mantissa, int shift,
                        MatI8& out) {
  TFACC_CHECK_ARG(out.rows() == acc.rows() && out.cols() == acc.cols());
  table().requantize_i8(acc, mantissa, shift, out);
}

void requantize_i16_into(const MatI32& acc, std::int32_t mantissa, int shift,
                         MatI16& out) {
  TFACC_CHECK_ARG(out.rows() == acc.rows() && out.cols() == acc.cols());
  table().requantize_i16(acc, mantissa, shift, out);
}

void quantize_i8_into(const MatF& x, float scale, MatI8& out) {
  TFACC_CHECK_ARG(out.rows() == x.rows() && out.cols() == x.cols());
  table().quantize_i8(x.data(), x.size(), scale, out.data());
}

void quantize_i8_span(const float* x, std::size_t n, float scale,
                      std::int8_t* out) {
  table().quantize_i8(x, n, scale, out);
}

void requantize_i8_to_i16_into(const MatI8& m, std::int32_t mantissa,
                               int shift, MatI16& out) {
  TFACC_CHECK_ARG(out.rows() == m.rows() && out.cols() == m.cols());
  table().requantize_i8_to_i16(m, mantissa, shift, out);
}

void layernorm_stats(const std::int16_t* g, int n, std::int64_t* sum,
                     std::int64_t* sumsq) {
  TFACC_CHECK_ARG(n >= 0);
  table().layernorm_stats(g, n, sum, sumsq);
}

void layernorm_finish_into(const std::int16_t* g, int n, std::int64_t sum,
                           std::int32_t rs_mantissa, int norm_shift,
                           int gamma_shift, const std::int32_t* gq,
                           const std::int32_t* bq, std::int8_t* out) {
  TFACC_CHECK_ARG(n >= 0);
  table().layernorm_finish(g, n, sum, rs_mantissa, norm_shift, gamma_shift,
                           gq, bq, out);
}

}  // namespace tfacc::kernels
