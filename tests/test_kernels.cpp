// Kernel suite: the SIMD and AMX GEMM dispatch must be bit-identical to the
// scalar reference on every shape (ragged tails, 1×1, empty edges), both
// packed-B layouts must round-trip and stay cache-line aligned, each fast
// table must refuse the other's layout, the TFACC_KERNEL knob must
// parse/refresh correctly, and — the tentpole invariant — a warm packed
// decode step must perform ZERO heap allocations on all three backends
// (enforced with a global operator-new counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fixed_point.hpp"
#include "common/random.hpp"
#include "core/backend.hpp"
#include "hwarith/softmax_unit.hpp"
#include "quant/qtransformer.hpp"
#include "reference/transformer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"

// --- Global allocation counter ----------------------------------------------
// Counts every route into the heap (plain, nothrow, aligned, array). The
// zero-allocation tests reset it, run a warm step, and require no growth.
// Definitions live at global scope; all other state stays in tfacc::.

namespace {
std::atomic<long> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded ? padded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tfacc {
namespace {

/// RAII kernel-kind override: restores the previous selection on scope exit
/// so test order never leaks a kind into another test.
class KindGuard {
 public:
  explicit KindGuard(kernels::Kind kind) : saved_(kernels::selected()) {
    kernels::set_kind(kind);
  }
  ~KindGuard() { kernels::set_kind(saved_); }
  KindGuard(const KindGuard&) = delete;
  KindGuard& operator=(const KindGuard&) = delete;

 private:
  kernels::Kind saved_;
};

struct Shape {
  int m, k, n;
};

// Ragged tails (non-multiples of every vector width), singletons, and empty
// edges. k = 0 must yield an all-zero (bias-only) accumulator.
const Shape kShapes[] = {
    {1, 1, 1},  {1, 7, 1},   {5, 1, 3},   {3, 5, 7},    {4, 64, 64},
    {2, 66, 3}, {17, 33, 65}, {8, 127, 31}, {0, 4, 4},   {4, 0, 4},
    {4, 4, 0},  {1, 256, 16}, {9, 100, 100},
};

/// kShapes plus a seeded batch of random shapes, so bit-identity holds over
/// randomized inputs and not just the hand-picked points.
std::vector<Shape> shapes_with_random(int count) {
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  Rng rng(2026);
  for (int i = 0; i < count; ++i)
    shapes.push_back({rng.uniform_int(0, 20), rng.uniform_int(0, 300),
                      rng.uniform_int(0, 300)});
  return shapes;
}

MatI8 rand_i8(int r, int c, Rng& rng) {
  MatI8 m(r, c);
  fill_uniform_i8(m, rng);
  return m;
}

MatI16 rand_i16(int r, int c, Rng& rng) {
  MatI16 m(r, c);
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j)
      m(i, j) = static_cast<std::int16_t>(rng.uniform_int(-1000, 1000));
  return m;
}

MatF rand_f32(int r, int c, Rng& rng) {
  MatF m(r, c);
  fill_uniform(m, rng, -1.0f, 1.0f);
  return m;
}

/// What expect_same compares: a float's bit pattern, so that a ±0 or
/// NaN-payload difference between the kernel tables fails; other types as
/// they are.
template <typename T>
auto bit_pattern(T v) {
  if constexpr (std::is_same_v<T, float>)
    return std::bit_cast<std::uint32_t>(v);
  else
    return v;
}

template <typename T>
void expect_same(const Matrix<T>& got, const Matrix<T>& want,
                 const char* what, const Shape& s) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < got.rows(); ++r)
    for (int c = 0; c < got.cols(); ++c)
      ASSERT_EQ(bit_pattern(got(r, c)), bit_pattern(want(r, c)))
          << what << " (" << s.m << 'x' << s.k << 'x' << s.n << ") at (" << r
          << ',' << c << "): " << got(r, c) << " vs " << want(r, c)
          << " under kernel " << kernels::kind_name(kernels::selected());
}

/// A test under one kernel kind. An amx case skips where the host has no
/// AMX: kAmx runs the simd table there, which the simd case covers.
class KindTest : public ::testing::TestWithParam<kernels::Kind> {
 protected:
  void SetUp() override {
    if (GetParam() == kernels::Kind::kAmx && !kernels::amx_available())
      GTEST_SKIP() << "no AMX-INT8 tiles on this host (or the OS refused "
                      "the tile state): amx runs the simd table here";
  }
};

/// The kinds every kind-parameterized suite runs under, named by kind.
const auto kAllKinds = ::testing::Values(
    kernels::Kind::kScalar, kernels::Kind::kSimd, kernels::Kind::kAmx);
std::string kind_param_name(
    const ::testing::TestParamInfo<kernels::Kind>& info) {
  return kernels::kind_name(info.param);
}

// --- Cross-kind bit-identity over the shape grid ----------------------------

class KernelEquivalence : public KindTest {};

TEST_P(KernelEquivalence, MatchesScalarBitExact) {
  Rng rng(1234);
  for (const Shape& s : shapes_with_random(24)) {
    const MatI8 a8 = rand_i8(s.m, s.k, rng);
    const MatI8 b8 = rand_i8(s.k, s.n, rng);
    const MatI16 a16 = rand_i16(s.m, s.k, rng);
    const MatI16 b16 = rand_i16(s.k, s.n, rng);
    const MatF af = rand_f32(s.m, s.k, rng);
    const MatF bf = rand_f32(s.k, s.n, rng);
    const MatF bt = rand_f32(s.n, s.k, rng);  // for A·Bᵀ
    const MatI8 b8t = rand_i8(s.n, s.k, rng);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(s.n));
    for (auto& v : bias)
      v = rng.uniform_int(-100000, 100000);

    MatI32 want_i8(s.m, s.n), want_i16(s.m, s.n), want_nt_i8(s.m, s.n);
    MatF want_f(s.m, s.n);
    {
      KindGuard g(kernels::Kind::kScalar);
      kernels::gemm_i8_into(a8, b8, want_i8);
      kernels::gemm_i16_into(a16, b16, want_i16);
      kernels::gemm_f32_into(af, bf, want_f);
      kernels::gemm_nt_i8_into(a8, b8t, want_nt_i8);
    }

    KindGuard g(GetParam());
    MatI32 got_i32(s.m, s.n);
    kernels::gemm_i8_into(a8, b8, got_i32);
    expect_same(got_i32, want_i8, "gemm_i8", s);
    kernels::gemm_i16_into(a16, b16, got_i32);
    expect_same(got_i32, want_i16, "gemm_i16", s);
    MatF got_f(s.m, s.n);
    kernels::gemm_f32_into(af, bf, got_f);
    expect_same(got_f, want_f, "gemm_f32", s);
    // The f32 A·Bᵀ against A·B of the transpose under the same kind: both
    // sum each element in ascending p from +0, a multiply then an add.
    MatF want_nt_f(s.m, s.n);
    kernels::gemm_f32_into(af, transpose(bt), want_nt_f);
    kernels::gemm_nt_f32_into(af, bt, got_f);
    expect_same(got_f, want_nt_f, "gemm_nt_f32", s);
    kernels::gemm_nt_i8_into(a8, b8t, got_i32);
    expect_same(got_i32, want_nt_i8, "gemm_nt_i8", s);

    // Packed-B forms against the dense reference results.
    const PackedI8 p8 = pack_b_i8(b8);
    kernels::gemm_i8_packed_into(a8, p8, got_i32);
    expect_same(got_i32, want_i8, "gemm_i8_packed", s);
    const PackedI16 p16 = pack_b_i16(b16);
    kernels::gemm_i16_packed_into(a16, p16, got_i32);
    expect_same(got_i32, want_i16, "gemm_i16_packed", s);

    // Fused bias: exactly add_bias_i32(gemm_i8(a, b), bias).
    const MatI32 want_bias = add_bias_i32(want_i8, bias);
    kernels::gemm_i8_packed_bias_into(a8, p8, bias, got_i32);
    expect_same(got_i32, want_bias, "gemm_i8_packed_bias", s);
  }
}

// Sums of signed zeros: a row of A that is all −0 against positive B gives
// −0 products only, so the output's sign shows how a kernel seeds its
// accumulator (+0 in the scalar table). n = 19 crosses the 8-wide AVX2 step
// and its scalar tail.
TEST_P(KernelEquivalence, F32SignedZerosMatchScalarBitExact) {
  const Shape s{3, 9, 19};
  Rng rng(77);
  MatF a = rand_f32(s.m, s.k, rng);
  MatF b(s.k, s.n);
  fill_uniform(b, rng, 0.5f, 1.0f);
  for (int p = 0; p < s.k; ++p) {
    a(0, p) = -0.0f;
    a(1, p) = p % 2 == 0 ? -0.0f : 0.0f;
    b(p, 3) = -0.0f;  // a column of −0 against every row
  }
  MatF want(s.m, s.n);
  {
    KindGuard g(kernels::Kind::kScalar);
    kernels::gemm_f32_into(a, b, want);
  }
  KindGuard g(GetParam());
  MatF got(s.m, s.n);
  kernels::gemm_f32_into(a, b, got);
  expect_same(got, want, "gemm_f32", s);
}

// --- The f32 GEMM kernel's tile edges ---------------------------------------
// The AVX2 kernel runs blocks of 4 rows and a 1–3-row remainder block, walks
// k in groups of 8, and sweeps each group over tiles of two 8-wide vectors
// (three on the remainder rows), fewer at the n edge, the last one masked
// when n is not a multiple of 8. The grid crosses every one of those edges,
// with the scalar table as the oracle, compared bit for bit.

TEST_P(KernelEquivalence, F32TileEdgesMatchScalar) {
  const int ms[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17};
  const int ks[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 513};
  const int ns[] = {1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 33, 47, 48, 49};
  Rng rng(4242);
  const auto check = [](const MatF& a, const MatF& b, const Shape& s) {
    MatF want(s.m, s.n);
    {
      KindGuard g(kernels::Kind::kScalar);
      kernels::gemm_f32_into(a, b, want);
    }
    // A reused output (the logits of every decode step) holds old values:
    // the kernel must overwrite, never accumulate into, what it finds.
    MatF got(s.m, s.n);
    got.fill(std::numeric_limits<float>::quiet_NaN());
    kernels::gemm_f32_into(a, b, got);
    expect_same(got, want, "gemm_f32", s);
    return want;
  };
  KindGuard g(GetParam());
  for (const int m : ms)
    for (const int k : ks)
      for (const int n : ns) {
        const Shape s{m, k, n};
        check(rand_f32(m, k, rng), rand_f32(k, n, rng), s);
        if (::testing::Test::HasFatalFailure()) return;
      }

  // Signed zeros across row blocks, k-groups and the masked edge: rows of
  // all −0 and of alternating ±0, a column of −0, so that each output's
  // sign shows how its accumulator was seeded and summed.
  const Shape z{7, 17, 27};
  MatF a = rand_f32(z.m, z.k, rng);
  MatF b(z.k, z.n);
  fill_uniform(b, rng, 0.5f, 1.0f);
  for (int p = 0; p < z.k; ++p) {
    a(0, p) = -0.0f;
    a(5, p) = p % 2 == 0 ? -0.0f : 0.0f;
    b(p, 3) = -0.0f;
    b(p, 25) = -0.0f;
  }
  check(a, b, z);

  // ±inf and NaN operands. inf·0 and inf − inf make the default NaN; a NaN
  // operand's payload and sign pass through every product and sum. Which
  // of two different NaNs an add returns is the compiler's choice of
  // operand order in the scalar loop, so no output meets two: a payload
  // NaN sits in rows 2 and 3 of A and column 17 of B, and the infs that
  // make default NaNs in rows 0, 1, 4 and columns 5, 6, 12 never reach an
  // output before that output holds the payload NaN.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::bit_cast<float>(0x7fc0'0001u);
  const Shape e{6, 11, 19};
  a = rand_f32(e.m, e.k, rng);
  b = rand_f32(e.k, e.n, rng);
  a(0, 2) = kInf;
  a(1, 4) = -kInf;
  a(1, 9) = kInf;
  a(2, 0) = nan;
  a(3, 7) = nan;
  a(4, 10) = -kInf;
  b(2, 5) = 0.0f;
  b(4, 6) = kInf;
  b(9, 6) = kInf;
  b(0, 17) = nan;
  b(7, 17) = nan;
  b(10, 12) = -kInf;
  const MatF out = check(a, b, e);
  // The case reaches what it is about.
  EXPECT_TRUE(std::isinf(out(0, 0)));
  EXPECT_TRUE(std::isnan(out(0, 5)));  // inf·0
  EXPECT_TRUE(std::isnan(out(1, 6)));  // −inf + inf
  EXPECT_EQ(std::bit_cast<std::uint32_t>(out(2, 0)), 0x7fc0'0001u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(out(3, 17)), 0x7fc0'0001u);
}

// --- The int8 GEMM kernels' tile edges --------------------------------------
// The A·Bᵀ microkernel behind gemm_nt_i8 runs 4×2 tiles over full 4-row
// blocks, r×4 tiles over the 1–3 remainder rows, single columns at the n
// edge, and a scalar loop over the k tail past the 16-wide steps. The AVX2
// packed kernel runs 4-row blocks and 1–3-row remainder blocks, tiles of
// two panels (three on the remainder rows) and fewer at the n edge, a
// masked partial last panel, an odd k's zero-padded last pair, and a new
// pass per chunk of kernels::kPackedKChunk k. The AMX packed kernel runs
// 16-row blocks and a shorter last one, groups of four 16-column panels and
// fewer at the n edge, a partial last panel, and 64-k tiles with a partial
// k tail. The grid crosses every one of those edges, with the scalar table
// as the oracle, each kind over a pack built in its own layout.

TEST_P(KernelEquivalence, AbtTileEdgesMatchScalar) {
  constexpr int kChunk = kernels::kPackedKChunk;
  Rng rng(1717);
  for (const int m : {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33})
    for (const int n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 25, 33, 63,
                        64, 65})
      for (const int k : {0, 1, 3, 4, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127,
                          128, 129, kChunk - 1, kChunk, kChunk + 1, 2048}) {
        const Shape s{m, k, n};
        const MatI8 a = rand_i8(m, k, rng);
        const MatI8 bt = rand_i8(n, k, rng);  // Bᵀ, the A·Bᵀ operand
        const MatI8 b = transpose(bt);
        std::vector<std::int32_t> bias(static_cast<std::size_t>(n));
        for (auto& v : bias) v = rng.uniform_int(-100000, 100000);

        MatI32 want_nt(m, n), want_packed(m, n), want_bias(m, n);
        {
          KindGuard g(kernels::Kind::kScalar);
          const PackedI8 bp = pack_b_i8(b);
          kernels::gemm_nt_i8_into(a, bt, want_nt);
          kernels::gemm_i8_packed_into(a, bp, want_packed);
          kernels::gemm_i8_packed_bias_into(a, bp, bias, want_bias);
        }
        KindGuard g(GetParam());
        const PackedI8 bp = pack_b_i8(b);
        MatI32 got(m, n);
        kernels::gemm_nt_i8_into(a, bt, got);
        expect_same(got, want_nt, "gemm_nt_i8", s);
        kernels::gemm_i8_packed_into(a, bp, got);
        expect_same(got, want_packed, "gemm_i8_packed", s);
        kernels::gemm_i8_packed_bias_into(a, bp, bias, got);
        expect_same(got, want_bias, "gemm_i8_packed_bias", s);
      }
}

/// A rows×cols matrix of −128; with `alternate`, 127 wherever c + phase is
/// even.
MatI8 extreme_i8(int rows, int cols, bool alternate, int phase) {
  MatI8 m(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      m(r, c) = static_cast<std::int8_t>(
          alternate && (c + phase) % 2 == 0 ? 127 : -128);
  return m;
}

TEST_P(KernelEquivalence, AbtExtremeOperandsAreExact) {
  // k = 2048 all-(−128) operands: 2048·128² = 33,554,432 per element, the
  // largest dot product any 2048-wide int8 layer can produce.
  constexpr int kK = 2048;
  constexpr std::int32_t kBound = 2113929215;  // 2³¹ − 1 − 2048·2¹⁴
  static_assert(QuantizedLinear::bias_bound(kK) == kBound);
  static_assert(kBound + 33554432 == std::numeric_limits<std::int32_t>::max());
  struct Case {
    const char* what;
    bool a_alt, b_alt;
    int b_phase;
    std::int32_t dot;  // the exact value of every output element
  };
  const Case cases[] = {
      {"all -128", false, false, 0, 33554432},
      {"A 127/-128, B -128", true, false, 0, 1024 * (127 * -128 + 128 * 128)},
      {"A, B 127/-128 in phase", true, true, 0, 1024 * (127 * 127 + 128 * 128)},
      {"A, B 127/-128 out of phase", true, true, 1, 1024 * (2 * 127 * -128)},
  };
  // Every pair sum of the all-(−128) case is exactly 2¹⁵. m crosses the
  // A·Bᵀ kernel's 4×2, 4×1, r×4 and r×1 tiles and the AVX2 packed kernel's
  // 4-row and remainder blocks; n = 5 is one partial panel, n = 17 two full
  // k-pair panels and a partial one (one full k-quad panel and a partial
  // one). Each kind packs in its own layout.
  for (const int m : {1, 5, 7})
    for (const int n : {5, 17}) {
      const Shape s{m, kK, n};
      for (const Case& c : cases) {
        const MatI8 a = extreme_i8(m, kK, c.a_alt, 0);
        const MatI8 bt = extreme_i8(n, kK, c.b_alt, c.b_phase);
        const MatI8 b = transpose(bt);
        // A bias at the clamp bound QuantizedLinear::build enforces: with
        // the largest dot it lands exactly on INT32_MAX (resp. near
        // INT32_MIN).
        const std::int32_t seed = c.dot > 0 ? kBound : -kBound;
        const std::vector<std::int32_t> bias(static_cast<std::size_t>(n),
                                             seed);
        MatI32 want(m, n), want_bias(m, n);
        want.fill(c.dot);
        want_bias.fill(seed + c.dot);
        for (const kernels::Kind kind :
             {kernels::Kind::kScalar, GetParam()}) {
          KindGuard g(kind);
          const PackedI8 bp = pack_b_i8(b);
          MatI32 got(m, n);
          kernels::gemm_nt_i8_into(a, bt, got);
          expect_same(got, want, c.what, s);
          kernels::gemm_i8_packed_into(a, bp, got);
          expect_same(got, want, c.what, s);
          kernels::gemm_i8_packed_bias_into(a, bp, bias, got);
          expect_same(got, want_bias, c.what, s);
        }
      }
    }
}

TEST_P(KernelEquivalence, RequantizeMatchesFixedPointScale) {
  Rng rng(4321);
  KindGuard g(GetParam());
  // Shifts sweep the AVX2 fast path (1..48), its fallbacks on either side
  // (shift 0, and 49, the first shift past the gate), and the saturating
  // regime (small shifts push values far past ±127 / ±32767).
  for (const int shift : {0, 1, 2, 7, 15, 20, 31, 48, 49, 50}) {
    const FixedPointScale s{/*mantissa=*/rng.uniform_int(1 << 14,
                                                         (1 << 15) - 1),
                            shift};
    for (const int rows : {1, 3, 16}) {
      for (const int cols : {1, 7, 8, 64, 100}) {
        MatI32 acc(rows, cols);
        for (int r = 0; r < rows; ++r)
          for (int c = 0; c < cols; ++c)
            acc(r, c) = rng.uniform_int(std::numeric_limits<int>::min() / 2,
                                        std::numeric_limits<int>::max() / 2);
        // Pin the extremes onto the first row.
        acc(0, 0) = std::numeric_limits<std::int32_t>::max();
        if (cols > 1) acc(0, 1) = std::numeric_limits<std::int32_t>::min();

        MatI8 got8(rows, cols);
        kernels::requantize_i8_into(acc, s.mantissa, s.shift, got8);
        MatI16 got16(rows, cols);
        kernels::requantize_i16_into(acc, s.mantissa, s.shift, got16);
        for (int r = 0; r < rows; ++r)
          for (int c = 0; c < cols; ++c) {
            ASSERT_EQ(got8(r, c), s.apply_i8(acc(r, c)))
                << "requantize_i8 shift=" << shift << " at (" << r << ','
                << c << ") under kernel "
                << kernels::kind_name(kernels::selected());
            ASSERT_EQ(got16(r, c), s.apply_i16(acc(r, c)))
                << "requantize_i16 shift=" << shift << " at (" << r << ','
                << c << ") under kernel "
                << kernels::kind_name(kernels::selected());
          }
      }
    }
  }
}

// --- LayerNorm row kernels (PR 9) -------------------------------------------
// The dispatched stats/finish loops must be bit-identical to scalar over the
// serve datapath's envelope: ragged n (vector tails), constant rows (zero
// variance — t = n·g − sum vanishes), extreme INT16 values, and every
// norm/gamma shift class the AVX2 path accepts, plus the fallback edges
// (n > 16384, shifts outside [1, 48] including left shifts) where dispatch
// must detour to the scalar loop.

struct LayerNormCase {
  int norm_shift, gamma_shift;
  int max_mant;  // keeps |norm| inside the AVX2 path's proven envelope
  int max_n;
};

void expect_layernorm_rows_match(const std::vector<LayerNormCase>& cases,
                                 const std::vector<int>& sizes,
                                 kernels::Kind kind, int16_t g_lo,
                                 int16_t g_hi) {
  Rng rng(5150);
  for (const int n : sizes) {
    // Three row flavors: random, constant (v == 0), alternating extremes.
    for (int flavor = 0; flavor < 3; ++flavor) {
      std::vector<std::int16_t> g(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        if (flavor == 0)
          g[static_cast<std::size_t>(j)] =
              static_cast<std::int16_t>(rng.uniform_int(g_lo, g_hi));
        else if (flavor == 1)
          g[static_cast<std::size_t>(j)] = 7;
        else
          g[static_cast<std::size_t>(j)] = static_cast<std::int16_t>(
              j % 2 == 0 ? g_hi : (j % 4 == 1 ? g_lo : 0));
      }
      std::int64_t want_sum = 0, want_sumsq = 0;
      {
        KindGuard guard(kernels::Kind::kScalar);
        kernels::layernorm_stats(g.data(), n, &want_sum, &want_sumsq);
      }
      std::int64_t got_sum = 0, got_sumsq = 0;
      {
        KindGuard guard(kind);
        kernels::layernorm_stats(g.data(), n, &got_sum, &got_sumsq);
      }
      EXPECT_EQ(got_sum, want_sum)
          << "layernorm_stats sum, n=" << n << " flavor=" << flavor
          << " under " << kernels::kind_name(kind);
      EXPECT_EQ(got_sumsq, want_sumsq)
          << "layernorm_stats sumsq, n=" << n << " flavor=" << flavor
          << " under " << kernels::kind_name(kind);

      for (const LayerNormCase& c : cases) {
        if (n > c.max_n) continue;
        const std::int32_t mant = rng.uniform_int(1, c.max_mant);
        std::vector<std::int32_t> gq(static_cast<std::size_t>(n));
        std::vector<std::int32_t> bq(static_cast<std::size_t>(n));
        for (int j = 0; j < n; ++j) {
          gq[static_cast<std::size_t>(j)] =
              rng.uniform_int(-(1 << 20), 1 << 20);
          bq[static_cast<std::size_t>(j)] = rng.uniform_int(-100000, 100000);
        }
        std::vector<std::int8_t> want(static_cast<std::size_t>(n));
        std::vector<std::int8_t> got(static_cast<std::size_t>(n));
        {
          KindGuard guard(kernels::Kind::kScalar);
          kernels::layernorm_finish_into(g.data(), n, want_sum, mant,
                                         c.norm_shift, c.gamma_shift,
                                         gq.data(), bq.data(), want.data());
        }
        {
          KindGuard guard(kind);
          kernels::layernorm_finish_into(g.data(), n, want_sum, mant,
                                         c.norm_shift, c.gamma_shift,
                                         gq.data(), bq.data(), got.data());
        }
        EXPECT_EQ(got, want)
            << "layernorm_finish, n=" << n << " flavor=" << flavor
            << " norm_shift=" << c.norm_shift
            << " gamma_shift=" << c.gamma_shift << " under "
            << kernels::kind_name(kind);
      }
    }
  }
}

TEST_P(KernelEquivalence, LayerNormRowsMatchScalarBitExact) {
  // AVX2-eligible shift classes. max_mant bounds |t·mant| >> norm_shift so
  // the intermediate norm stays within the int32 range the vector gamma
  // stage multiplies from — the envelope the real datapath guarantees.
  const std::vector<LayerNormCase> cases = {
      {1, 7, 16, 64},          {14, 1, 32767, 16384},
      {20, 7, 32767, 16384},   {33, 48, 32767, 16384},
      {48, 20, 32767, 16384},
  };
  expect_layernorm_rows_match(cases, {1, 3, 7, 8, 15, 64, 100, 1023, 16384},
                              GetParam(), -32768, 32767);
}

TEST_P(KernelEquivalence, LayerNormFinishFallbackEdges) {
  // Outside the AVX2 gate the SIMD kind must detour to the scalar loop:
  // n > 16384, shift 0, left shifts (norm_shift < 0), and shifts > 48.
  // Magnitudes are kept small so the left-shifted intermediates stay exact.
  const std::vector<LayerNormCase> big_n = {{20, 7, 1000, 1 << 20}};
  expect_layernorm_rows_match(big_n, {16385, 16390}, GetParam(), -1000, 1000);
  const std::vector<LayerNormCase> edge_shifts = {
      {0, 7, 1000, 100},  {-2, 7, 1000, 100},  {49, 7, 1000, 100},
      {20, 0, 1000, 100}, {20, 49, 1000, 100},
  };
  expect_layernorm_rows_match(edge_shifts, {1, 5, 40, 100}, GetParam(),
                              -1000, 1000);
}

// --- The INT8 boundary of a ResBlock ----------------------------------------
// The hook quantizer, the INT8 → INT16 residual requantizer and the INT32
// accumulator ReLU run at every MHA/FFN sublayer boundary. Each kind is
// checked against an oracle that shares none of the kernels' arithmetic; the
// quantizer is checked against the scalar table too.

/// x / scale rounded half away from zero by std::round (not llround),
/// saturated to int8; NaN → 0.
int quantize_oracle(float x, float scale) {
  const float q = x / scale;
  if (std::isnan(q)) return 0;
  return static_cast<int>(std::clamp(std::round(q), -128.0f, 127.0f));
}

/// The quantizer grid at scale s: zeros, ties and the float just below ½,
/// the saturation edges, denormals, ±FLT_MAX, ±inf, NaN and ±2⁶³·s, then
/// seeded random values spread past the int8 range and seeded exact ties.
std::vector<float> quantizer_values(float s, Rng& rng) {
  using lim = std::numeric_limits<float>;
  const float below_half = std::nextafter(0.5f, 0.0f);
  std::vector<float> v = {lim::quiet_NaN()};
  for (const float m : {0.5f, 1.5f, 2.5f, below_half, 126.5f, 127.5f})
    v.insert(v.end(), {m * s, -m * s});
  for (const float m : {128.5f, 0x1p63f})
    v.insert(v.end(), {m * s, -m * s});
  for (const float x : {0.0f, lim::denorm_min(), lim::min() / 4, lim::max()})
    v.insert(v.end(), {x, -x});
  v.insert(v.end(), {lim::infinity(), -lim::infinity()});
  for (int i = 0; i < 40; ++i) {
    v.push_back(static_cast<float>(rng.uniform(-300.0, 300.0)) * s);
    v.push_back((static_cast<float>(rng.uniform_int(-140, 140)) + 0.5f) * s);
  }
  return v;
}

TEST_P(KernelEquivalence, QuantizeI8RoundsHalfAwayFromZero) {
  Rng rng(6502);
  for (const float s : {1.0f, 0.25f, 0.0123f, 3.1e-5f, 7.5f}) {
    const std::vector<float> values = quantizer_values(s, rng);
    // Widths 1–40 cross every vector tail; successive widths start the
    // value list at different offsets, so each value meets many lanes.
    for (int width = 1; width <= 40; ++width) {
      MatF x(3, width);
      for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = values[(static_cast<std::size_t>(width) * 7 + i) %
                             values.size()];
      MatI8 want(3, width);
      {
        KindGuard g(kernels::Kind::kScalar);
        kernels::quantize_i8_into(x, s, want);
      }
      KindGuard g(GetParam());
      MatI8 got(3, width);
      kernels::quantize_i8_into(x, s, got);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float v = x.data()[i];
        ASSERT_EQ(int{got.data()[i]}, int{want.data()[i]})
            << "quantize_i8 of " << v << " at scale " << s << ", width "
            << width << " under kernel "
            << kernels::kind_name(kernels::selected());
        ASSERT_EQ(int{got.data()[i]}, quantize_oracle(v, s))
            << "quantize_i8 of " << v << " at scale " << s << ", width "
            << width << " under kernel "
            << kernels::kind_name(kernels::selected());
      }
    }
  }
}

TEST_P(KernelEquivalence, RequantizeI8ToI16MatchesFixedPointScale) {
  KindGuard g(GetParam());
  // All 256 int8 values in 7×37 = 259 elements (32 vector steps and a
  // 3-element tail), and the extremes in an all-tail 1×5 row.
  MatI8 all(7, 37);
  for (std::size_t i = 0; i < all.size(); ++i)
    all.data()[i] = static_cast<std::int8_t>(static_cast<int>(i % 256) - 128);
  const MatI8 edges{{-128, -1, 0, 1, 127}};
  Rng rng(2187);
  const std::int32_t mantissas[] = {0, 1, 1 << 14, (1 << 15) - 1, -12345,
                                    rng.uniform_int(1 << 14, (1 << 15) - 1),
                                    std::numeric_limits<std::int32_t>::max()};
  // Every shift from_double can produce: the AVX2 path's 1..48, and the
  // scalar detour on both sides of it (shift 0 and left shifts, 49..62).
  for (const std::int32_t mantissa : mantissas)
    for (int shift = FixedPointScale::kMinShift;
         shift <= FixedPointScale::kMaxShift; ++shift) {
      const FixedPointScale s{mantissa, shift};
      for (const MatI8* m : {&std::as_const(all), &edges}) {
        MatI16 got(m->rows(), m->cols());
        kernels::requantize_i8_to_i16_into(*m, mantissa, shift, got);
        for (std::size_t i = 0; i < m->size(); ++i)
          ASSERT_EQ(got.data()[i], s.apply_i16(m->data()[i]))
              << "requantize_i8_to_i16 of " << int{m->data()[i]}
              << ", mantissa " << mantissa << " shift " << shift
              << " under kernel " << kernels::kind_name(kernels::selected());
      }
    }
}

TEST_P(KernelEquivalence, ReluI32ClampsInPlace) {
  KindGuard g(GetParam());
  // A mixed-sign 37-wide row: whole vectors and a tail, with the int32
  // extremes at both ends.
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  Rng rng(1618);
  MatI32 acc(1, 37);
  for (std::size_t i = 0; i < acc.size(); ++i)
    acc.data()[i] = rng.uniform_int(-1000, 1000);
  const std::int32_t edges[] = {kMin, -1, 0, 1, kMax};
  for (std::size_t e = 0; e < std::size(edges); ++e) {
    acc.data()[e] = edges[e];
    acc.data()[acc.size() - 1 - e] = edges[e];
  }
  const MatI32 before = acc;
  const std::int32_t* buffer = acc.data();
  const MatI32 got = relu_i32(std::move(acc));
  EXPECT_EQ(got.data(), buffer) << "relu_i32 copied its argument";
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got.data()[i], std::max(before.data()[i], 0))
        << "relu_i32 at " << i;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, KernelEquivalence, kAllKinds,
                         kind_param_name);

// --- Softmax row model (PR 9) -----------------------------------------------
// The batched AVX2 row path inside SoftmaxUnit::row dispatches off the same
// kernel knob; both fast selections must produce bit-identical INT8
// probability rows, including the gates that force the scalar stages:
// n < 8, a fully masked row, and an unmasked spread wider than int32.

TEST(SoftmaxRowDispatch, RowsMatchScalarBitExact) {
  Rng rng(2718);
  for (const double d_scale : {0.02, 1e-4}) {
    const hw::SoftmaxUnit unit(d_scale);
    for (const int n : {1, 5, 8, 24, 33, 100}) {
      for (int flavor = 0; flavor < 4; ++flavor) {
        std::vector<std::int32_t> d(static_cast<std::size_t>(n));
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(n), 0);
        for (int j = 0; j < n; ++j)
          d[static_cast<std::size_t>(j)] = rng.uniform_int(-200000, 200000);
        if (flavor == 1)
          for (int j = 0; j < n; ++j)
            mask[static_cast<std::size_t>(j)] =
                static_cast<std::uint8_t>(rng.uniform_int(0, 1));
        if (flavor == 2)  // fully masked: all-zero outputs on every path
          for (int j = 0; j < n; ++j) mask[static_cast<std::size_t>(j)] = 1;
        if (flavor == 3) {  // int32-overflow spread: AVX2 bails to scalar
          d[0] = std::numeric_limits<std::int32_t>::max() - 7;
          d[static_cast<std::size_t>(n - 1)] =
              std::numeric_limits<std::int32_t>::min() + 7;
        }
        std::vector<std::int8_t> want(static_cast<std::size_t>(n));
        {
          KindGuard g(kernels::Kind::kScalar);
          unit.row(d.data(), mask.data(), n, want.data());
        }
        for (const kernels::Kind kind :
             {kernels::Kind::kSimd, kernels::Kind::kAmx}) {
          std::vector<std::int8_t> got(static_cast<std::size_t>(n));
          KindGuard g(kind);
          unit.row(d.data(), mask.data(), n, got.data());
          EXPECT_EQ(got, want)
              << "softmax row, d_scale=" << d_scale << " n=" << n
              << " flavor=" << flavor << " under " << kernels::kind_name(kind);
        }
      }
    }
  }
}

// --- Packed layouts ---------------------------------------------------------
// The k-pair layout stores B (k×n) as ⌈n/8⌉ column panels of ⌈k/2⌉ k-pairs,
// and k-pair q of panel p as B(2q, 8p + c), B(2q + 1, 8p + c) for c = 0..7;
// the k-quad layout as ⌈n/16⌉ panels of ⌈k/64⌉·16 k-quads, and k-quad q of
// panel p as B(4q, 16p + c), …, B(4q + 3, 16p + c) for c = 0..15. Both are
// zero past k or n. The checks walk the storage itself, so they pin the
// layouts the AVX2 and AMX kernels read, not only the accessor. kShapes has
// partial last panels (n = 1, 3, 7, 31, 65, 100) and k off every group
// (1, 5, 7, 33, 66, 100, 127).

template <typename T>
void expect_panel_layout(const PackedB<T>& p, const Matrix<T>& b) {
  const std::size_t panels = (static_cast<std::size_t>(b.cols()) + 7) / 8;
  const std::size_t pair_run = (static_cast<std::size_t>(b.rows()) + 1) / 2;
  const std::size_t panel_elems = pair_run * 16;
  ASSERT_EQ(p.data.size(), panels * panel_elems);
  for (std::size_t e = 0; e < p.data.size(); ++e) {
    const std::size_t within = e % panel_elems;
    const int r = static_cast<int>(2 * (within / 16) + within % 2);
    const int c = static_cast<int>(8 * (e / panel_elems) + within % 16 / 2);
    const bool inside = r < b.rows() && c < b.cols();
    ASSERT_EQ(p.data[e], inside ? b(r, c) : T{0})
        << "element " << e << " holds B(" << r << ',' << c << ") of "
        << b.rows() << 'x' << b.cols() << (inside ? "" : ", padding");
  }
}

/// The k-quad twin of expect_panel_layout.
void expect_quad_layout(const PackedI8& p, const MatI8& b) {
  const std::size_t panels = (static_cast<std::size_t>(b.cols()) + 15) / 16;
  const std::size_t quad_run =
      (static_cast<std::size_t>(b.rows()) + 63) / 64 * 16;
  const std::size_t panel_elems = quad_run * 64;
  ASSERT_EQ(p.data.size(), panels * panel_elems);
  for (std::size_t e = 0; e < p.data.size(); ++e) {
    const std::size_t within = e % panel_elems;
    const int r = static_cast<int>(4 * (within / 64) + within % 4);
    const int c = static_cast<int>(16 * (e / panel_elems) + within % 64 / 4);
    const bool inside = r < b.rows() && c < b.cols();
    ASSERT_EQ(p.data[e], inside ? b(r, c) : std::int8_t{0})
        << "element " << e << " holds B(" << r << ',' << c << ") of "
        << b.rows() << 'x' << b.cols() << (inside ? "" : ", padding");
  }
}

TEST(PackB, RoundTripsAndPadsWithZeros) {
  Rng rng(7);
  for (const Shape& s : kShapes) {
    const MatI8 b8 = rand_i8(s.k, s.n, rng);
    const PackedI8 p8 = pack_b_i8(b8, PackLayout::kPairs);
    EXPECT_EQ(p8.k, s.k);
    EXPECT_EQ(p8.n, s.n);
    EXPECT_EQ(p8.layout, PackLayout::kPairs);
    EXPECT_EQ(unpack_b_i8(p8), b8);
    expect_panel_layout(p8, b8);

    const PackedI8 q8 = pack_b_i8(b8, PackLayout::kQuads);
    EXPECT_EQ(q8.k, s.k);
    EXPECT_EQ(q8.n, s.n);
    EXPECT_EQ(q8.layout, PackLayout::kQuads);
    EXPECT_EQ(unpack_b_i8(q8), b8);
    expect_quad_layout(q8, b8);

    const MatI16 b16 = rand_i16(s.k, s.n, rng);
    const PackedI16 p16 = pack_b_i16(b16);
    EXPECT_EQ(p16.k, s.k);
    EXPECT_EQ(p16.n, s.n);
    EXPECT_EQ(unpack_b_i16(p16), b16);
    expect_panel_layout(p16, b16);
  }
}

TEST(PackB, RowsAreCacheLineAligned) {
  // The pack's block starts on a cache line; panels are whole groups, so no
  // k-pair (16 bytes of int8, 32 of int16) or k-quad row (64 bytes)
  // straddles one.
  Rng rng(8);
  const MatI8 b8 = rand_i8(101, 23, rng);
  const PackedI8 p8 = pack_b_i8(b8, PackLayout::kPairs);
  const PackedI8 q8 = pack_b_i8(b8, PackLayout::kQuads);
  const PackedI16 p16 = pack_b_i16(rand_i16(101, 23, rng));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8.data.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q8.data.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p16.data.data()) % 64, 0u);
}

// Each fast table reads only its own layout and refuses the other's; the
// scalar table reads both. pack_b_i8 packs in the selected table's.
TEST(PackB, FastTablesRefuseTheOtherLayout) {
  Rng rng(9);
  const MatI8 a = rand_i8(5, 70, rng);
  const MatI8 b = rand_i8(70, 19, rng);
  const std::vector<std::int32_t> bias(19, 3);
  const PackedI8 pairs = pack_b_i8(b, PackLayout::kPairs);
  const PackedI8 quads = pack_b_i8(b, PackLayout::kQuads);
  MatI32 want(5, 19), got(5, 19);
  {
    KindGuard g(kernels::Kind::kScalar);
    EXPECT_EQ(kernels::packed_layout(), PackLayout::kPairs);
    kernels::gemm_i8_packed_into(a, pairs, want);
    kernels::gemm_i8_packed_into(a, quads, got);
    EXPECT_EQ(got, want) << "the scalar table read the k-quad pack";
  }
  if (!kernels::simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  {
    KindGuard g(kernels::Kind::kSimd);
    EXPECT_EQ(kernels::packed_layout(), PackLayout::kPairs);
    EXPECT_THROW(kernels::gemm_i8_packed_into(a, quads, got), CheckError);
    EXPECT_THROW(kernels::gemm_i8_packed_bias_into(a, quads, bias, got),
                 CheckError);
  }
  if (!kernels::amx_available()) GTEST_SKIP() << "no AMX-INT8 on this host";
  {
    KindGuard g(kernels::Kind::kAmx);
    EXPECT_EQ(kernels::packed_layout(), PackLayout::kQuads);
    EXPECT_EQ(pack_b_i8(b).layout, PackLayout::kQuads);
    EXPECT_THROW(kernels::gemm_i8_packed_into(a, pairs, got), CheckError);
    EXPECT_THROW(kernels::gemm_i8_packed_bias_into(a, pairs, bias, got),
                 CheckError);
    kernels::gemm_i8_packed_into(a, quads, got);
    EXPECT_EQ(got, want);
  }
}

// --- Dispatch knob ----------------------------------------------------------

TEST(KernelDispatch, ParsesKnownKindsOnly) {
  kernels::Kind k{};
  EXPECT_TRUE(kernels::parse_kind("scalar", &k));
  EXPECT_EQ(k, kernels::Kind::kScalar);
  EXPECT_TRUE(kernels::parse_kind("simd", &k));
  EXPECT_EQ(k, kernels::Kind::kSimd);
  EXPECT_TRUE(kernels::parse_kind("amx", &k));
  EXPECT_EQ(k, kernels::Kind::kAmx);
  EXPECT_FALSE(kernels::parse_kind("blocked", &k));
  EXPECT_FALSE(kernels::parse_kind("avx512", &k));
  EXPECT_FALSE(kernels::parse_kind("", &k));
}

TEST(KernelDispatch, SetKindOverridesSelection) {
  KindGuard g(kernels::Kind::kSimd);
  EXPECT_EQ(kernels::selected(), kernels::Kind::kSimd);
  kernels::set_kind(kernels::Kind::kScalar);
  EXPECT_EQ(kernels::selected(), kernels::Kind::kScalar);
}

TEST(KernelDispatch, RefreshFromEnvReadsTheKnob) {
  const kernels::Kind saved = kernels::selected();
  ASSERT_EQ(setenv("TFACC_KERNEL", "scalar", 1), 0);
  EXPECT_EQ(kernels::refresh_from_env(), kernels::Kind::kScalar);
  EXPECT_EQ(kernels::selected(), kernels::Kind::kScalar);
  ASSERT_EQ(setenv("TFACC_KERNEL", "warp-drive", 1), 0);
  EXPECT_THROW(kernels::refresh_from_env(), CheckError);
  ASSERT_EQ(setenv("TFACC_KERNEL", "blocked", 1), 0);  // retired kind
  EXPECT_THROW(kernels::refresh_from_env(), CheckError);
  ASSERT_EQ(setenv("TFACC_KERNEL", "amx", 1), 0);
  EXPECT_EQ(kernels::refresh_from_env(), kernels::Kind::kAmx);
  ASSERT_EQ(unsetenv("TFACC_KERNEL"), 0);
  // The default is the best table the host offers.
  EXPECT_EQ(kernels::refresh_from_env(), kernels::amx_available()
                                             ? kernels::Kind::kAmx
                                             : kernels::Kind::kSimd);
  kernels::set_kind(saved);
}

TEST(KernelDispatch, CapabilityNamesAreStable) {
  const std::string cap = kernels::capability();
  EXPECT_TRUE(cap == "avx2" || cap == "generic");
  EXPECT_EQ(kernels::simd_available(), cap == "avx2");
}

// --- Zero allocations per warm packed step ----------------------------------

ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "kernels-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 2;
  return cfg;
}

constexpr int kSlots = 4;
// The pool and every scratch buffer are warm after the KV-cache capacity
// doublings at steps 1,2,3,5,9; the next is at step 17, and per-slot score
// rows stay within the smallest pool class through step 16. So measure
// steps 11..16: a correct hot path does zero heap allocations there.
constexpr int kWarmSteps = 10;
constexpr int kMeasuredSteps = 6;

/// Drives kWarmSteps + kMeasuredSteps packed steps over kSlots ragged
/// hypotheses and returns the operator-new count of the measured steps.
/// `bracket` wraps each decode_step_batch call (the fuser hooks for the
/// accelerator backend); the counter only covers the step call itself.
template <typename Fn>
long measure_step_allocs(Transformer& model, const Fn& bracket) {
  const std::vector<TokenSeq> srcs = {{3, 4, 5}, {6, 7}, {8, 9, 10, 3}, {4}};
  std::vector<MatF> memories;
  std::vector<DecodeState> states_store;
  for (const TokenSeq& src : srcs) {
    memories.push_back(model.encode(src));
    states_store.push_back(
        model.begin_decode(memories.back(), static_cast<int>(src.size())));
  }
  std::vector<DecodeState*> states;
  for (auto& s : states_store) states.push_back(&s);
  std::vector<int> tokens(kSlots, kBosId);

  MatF logits;
  long measured = 0;
  for (int step = 0; step < kWarmSteps + kMeasuredSteps; ++step) {
    // Count only the step call itself: the fuser begin/end bracketing around
    // it schedules the simulated-time ledger and may allocate freely.
    bracket([&] {
      const long before = g_heap_allocs.load(std::memory_order_relaxed);
      model.decode_step_batch(states, tokens, logits);
      const long after = g_heap_allocs.load(std::memory_order_relaxed);
      if (step >= kWarmSteps) measured += after - before;
    });
    for (int i = 0; i < kSlots; ++i) {
      // Cycle deterministic non-EOS tokens so every slot stays live.
      tokens[static_cast<std::size_t>(i)] = 3 + (step + i) % 4;
    }
  }
  return measured;
}

class ZeroAllocStep : public KindTest {};

TEST_P(ZeroAllocStep, ReferenceBackend) {
  KindGuard g(GetParam());
  Rng rng(91);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const long allocs =
      measure_step_allocs(model, [](const auto& fn) { fn(); });
  EXPECT_EQ(allocs, 0) << "heap allocations in " << kMeasuredSteps
                       << " warm packed steps (reference backend)";
}

TEST_P(ZeroAllocStep, QuantizedBackend) {
  KindGuard g(GetParam());
  Rng rng(92);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}, {6, 7}}, 12,
                                              SoftmaxImpl::kHardware);
  model.set_backend(qt.backend());
  const long allocs =
      measure_step_allocs(model, [](const auto& fn) { fn(); });
  model.set_backend(ResBlockBackend{});
  EXPECT_EQ(allocs, 0) << "heap allocations in " << kMeasuredSteps
                       << " warm packed steps (quantized backend)";
}

TEST_P(ZeroAllocStep, AcceleratorBackendFusedStep) {
  KindGuard g(GetParam());
  Rng rng(93);
  Transformer model(TransformerWeights::random(hw_config(), 20, rng));
  const auto qt = QuantizedTransformer::build(model, {{3, 4, 5}, {6, 7}}, 12,
                                              SoftmaxImpl::kHardware);
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  model.set_backend(accelerator_backend(qt, acc, &fuser));
  // The serve loop brackets each step with begin/end_step; the allocation
  // window covers only the decode_step_batch call (end_step schedules the
  // fused ledger and may allocate — that is simulator bookkeeping, not the
  // measured datapath).
  const long allocs = measure_step_allocs(model, [&](const auto& fn) {
    fuser.begin_step();
    fn();
    (void)fuser.end_step();
  });
  model.set_backend(ResBlockBackend{});
  EXPECT_EQ(allocs, 0) << "heap allocations in " << kMeasuredSteps
                       << " warm packed steps (accelerator backend)";
  EXPECT_GT(stats.fused_steps, 0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ZeroAllocStep, kAllKinds, kind_param_name);

}  // namespace
}  // namespace tfacc
