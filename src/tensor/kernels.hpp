// GEMM, requantize and LayerNorm row kernels behind a runtime-checked
// dispatch table, plus the two elementwise stages at the INT8 boundary of
// every MHA/FFN ResBlock (Fig. 5): the FP32 → INT8 hook quantizer and the
// INT8 → INT16 residual requantizer. The accumulator ReLU between the
// GEMM and the requantizer (tensor/ops relu_i32) is a branch-free clamp
// outside the table.
//
// Three kernel tables, selectable per process:
//
//   kind      | implementation
//   ----------|------------------------------------------------------------
//   kScalar   | the original tensor/ops triple loops, kept verbatim as the
//             | reference semantics (and the perf baseline for the 2× gate)
//   kSimd     | AVX2 intrinsics chosen by a *runtime* CPU check — the binary
//             | is compiled without -march so it runs anywhere; a host
//             | without AVX2 runs the scalar loops
//   kAmx      | the AVX2 table with the packed INT8 GEMM on AMX-INT8 tiles
//             | (TDPBSSD), where the CPU reports amx-tile and amx-int8 and
//             | the OS grants this process the tile state; elsewhere kAmx
//             | runs the kSimd table
//
// Selection: `TFACC_KERNEL=scalar|simd|amx` (read once at first use),
// overridable with set_kind() for A/B benches and tests. The default is the
// best table the host offers: kAmx where AMX runs, kSimd otherwise.
// The int16 GEMMs and the f32 A·Bᵀ run the scalar loop under every kind.
//
// Each table's packed GEMM reads B in its own layout (tensor/pack.hpp):
// k-pairs for the AVX2 kernel, k-quads for the AMX one, and pack_b_i8 packs
// in the selected table's. A pack built under one fast table and handed to
// the other is a CheckError; the scalar table reads either. So code that
// switches kinds after packing packs again, or switches only to kScalar.
//
// Bit-identity contract (enforced by tests/test_kernels.cpp and the
// cross-backend equivalence suites):
//  * Integer kernels (int8→int32, int16→int32) are exact — integer addition
//    is associative, so any blocking/vectorization reorder is bit-identical.
//    int16 inputs must keep |Σ a·b| within int32 (quantized values do).
//  * Float kernels preserve the scalar path's per-element summation order
//    (ascending p, one accumulator per output element, no FMA contraction),
//    so both kinds produce bit-identical floats — tolerance 0, pinned
//    explicitly in the tests. This is why the f32 GEMM kernel vectorizes
//    across output columns and blocks rows of A and groups of k, but never
//    splits the reduction. One exception: where two different NaNs meet in
//    one multiply or add, which NaN comes out is the compiler's choice of
//    operand order, which the C++ source does not fix, so the kinds may
//    return different NaNs there (one probe read 0xffc00002 under scalar
//    and 0x7fc00001 under AVX2).
//
// The *_into kernels write a pre-shaped `out` and perform no allocation —
// they are the hot-path seam under decode_step_batch.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/pack.hpp"

namespace tfacc::kernels {

// The values are pinned: ctest names the kind-parameterized tests by the
// enum's bytes, so renumbering would rename them.
enum class Kind { kScalar = 0, kSimd = 2, kAmx = 3 };

const char* kind_name(Kind kind);

/// Parse "scalar" | "simd" | "amx"; returns false on anything else.
bool parse_kind(const char* spec, Kind* out);

/// The process-wide selected kernel (TFACC_KERNEL env var, default the best
/// the host offers).
Kind selected();

/// Override the selected kernel (benches/tests; atomic, any thread).
void set_kind(Kind kind);

/// Re-read TFACC_KERNEL and make it the selection. Throws CheckError on an
/// unparseable value. Returns the new selection.
Kind refresh_from_env();

/// True when this host has AVX2, the vector unit the kSimd kernels use.
bool simd_available();

/// True when kAmx runs its AMX kernel: the CPU has AVX2, AMX-TILE and
/// AMX-INT8, and the OS granted this process the tile state (one
/// arch_prctl request, made at the first call).
bool amx_available();

/// The B layout the selected table's packed GEMM reads, which pack_b_i8
/// builds: kQuads on the AMX table, kPairs on the others.
PackLayout packed_layout();

/// Host vector capability, for the BENCH_*.json host stanza and the
/// perf-gate capability match: "avx2" | "generic". It names the AVX2
/// table's class whatever the selection, so the wall-clock baselines (which
/// time scalar against simd) compare alike on AMX and non-AMX hosts.
const char* capability();

// --- Dispatched GEMMs (out must be pre-shaped; overwritten, no alloc) ------

/// C = A·B, float. Bit-identical across kinds (fixed summation order),
/// except which NaN comes out where two different NaNs meet (see the
/// contract above), and each row of C is the same whatever rows are stacked
/// with it. The AVX2 kernel reads each row of B once per block of up to 4
/// rows of A.
void gemm_f32_into(const MatF& a, const MatF& b, MatF& out);

/// C = A·B, int8 operands, int32 accumulation. Exact.
void gemm_i8_into(const MatI8& a, const MatI8& b, MatI32& out);

/// C = A·B, int16 operands, int32 accumulation. Exact within int32 range.
void gemm_i16_into(const MatI16& a, const MatI16& b, MatI32& out);

/// C = A·Bᵀ, float (attention scores). The scalar loop under either kind.
void gemm_nt_f32_into(const MatF& a, const MatF& b, MatF& out);

/// C = A·Bᵀ, int8 operands, int32 accumulation. Exact for k ≤ 131071,
/// where every k-term int8 dot product fits int32.
void gemm_nt_i8_into(const MatI8& a, const MatI8& b, MatI32& out);

// --- Packed-B GEMMs (B pre-packed at weight-load time, tensor/pack.hpp) ----

/// The AVX2 packed kernel widens A to int16 this many k at a time (even, so
/// that a chunk holds whole k-pairs). Exposed so that the tile-edge tests can
/// cross the chunk edges.
inline constexpr int kPackedKChunk = 512;

/// C = A·B with B packed. Exact (identical to gemm_i8 on unpack(bp)).
/// Throws CheckError when a fast table is handed the other one's layout.
void gemm_i8_packed_into(const MatI8& a, const PackedI8& bp, MatI32& out);

/// C = bias ⊕ A·B with B packed — the bias seeds the accumulator, which is
/// exactly add_bias_i32(gemm_i8(a, b), bias) in one pass. Requires |bias| ≤
/// QuantizedLinear::bias_bound(k), so that the seed plus any partial sum
/// fits int32 (QuantizedLinear::build clamps to it).
void gemm_i8_packed_bias_into(const MatI8& a, const PackedI8& bp,
                              const std::vector<std::int32_t>& bias,
                              MatI32& out);

/// C = A·B with B packed, int16 operands. Exact within int32 range.
void gemm_i16_packed_into(const MatI16& a, const PackedI16& bp, MatI32& out);

// --- Dispatched requantization ---------------------------------------------
// out = saturate(round((acc · mantissa) >> shift)) per element — the hardware
// requantizer (FixedPointScale::apply_i8/apply_i16) over a whole accumulator
// matrix. The rounding is half-away-from-zero, exactly like
// rounding_shift_right; both kinds are bit-identical (the AVX2 path uses a
// branchless reformulation proven equal for 1 ≤ shift ≤ 48, scalar otherwise).

/// out(r,c) = FixedPointScale{mantissa, shift}.apply_i8(acc(r,c)).
void requantize_i8_into(const MatI32& acc, std::int32_t mantissa, int shift,
                        MatI8& out);

/// out(r,c) = FixedPointScale{mantissa, shift}.apply_i16(acc(r,c)).
void requantize_i16_into(const MatI32& acc, std::int32_t mantissa, int shift,
                         MatI16& out);

// --- Dispatched INT8 boundary of a ResBlock --------------------------------
// Elementwise: the AVX2 kernels run over a matrix as one contiguous row.

/// out(r,c) = saturate_round<int8_t>(x(r,c) / scale): the FP32 → INT8 hook
/// quantizer. Both kinds run the same IEEE division (no reciprocal
/// multiply), so they are bit-identical on every input, ±inf, huge values
/// and NaN (→ 0) included.
void quantize_i8_into(const MatF& x, float scale, MatI8& out);

/// quantize_i8_into over the n values at x, into out[0, n).
void quantize_i8_span(const float* x, std::size_t n, float scale,
                      std::int8_t* out);

/// out(r,c) = FixedPointScale{mantissa, shift}.apply_i16(m(r,c)): the INT8
/// residual into the INT16 G domain. Any int32 mantissa and shift; the AVX2
/// path takes 1 ≤ shift ≤ 48 (|m·mantissa| < 2³⁸), scalar otherwise.
void requantize_i8_to_i16_into(const MatI8& m, std::int32_t mantissa,
                               int shift, MatI16& out);

// --- Dispatched LayerNorm row kernels --------------------------------------
// The fixed-point LayerNorm datapath of hwarith/layernorm_unit.cpp, split
// into its two row loops so the hot serve path can run them SIMD.
// Integer-exact in both kinds: the stats loop is a pure integer reduction
// (associative), and the finish loop is per-element independent — the AVX2
// variant reuses the requantizer's branchless rounding-shift reformulation,
// proven equal for 1 <= shift <= 48 (scalar fallback otherwise).

/// ΣG and ΣG² of one n-wide INT16 row (Fig. 7 step 1 accumulators).
void layernorm_stats(const std::int16_t* g, int n, std::int64_t* sum,
                     std::int64_t* sumsq);

/// The γ/β finish loop of LayerNormUnit::finish_row, per element j:
///   t      = n·g[j] − sum
///   norm   = rounding_shift_right(t · rs_mantissa, norm_shift)
///   scaled = rounding_shift_right(norm · gq[j], gamma_shift)
///   out[j] = saturate_i8(scaled + bq[j])
/// `norm_shift` may be <= 0 (a left shift), exactly like the scalar loop.
void layernorm_finish_into(const std::int16_t* g, int n, std::int64_t sum,
                           std::int32_t rs_mantissa, int norm_shift,
                           int gamma_shift, const std::int32_t* gq,
                           const std::int32_t* bq, std::int8_t* out);

}  // namespace tfacc::kernels
