// Host-time probes of serve_bench_traced.
//
// probes.cpp defines a wrapper for each public library entry point the
// per-layer metrics need; CMakeLists.txt links them in with GNU ld
// `--wrap=<mangled symbol>`, so every call the library makes into one of
// those functions from another object file lands in the wrapper first. The
// real Scheduler::run path is timed from outside, with no source change.
//
// Each wrapper opens a frame on a per-thread stack. A frame's self time is
// its duration minus the durations of the frames opened inside it on the
// same thread. Records are per thread and never shared while a run is in
// flight (no atomics on the hot path): the driver resets and collects them
// between Scheduler::run calls, when every card thread is parked on the
// worker pool's mutex, which orders those accesses after the workers'
// writes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace serve_probes {

/// Probed functions, grouped. The coarse probes (up to kFirstCounterOnly)
/// are also kept as spans for the Chrome trace; the rest (~10^5-10^6
/// calls per run) are counters only.
enum Probe : int {
  kDecodeStep,     // Transformer::decode_step_batch (the serve overload)
  kEncode,         // Transformer::encode
  kLedger,         // DecodeStepFuser::end_step
  kVerify,         // verify_fused, verify_schedule
  kGateReserve,    // AdmissionGate::reserve
  kGateConsume,    // AdmissionGate::try_consume
  kGateRelease,    // AdmissionGate::release
  kGatePublish,    // AdmissionGate::publish
  kGateRetire,     // AdmissionGate::retire
  kKvAppend,       // MhaQuantized::append_kv_batch
  kMhaCached,      // MhaQuantized::forward_cached_batch
  kMha,            // MhaQuantized::forward (encoder, quantized backend)
  kFfn,            // FfnQuantized::forward
  kAccMhaCached,   // Accelerator::forward_mha_cached_batch
  kAccMha,         // Accelerator::forward_mha (encoder, accelerator)
  kAccFfn,         // Accelerator::forward_ffn
  kBuild,          // QuantizedTransformer::build
  kGemmInt,        // kernels::gemm_{i8,nt_i8,i8_packed,i8_packed_bias,i16,
                   //                 i16_packed}_into
  kGemmF32,        // kernels::gemm_{f32,nt_f32}_into
  kRequant,        // kernels::requantize_{i8,i16}_into
  kLayerNormRows,  // kernels::layernorm_stats, layernorm_finish_into
  kSoftmaxUnit,    // hw::SoftmaxUnit::operator()
  kLayerNormUnit,  // hw::LayerNormUnit::operator()
  kNumProbes
};
constexpr int kFirstCounterOnly = kGemmInt;

/// Decoder sublayer classes. A sublayer probe counts here only when it is
/// called directly inside a decode step (encoder calls and the quantized
/// block nested in an Accelerator::forward_* call do not).
enum Sublayer : int {
  kSelfMha,
  kCrossMha,
  kFfnSublayer,
  kKvAppendSublayer,
  kNumSublayers
};

struct Counter {
  long calls = 0;
  std::int64_t incl_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t macs = 0;  // GEMM probes: rows x inner x cols per call
};

/// Everything recorded since the last reset(), merged over threads, in ns.
struct RunTrace {
  Counter probes[kNumProbes];
  std::int64_t sublayer_ns[kNumSublayers] = {};  // inclusive
  std::int64_t top_ns = 0;  // Σ durations of frames with no probed parent
  long steps = 0;           // decode steps seen
  long bad_steps = 0;       // steps whose sublayer counts were not one per
                            // decoder layer per class
  std::vector<std::int64_t> step_ns;    // per decode-step duration
  std::vector<std::int64_t> ledger_ns;  // per end_step duration
};

/// Turn recording on or off. Only call with no probed call in flight.
void enable(bool on);

/// Decoder layers of the served model: each decode step must contain this
/// many self MHA, cross MHA, FFN and K/V-append calls.
void set_decoder_layers(int layers);

/// Clear every thread's record (no probed call in flight).
void reset();

/// Merge every thread's record (no probed call in flight).
RunTrace collect();

/// Write the spans recorded since the last reset() as Chrome trace-event
/// JSON (opens in Perfetto or chrome://tracing), timed with the clock
/// calibration of the last collect(). False on an I/O error.
bool write_chrome_trace(const std::string& path);

}  // namespace serve_probes
