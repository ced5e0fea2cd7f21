// The --wrap wrappers and the per-thread recorder of serve_bench_traced
// (see probes.hpp).
//
// Each TFACC_PROBE line names a wrapped function by its mangled symbol;
// CMakeLists.txt reads the quoted "_ZN..." strings out of this file and
// passes one `--wrap=<symbol>` per string to the linker, so this list is
// the only place a probe is declared. A library signature change makes the
// link fail on the now-undefined __real_ symbol instead of silently timing
// nothing.
//
// Member functions are wrapped as free functions taking the object pointer
// first: under the Itanium C++ ABI (x86-64 and AArch64 System V) a member
// function and such a free function pass `this`/the first argument and any
// hidden return-slot pointer in the same registers, which is what lets a
// wrapper forward to __real_ for sret returns (MatI8, RunReport, ...) too.
#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>

#include "analysis/verifier.hpp"
#include "core/backend.hpp"
#include "quant/qtransformer.hpp"
#include "serve/admission_gate.hpp"
#include "tensor/kernels.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

// Declares real_<name> (the wrapped function, via the linker's __real_
// alias) and wrap_<name> (the symbol the linker substitutes for it).
#define TFACC_PROBE(ret, name, symbol, params) \
  ret real_##name params __asm__("__real_" symbol); \
  ret wrap_##name params __asm__("__wrap_" symbol);

namespace serve_probes {

namespace {

using tfacc::MatF;
using tfacc::MatI16;
using tfacc::MatI32;
using tfacc::MatI8;

constexpr const char* kProbeNames[] = {
    "Transformer::decode_step_batch",
    "Transformer::encode",
    "DecodeStepFuser::end_step",
    "verify",
    "AdmissionGate::reserve",
    "AdmissionGate::try_consume",
    "AdmissionGate::release",
    "AdmissionGate::publish",
    "AdmissionGate::retire",
    "MhaQuantized::append_kv_batch",
    "MhaQuantized::forward_cached_batch",
    "MhaQuantized::forward",
    "FfnQuantized::forward",
    "Accelerator::forward_mha_cached_batch",
    "Accelerator::forward_mha",
    "Accelerator::forward_ffn",
    "QuantizedTransformer::build",
    "kernels::gemm_int",
    "kernels::gemm_f32",
    "kernels::requantize",
    "kernels::layernorm_rows",
    "hw::SoftmaxUnit",
    "hw::LayerNormUnit",
};
static_assert(std::size(kProbeNames) == kNumProbes);

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Frames are timed in ticks and converted to ns once per collect(), against
// the steady clock over the same interval. On x86-64 a tick is a TSC count:
// reading it took 17 ns where clock_gettime took 27 ns, and a run makes
// ~10^5-10^6 probed calls. The TSC is trusted across cores as far as the
// kernel trusts it for its own clock source.
std::int64_t now_ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return steady_ns();
#endif
}

struct Span {
  int probe = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

struct Frame {
  int probe = 0;
  int sublayer = -1;  // Sublayer class, -1 when not a decoder sublayer
  int span = -1;      // index into ThreadRecord::spans, -1 for counters
  std::int64_t t0 = 0;
  std::int64_t child_ns = 0;
  int sublayer_calls[kNumSublayers] = {};  // decode-step frames only
};

// Nesting seen in practice is under ten frames (step → sublayer → unit →
// kernel); a deeper stack means a probe recursed, which no wrapped function
// does.
constexpr int kMaxDepth = 64;

struct ThreadRecord {
  int tid = 0;
  int depth = 0;
  Frame stack[kMaxDepth];
  // Quantized backend: the forward_cached_batch that follows an
  // append_kv_batch on the same thread is the self-attention call.
  bool after_append = false;
  RunTrace run;
  std::vector<Span> spans;
};

// Written only while no probed call is in flight (see probes.hpp).
bool g_enabled = false;
int g_decoder_layers = 0;
std::int64_t g_reset_ticks = 0;  // now_ticks() at the last reset()
std::int64_t g_reset_ns = 0;     // steady_ns() at the last reset()
double g_ns_per_tick = 1.0;      // calibrated by the last collect()

std::mutex g_registry_mu;
// Records outlive their threads (pool workers exit with their Scheduler),
// so collect() can still read them; a record is created once per thread.
std::vector<std::unique_ptr<ThreadRecord>> g_registry;
thread_local ThreadRecord* t_record = nullptr;

ThreadRecord& this_thread_record() {
  if (t_record == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadRecord>());
    t_record = g_registry.back().get();
    t_record->tid = static_cast<int>(g_registry.size());
    t_record->spans.reserve(1 << 15);
  }
  return *t_record;
}

// One probed call: opens a frame on construction, closes it on destruction.
class Scope {
 public:
  explicit Scope(int probe, int sublayer = -1)
      : rec_(g_enabled ? &this_thread_record() : nullptr) {
    if (rec_ == nullptr) return;
    if (rec_->depth == kMaxDepth) {
      std::fprintf(stderr, "serve probes: frame stack overflow\n");
      std::abort();
    }
    Frame& f = rec_->stack[rec_->depth++];
    f = Frame{};
    f.probe = probe;
    f.sublayer = sublayer;
    if (probe < kFirstCounterOnly) {
      f.span = static_cast<int>(rec_->spans.size());
      rec_->spans.push_back(Span{probe, 0, 0});
    }
    f.t0 = now_ticks();
  }

  ~Scope() {
    if (rec_ == nullptr) return;
    const std::int64_t t1 = now_ticks();
    RunTrace& run = rec_->run;
    Frame& f = rec_->stack[--rec_->depth];
    const std::int64_t dur = t1 - f.t0;
    Counter& c = run.probes[f.probe];
    ++c.calls;
    c.incl_ns += dur;
    c.self_ns += dur - f.child_ns;
    c.macs += macs_;
    if (f.span >= 0) {
      rec_->spans[static_cast<std::size_t>(f.span)].t0 = f.t0;
      rec_->spans[static_cast<std::size_t>(f.span)].t1 = t1;
    }
    if (f.probe == kDecodeStep) close_step(f, dur);
    if (f.probe == kLedger) run.ledger_ns.push_back(dur);
    if (rec_->depth == 0) {
      run.top_ns += dur;
      return;
    }
    Frame& parent = rec_->stack[rec_->depth - 1];
    parent.child_ns += dur;
    if (f.sublayer >= 0 && parent.probe == kDecodeStep) {
      run.sublayer_ns[f.sublayer] += dur;
      ++parent.sublayer_calls[f.sublayer];
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// GEMM probes: MACs of the call, from the operand shapes.
  template <class Out>
  void set_macs(const Out& out, int inner) {
    macs_ = static_cast<std::int64_t>(out.rows()) * inner * out.cols();
  }

 private:
  void close_step(const Frame& f, std::int64_t dur) {
    RunTrace& run = rec_->run;
    run.step_ns.push_back(dur);
    ++run.steps;
    for (const int calls : f.sublayer_calls)
      if (calls != g_decoder_layers) {
        ++run.bad_steps;
        break;
      }
  }

  ThreadRecord* rec_;
  std::int64_t macs_ = 0;
};

}  // namespace

void enable(bool on) { g_enabled = on; }

void set_decoder_layers(int layers) { g_decoder_layers = layers; }

void reset() {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& rec : g_registry) {
    // Keep the per-call buffers' capacity: a warm record does not allocate.
    std::vector<std::int64_t> step_ns = std::move(rec->run.step_ns);
    std::vector<std::int64_t> ledger_ns = std::move(rec->run.ledger_ns);
    step_ns.clear();
    ledger_ns.clear();
    rec->run = RunTrace{};
    rec->run.step_ns = std::move(step_ns);
    rec->run.ledger_ns = std::move(ledger_ns);
    rec->spans.clear();
    rec->after_append = false;
  }
  g_reset_ns = steady_ns();
  g_reset_ticks = now_ticks();
}

RunTrace collect() {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  const std::int64_t ticks = now_ticks() - g_reset_ticks;
  g_ns_per_tick = ticks > 0 ? static_cast<double>(steady_ns() - g_reset_ns) /
                                  static_cast<double>(ticks)
                            : 1.0;
  const auto ns = [](std::int64_t t) {
    return static_cast<std::int64_t>(static_cast<double>(t) * g_ns_per_tick);
  };
  RunTrace all;
  for (const auto& rec : g_registry) {
    const RunTrace& r = rec->run;
    for (int p = 0; p < kNumProbes; ++p) {
      all.probes[p].calls += r.probes[p].calls;
      all.probes[p].incl_ns += ns(r.probes[p].incl_ns);
      all.probes[p].self_ns += ns(r.probes[p].self_ns);
      all.probes[p].macs += r.probes[p].macs;
    }
    for (int s = 0; s < kNumSublayers; ++s)
      all.sublayer_ns[s] += ns(r.sublayer_ns[s]);
    all.top_ns += ns(r.top_ns);
    all.steps += r.steps;
    all.bad_steps += r.bad_steps;
    for (const std::int64_t t : r.step_ns) all.step_ns.push_back(ns(t));
    for (const std::int64_t t : r.ledger_ns) all.ledger_ns.push_back(ns(t));
  }
  return all;
}

bool write_chrome_trace(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  std::int64_t origin = INT64_MAX;
  for (const auto& rec : g_registry)
    for (const Span& s : rec->spans) origin = std::min(origin, s.t0);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& rec : g_registry) {
    for (const Span& s : rec->spans) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    first ? "" : ",\n", kProbeNames[s.probe], rec->tid,
                    static_cast<double>(s.t0 - origin) * g_ns_per_tick / 1e3,
                    static_cast<double>(s.t1 - s.t0) * g_ns_per_tick / 1e3);
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- Wrappers ----------------------------------------------------------------

// tensor: the dispatched kernels (counters only).
TFACC_PROBE(void, gemm_i8_into,
            "_ZN5tfacc7kernels12gemm_i8_intoERKNS_6MatrixIaEES4_RNS1_IiEE",
            (const MatI8& a, const MatI8& b, MatI32& out))
void wrap_gemm_i8_into(const MatI8& a, const MatI8& b, MatI32& out) {
  Scope s(kGemmInt);
  real_gemm_i8_into(a, b, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, gemm_nt_i8_into,
            "_ZN5tfacc7kernels15gemm_nt_i8_intoERKNS_6MatrixIaEES4_RNS1_IiEE",
            (const MatI8& a, const MatI8& b, MatI32& out))
void wrap_gemm_nt_i8_into(const MatI8& a, const MatI8& b, MatI32& out) {
  Scope s(kGemmInt);
  real_gemm_nt_i8_into(a, b, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, gemm_i8_packed_into,
            "_ZN5tfacc7kernels19gemm_i8_packed_intoERKNS_6MatrixIaEERKNS_"
            "7PackedBIaEERNS1_IiEE",
            (const MatI8& a, const tfacc::PackedI8& bp, MatI32& out))
void wrap_gemm_i8_packed_into(const MatI8& a, const tfacc::PackedI8& bp,
                              MatI32& out) {
  Scope s(kGemmInt);
  real_gemm_i8_packed_into(a, bp, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, gemm_i8_packed_bias_into,
            "_ZN5tfacc7kernels24gemm_i8_packed_bias_intoERKNS_6MatrixIaEERKNS_"
            "7PackedBIaEERKSt6vectorIiSaIiEERNS1_IiEE",
            (const MatI8& a, const tfacc::PackedI8& bp,
             const std::vector<std::int32_t>& bias, MatI32& out))
void wrap_gemm_i8_packed_bias_into(const MatI8& a, const tfacc::PackedI8& bp,
                                   const std::vector<std::int32_t>& bias,
                                   MatI32& out) {
  Scope s(kGemmInt);
  real_gemm_i8_packed_bias_into(a, bp, bias, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, gemm_i16_into,
            "_ZN5tfacc7kernels13gemm_i16_intoERKNS_6MatrixIsEES4_RNS1_IiEE",
            (const MatI16& a, const MatI16& b, MatI32& out))
void wrap_gemm_i16_into(const MatI16& a, const MatI16& b, MatI32& out) {
  Scope s(kGemmInt);
  real_gemm_i16_into(a, b, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, gemm_i16_packed_into,
            "_ZN5tfacc7kernels20gemm_i16_packed_intoERKNS_6MatrixIsEERKNS_"
            "7PackedBIsEERNS1_IiEE",
            (const MatI16& a, const tfacc::PackedI16& bp, MatI32& out))
void wrap_gemm_i16_packed_into(const MatI16& a, const tfacc::PackedI16& bp,
                               MatI32& out) {
  Scope s(kGemmInt);
  real_gemm_i16_packed_into(a, bp, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, gemm_f32_into,
            "_ZN5tfacc7kernels13gemm_f32_intoERKNS_6MatrixIfEES4_RS2_",
            (const MatF& a, const MatF& b, MatF& out))
void wrap_gemm_f32_into(const MatF& a, const MatF& b, MatF& out) {
  Scope s(kGemmF32);
  real_gemm_f32_into(a, b, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, gemm_nt_f32_into,
            "_ZN5tfacc7kernels16gemm_nt_f32_intoERKNS_6MatrixIfEES4_RS2_",
            (const MatF& a, const MatF& b, MatF& out))
void wrap_gemm_nt_f32_into(const MatF& a, const MatF& b, MatF& out) {
  Scope s(kGemmF32);
  real_gemm_nt_f32_into(a, b, out);
  s.set_macs(out, a.cols());
}

TFACC_PROBE(void, requantize_i8_into,
            "_ZN5tfacc7kernels18requantize_i8_intoERKNS_6MatrixIiEEiiRNS1_IaEE",
            (const MatI32& acc, std::int32_t mantissa, int shift, MatI8& out))
void wrap_requantize_i8_into(const MatI32& acc, std::int32_t mantissa,
                             int shift, MatI8& out) {
  const Scope s(kRequant);
  real_requantize_i8_into(acc, mantissa, shift, out);
}

TFACC_PROBE(void, requantize_i16_into,
            "_ZN5tfacc7kernels19requantize_i16_intoERKNS_6MatrixIiEEiiRNS1_"
            "IsEE",
            (const MatI32& acc, std::int32_t mantissa, int shift, MatI16& out))
void wrap_requantize_i16_into(const MatI32& acc, std::int32_t mantissa,
                              int shift, MatI16& out) {
  const Scope s(kRequant);
  real_requantize_i16_into(acc, mantissa, shift, out);
}

TFACC_PROBE(void, layernorm_stats,
            "_ZN5tfacc7kernels15layernorm_statsEPKsiPlS3_",
            (const std::int16_t* g, int n, std::int64_t* sum,
             std::int64_t* sumsq))
void wrap_layernorm_stats(const std::int16_t* g, int n, std::int64_t* sum,
                          std::int64_t* sumsq) {
  const Scope s(kLayerNormRows);
  real_layernorm_stats(g, n, sum, sumsq);
}

TFACC_PROBE(void, layernorm_finish_into,
            "_ZN5tfacc7kernels21layernorm_finish_intoEPKsiliiiPKiS4_Pa",
            (const std::int16_t* g, int n, std::int64_t sum,
             std::int32_t rs_mantissa, int norm_shift, int gamma_shift,
             const std::int32_t* gq, const std::int32_t* bq, std::int8_t* out))
void wrap_layernorm_finish_into(const std::int16_t* g, int n, std::int64_t sum,
                                std::int32_t rs_mantissa, int norm_shift,
                                int gamma_shift, const std::int32_t* gq,
                                const std::int32_t* bq, std::int8_t* out) {
  const Scope s(kLayerNormRows);
  real_layernorm_finish_into(g, n, sum, rs_mantissa, norm_shift, gamma_shift,
                             gq, bq, out);
}

// hwarith: the Fig. 6 softmax and the LayerNorm unit.
TFACC_PROBE(MatI8, softmax_unit,
            "_ZNK5tfacc2hw11SoftmaxUnitclERKNS_6MatrixIiEERKNS2_IhEE",
            (const tfacc::hw::SoftmaxUnit* self, const MatI32& d,
             const tfacc::Matrix<std::uint8_t>& mask))
MatI8 wrap_softmax_unit(const tfacc::hw::SoftmaxUnit* self, const MatI32& d,
                        const tfacc::Matrix<std::uint8_t>& mask) {
  const Scope s(kSoftmaxUnit);
  return real_softmax_unit(self, d, mask);
}

TFACC_PROBE(MatI8, layernorm_unit,
            "_ZNK5tfacc2hw13LayerNormUnitclERKNS_6MatrixIsEE",
            (const tfacc::hw::LayerNormUnit* self, const MatI16& g))
MatI8 wrap_layernorm_unit(const tfacc::hw::LayerNormUnit* self,
                          const MatI16& g) {
  const Scope s(kLayerNormUnit);
  return real_layernorm_unit(self, g);
}

// quant: the INT8 ResBlocks and calibration.
TFACC_PROBE(void, append_kv_batch,
            "_ZNK5tfacc12MhaQuantized15append_kv_batchERKNS_6MatrixIaEERKSt6"
            "vectorIPNS_12QuantKvCacheESaIS7_EE",
            (const tfacc::MhaQuantized* self, const MatI8& kv,
             const std::vector<tfacc::QuantKvCache*>& caches))
void wrap_append_kv_batch(const tfacc::MhaQuantized* self, const MatI8& kv,
                          const std::vector<tfacc::QuantKvCache*>& caches) {
  {
    const Scope s(kKvAppend, kKvAppendSublayer);
    real_append_kv_batch(self, kv, caches);
  }
  if (g_enabled) this_thread_record().after_append = true;
}

TFACC_PROBE(MatI8, mha_cached_batch,
            "_ZNK5tfacc12MhaQuantized20forward_cached_batchERKNS_6MatrixIaEERK"
            "St6vectorIPKNS_12QuantKvCacheESaIS8_EERKS5_IPKNS1_IhEESaISF_EE",
            (const tfacc::MhaQuantized* self, const MatI8& q,
             const std::vector<const tfacc::QuantKvCache*>& caches,
             const std::vector<const tfacc::Mask*>& masks))
MatI8 wrap_mha_cached_batch(
    const tfacc::MhaQuantized* self, const MatI8& q,
    const std::vector<const tfacc::QuantKvCache*>& caches,
    const std::vector<const tfacc::Mask*>& masks) {
  int sublayer = -1;
  if (g_enabled) {
    ThreadRecord& rec = this_thread_record();
    sublayer = rec.after_append ? kSelfMha : kCrossMha;
    rec.after_append = false;
  }
  const Scope s(kMhaCached, sublayer);
  return real_mha_cached_batch(self, q, caches, masks);
}

TFACC_PROBE(MatI8, mha_forward,
            "_ZNK5tfacc12MhaQuantized7forwardERKNS_6MatrixIaEES4_RKNS1_IhEE",
            (const tfacc::MhaQuantized* self, const MatI8& q, const MatI8& kv,
             const tfacc::Mask& mask))
MatI8 wrap_mha_forward(const tfacc::MhaQuantized* self, const MatI8& q,
                       const MatI8& kv, const tfacc::Mask& mask) {
  const Scope s(kMha);
  return real_mha_forward(self, q, kv, mask);
}

TFACC_PROBE(MatI8, ffn_forward,
            "_ZNK5tfacc12FfnQuantized7forwardERKNS_6MatrixIaEE",
            (const tfacc::FfnQuantized* self, const MatI8& x))
MatI8 wrap_ffn_forward(const tfacc::FfnQuantized* self, const MatI8& x) {
  const Scope s(kFfn, kFfnSublayer);
  return real_ffn_forward(self, x);
}

TFACC_PROBE(tfacc::QuantizedTransformer, qt_build,
            "_ZN5tfacc20QuantizedTransformer5buildERNS_11TransformerERKSt6"
            "vectorIS3_IiSaIiEESaIS5_EEiNS_11SoftmaxImplENS_11CalibMethodE",
            (tfacc::Transformer& model,
             const std::vector<tfacc::TokenSeq>& calib_sources, int max_len,
             tfacc::SoftmaxImpl impl, tfacc::CalibMethod method))
tfacc::QuantizedTransformer wrap_qt_build(
    tfacc::Transformer& model,
    const std::vector<tfacc::TokenSeq>& calib_sources, int max_len,
    tfacc::SoftmaxImpl impl, tfacc::CalibMethod method) {
  const Scope s(kBuild);
  return real_qt_build(model, calib_sources, max_len, impl, method);
}

// core: the accelerator's functional halves and the fused step ledger.
TFACC_PROBE(MatI8, acc_mha_cached_batch,
            "_ZNK5tfacc11Accelerator24forward_mha_cached_batchERKNS_"
            "12MhaQuantizedERKNS_6MatrixIaEERKSt6vectorIPKNS_12QuantKvCacheESa"
            "ISB_EERKS8_IPKNS4_IhEESaISI_EEi",
            (const tfacc::Accelerator* self, const tfacc::MhaQuantized& block,
             const MatI8& q,
             const std::vector<const tfacc::QuantKvCache*>& caches,
             const std::vector<const tfacc::Mask*>& masks, int projected_rows))
MatI8 wrap_acc_mha_cached_batch(
    const tfacc::Accelerator* self, const tfacc::MhaQuantized& block,
    const MatI8& q, const std::vector<const tfacc::QuantKvCache*>& caches,
    const std::vector<const tfacc::Mask*>& masks, int projected_rows) {
  // Self-attention projects this step's K/V rows; cross-attention reuses
  // the encoder memory's.
  const Scope s(kAccMhaCached, projected_rows > 0 ? kSelfMha : kCrossMha);
  return real_acc_mha_cached_batch(self, block, q, caches, masks,
                                   projected_rows);
}

TFACC_PROBE(MatI8, acc_mha,
            "_ZNK5tfacc11Accelerator11forward_mhaERKNS_12MhaQuantizedERKNS_"
            "6MatrixIaEES7_RKNS4_IhEE",
            (const tfacc::Accelerator* self, const tfacc::MhaQuantized& block,
             const MatI8& q, const MatI8& kv, const tfacc::Mask& mask))
MatI8 wrap_acc_mha(const tfacc::Accelerator* self,
                   const tfacc::MhaQuantized& block, const MatI8& q,
                   const MatI8& kv, const tfacc::Mask& mask) {
  const Scope s(kAccMha);
  return real_acc_mha(self, block, q, kv, mask);
}

TFACC_PROBE(MatI8, acc_ffn,
            "_ZNK5tfacc11Accelerator11forward_ffnERKNS_12FfnQuantizedERKNS_"
            "6MatrixIaEE",
            (const tfacc::Accelerator* self, const tfacc::FfnQuantized& block,
             const MatI8& x))
MatI8 wrap_acc_ffn(const tfacc::Accelerator* self,
                   const tfacc::FfnQuantized& block, const MatI8& x) {
  const Scope s(kAccFfn, kFfnSublayer);
  return real_acc_ffn(self, block, x);
}

TFACC_PROBE(tfacc::RunReport, end_step,
            "_ZN5tfacc15DecodeStepFuser8end_stepEv",
            (tfacc::DecodeStepFuser* self))
tfacc::RunReport wrap_end_step(tfacc::DecodeStepFuser* self) {
  const Scope s(kLedger);
  return real_end_step(self);
}

// analysis: the schedule verifier (verify_schedules = true only).
TFACC_PROBE(tfacc::VerifyResult, verify_fused,
            "_ZN5tfacc12verify_fusedERKNS_8FusedRunERKNS_13VerifyOptionsE",
            (const tfacc::FusedRun& run, const tfacc::VerifyOptions& opts))
tfacc::VerifyResult wrap_verify_fused(const tfacc::FusedRun& run,
                                      const tfacc::VerifyOptions& opts) {
  const Scope s(kVerify);
  return real_verify_fused(run, opts);
}

TFACC_PROBE(tfacc::VerifyResult, verify_schedule,
            "_ZN5tfacc15verify_scheduleERKNS_7OpGraphERKNS_13ScheduleStatsERKN"
            "S_13VerifyOptionsE",
            (const tfacc::OpGraph& g, const tfacc::ScheduleStats& st,
             const tfacc::VerifyOptions& opts))
tfacc::VerifyResult wrap_verify_schedule(const tfacc::OpGraph& g,
                                         const tfacc::ScheduleStats& st,
                                         const tfacc::VerifyOptions& opts) {
  const Scope s(kVerify);
  return real_verify_schedule(g, st, opts);
}

// reference: the host decode loop.
TFACC_PROBE(void, decode_step_batch,
            "_ZNK5tfacc11Transformer17decode_step_batchERKSt6vectorIPNS_"
            "11DecodeStateESaIS3_EERKS1_IiSaIiEERNS_6MatrixIfEE",
            (const tfacc::Transformer* self,
             const std::vector<tfacc::DecodeState*>& states,
             const std::vector<int>& tokens, MatF& logits))
void wrap_decode_step_batch(const tfacc::Transformer* self,
                            const std::vector<tfacc::DecodeState*>& states,
                            const std::vector<int>& tokens, MatF& logits) {
  const Scope s(kDecodeStep);
  real_decode_step_batch(self, states, tokens, logits);
}

TFACC_PROBE(MatF, encode, "_ZNK5tfacc11Transformer6encodeERKSt6vectorIiSaIiEE",
            (const tfacc::Transformer* self, const tfacc::TokenSeq& src))
MatF wrap_encode(const tfacc::Transformer* self, const tfacc::TokenSeq& src) {
  const Scope s(kEncode);
  return real_encode(self, src);
}

// serve: the admission gate protocol.
TFACC_PROBE(void, gate_reserve, "_ZN5tfacc13AdmissionGate7reserveEml",
            (tfacc::AdmissionGate* self, std::size_t c, tfacc::Cycle key))
void wrap_gate_reserve(tfacc::AdmissionGate* self, std::size_t c,
                       tfacc::Cycle key) {
  const Scope s(kGateReserve);
  real_gate_reserve(self, c, key);
}

TFACC_PROBE(bool, gate_try_consume,
            "_ZN5tfacc13AdmissionGate11try_consumeEmPNS0_5GrantE",
            (tfacc::AdmissionGate* self, std::size_t c,
             tfacc::AdmissionGate::Grant* out))
bool wrap_gate_try_consume(tfacc::AdmissionGate* self, std::size_t c,
                           tfacc::AdmissionGate::Grant* out) {
  const Scope s(kGateConsume);
  return real_gate_try_consume(self, c, out);
}

TFACC_PROBE(void, gate_release, "_ZN5tfacc13AdmissionGate7releaseEm",
            (tfacc::AdmissionGate* self, std::size_t c))
void wrap_gate_release(tfacc::AdmissionGate* self, std::size_t c) {
  const Scope s(kGateRelease);
  real_gate_release(self, c);
}

TFACC_PROBE(void, gate_publish, "_ZN5tfacc13AdmissionGate7publishEml",
            (tfacc::AdmissionGate* self, std::size_t c, tfacc::Cycle t))
void wrap_gate_publish(tfacc::AdmissionGate* self, std::size_t c,
                       tfacc::Cycle t) {
  const Scope s(kGatePublish);
  real_gate_publish(self, c, t);
}

TFACC_PROBE(void, gate_retire, "_ZN5tfacc13AdmissionGate6retireEm",
            (tfacc::AdmissionGate* self, std::size_t c))
void wrap_gate_retire(tfacc::AdmissionGate* self, std::size_t c) {
  const Scope s(kGateRetire);
  real_gate_retire(self, c);
}

}  // namespace serve_probes
