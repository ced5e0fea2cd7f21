// Schedule verifier (PR 7): typed diagnostics for every ledger.
//
// The repo's core claim — paper-pinned cycle counts and deterministic,
// host-independent per-card ledgers — rests on every placed schedule being
// legal. This subsystem treats any OpGraph plus a
// placed schedule (ScheduleStats / FusedRun) as a *program* and checks the
// full invariant set:
//
//   * coverage           — every op has exactly one interval and result time
//   * dependency legality — no op starts before its producers' results
//   * stationary operands — SA ops wait out their weight tile's load
//   * cold load          — the earliest SA op pays the run's initial load
//   * single occupancy   — no two intervals overlap on one resource
//   * prefetch chain     — WeightLoad single-residency and continuity
//                          (PR 5/6, including across the prefill/decode seam)
//   * program-order pins — schedule_mha (Algorithm 1) and any ledger
//                          containing a full-MHA sublayer issue in order
//   * lane rules         — chained sublayers of one fused lane never
//                          interleave their SA occupancies
//   * determinism        — a canonical FNV-1a hash of the ledger, compared
//                          across rebuilds / hosts
//
// Violations come back as typed Diagnostics (stable code, offending op ids,
// resource, cycle interval) instead of a string, so a failing CI run is
// actionable without a local repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedules.hpp"
#include "sim/op_graph.hpp"

namespace tfacc {

/// Stable diagnostic codes. tools/schedule_lint and the tamper tests key on
/// these; never renumber or reuse a retired code.
enum class DiagCode {
  kCoverage,        ///< SCHED-COVERAGE: stats don't cover every op
  kDuration,        ///< SCHED-DURATION: interval length != declared duration
  kResultTime,      ///< SCHED-RESULT: result time != interval end + latency
  kDependency,      ///< SCHED-DEP: op starts before a producer's result
  kStationaryLoad,  ///< SCHED-WLOAD: SA op outruns its weight tile's load
  kColdLoad,        ///< SCHED-COLD: first SA op skips the run's cold load
  kOverlap,         ///< SCHED-OVERLAP: two intervals share a resource
  kPrefetchChain,   ///< SCHED-CHAIN: WeightLoad residency/continuity broken
  kProgramOrder,    ///< SCHED-ORDER: program-order pin violated
  kLaneInterleave,  ///< SCHED-LANE: chained sublayers' SA work interleaves
  kHashMismatch,    ///< SCHED-HASH: ledger hash != the expected hash
};

/// The stable code string ("SCHED-DEP", ...), as printed by schedule_lint.
const char* diag_code_name(DiagCode code);

/// One verifier finding. `message` is fully formatted and always names the
/// code, the offending op id(s) and label(s), the resource, and the cycle
/// interval, so CI output alone pinpoints the violation.
struct Diagnostic {
  DiagCode code = DiagCode::kCoverage;
  int op = -1;     ///< offending op id (-1 when not op-specific)
  int other = -1;  ///< peer op id (dep / overlap partner; -1 when none)
  OpResource resource = OpResource::kSa;
  Cycle begin = 0;  ///< offending cycle interval [begin, end)
  Cycle end = 0;
  std::string message;
};

struct VerifyOptions {
  /// The schedule claims IssuePolicy::kProgramOrder (schedule_mha, or a
  /// fused ledger holding a full-MHA sublayer): per-resource issue order
  /// must follow op insertion order.
  bool program_order = false;
  /// Expected canonical ledger hash from a previous build of the same
  /// shapes (0 = don't check). A mismatch is a determinism violation: the
  /// per-card ledgers must be identical on any host.
  std::uint64_t expect_hash = 0;
};

/// Verification outcome: all diagnostics (in deterministic order, never just
/// the first) plus the ledger's canonical hash.
struct VerifyResult {
  std::vector<Diagnostic> diags;
  std::uint64_t hash = 0;

  bool ok() const { return diags.empty(); }
  /// All messages, newline-joined ("" when ok).
  std::string to_string() const;
};

/// Canonical determinism hash of a placed schedule: FNV-1a 64 over the op
/// count and the load latency, then, per op in op order, its resource, its
/// rendered label (OpGraph::label: the length, then the bytes), its
/// interval start and end, and its result time. Every integer is mixed as
/// 8 little-endian bytes. Identical graphs placed identically hash
/// identically on any host; any reordering, shift, or relabeling changes
/// it.
std::uint64_t ledger_hash(const OpGraph& g, const ScheduleStats& st);

/// Check the full invariant set of one placed schedule.
VerifyResult verify_schedule(const OpGraph& g, const ScheduleStats& st,
                             const VerifyOptions& opts = {});

/// Fused-ledger variant: verify_schedule plus the lane rules (chained
/// sublayers of one lane must not interleave their SA occupancies — the
/// residual stream passes through each sublayer's LayerNorm).
VerifyResult verify_fused(const FusedRun& run, const VerifyOptions& opts = {});

}  // namespace tfacc
