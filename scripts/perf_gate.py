#!/usr/bin/env python3
"""Perf gate: fail when a bench's modeled throughput or SA utilization
regresses more than the tolerance against its committed baseline.

Usage:  perf_gate.py CURRENT_BENCH.json BASELINE.json [--tolerance 0.02]

The BENCH_*.json files are produced by bench_scheduler, bench_gemm and
bench_scaling (see README "BENCH_*.json schema"). The simulated cycle
ledgers are integer-deterministic for a given workload, so on an unchanged
tree current == baseline exactly; the tolerance only leaves head-room for
deliberate small model refinements. Gated metrics, compared at every
structurally matching position (slot and card sweeps, sections, gates):

  * sa_utilization               — must not drop below baseline * (1 - tol)
  * modeled_sentences_per_second — must not drop below baseline * (1 - tol)
  * wallclock_speedup_vs_scalar  — measured SIMD/scalar serve-loop ratio
  * gemm_ns_scalar_over_simd     — measured scalar/SIMD GEMM-kernel ratio
  * wall_speedup_vs_1card        — measured multi-card scaling ratio (PR 9)

The wall-clock metrics are dimensionless ratios (host-speed free), but they
do depend on the host's SIMD class. When both files carry a "host" stanza
(bench/json.hpp write_host_info) and the kernel capabilities differ — e.g. a
host without AVX2 diffing an AVX2 baseline — the wall-clock gates are SKIPPED;
simulated-cycle metrics stay gated regardless. The multi-card scaling ratio
additionally depends on the host's core count: it is SKIPPED whenever either
side of the diff ran on fewer than 4 cores (the host stanza's "cores"), since
a core-starved box cannot reproduce a 4-card curve. Gate wall-clock files
with a loose --tolerance (CI uses 0.25): they are measured, not
integer-replayed.

Workload keys (sentences, max_len, slots, cards, kernel, ...) must match
exactly: comparing different workloads is a configuration error, not a
regression.

The walk is driven by the baseline, so a gated metric present only in the
CURRENT bench (a new sweep point, a new gated section) would otherwise be
silently unguarded forever. Those paths are reported as UNBASELINED and
fail the gate: shipping a new gated metric requires refreshing its baseline
in the same change (see README "Refreshing the perf baselines").
"""

import argparse
import json
import sys

# Multi-card scaling gates: measured speedup ratios that need >= 4 host
# cores on both sides of the diff to be comparable.
SCALING_METRICS = {"wall_speedup_vs_1card"}
# Wall-clock gates: dimensionless measured ratios, skipped on a host whose
# kernel capability differs from the baseline's. Scaling ratios are
# wall-clock too (the capability skip applies on top of the core-count one).
WALLCLOCK_METRICS = {"wallclock_speedup_vs_scalar",
                     "gemm_ns_scalar_over_simd"} | SCALING_METRICS
GATED_METRICS = {"sa_utilization",
                 "modeled_sentences_per_second"} | WALLCLOCK_METRICS
WORKLOAD_KEYS = {"sentences", "max_len", "slots", "slots_per_card", "cards",
                 "beam_size", "bench", "prefill_chunk_rows",
                 "arrival_mean_gap_cycles", "kernel", "d_model", "backend",
                 "repeats"}


def capability(doc):
    """The host stanza's kernel capability, or None on pre-PR-8 files."""
    host = doc.get("host") if isinstance(doc, dict) else None
    return host.get("kernel_capability") if isinstance(host, dict) else None


def host_cores(doc):
    """The host stanza's core count, or None on pre-PR-9 files."""
    host = doc.get("host") if isinstance(doc, dict) else None
    return host.get("cores") if isinstance(host, dict) else None


def walk(current, baseline, path, failures, checks, skip_wallclock,
         skip_scaling, skips):
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            failures.append(f"{path}: baseline is an object, current is not")
            return
        for key, base_value in baseline.items():
            if key not in current:
                failures.append(f"{path}.{key}: missing from current bench")
                continue
            walk(current[key], base_value, f"{path}.{key}", failures, checks,
                 skip_wallclock, skip_scaling, skips)
    elif isinstance(baseline, list):
        if not isinstance(current, list) or len(current) != len(baseline):
            failures.append(f"{path}: sweep shape differs from baseline")
            return
        for i, base_value in enumerate(baseline):
            walk(current[i], base_value, f"{path}[{i}]", failures, checks,
                 skip_wallclock, skip_scaling, skips)
    else:
        leaf = path.rsplit(".", 1)[-1]
        if leaf in SCALING_METRICS and skip_scaling:
            skips.append(path)
            print(f"     SKIPPED  {path}: a host on either side has < 4 "
                  f"cores — multi-card scaling gate not comparable")
        elif leaf in WALLCLOCK_METRICS and skip_wallclock:
            skips.append(path)
            print(f"     SKIPPED  {path}: host kernel capability differs "
                  f"from baseline — wall-clock gate not comparable")
        elif leaf in WORKLOAD_KEYS and path.endswith(f".host.{leaf}"):
            # The host stanza describes the machine, not the workload: the
            # "kernel" key there legitimately differs across hosts.
            pass
        elif leaf in WORKLOAD_KEYS and current != baseline:
            failures.append(
                f"{path}: workload mismatch (current {current!r} vs "
                f"baseline {baseline!r}) — rerun the bench with the "
                f"baseline's arguments")
        elif leaf in GATED_METRICS:
            try:
                checks.append((path, float(current), float(baseline)))
            except (TypeError, ValueError):
                failures.append(
                    f"{path}: gated metric is not numeric "
                    f"(current {current!r}, baseline {baseline!r})")


def collect_gated_paths(node, path, out):
    """All paths in `node` whose leaf is a gated metric."""
    if isinstance(node, dict):
        for key, value in node.items():
            collect_gated_paths(value, f"{path}.{key}", out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            collect_gated_paths(value, f"{path}[{i}]", out)
    elif path.rsplit(".", 1)[-1] in GATED_METRICS:
        out.add(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed fractional regression (default 0.02)")
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    cap_current, cap_baseline = capability(current), capability(baseline)
    skip_wallclock = (cap_current is not None and cap_baseline is not None
                      and cap_current != cap_baseline)
    cores_current, cores_baseline = host_cores(current), host_cores(baseline)
    skip_scaling = ((cores_current is not None and cores_current < 4)
                    or (cores_baseline is not None and cores_baseline < 4))

    failures, checks, skips = [], [], []
    walk(current, baseline, "$", failures, checks, skip_wallclock,
         skip_scaling, skips)

    # The baseline-driven walk never sees current-only paths: a gated metric
    # the current bench emits without a baseline counterpart must fail, or
    # new gates would ship unguarded.
    current_gated, baseline_gated = set(), set()
    collect_gated_paths(current, "$", current_gated)
    collect_gated_paths(baseline, "$", baseline_gated)
    unbaselined = sorted(
        path for path in current_gated - baseline_gated
        if not (skip_wallclock
                and path.rsplit(".", 1)[-1] in WALLCLOCK_METRICS)
        if not (skip_scaling
                and path.rsplit(".", 1)[-1] in SCALING_METRICS))
    for path in unbaselined:
        print(f"  UNBASELINED {path}: gated metric has no baseline — "
              f"refresh {args.baseline} in this change")
    failures.extend(f"{path}: gated metric missing from baseline"
                    for path in unbaselined)

    regressions = 0
    for path, cur, base in checks:
        floor = base * (1.0 - args.tolerance)
        status = "ok"
        if cur < floor:
            status = "REGRESSION"
            regressions += 1
        elif cur > base:
            status = "improved"
        print(f"  {status:>10}  {path}: {cur:.6g} (baseline {base:.6g})")

    for failure in failures:
        print(f"  STRUCTURE   {failure}")

    if not checks and not failures:
        if skips:
            print(f"perf gate: PASS ({len(skips)} wall-clock metric(s) "
                  f"skipped on host capability/core mismatch, nothing else "
                  f"gated)")
            return 0
        print("perf gate: no gated metrics found — check the file pair")
        return 1
    if regressions or failures:
        print(f"perf gate: FAIL ({regressions} regression(s), "
              f"{len(failures)} structural problem(s)) vs {args.baseline}")
        return 1
    print(f"perf gate: PASS ({len(checks)} metrics within "
          f"{args.tolerance:.0%} of {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
