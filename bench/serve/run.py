#!/usr/bin/env python3
"""Serve benchmark: build, run, check and compare the card-farm workloads.

Run every workload (untraced blocks, then the traced pass) and write the
full results:

    python3 bench/serve/run.py [--seed N] [--seconds S] [--out BENCH_serve.json]

Run one workload, printing one JSON result as the last line of stdout: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1:

    python3 bench/serve/run.py --workload W --seed N --seconds S --trace 0|1

Compare result files written with --out, metric by metric (several files
per side, comma-separated, pool their runs):

    python3 bench/serve/run.py --compare A.json[,A2.json] B.json[,B2.json]

The first run configures and builds bench/serve/ (and the library under it)
into build-bench/ at the repository root, and trains the `nmt` model once
into build-bench/models/. Progress and build output go to
stderr. Exits non-zero when a build fails, a check fails or a workload is
degenerate.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"

# Untraced reps of a workload run in several processes (blocks), interleaved
# with the other workloads' in a full run, so that one process caught in a
# slow stretch of the host weighs little. The `base` workload pays ~3 s of
# set-up per process, so it runs fewer.
BLOCKS = 5
BASE_BLOCKS = 3
# Only this workload serves the random-weight transformer-base model; the
# others serve the trained `nmt` model.
BASE_MODEL_WORKLOADS = {"card1_base_accel"}
# Timings are the 10th percentile of a run's samples (reps, set-ups). On the
# shared VM this was written on, host speed switches between a fast state
# and one about 1.5x slower, for seconds to minutes at a time, and a run can
# spend most of its time in the slow one: the median then flips between the
# two states from run to run, while the 10th percentile reads the program
# in the fast state whenever a tenth of the run got it. A rep is a whole
# Scheduler::run over every sentence, so a slower program moves every
# sample, the fastest included.
TIMING_QUANTILE = 10  # percent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} not found")
    return json.loads(spec_path.read_text())


def run_checked(cmd, what, capture=False):
    """Run cmd to completion; stdout is captured or sent to stderr."""
    proc = subprocess.run([str(c) for c in cmd], text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed (exit {proc.returncode})")
    return proc.stdout


def last_json(stdout, what):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed no result")
    return json.loads(lines[-1])


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT} holds no tfacc sources to build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", HERE, "-B", BUILD], "cmake configure")
    run_checked(["cmake", "--build", BUILD, "-j", jobs], "cmake build")


def nmt_weights():
    """The trained `nmt` model, trained on first use."""
    path = BUILD / "models" / "nmt.tfacc"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".partial")
        log("training the nmt model")
        out = run_checked([BUILD / "serve_bench", "train", "--out", tmp],
                          "nmt training", capture=True)
        log(f"  trained in {last_json(out, 'training')['train_s']:.1f} s")
        tmp.rename(path)
    return path


def workload_args(workload, seed, seconds):
    args = ["--workload", workload, "--seed", seed, "--seconds",
            f"{seconds:.3f}"]
    if workload not in BASE_MODEL_WORKLOADS:
        args += ["--weights", nmt_weights()]
    return args


def run_block(workload, seed, seconds, check):
    cmd = [BUILD / "serve_bench", "block"] + workload_args(workload, seed,
                                                           seconds)
    if check:
        cmd.append("--check")
    what = f"{workload} block"
    return last_json(run_checked(cmd, what, capture=True), what)


def run_trace(workload, seed, seconds):
    trace_file = BUILD / "traces" / f"{workload}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    cmd = ([BUILD / "serve_bench_traced", "trace"] +
           workload_args(workload, seed, seconds) +
           ["--trace-out", trace_file])
    what = f"{workload} traced pass"
    result = last_json(run_checked(cmd, what, capture=True), what)
    result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def blocks_for(workload):
    return BASE_BLOCKS if workload in BASE_MODEL_WORKLOADS else BLOCKS


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timing(values):
    """The TIMING_QUANTILE percentile of a run's timing samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        TIMING_QUANTILE - 1]


def e2e_values(setup_s, wall_s, cpu_s, rss_mb, tokens):
    return {
        "setup_s": timing(setup_s),
        "tokens_per_s": tokens / timing(wall_s),
        "cpu_us_per_token": 1e6 * timing(cpu_s) / tokens,
        "peak_rss_mb": statistics.median(rss_mb),
    }


def summarize_blocks(blocks):
    """End-to-end values of one workload's untraced blocks.

    The values pool every block's samples; `runs` holds each block's own
    values, the run-to-run samples --compare judges spread by. Blocks must
    agree on outputs and simulated state; a block that does not counts all
    its requests as failed. Throughput counts output tokens, so that seeds
    whose sentences decode longer or shorter compare alike.
    """
    first = blocks[0]
    tokens = round(first["mean_output_len"] * first["sentences"])
    walls = [x for b in blocks for x in b["wall_s"]]
    values = e2e_values([x for b in blocks for x in b["setup_s"]], walls,
                        [x for b in blocks for x in b["cpu_s"]],
                        [b["peak_rss_mb"] for b in blocks], tokens)
    runs = [e2e_values(b["setup_s"], b["wall_s"], b["cpu_s"],
                       [b["peak_rss_mb"]], tokens) for b in blocks]
    attempted = sum(b["attempted"] for b in blocks)
    failed = sum(b["failed"] for b in blocks)
    for b in blocks[1:]:
        if (b["output_hash"], b["sim"]) != (first["output_hash"],
                                            first["sim"]):
            log(f"{first['workload']}: a block's outputs or simulated state "
                "differ from the first block's")
            failed += b["attempted"]
    return {
        "values": values,
        "runs": {k: [r[k] for r in runs] for k in values},
        "reps": len(walls),
        "output_tokens": tokens,
        "run_s_p10": timing(walls),
        "run_s_p50": statistics.median(walls),
        "run_s_p66": statistics.quantiles(walls, n=3)[1],
        "ref_loop_ms": statistics.median(
            [x for b in blocks for x in b["ref_loop_ms"]]),
        "mem_loop_ms": statistics.median(
            [x for b in blocks for x in b["mem_loop_ms"]]),
        "mean_output_len": first["mean_output_len"],
        "mean_reference_len": first["mean_reference_len"],
        "modeled": first["sim"],
        "attempted": attempted,
        "failed": failed,
    }


def with_units(values, spec_metrics):
    """{name: {value, unit}} for every metric BENCHMARK.json declares."""
    out = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def result_line(correct, attempted, failed, values, spec_metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": with_units(values, spec_metrics)}


def run_one(spec, args):
    """One workload, one pass: the benchmark contract's entry point."""
    if args.trace:
        t = run_trace(args.workload, args.seed, args.seconds)
        for name, value in sorted(t["metrics"].items()):
            log(f"  {name:32s} {value:.6g}")
        correct = t["failed"] == 0 and t["probes_ok"]
        return result_line(correct, t["attempted"], t["failed"],
                             t["metrics"], spec["per_layer"])
    n = blocks_for(args.workload)
    blocks = [run_block(args.workload, args.seed, args.seconds / n,
                        check=(b == 0)) for b in range(n)]
    s = summarize_blocks(blocks)
    log(f"  {s['reps']} reps, run s p10 {s['run_s_p10']:.4f} "
        f"p50 {s['run_s_p50']:.4f} p66 {s['run_s_p66']:.4f}")
    for name, value in s["values"].items():
        log(f"  {name:24s} {value:.6g}")
    return result_line(s["failed"] == 0, s["attempted"], s["failed"],
                         s["values"], spec["end_to_end"])


def run_all(spec, args):
    """Every workload: interleaved untraced blocks, then the traced pass."""
    workloads = [w["name"] for w in spec["workloads"]]
    blocks = {w: [] for w in workloads}
    for b in range(BLOCKS):
        for w in workloads:
            n = blocks_for(w)
            if b >= n:
                continue
            log(f"[block {b + 1}/{n}] {w}")
            blocks[w].append(run_block(w, args.seed, args.seconds / n,
                                       check=(b == 0)))
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in workloads:
        log(f"[traced] {w}")
        s = summarize_blocks(blocks[w])
        with_units(s["values"], spec["end_to_end"])
        t = run_trace(w, args.seed, args.seconds)
        s["per_layer"] = with_units(t["metrics"], spec["per_layer"])
        s["trace_file"] = t["trace_file"]
        s["attempted"] += t["attempted"]
        s["failed"] += t["failed"]
        ok = ok and s["failed"] == 0 and t["probes_ok"]
        results["workloads"][w] = s
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
        log(f"results written to {args.out}")
    print_table(spec, results)
    return ok


def print_table(spec, results):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w, s in results["workloads"].items():
        print(f"{w}: {s['reps']} reps, failed {s['failed']}/{s['attempted']}")
        for name, value in s["values"].items():
            runs = ", ".join(f"{x:.6g}" for x in s["runs"][name])
            print(f"  {name:24s} {value:12.6g} {units[name]:6s} "
                  f"(blocks: {runs})")
        for name in ("sentences_per_s", "paper_cycle_err_pct"):
            print(f"  sim.{name:20s} {s['modeled'][name]:12.6g}")


def verdict(a, b, better, bound):
    """Judge runs b (new) against runs a (base) by the metric's bound."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mb - ma) / ma  # > 0: b is worse
    spread = max((quartiles(x)[1] - quartiles(x)[0]) / statistics.median(x)
                 for x in (a, b))
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if all_better:
        return "better"
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within bound"


def load_results(paths):
    """Workload results of comma-separated --out files, runs pooled."""
    merged = {}
    for path in paths.split(","):
        for w, s in json.loads(Path(path).read_text())["workloads"].items():
            if w not in merged:
                merged[w] = {"runs": {k: [] for k in s["runs"]},
                             "modeled": s["modeled"]}
            elif s["modeled"] != merged[w]["modeled"]:
                raise BenchError(f"{w}: modeled statistics differ within "
                                 f"{paths}")
            for k, v in s["runs"].items():
                merged[w]["runs"][k] += v
    return merged


def compare(spec, paths_a, paths_b):
    a, b = load_results(paths_a), load_results(paths_b)
    ok = True
    for w in a:
        if w not in b:
            print(f"{w}: missing from {paths_b}")
            ok = False
            continue
        print(w)
        for m in spec["end_to_end"]:
            sa, sb = a[w]["runs"][m["name"]], b[w]["runs"][m["name"]]
            v = verdict(sa, sb, m["better"], m["bound"])
            ok = ok and v in ("within bound", "better")
            qa, qb = quartiles(sa), quartiles(sb)
            print(f"  {m['name']:24s} A {statistics.median(sa):.6g} "
                  f"[{qa[0]:.6g}, {qa[1]:.6g}]  B {statistics.median(sb):.6g} "
                  f"[{qb[0]:.6g}, {qb[1]:.6g}]  bound {m['bound']:.0%}: {v}")
        # Modeled metrics are deterministic: exactly equal or a change.
        for name, va in a[w]["modeled"].items():
            vb = b[w]["modeled"].get(name)
            same = va == vb
            ok = ok and same
            print(f"  sim.{name:20s} A {va}  B {vb}: "
                  f"{'equal' if same else 'DIFFERS'}")
    return ok


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload (benchmark contract)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="timed seconds per workload and pass "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write full results (JSON) here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return 0 if compare(spec, *args.compare) else 1
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}")
        build()
        if args.workload is None:
            return 0 if run_all(spec, args) else 1
        result = run_one(spec, args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except (BenchError, json.JSONDecodeError) as e:
        log(f"serve bench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
