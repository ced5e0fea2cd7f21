#!/usr/bin/env python3
"""Determinism + concurrency invariant lint (PR 7, extended in PR 10).

Repo-specific rules that clang-tidy cannot express, enforced over
src/ and tools/ (tests may do what they like):

1. pointer-keyed-iteration — every ``std::unordered_map`` with a pointer
   key must be declared with a ``// lint: lookup-only`` comment, and no
   range-for may iterate a lookup-only map: pointer-keyed hash iteration
   order depends on allocator placement, so anything it feeds (reports,
   ledgers, build sequences) silently loses reproducibility.

2. nondeterminism-source — ``rand()`` / ``srand()`` / ``time()`` /
   ``std::random_device`` / ``system_clock`` appear nowhere outside
   ``src/common/random.hpp``. All randomness flows through the seeded
   ``Rng`` wrapper so every run is replayable.

3. hot-path-alloc — a function whose definition is preceded by a
   ``// hot-path: allocation-free`` marker must not allocate (new/malloc,
   container growth, string building) anywhere in its body. A
   ``// hot-path: allocation-free region`` marker extends the rule to every
   line until the matching ``// hot-path: region end`` (PR 8: the GEMM /
   requantize kernel block in src/tensor/kernels.cpp).

Concurrency rules (PR 10, the thread-safety-annotation wall's escape
hatch police):

4. raw-mutex-member — ``std::mutex`` / ``std::condition_variable`` (and
   kin) appear nowhere outside ``src/common/thread_annotations.hpp``.
   libstdc++'s primitives carry no capability attributes, so a raw mutex
   is invisible to Clang's -Wthread-safety: every lock must be the
   annotated ``Mutex`` / ``CondVar`` wrapper or the compile-time wall has
   a hole. Exemption: ``// lint: tsa-exempt <reason>`` on the line.

5. naked-lock — no ``.lock()`` / ``.unlock()`` / ``try_lock()`` calls
   outside ``src/common/thread_annotations.hpp``: critical sections are
   RAII-scoped (``MutexLock``), so no early return or exception can leak
   a held mutex, and the scoped capability is what -Wthread-safety
   tracks. (``MutexLock::Unlock``/``Lock`` — capitalized — remain the
   sanctioned mid-scope escape, themselves annotated.)

6. thread-spawn — ``std::thread`` is constructed only in
   ``src/serve/worker_pool.*``: every host thread runs under the
   WorkerPool's annotated park/unpark discipline, so there is no thread
   the admission-gate model (tools/gate_model_check) doesn't cover.
   ``std::thread::hardware_concurrency()`` queries are fine anywhere.

7. no-tsa-escape — ``TFACC_NO_TSA`` never appears under ``src/serve/``:
   the serving stack is the concurrency hot spot the wall exists for, so
   its annotation budget is pinned at zero escapes (no exemption syntax;
   loosening this rule is an explicit review decision).

Per-line exemption: append ``// lint: allow(<rule>)`` with the rule name
above (e.g. ``// lint: allow(hot-path-alloc)`` on a one-time warm-up
resize); rule 4 uses ``// lint: tsa-exempt <reason>`` instead so the
exemption names its justification.

Exit 0 when clean; exit 1 with file:line diagnostics otherwise.
``--self-test`` seeds one violation per rule against the rule engine and
exits 0 iff every one is caught (CI runs this before the real scan, so a
regex regression cannot silently disarm the lint).
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tools")
RANDOM_HOME = REPO / "src" / "common" / "random.hpp"
TSA_HOME = REPO / "src" / "common" / "thread_annotations.hpp"
THREAD_HOMES = (REPO / "src" / "serve" / "worker_pool.hpp",
                REPO / "src" / "serve" / "worker_pool.cpp")

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)")
LOOKUP_ONLY_RE = re.compile(r"//\s*lint:\s*lookup-only")

# A pointer-keyed unordered_map declaration; the declaration statement may
# wrap, so match against the joined file with the variable name at the end.
PTR_MAP_DECL_RE = re.compile(
    r"std::unordered_map<\s*(?:const\s+)?\w[\w:]*\s*\*[^;]*?>\s*\n?\s*"
    r"(\w+)\s*;([^\n]*)"
)

NONDET_RE = re.compile(
    r"\b(?:std::)?rand\s*\(|\bsrand\s*\(|\bstd::random_device\b"
    r"|\bsystem_clock\b|(?<![_\w])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
)

ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\.resize\s*\("
    r"|\.reserve\s*\(|\.push_back\s*\(|\.emplace_back\s*\(|\.emplace\s*\("
    r"|\.insert\s*\(|\.append\s*\(|\bstd::vector<|\bstd::string\s+\w"
    r"|\bto_string\s*\("
)

TSA_EXEMPT_RE = re.compile(r"//\s*lint:\s*tsa-exempt\s+\S+")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?)\b"
)
NAKED_LOCK_RE = re.compile(r"(?:\.|->)\s*(?:try_)?(?:un)?lock\s*\(")
THREAD_SPAWN_RE = re.compile(r"\bstd::(?:j)?thread\b(?!\s*::)")
NO_TSA_RE = re.compile(r"\bTFACC_NO_TSA\b")
SERVE_DIR = REPO / "src" / "serve"

HOT_PATH_RE = re.compile(r"//\s*hot-path:\s*allocation-free")
HOT_REGION_RE = re.compile(r"//\s*hot-path:\s*allocation-free\s+region")
HOT_REGION_END_RE = re.compile(r"//\s*hot-path:\s*region\s+end")


def allowed(line: str, rule: str) -> bool:
    m = ALLOW_RE.search(line)
    return m is not None and m.group(1) == rule


def lint_pointer_maps(path: pathlib.Path, text: str, lines: list[str],
                      errors: list[str]) -> None:
    lookup_only: set[str] = set()
    for m in PTR_MAP_DECL_RE.finditer(text):
        name, trailer = m.group(1), m.group(2)
        line_no = text.count("\n", 0, m.start()) + 1
        decl = m.group(0)
        if LOOKUP_ONLY_RE.search(decl) or LOOKUP_ONLY_RE.search(trailer):
            lookup_only.add(name)
        else:
            errors.append(
                f"{path}:{line_no}: pointer-keyed-iteration: pointer-keyed "
                f"unordered_map '{name}' lacks a '// lint: lookup-only' "
                f"declaration comment (hash order = allocator order)")
    if not lookup_only:
        return
    # Any range-for over a lookup-only map (bare name or member access).
    names = "|".join(sorted(lookup_only))
    iter_re = re.compile(rf"for\s*\(.*:\s*[\w.\->]*\b(?:{names})\b\s*\)")
    for i, line in enumerate(lines, start=1):
        if iter_re.search(line) and not allowed(line, "pointer-keyed-iteration"):
            errors.append(
                f"{path}:{i}: pointer-keyed-iteration: range-for over a "
                f"lookup-only pointer-keyed map — iterate an "
                f"insertion-ordered vector (e.g. QuantizedTransformer's "
                f"block lists) instead")


def lint_nondeterminism(path: pathlib.Path, lines: list[str],
                        errors: list[str]) -> None:
    if path == RANDOM_HOME:
        return
    for i, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        if NONDET_RE.search(code) and not allowed(line, "nondeterminism-source"):
            errors.append(
                f"{path}:{i}: nondeterminism-source: platform randomness/"
                f"clock outside src/common/random.hpp — draw from the "
                f"seeded Rng instead")


def lint_hot_paths(path: pathlib.Path, lines: list[str],
                   errors: list[str]) -> None:
    i = 0
    while i < len(lines):
        if not HOT_PATH_RE.search(lines[i]):
            i += 1
            continue
        if HOT_REGION_RE.search(lines[i]):
            # Region form: every line until '// hot-path: region end' is hot.
            j = i + 1
            while j < len(lines) and not HOT_REGION_END_RE.search(lines[j]):
                code = lines[j].split("//", 1)[0]
                if ALLOC_RE.search(code) and not allowed(
                        lines[j], "hot-path-alloc"):
                    errors.append(
                        f"{path}:{j + 1}: hot-path-alloc: allocation inside "
                        f"a '// hot-path: allocation-free region'")
                j += 1
            if j >= len(lines):
                errors.append(
                    f"{path}:{i + 1}: hot-path-alloc: unterminated "
                    f"'// hot-path: allocation-free region' (no "
                    f"'// hot-path: region end')")
            i = j + 1
            continue
        # The marked function's body: from its first '{' to brace balance 0.
        depth = 0
        entered = False
        j = i + 1
        while j < len(lines):
            code = lines[j].split("//", 1)[0]
            if entered and ALLOC_RE.search(code) and not allowed(
                    lines[j], "hot-path-alloc"):
                errors.append(
                    f"{path}:{j + 1}: hot-path-alloc: allocation inside a "
                    f"'// hot-path: allocation-free' function")
            depth += code.count("{") - code.count("}")
            if "{" in code:
                entered = True
            if entered and depth <= 0:
                break
            j += 1
        i = j + 1


def lint_raw_mutex(path: pathlib.Path, lines: list[str],
                   errors: list[str]) -> None:
    if path == TSA_HOME:
        return
    for i, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        if RAW_MUTEX_RE.search(code) and not TSA_EXEMPT_RE.search(line):
            errors.append(
                f"{path}:{i}: raw-mutex-member: raw std::mutex/"
                f"condition_variable outside common/thread_annotations.hpp "
                f"— use the annotated Mutex/CondVar wrappers so "
                f"-Wthread-safety can see the lock (or justify with "
                f"'// lint: tsa-exempt <reason>')")


def lint_naked_lock(path: pathlib.Path, lines: list[str],
                    errors: list[str]) -> None:
    if path == TSA_HOME:
        return
    for i, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        if NAKED_LOCK_RE.search(code) and not allowed(line, "naked-lock"):
            errors.append(
                f"{path}:{i}: naked-lock: manual lock()/unlock() outside "
                f"an RAII guard — hold critical sections via MutexLock "
                f"(mid-scope escapes go through its annotated "
                f"Unlock()/Lock())")


def lint_thread_spawn(path: pathlib.Path, lines: list[str],
                      errors: list[str]) -> None:
    if path in THREAD_HOMES:
        return
    for i, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        if THREAD_SPAWN_RE.search(code) and not allowed(line, "thread-spawn"):
            errors.append(
                f"{path}:{i}: thread-spawn: std::thread outside "
                f"serve/worker_pool — host threads run under the "
                f"WorkerPool's park/unpark discipline (the one the "
                f"admission-gate model checker covers)")


def lint_no_tsa_escape(path: pathlib.Path, lines: list[str],
                       errors: list[str]) -> None:
    if SERVE_DIR not in path.parents:
        return
    for i, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        if NO_TSA_RE.search(code):
            errors.append(
                f"{path}:{i}: no-tsa-escape: TFACC_NO_TSA inside src/serve/ "
                f"— the serving stack's annotation budget is zero escapes; "
                f"restructure the access instead")


def lint_file(path: pathlib.Path, text: str, errors: list[str]) -> None:
    lines = text.splitlines()
    lint_pointer_maps(path, text, lines, errors)
    lint_nondeterminism(path, lines, errors)
    lint_hot_paths(path, lines, errors)
    lint_raw_mutex(path, lines, errors)
    lint_naked_lock(path, lines, errors)
    lint_thread_spawn(path, lines, errors)
    lint_no_tsa_escape(path, lines, errors)


# One seeded violation (and one exempted twin that must stay clean) per
# rule; --self-test runs each through the real rule engine.
SELF_TEST_CASES = [
    ("pointer-keyed-iteration",
     "std::unordered_map<const Op*, int> uses_;\n",
     "std::unordered_map<const Op*, int> uses_;  // lint: lookup-only\n"),
    ("nondeterminism-source",
     "const unsigned seed = std::random_device{}();\n",
     "const unsigned seed = 1;  // std::random_device via comment is fine\n"),
    ("hot-path-alloc",
     "// hot-path: allocation-free\n"
     "void f() {\n  v.push_back(1);\n}\n",
     "// hot-path: allocation-free\n"
     "void f() {\n  v.push_back(1);  // lint: allow(hot-path-alloc)\n}\n"),
    ("raw-mutex-member",
     "mutable std::mutex mu_;\n",
     "mutable std::mutex mu_;  // lint: tsa-exempt ffi-boundary\n"),
    ("naked-lock",
     "mu_.lock();\ncount += 1;\nmu_.unlock();\n",
     "const MutexLock lock(mu_);\ncount += 1;\n"),
    ("thread-spawn",
     "std::thread worker([] { run(); });\n",
     "const unsigned hw = std::thread::hardware_concurrency();\n"),
]

# no-tsa-escape is path-scoped (src/serve only), so it gets its own pair
# of fake paths rather than a SELF_TEST_CASES row.
NO_TSA_SNIPPET = "void poke() TFACC_NO_TSA { slots_.clear(); }\n"


def self_test() -> int:
    failures = 0
    fake = REPO / "src" / "self_test" / "seeded.cpp"
    for rule, bad, good in SELF_TEST_CASES:
        errors: list[str] = []
        lint_file(fake, bad, errors)
        caught = [e for e in errors if f" {rule}: " in e]
        if not caught:
            print(f"self-test: seeded {rule} violation NOT caught",
                  file=sys.stderr)
            failures += 1
        clean: list[str] = []
        lint_file(fake, good, clean)
        if any(f" {rule}: " in e for e in clean):
            print(f"self-test: exempted {rule} twin flagged spuriously",
                  file=sys.stderr)
            failures += 1

    serve_errors: list[str] = []
    lint_file(SERVE_DIR / "seeded.hpp", NO_TSA_SNIPPET, serve_errors)
    if not any(" no-tsa-escape: " in e for e in serve_errors):
        print("self-test: seeded no-tsa-escape violation NOT caught",
              file=sys.stderr)
        failures += 1
    outside_errors: list[str] = []
    lint_file(REPO / "src" / "sim" / "seeded.hpp", NO_TSA_SNIPPET,
              outside_errors)
    if any(" no-tsa-escape: " in e for e in outside_errors):
        print("self-test: no-tsa-escape flagged outside src/serve",
              file=sys.stderr)
        failures += 1

    print(f"lint_invariants --self-test: {len(SELF_TEST_CASES) + 1} rules, "
          f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def main(argv: list[str]) -> int:
    if argv == ["--self-test"]:
        return self_test()
    if argv:
        print("usage: lint_invariants.py [--self-test]", file=sys.stderr)
        return 2

    errors: list[str] = []
    files = sorted(
        p for d in SCAN_DIRS for p in (REPO / d).rglob("*")
        if p.suffix in (".cpp", ".hpp", ".h", ".cc"))
    for path in files:
        lint_file(path, path.read_text(encoding="utf-8"), errors)

    for e in errors:
        print(e, file=sys.stderr)
    print(f"lint_invariants: {len(files)} files scanned, "
          f"{len(errors)} violation(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
