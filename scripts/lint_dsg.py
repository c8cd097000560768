#!/usr/bin/env python3
"""lint_dsg.py -- project-specific static lints for the delta-stepping tree.

Five machine-checked rules that clang-tidy cannot express (they encode
*this* project's contracts, documented in docs/ARCHITECTURE.md under
"Correctness tooling"):

  atomics-confinement
      Raw std::atomic access -- the std::atomic/std::atomic_ref spellings,
      memory_order_* arguments, compare_exchange_*, .fetch_*() RMWs, and
      #include <atomic> -- is only legal in the audited allowlist:
          src/sssp/async/write_min.hpp      (CAS min relaxation primitive)
          src/sssp/async/async_stepping.cpp (async engine internals)
          src/sssp/query_control.hpp        (cancel flag + audited wrappers)
      Everything else must route through the wrappers those files export
      (dsg::async::write_min, dsg::RelaxedCounter, dsg::PublishedFlag).
      Extending the allowlist means auditing the new file's ordering
      argument and editing ALLOWED_ATOMICS here, in the same review.

  openmp-confinement
      OpenMP -- '#pragma omp', '#include <omp.h>' and omp_*() calls -- is
      only legal in the allowlist:
          src/sssp/delta_stepping_fused.cpp (the one tasked Δ-stepping body)
          src/sssp/solver.cpp               (solve_batch's source fan-out)
          src/sssp/plan.cpp                 (resolve_num_threads)
      The grb:: substrate is serial, and every other core takes its team
      size from resolve_num_threads.  Extending the allowlist means editing
      ALLOWED_OPENMP here, in the same review.

  capi-guard
      Every extern "C" API entry point defined in src/capi/*.cpp (names
      GrB_* / GxB_* / Dsg*) must route through guarded(), the
      exception->GrB_Info translation wrapper, so no C++ exception can
      cross the C ABI boundary.

  header-hygiene
      No '#include' of a .cpp file anywhere, and no 'using namespace' at
      any scope in headers (.h/.hpp).

  lock-discipline
      Raw .lock()/.unlock() on a mutex (std::mutex variants or the
      project's AuditedMutex) is only legal inside testing/lock_audit.*
      (the lockdep wrappers themselves).  Everything else must hold locks
      through lock_guard / unique_lock / scoped_lock, so no code path can
      leak a lock past an exception -- and so the lockdep auditor sees
      every acquisition.  Mutex variable NAMES are collected tree-wide
      (declarations live in headers, call sites in .cpp files), then any
      name.lock()/name.unlock() call site outside the allowlist is
      flagged.  Calling .unlock() on a unique_lock GUARD is fine and not
      flagged: the guard still owns the mutex's cleanup.

Usage:
  lint_dsg.py                 lint <repo>/src (the script's ../src)
  lint_dsg.py --root DIR      lint DIR instead (fixtures, tests)
  lint_dsg.py --self-test     run the bundled good/bad fixtures and exit

Exit status: 0 clean, 1 violations found (or self-test failure),
2 usage/internal error.  Output: one "file:line: [rule] message" per
violation, gcc-style, so editors and CI annotate them.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- Rule configuration -----------------------------------------------------

# Files (relative to the lint root) where raw atomics are legal.
ALLOWED_ATOMICS = {
    "sssp/async/write_min.hpp",
    "sssp/async/async_stepping.cpp",
    "sssp/query_control.hpp",
    # The lockdep auditor's violation-handler pointer: one default-seq_cst
    # exchange/load, no ordering subtleties.  The auditor cannot route
    # through the audited wrappers without auditing itself.
    "testing/lock_audit.cpp",
}

ATOMIC_TOKENS = re.compile(
    r"""std::atomic\b            # the type and atomic_ref, atomic_flag...
      | std::memory_order\b
      | \bmemory_order_(?:relaxed|consume|acquire|release|acq_rel|seq_cst)\b
      | \.compare_exchange_(?:weak|strong)\b
      | \.fetch_(?:add|sub|and|or|xor)\s*\(
      | \#\s*include\s*<atomic>
    """,
    re.VERBOSE,
)

# Files (relative to the lint root) where OpenMP is legal.
ALLOWED_OPENMP = {
    "sssp/delta_stepping_fused.cpp",
    "sssp/solver.cpp",
    "sssp/plan.cpp",
}

OPENMP_TOKENS = re.compile(
    r"""\#\s*pragma\s+omp\b
      | \#\s*include\s*<omp\.h>
      | \bomp_\w+\s*\(
    """,
    re.VERBOSE,
)

HEADER_SUFFIXES = {".h", ".hpp"}
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp"}

# A C-API entry point: GrB_* / GxB_* / Dsg* at the start of a (possibly
# multi-token) declarator, immediately followed by an argument list.
CAPI_ENTRY = re.compile(r"\b((?:GrB|GxB|Dsg)[A-Za-z0-9_]*)\s*\(")

USING_NAMESPACE = re.compile(r"\busing\s+namespace\b")
INCLUDE_CPP = re.compile(r'#\s*include\s*["<][^">]*\.cpp[">]')

# An entry body counts as guarded when it calls guarded() directly or one of
# the guard-equivalent dispatch helpers (internal-linkage functions whose own
# bodies route through guarded()).  Adding a helper here requires that it
# wrap *all* its callback invocations in guarded(), like these two do.
GUARD_CALLS = ("guarded(", "run_vector_op(", "run_matrix_op(")

# Files (relative to the lint root) where raw mutex .lock()/.unlock() is
# legal: the lockdep wrappers themselves, which forward to the underlying
# std::mutex by definition.
ALLOWED_RAW_LOCK = {
    "testing/lock_audit.hpp",
    "testing/lock_audit.cpp",
}

# A mutex *variable* declaration: the type (possibly qualified/mutable/
# static), then the variable name, then an initializer or semicolon.
# Function declarations (name followed by '(') deliberately do not match.
MUTEX_DECL = re.compile(
    r"""\b(?:std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex
          | (?:dsg::)?(?:testing::)?AuditedMutex)
        \s+([A-Za-z_]\w*)\s*(?:;|\{|=)
    """,
    re.VERBOSE,
)


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Replaces comment and string-literal contents with spaces, preserving
    line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    quote = '"'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal: R"delim( ... )delim"
                if out and out[-1] == "R" and (len(out) < 2 or not out[-2].isalnum()):
                    m = re.match(r'R"([^()\s\\]*)\(', text[i - 1 : i + 32])
                    if m:
                        end = text.find(")" + m.group(1) + '"', i)
                        if end == -1:
                            end = n - 1
                        end += len(m.group(1)) + 2
                        seg = text[i : end]
                        out.append('"' + re.sub(r"[^\n]", " ", seg[1:-1]) + '"')
                        i = end
                        continue
                mode, quote = "str", '"'
                out.append(c)
                i += 1
                continue
            if c == "'":
                mode, quote = "chr", "'"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def iter_sources(root: Path):
    for path in sorted(root.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            yield path


# --- Rules ------------------------------------------------------------------


def check_atomics(root: Path, path: Path, code: str) -> list[Violation]:
    rel = path.relative_to(root).as_posix()
    if rel in ALLOWED_ATOMICS:
        return []
    out = []
    for m in ATOMIC_TOKENS.finditer(code):
        out.append(
            Violation(
                path,
                line_of(code, m.start()),
                "atomics-confinement",
                f"raw atomic token '{m.group(0).strip()}' outside the audited "
                "allowlist; use the wrappers in sssp/query_control.hpp or "
                "sssp/async/write_min.hpp (see docs/ARCHITECTURE.md)",
            )
        )
    return out


def check_openmp(root: Path, path: Path, code: str) -> list[Violation]:
    rel = path.relative_to(root).as_posix()
    if rel in ALLOWED_OPENMP:
        return []
    return [
        Violation(
            path,
            line_of(code, m.start()),
            "openmp-confinement",
            f"OpenMP token '{m.group(0).strip()}' outside the allowlist; "
            "the grb:: substrate is serial and team sizes come from "
            "dsg::resolve_num_threads (see docs/ARCHITECTURE.md)",
        )
        for m in OPENMP_TOKENS.finditer(code)
    ]


def find_capi_entries(code: str):
    """Yields (name, name_offset, body_start, body_end) for every top-level
    C-API function *definition* (argument list followed by a brace body)."""
    for m in CAPI_ENTRY.finditer(code):
        # Walk the argument list to its matching ')'.
        depth = 0
        i = m.end() - 1
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(code):
            continue
        j = i + 1
        while j < len(code) and code[j] in " \t\n":
            j += 1
        if j >= len(code) or code[j] != "{":
            continue  # declaration, call, or pointer — not a definition
        # The token before the name must end a previous statement or be a
        # declarator token, not a call context like 'return Foo(...)'.
        k = m.start() - 1
        while k >= 0 and code[k] in " \t\n*&":
            k -= 1
        if k >= 0 and not (code[k].isalnum() or code[k] in "_;}{"):
            continue
        # Matching close brace of the body.
        depth = 0
        end = j
        while end < len(code):
            if code[end] == "{":
                depth += 1
            elif code[end] == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        yield m.group(1), m.start(), j, end


def check_capi_guard(root: Path, path: Path, code: str) -> list[Violation]:
    rel = path.relative_to(root).as_posix()
    if not (rel.startswith("capi/") and path.suffix == ".cpp"):
        return []
    out = []
    for name, off, body_start, body_end in find_capi_entries(code):
        body = code[body_start:body_end]
        if not any(call in body for call in GUARD_CALLS):
            out.append(
                Violation(
                    path,
                    line_of(code, off),
                    "capi-guard",
                    f"C API entry '{name}' does not route through guarded(); "
                    "an exception here would cross the C ABI boundary",
                )
            )
    return out


def check_header_hygiene(root: Path, path: Path, code: str) -> list[Violation]:
    del root
    out = []
    for m in INCLUDE_CPP.finditer(code):
        out.append(
            Violation(
                path,
                line_of(code, m.start()),
                "header-hygiene",
                "#include of a .cpp file",
            )
        )
    if path.suffix in HEADER_SUFFIXES:
        for m in USING_NAMESPACE.finditer(code):
            out.append(
                Violation(
                    path,
                    line_of(code, m.start()),
                    "header-hygiene",
                    "'using namespace' in a header leaks into every includer",
                )
            )
    return out


# Tree-wide mutex-name collection for the lock-discipline rule.  Mutex
# members are declared in headers but locked in .cpp files, so a per-file
# scan would miss exactly the call sites that matter.  Keyed by root:
# self-test lints two separate fixture trees in one process.
_MUTEX_NAME_CACHE: dict[Path, frozenset[str]] = {}


def mutex_names(root: Path) -> frozenset[str]:
    cached = _MUTEX_NAME_CACHE.get(root)
    if cached is not None:
        return cached
    names = set()
    for path in iter_sources(root):
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in MUTEX_DECL.finditer(code):
            names.add(m.group(1))
    result = frozenset(names)
    _MUTEX_NAME_CACHE[root] = result
    return result


def check_lock_discipline(root: Path, path: Path, code: str) -> list[Violation]:
    rel = path.relative_to(root).as_posix()
    if rel in ALLOWED_RAW_LOCK:
        return []
    names = mutex_names(root)
    if not names:
        return []
    call_site = re.compile(
        r"\b(" + "|".join(re.escape(n) for n in sorted(names)) +
        r")\s*(?:\.|->)\s*(lock|unlock)\s*\(\s*\)"
    )
    out = []
    for m in call_site.finditer(code):
        out.append(
            Violation(
                path,
                line_of(code, m.start()),
                "lock-discipline",
                f"raw .{m.group(2)}() on mutex '{m.group(1)}'; hold locks "
                "via lock_guard/unique_lock/scoped_lock (raw acquisition "
                "is only legal inside testing/lock_audit.*)",
            )
        )
    return out


RULES = (
    check_atomics,
    check_openmp,
    check_capi_guard,
    check_header_hygiene,
    check_lock_discipline,
)


def lint_tree(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for path in iter_sources(root):
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for rule in RULES:
            violations.extend(rule(root, path, code))
    return violations


# --- Self-test --------------------------------------------------------------


def self_test(fixtures: Path) -> int:
    """Runs the lint over the bundled fixtures: the good tree must be clean
    and the bad tree must trip every rule at its expected location."""
    good = fixtures / "good"
    bad = fixtures / "bad"
    failures = []

    good_violations = lint_tree(good)
    for v in good_violations:
        failures.append(f"good fixture flagged: {v}")

    bad_violations = lint_tree(bad)
    expected = {
        ("graphblas/rogue_atomics.hpp", "atomics-confinement"),
        ("graphblas/rogue_counter.cpp", "atomics-confinement"),
        ("graphblas/rogue_pragma.hpp", "openmp-confinement"),
        ("sssp/rogue_team.cpp", "openmp-confinement"),
        ("capi/unguarded_api.cpp", "capi-guard"),
        ("graphblas/leaky_header.hpp", "header-hygiene"),
        ("serving/raw_lock.cpp", "lock-discipline"),
    }
    seen = {(v.path.relative_to(bad).as_posix(), v.rule) for v in bad_violations}
    for miss in sorted(expected - seen):
        failures.append(f"bad fixture NOT flagged: {miss[0]} [{miss[1]}]")
    for extra in sorted(seen - expected):
        failures.append(f"unexpected bad-fixture violation: {extra[0]} [{extra[1]}]")

    # The guarded entry in the bad tree must not be flagged (precision, not
    # just recall): unguarded_api.cpp also defines one correct function.
    for v in bad_violations:
        if v.rule == "capi-guard" and "GrB_ok_entry" in v.message:
            failures.append(f"guarded entry falsely flagged: {v}")

    if failures:
        print("lint_dsg.py --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(
        f"lint_dsg.py --self-test OK "
        f"({len(bad_violations)} expected violations in bad/, good/ clean)"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=None,
                        help="tree to lint (default: <repo>/src)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the bundled fixtures instead of linting")
    args = parser.parse_args()

    script_dir = Path(__file__).resolve().parent
    if args.self_test:
        return self_test(script_dir / "lint_fixtures")

    root = args.root if args.root else script_dir.parent / "src"
    if not root.is_dir():
        print(f"lint_dsg.py: no such directory: {root}", file=sys.stderr)
        return 2
    violations = lint_tree(root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_dsg.py: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
