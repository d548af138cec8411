#!/usr/bin/env python3
"""cortex_lint: repo-invariant linter for library code under src/.

Rules (see DESIGN.md §7):
  assert      no raw assert()/ <cassert> — use CHECK/DCHECK (util/check.h),
              which stay armed under NDEBUG.
  determinism no rand()/srand()/time(nullptr)/time(NULL) — every stochastic
              component draws from a seeded cortex::Rng and every clock is
              injected, so runs are reproducible bit-for-bit.
  iostream    no std::cout/std::cerr/std::clog or <iostream> in library
              code — libraries return data; tools/, examples/, bench/ own
              the terminal.
  atomic-counter
              (src/serve/ and src/core/ only, src/telemetry/ exempt) no
              ad-hoc std::atomic<integer> stat counters — stats belong on
              the telemetry registry (telemetry::Counter / Gauge,
              src/telemetry/metrics.h) so they show up in STATS dumps.
  simd-intrinsics
              no <immintrin.h>/<x86intrin.h>/<arm_neon.h> outside
              src/embedding/simd_kernels.* — raw intrinsics go through the
              runtime-dispatched kernel layer (embedding/simd_kernels.h) so
              CORTEX_SIMD pinning and the scalar CI leg stay meaningful.
  exact-rerank
              no KernelsFor(Variant::kScalar) outside
              src/embedding/simd_kernels.* — an exact rescore goes through
              simd::ExactDotRows, the one routine bit-identical to the
              scalar double kernel (DESIGN.md §13.4), so every exact
              similarity in the tree comes from one place.
  gpu-choke-point
              no direct BatchingServer use outside src/gpu/ — the judger
              partition model is driven by the simulator's GPU layer
              alone; the serving tier answers lookups on its connection
              workers and admits nothing to it (DESIGN.md §14).
              (BatchingServerOptions is plain config and may be plumbed
              anywhere.)

A line may opt out with:  // cortex-lint: allow(<rule>)
Comments and string literals are stripped before matching, so prose about
assert() is fine.  Opt-outs are themselves checked: an allow() naming an
unknown rule, or naming a rule that would not fire on its line anyway, is
a `stale-allow` violation — suppressions must never outlive the code they
excuse.

Usage: cortex_lint.py [paths...]   (default: src)
Exit status: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cc", ".h", ".hpp", ".cpp"}


def _in_serving_path(path: Path) -> bool:
    """True for src/serve/ and src/core/ files, excluding src/telemetry/
    (which implements the sanctioned counters)."""
    posix = path.as_posix()
    if "/telemetry/" in posix or posix.startswith("telemetry/"):
        return False
    return any(
        seg in posix or posix.startswith(seg.lstrip("/"))
        for seg in ("/serve/", "/core/")
    )


def _outside_simd_kernel_layer(path: Path) -> bool:
    """True everywhere except src/embedding/simd_kernels.{h,cc}."""
    return not path.name.startswith("simd_kernels")


def _outside_gpu_choke_point(path: Path) -> bool:
    """True everywhere except src/gpu/ (the model's home)."""
    posix = path.as_posix()
    return not ("/gpu/" in posix or posix.startswith("gpu/"))


# (rule, pattern, hint, path_predicate) — predicate None means "all files".
RULES = [
    (
        "assert",
        re.compile(r"(?<![\w])assert\s*\(|#\s*include\s*<(?:cassert|assert\.h)>"),
        "raw assert() / <cassert>: use CHECK/DCHECK from util/check.h",
        None,
    ),
    (
        "determinism",
        re.compile(
            r"(?<![\w:.])(?:rand|srand)\s*\(|"
            r"(?<![\w:.])time\s*\(\s*(?:nullptr|NULL)\s*\)"
        ),
        "non-deterministic source: use a seeded cortex::Rng / injected clock",
        None,
    ),
    (
        "iostream",
        re.compile(
            r"std\s*::\s*(?:cout|cerr|clog)\b|#\s*include\s*<iostream>"
        ),
        "iostream write in library code: return data, let tools/ print",
        None,
    ),
    (
        "atomic-counter",
        re.compile(
            r"std\s*::\s*atomic\s*<\s*(?:std\s*::\s*)?"
            r"(?:u?int(?:8|16|32|64)_t|size_t)\s*>"
        ),
        "ad-hoc atomic stat counter in the serving path: publish it on the "
        "telemetry registry instead (telemetry::Counter / Gauge, "
        "src/telemetry/metrics.h)",
        _in_serving_path,
    ),
    (
        "simd-intrinsics",
        re.compile(
            r"#\s*include\s*<(?:immintrin\.h|x86intrin\.h|arm_neon\.h)>"
        ),
        "raw SIMD intrinsics header outside the kernel layer: go through "
        "the dispatch wrappers in embedding/simd_kernels.h",
        _outside_simd_kernel_layer,
    ),
    (
        "exact-rerank",
        re.compile(r"\bKernelsFor\s*\([^)]*\bVariant\s*::\s*kScalar\b"),
        "scalar kernel table used for an exact rescore: call "
        "simd::ExactDotRows instead (DESIGN.md §13.4)",
        _outside_simd_kernel_layer,
    ),
    (
        "gpu-choke-point",
        re.compile(r"\bBatchingServer\b(?!Options)"),
        "direct BatchingServer use outside src/gpu/: the judger partition "
        "model belongs to the GPU layer (DESIGN.md §14)",
        _outside_gpu_choke_point,
    ),
]

ALLOW_RE = re.compile(r"cortex-lint:\s*allow\(([a-z\-,\s]+)\)")

RULES_BY_NAME = {rule: (pattern, applies_to) for rule, pattern, _, applies_to in RULES}

# `static_assert` is a keyword, not the macro; the negative look-behind in
# the assert rule already skips it via the preceding 'c' of "static_".


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving newlines
    (so reported line numbers stay valid) and preserving the text of
    line comments' lint directives separately."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":  # block comment
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lint_file(path: Path) -> list[str]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()
    violations = []
    for lineno, (code, original) in enumerate(
        zip(code_lines, raw_lines), start=1
    ):
        allowed = set()
        m = ALLOW_RE.search(original)
        if m:
            allowed = {r.strip() for r in m.group(1).split(",")}
        for rule, pattern, hint, applies_to in RULES:
            if rule in allowed:
                continue
            if applies_to is not None and not applies_to(path):
                continue
            if pattern.search(code):
                violations.append(f"{path}:{lineno}: [{rule}] {hint}")
        # A suppression must excuse something: every allow()'d rule has to
        # be a real rule that would have fired on this very line.
        for rule in sorted(allowed):
            entry = RULES_BY_NAME.get(rule)
            if entry is None:
                violations.append(
                    f"{path}:{lineno}: [stale-allow] cortex-lint: "
                    f"allow({rule}) names an unknown rule"
                )
                continue
            pattern, applies_to = entry
            fires = (
                applies_to is None or applies_to(path)
            ) and pattern.search(code)
            if not fires:
                violations.append(
                    f"{path}:{lineno}: [stale-allow] cortex-lint: "
                    f"allow({rule}) suppresses nothing on this line; "
                    f"remove the comment"
                )
    return violations


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in (argv or ["src"])]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(
                p
                for p in sorted(root.rglob("*"))
                if p.suffix in SOURCE_SUFFIXES
            )
        else:
            print(f"cortex_lint: no such path: {root}", file=sys.stderr)
            return 2

    all_violations: list[str] = []
    for f in files:
        all_violations.extend(lint_file(f))

    for v in all_violations:
        print(v)
    if all_violations:
        print(
            f"cortex_lint: {len(all_violations)} violation(s) in "
            f"{len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"cortex_lint: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
