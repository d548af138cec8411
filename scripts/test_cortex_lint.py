#!/usr/bin/env python3
"""Self-test for scripts/cortex_lint.py: every rule fires on a seeded
violation, comment/string stripping holds, allow() suppresses, and stale
or unknown allow() annotations are themselves violations.

Run directly (python3 scripts/test_cortex_lint.py) or via ctest.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cortex_lint  # noqa: E402


def lint_text(text: str, rel: str = "src/core/sample.cc") -> list[str]:
    """Lints `text` as if it lived at `rel` inside a temp tree."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return [v.split(str(path) + ":", 1)[1] for v in
                cortex_lint.lint_file(path)]


class RuleFiringTest(unittest.TestCase):
    def test_assert_fires(self):
        out = lint_text("void f() { assert(x); }\n")
        self.assertEqual(len(out), 1)
        self.assertIn("[assert]", out[0])

    def test_static_assert_is_not_assert(self):
        self.assertEqual(lint_text("static_assert(sizeof(int) == 4);\n"), [])

    def test_determinism_fires_on_rand_and_wall_clock(self):
        out = lint_text("int a = rand();\nlong t = time(nullptr);\n")
        self.assertEqual(len(out), 2)
        self.assertTrue(all("[determinism]" in v for v in out))

    def test_iostream_fires(self):
        out = lint_text('#include <iostream>\n')
        self.assertEqual(len(out), 1)
        self.assertIn("[iostream]", out[0])

    def test_atomic_counter_fires_only_in_serving_path(self):
        src = "std::atomic<std::uint64_t> hits_{0};\n"
        self.assertEqual(len(lint_text(src, "src/serve/s.h")), 1)
        # Outside serve/core the rule does not apply.
        self.assertEqual(lint_text(src, "src/ann/s.h"), [])
        # telemetry/ implements the sanctioned counters.
        self.assertEqual(lint_text(src, "src/telemetry/s.h"), [])

    def test_simd_intrinsics_fires_outside_kernel_layer(self):
        src = "#include <immintrin.h>\n"
        self.assertEqual(len(lint_text(src, "src/ann/fast.cc")), 1)
        self.assertEqual(
            lint_text(src, "src/embedding/simd_kernels.cc"), [])

    def test_exact_rerank_fires_outside_kernel_layer(self):
        src = ("const auto& exact = "
               "simd::KernelsFor(simd::Variant::kScalar);\n")
        out = lint_text(src, "src/ann/flat_index.cc")
        self.assertEqual(len(out), 1)
        self.assertIn("[exact-rerank]", out[0])
        self.assertIn("ExactDotRows", out[0])
        # The kernel layer defines the scalar table and may name it.
        self.assertEqual(
            lint_text(src, "src/embedding/simd_kernels.cc"), [])

    def test_exact_rerank_ignores_other_variants(self):
        # Picking a native table (benches, dispatch) is not a rescore.
        self.assertEqual(
            lint_text("const auto& ks = simd::KernelsFor(v);\n"
                      "simd::ForceVariant(simd::Variant::kScalar);\n",
                      "src/ann/ivf_index.cc"),
            [])

    def test_gpu_choke_point_fires_outside_gpu(self):
        src = "BatchingServer gpu_;\ngpu_.Dispatch(now, cost);\n"
        out = lint_text(src, "src/serve/server.cc")
        self.assertEqual(len(out), 1)
        self.assertIn("[gpu-choke-point]", out[0])
        # The former pipeline file has no exemption left.
        self.assertEqual(
            len(lint_text(src, "src/serve/batch_pipeline.cc")), 1)
        # The one sanctioned home: the model's own layer.
        self.assertEqual(lint_text(src, "src/gpu/batching_server.cc"), [])

    def test_gpu_choke_point_ignores_options_plumbing(self):
        # BatchingServerOptions is plain config and may travel anywhere.
        self.assertEqual(
            lint_text("BatchingServerOptions gpu;\n", "src/serve/server.cc"),
            [])


class StrippingTest(unittest.TestCase):
    def test_comments_and_strings_do_not_fire(self):
        self.assertEqual(
            lint_text(
                "// assert(x) in prose is fine\n"
                'const char* s = "assert(x)";\n'
                "/* rand() in a block comment */\n"
            ),
            [],
        )


class AllowTest(unittest.TestCase):
    def test_allow_suppresses_matching_rule(self):
        out = lint_text(
            "void f() { assert(x); }  // cortex-lint: allow(assert)\n")
        self.assertEqual(out, [])

    def test_stale_allow_is_a_violation(self):
        out = lint_text("int x = 0;  // cortex-lint: allow(assert)\n")
        self.assertEqual(len(out), 1)
        self.assertIn("[stale-allow]", out[0])
        self.assertIn("suppresses nothing", out[0])

    def test_unknown_rule_allow_is_a_violation(self):
        out = lint_text(
            "void f() { assert(x); }  // cortex-lint: allow(asserts)\n")
        # The misspelled allow is flagged AND the assert still fires.
        self.assertEqual(len(out), 2)
        self.assertTrue(any("[stale-allow]" in v and "unknown rule" in v
                            for v in out))
        self.assertTrue(any("[assert]" in v for v in out))

    def test_allow_for_rule_that_does_not_apply_here_is_stale(self):
        # atomic-counter never applies outside serve/core, so the allow
        # suppresses nothing even though the pattern matches.
        out = lint_text(
            "std::atomic<std::uint64_t> n_{0};"
            "  // cortex-lint: allow(atomic-counter)\n",
            "src/ann/s.h",
        )
        self.assertEqual(len(out), 1)
        self.assertIn("[stale-allow]", out[0])


class TreeTest(unittest.TestCase):
    def test_repo_src_tree_is_clean(self):
        repo = Path(__file__).resolve().parent.parent
        self.assertEqual(cortex_lint.main([str(repo / "src")]), 0)


if __name__ == "__main__":
    unittest.main()
