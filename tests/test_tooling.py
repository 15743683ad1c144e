"""Guards on the test/benchmark tooling itself.

Performance work is only safe while the differential suite that pins
packed ≡ reference runs in the default tier-1 invocation
(``python -m pytest``) — these tests fail loudly if someone moves it
out of ``testpaths`` or renames it out of collection.
"""

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class TestTierOneContainsDifferentialSuite:
    def test_differential_suite_lives_under_testpaths(self):
        # pyproject pins testpaths = ["tests"]; the differential suite
        # must live there, not under benchmarks/ (which is opt-in).
        pyproject = (REPO / "pyproject.toml").read_text()
        assert 'testpaths = ["tests"]' in pyproject
        assert (
            REPO / "tests" / "engine" / "test_packed_differential.py"
        ).is_file()

    def test_differential_suite_is_importable_and_nonempty(self):
        import tests.engine.test_packed_differential as diff

        test_classes = [
            obj
            for name, obj in vars(diff).items()
            if name.startswith("Test") and isinstance(obj, type)
        ]
        assert test_classes, "differential suite has no test classes"
        test_methods = [
            name
            for cls in test_classes
            for name in vars(cls)
            if name.startswith("test_")
        ]
        assert len(test_methods) >= 8

    def test_bench_regression_harness_present(self):
        harness = REPO / "benchmarks" / "perf_regression.py"
        assert harness.is_file()
        text = harness.read_text()
        assert "BENCH_engine.json" in text
        assert "BENCH_matrix.json" in text
        assert "MIN_REDUCTION_SPEEDUP" in text
        assert "MIN_WARM_CACHE_SPEEDUP" in text
