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


class TestOneHttpTransport:
    """Both daemons and both clients share ``repro.serve.http``; a second
    module importing the stdlib HTTP stack means a copy is growing back."""

    @staticmethod
    def _importers(name: str) -> list:
        import ast

        found = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    # ``from http import client`` counts as ``http.client``.
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if name in names:
                    found.append(path.relative_to(REPO).as_posix())
                    break
        return found

    def test_http_server_imported_once(self):
        assert self._importers("http.server") == ["src/repro/serve/http.py"]

    def test_http_client_imported_once(self):
        assert self._importers("http.client") == ["src/repro/serve/http.py"]
