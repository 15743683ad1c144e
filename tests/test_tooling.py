"""Guards on the test/benchmark tooling itself.

Performance work is only safe while the differential suite that pins
packed ≡ reference runs in the default tier-1 invocation
(``python -m pytest``) — these tests fail loudly if someone moves it
out of ``testpaths`` or renames it out of collection.
"""

import re
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


def _importers(name: str) -> list:
    """The ``src/repro`` modules that import the module ``name``."""
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


class TestOneHttpTransport:
    """Both daemons and both clients share ``repro.serve.http``; a second
    module importing the stdlib HTTP stack means a copy is growing back."""

    def test_http_server_imported_once(self):
        assert _importers("http.server") == ["src/repro/serve/http.py"]

    def test_http_client_imported_once(self):
        assert _importers("http.client") == ["src/repro/serve/http.py"]


def _calls(name: str) -> list:
    """``(module, enclosing function)`` of every ``src/repro`` call
    whose callee is named ``name`` (``name(...)`` or ``x.name(...)``)."""
    import ast

    found = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        module = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text())
        scopes = [(tree, None)]
        while scopes:
            scope, function = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append((node, node.name))
                    continue
                scopes.append((node, function))
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found.append((module, function, node))
    return found


class TestOneSpanPrimitive:
    """``repro.obs.tracing.trace_span`` is the one way to time a region,
    and ``engine/parallel.py`` has one pooled path.  A ``.span(`` call,
    a ``timing=`` flag or a second process pool means an instrumentation
    layer is growing back beside it."""

    def test_no_telemetry_span_calls(self):
        assert [(module, function) for module, function, _ in _calls("span")] == []

    def test_trace_span_takes_no_timing_flag(self):
        flagged = [
            (module, function)
            for module, function, call in _calls("trace_span")
            if any(keyword.arg == "timing" for keyword in call.keywords)
        ]
        assert _calls("trace_span") and flagged == []

    def test_one_process_pool(self):
        pools = [(module, function) for module, function, _ in _calls("ProcessPoolExecutor")]
        assert pools == [("src/repro/engine/parallel.py", "_pooled")]


class TestOrbitImagesByTable:
    """An orbit image is a sum of image-table lookups: only the table
    fill walks a word digit by digit.  A second caller of ``_image``
    means the per-word hot path is walking digits again."""

    def test_only_the_table_fill_calls_image(self):
        callers = [(module, function) for module, function, _ in _calls("_image")]
        assert callers == [("src/repro/engine/packed.py", "_fill")]


class TestMenusBuiltOnlyToExpand:
    """The forced step's pruned count is a closed form of a menu's
    length, so a menu is built only by the expansion that walks it.  A
    second caller of ``_build_menu`` means menus are being built again
    only to be measured."""

    def test_only_the_node_expansion_builds_menus(self):
        callers = [
            (module, function) for module, function, _ in _calls("_build_menu")
        ]
        assert callers == [("src/repro/engine/packed.py", "_node_entries")]


class TestOneWorkQueue:
    """The work queue and the verdict cache reach SQLite only through
    ``repro.sqlstore``, and each is the only module that knows its own
    store: a second ``sqlite3`` importer means SQL is leaking out, and a
    second module naming the cache's database means a reader is growing
    beside the cache."""

    def test_sqlite3_imported_once(self):
        assert _importers("sqlite3") == ["src/repro/sqlstore.py"]

    def test_only_the_cache_names_its_store(self):
        naming = [
            path.relative_to(REPO).as_posix()
            for path in sorted((REPO / "src" / "repro").rglob("*.py"))
            if "verdicts.sqlite" in path.read_text()
        ]
        assert naming == ["src/repro/engine/cache.py"]

    def test_only_the_cache_inserts_verdicts(self):
        # Rows go in as one transaction per batch (``put_many``); an
        # INSERT elsewhere would bypass the batch and its fault site.
        insert = re.compile(r"INSERT\b[^\"']*\bINTO\s+verdicts\b", re.IGNORECASE)
        inserting = [
            path.relative_to(REPO).as_posix()
            for path in sorted((REPO / "src" / "repro").rglob("*.py"))
            if insert.search(path.read_text())
        ]
        assert inserting == ["src/repro/engine/cache.py"]


class TestStoresOwnTheirChecks:
    """Each durable store checks its own artifacts; ``repro doctor`` only
    dispatches.  A ``json``/``re`` import in the doctor, or a checksum
    computed outside the format modules of the two checksummed stores
    (verdict-cache entries, campaign shard results), means a rule is
    being copied again."""

    def test_doctor_parses_nothing(self):
        doctor = "src/repro/doctor.py"
        assert doctor not in _importers("json")
        assert doctor not in _importers("re")

    def test_payload_checksum_called_only_by_the_stores(self):
        import ast

        callers = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and "payload_checksum" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.append(path.relative_to(REPO).as_posix())
                    break
        assert callers == [
            "src/repro/campaign/manifest.py", "src/repro/engine/cache.py",
        ]


class TestVersion:
    def test_package_version_matches_pyproject(self):
        import re

        import repro

        pyproject = (REPO / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
        assert repro.__version__ == declared
