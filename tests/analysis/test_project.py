"""Whole-program layer mechanics (``repro.analysis.project``).

Covers the phase-1 facts records, the :class:`ProjectIndex` resolution
helpers, the incremental content-hash cache (content change, rule-set
change, version bump), byte-identity between the serial / warm-cache /
parallel paths, and the ``lint_items`` worker entry point.
"""

import json

import pytest

import repro.analysis.project as project
from repro.analysis import format_findings, run_project_lint
from repro.analysis.engine import load_source
from repro.analysis.project import (
    ProjectIndex,
    extract_facts,
    lint_items,
)
from repro.config import AcamarConfig
from repro.errors import ConfigurationError
from repro.parallel import WorkItem

CLEAN = "VALUE = 1\n"
DIRTY = "import time\n\nSTAMP = time.time()\n"


def write_tree(root, files):
    for relpath, code in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(code)


def facts_for(root, relpath, code):
    write_tree(root, {relpath: code})
    return extract_facts(load_source(root / relpath, root=root))


class TestFactsExtraction:
    def test_definitions_partition(self, tmp_path):
        facts = facts_for(
            tmp_path, "repro/helpers.py",
            "CONST = 1\n"
            "shim = lambda x: x\n"
            "def top(x):\n"
            "    def inner(y):\n"
            "        return y\n"
            "    return inner(x)\n",
        )
        assert facts["defs"] == {
            "top": ["top"],
            "assigns": ["CONST"],
            "lambdas": ["shim"],
            "nested": ["inner"],
        }

    def test_bindings_and_from_imports(self, tmp_path):
        facts = facts_for(
            tmp_path, "repro/helpers.py",
            "from repro.solvers import solve\n"
            "import numpy as np\n\n"
            "def late():\n"
            "    from repro.sparse import CsrMatrix\n"
            "    return CsrMatrix\n",
        )
        assert facts["bindings"]["solve"] == "repro.solvers.solve"
        assert facts["bindings"]["np"] == "numpy"
        records = facts["from_imports"]
        assert ["repro.solvers", "solve", 1, True] in records
        # Function-level imports are recorded but flagged non-top, so
        # taint never propagates through them.
        assert ["repro.sparse", "CsrMatrix", 5, False] in records

    def test_emissions_by_kind(self, tmp_path):
        facts = facts_for(
            tmp_path, "repro/helpers.py",
            "from repro import telemetry as tm\n\n"
            "def f(x):\n"
            "    with tm.span(\"phase.run\"):\n"
            "        tm.count(\"hits\")\n"
            "        tm.observe(\"latency\", 1.0)\n"
            "        tm.count(f\"fam.{x}\")\n",
        )
        emits = facts["emits"]
        assert list(emits["spans"]) == ["phase.run"]
        assert list(emits["counters"]) == ["hits"]
        assert list(emits["distributions"]) == ["latency"]
        assert list(emits["counter_heads"]) == ["fam."]

    def test_registry_only_for_telemetry_module(self, tmp_path):
        code = (
            "KNOWN_SPANS = frozenset({\"a.b\"})\n"
            "KNOWN_COUNTERS = frozenset({\"hits\"})\n"
            "KNOWN_DISTRIBUTIONS = frozenset()\n"
            "KNOWN_COUNTER_PREFIXES = frozenset({\"fam.\"})\n"
        )
        telemetry = facts_for(tmp_path, "repro/telemetry.py", code)
        assert telemetry["registry"]["spans"] == {"a.b": 1}
        assert telemetry["registry"]["counters"] == {"hits": 2}
        assert telemetry["registry"]["prefixes"] == {"fam.": 4}
        other = facts_for(tmp_path, "repro/helpers.py", code)
        assert other["registry"] is None

    def test_boundary_call_shapes(self, tmp_path):
        facts = facts_for(
            tmp_path, "repro/campaign/driver.py",
            "from repro.parallel import run_sharded\n\n\n"
            "def solve_items(items, config):\n"
            "    return []\n\n\n"
            "def solve_items_batched(items, config):\n"
            "    return []\n\n\n"
            "def go(items, cfg, batch):\n"
            "    work_fn = solve_items_batched if batch else solve_items\n"
            "    return run_sharded(\n"
            "        items, cfg, workers=2,\n"
            "        executor_factory=lambda: None,\n"
            "        work_fn=work_fn,\n"
            "    )\n",
        )
        (call,) = facts["boundary_calls"]
        # The conditional local resolves to both module-scope names;
        # the executor_factory lambda is parent-side and exempt.
        assert call["local"] == ["solve_items", "solve_items_batched"]
        assert call["bad"] == []
        assert call["args_bad"] == []

    def test_boundary_lambda_work_fn_is_bad(self, tmp_path):
        facts = facts_for(
            tmp_path, "repro/campaign/driver.py",
            "from repro.parallel import run_sharded\n\n\n"
            "def go(items, cfg):\n"
            "    return run_sharded(items, cfg, work_fn=lambda i, c: [])\n",
        )
        (call,) = facts["boundary_calls"]
        assert len(call["bad"]) == 1
        assert "lambda" in call["bad"][0][1]

    def test_tainted_exports(self, tmp_path):
        facts = facts_for(
            tmp_path, "repro/helpers.py",
            "import time\n"
            "from time import perf_counter\n"
            "import numpy as np\n\n"
            "RNG = np.random.default_rng(0)\n\n\n"
            "def stamp():\n"
            "    return time.time()\n\n\n"
            "def pure(x):\n"
            "    return x + 1\n",
        )
        tainted = facts["tainted"]
        assert "re-export of time.perf_counter" in tainted["perf_counter"]
        assert "RNG instance" in tainted["RNG"]
        assert "calls time.time()" in tainted["stamp"]
        assert "pure" not in tainted

    def test_telemetry_module_is_never_tainted(self, tmp_path):
        facts = facts_for(
            tmp_path, "repro/telemetry.py",
            "from time import perf_counter\n",
        )
        assert facts["tainted"] == {}

    def test_exit_facts_only_for_entry_modules(self, tmp_path):
        code = (
            "import sys\n\n\n"
            "def main(argv=None):\n"
            "    return 0 if argv else 1\n\n\n"
            "sys.exit(main())\n"
        )
        cli = facts_for(tmp_path, "repro/cli.py", code)
        shapes = cli["exits"]["functions"]["main"]
        assert {s["kind"] for s in shapes} == {"int"}
        assert {s["value"] for s in shapes} == {0, 1}
        (raised,) = cli["exits"]["raises"]
        assert raised["fn"] == "<module>"
        assert raised["shape"]["kind"] == "call"
        assert raised["shape"]["target"] == "main"
        other = facts_for(tmp_path, "repro/helpers.py", code)
        assert other["exits"] is None

    def test_facts_round_trip_json(self, tmp_path):
        """The cache stores facts as JSON; the record must be stable."""
        facts = facts_for(
            tmp_path, "repro/campaign/driver.py",
            "from repro.parallel import run_sharded\n"
            "from repro import telemetry as tm\n\n\n"
            "def work(items, config):\n"
            "    tm.count(\"hits\")\n"
            "    return []\n\n\n"
            "def go(items, cfg):\n"
            "    return run_sharded(items, cfg, work_fn=work)\n",
        )
        assert json.loads(json.dumps(facts)) == facts


class TestProjectIndex:
    def build(self, tmp_path, files):
        write_tree(tmp_path, files)
        return ProjectIndex.build([
            extract_facts(load_source(tmp_path / rel, root=tmp_path))
            for rel in files
        ])

    def test_split_qualified_longest_prefix(self, tmp_path):
        index = self.build(tmp_path, {
            "repro/serve/__init__.py": "",
            "repro/serve/profile.py": "def profile_items(i, c):\n    pass\n",
        })
        assert index.split_qualified("repro.serve.profile.profile_items") \
            == ("repro.serve.profile", "profile_items")
        assert index.split_qualified("repro.serve.missing") \
            == ("repro.serve", "missing")
        assert index.split_qualified("other.pkg.name") is None

    def test_resolve_def_verdicts(self, tmp_path):
        index = self.build(tmp_path, {
            "repro/helpers.py": (
                "def top(x):\n"
                "    def inner(y):\n"
                "        return y\n"
                "    return inner\n"
                "shim = lambda x: x\n"
                "VALUE = 1\n"
            ),
        })
        assert index.resolve_def("repro.helpers", "top")[0] is True
        assert index.resolve_def("repro.helpers", "inner")[0] is False
        assert index.resolve_def("repro.helpers", "shim")[0] is False
        assert index.resolve_def("repro.helpers", "missing")[0] is False
        # Plain assignments and unindexed modules cannot be proven
        # either way: trusted.
        assert index.resolve_def("repro.helpers", "VALUE")[0] is None
        assert index.resolve_def("repro.ghost", "anything")[0] is None

    def test_resolve_def_follows_reexport_chain(self, tmp_path):
        index = self.build(tmp_path, {
            "repro/impl.py": "def work(items, config):\n    return []\n",
            "repro/facade.py": "from repro.impl import work\n",
        })
        verdict, detail = index.resolve_def("repro.facade", "work")
        assert verdict is True
        assert "repro.impl" in detail

    def test_first_module_wins_on_duplicates(self, tmp_path):
        facts_a = facts_for(tmp_path, "a/repro/helpers.py", "A = 1\n")
        facts_b = facts_for(tmp_path, "b/repro/helpers.py", "B = 2\n")
        index = ProjectIndex.build([facts_b, facts_a])
        # Build sorts by path, so a/ wins regardless of input order.
        assert index.modules["repro.helpers"]["defs"]["assigns"] == ["A"]


class TestIncrementalCache:
    FILES = {
        "repro/sparse/clean.py": CLEAN,
        "repro/sparse/dirty.py": DIRTY,
    }

    def run(self, tmp_path, **kwargs):
        kwargs.setdefault("cache_path", tmp_path / "cache.json")
        return run_project_lint([tmp_path], root=tmp_path, **kwargs)

    def test_warm_run_hits_everything_and_matches(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        cold = self.run(tmp_path)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = self.run(tmp_path)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        # Byte-identity across every renderer: cache statistics are
        # deliberately kept off the output.
        for fmt in ("text", "json", "github", "sarif"):
            assert format_findings(cold, fmt) == format_findings(warm, fmt)

    def test_content_change_invalidates_only_that_file(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        assert len(self.run(tmp_path).findings) == 1
        (tmp_path / "repro" / "sparse" / "dirty.py").write_text(CLEAN)
        report = self.run(tmp_path)
        assert (report.cache_hits, report.cache_misses) == (1, 1)
        assert report.findings == []

    def test_rule_set_change_invalidates_everything(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        self.run(tmp_path, rules=["REP001"])
        report = self.run(tmp_path, rules=["REP002"])
        assert (report.cache_hits, report.cache_misses) == (0, 2)

    def test_version_bump_invalidates_everything(self, tmp_path, monkeypatch):
        write_tree(tmp_path, self.FILES)
        self.run(tmp_path)
        monkeypatch.setattr(project, "LINT_CACHE_VERSION", 999)
        report = self.run(tmp_path)
        assert (report.cache_hits, report.cache_misses) == (0, 2)

    @pytest.mark.parametrize("garbage", [
        "{not json", "[]", '{"version": 999, "files": {}}',
    ])
    def test_corrupt_cache_degrades_to_cold_start(self, tmp_path, garbage):
        write_tree(tmp_path, self.FILES)
        self.run(tmp_path)
        (tmp_path / "cache.json").write_text(garbage)
        report = self.run(tmp_path)
        assert (report.cache_hits, report.cache_misses) == (0, 2)
        assert len(report.findings) == 1

    def test_use_cache_false_never_touches_disk(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        report = self.run(tmp_path, use_cache=False)
        assert report.cache_misses == 2
        assert not (tmp_path / "cache.json").exists()

    def test_cache_document_shape(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        self.run(tmp_path)
        payload = json.loads((tmp_path / "cache.json").read_text())
        assert payload["version"] == project.LINT_CACHE_VERSION
        assert isinstance(payload["signature"], str)
        keys = list(payload["files"])
        assert keys == sorted(keys)
        for entry in payload["files"].values():
            assert set(entry) == {"path", "hash", "findings", "facts"}

    def test_unwritable_cache_path_still_lints(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        report = self.run(
            tmp_path, cache_path=tmp_path / "no-such-dir" / "cache.json"
        )
        assert len(report.findings) == 1
        assert not (tmp_path / "no-such-dir").exists()


class TestParallelByteIdentity:
    FILES = {
        "repro/sparse/clean.py": CLEAN,
        "repro/sparse/dirty.py": DIRTY,
        "repro/sparse/more.py": "import os\n\nTOKEN = os.urandom(8)\n",
        "repro/helpers.py": "def pure(x):\n    return x + 1\n",
    }

    def test_workers_output_identical_to_serial(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        serial = run_project_lint(
            [tmp_path], root=tmp_path, use_cache=False
        )
        fanned = run_project_lint(
            [tmp_path], root=tmp_path, use_cache=False, workers=2
        )
        assert serial.findings  # the fixture is deliberately dirty
        for fmt in ("text", "json", "github", "sarif"):
            assert format_findings(serial, fmt) == format_findings(
                fanned, fmt
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_syntax_error_raises_in_both_modes(self, tmp_path, workers):
        write_tree(tmp_path, {
            **self.FILES, "repro/sparse/broken.py": "def broken(:\n",
        })
        with pytest.raises(ConfigurationError, match="cannot lint"):
            run_project_lint(
                [tmp_path], root=tmp_path, use_cache=False, workers=workers
            )


class TestLintItemsWorker:
    def item(self, path, root, rules_csv=""):
        return WorkItem(
            index=0, source=(str(path), str(root), rules_csv),
            seed=0, cost=1.0,
        )

    def test_worker_returns_findings_and_facts(self, tmp_path):
        write_tree(tmp_path, {"repro/sparse/dirty.py": DIRTY})
        path = tmp_path / "repro" / "sparse" / "dirty.py"
        (result,) = lint_items([self.item(path, tmp_path)], AcamarConfig())
        assert result.error is None
        entry = result.entry
        assert entry["path"] == "repro/sparse/dirty.py"
        assert entry["findings"][0]["rule"] == "REP001"
        assert entry["facts"]["module"] == "repro.sparse.dirty"

    def test_worker_honours_rule_subset(self, tmp_path):
        write_tree(tmp_path, {"repro/sparse/dirty.py": DIRTY})
        path = tmp_path / "repro" / "sparse" / "dirty.py"
        (result,) = lint_items(
            [self.item(path, tmp_path, "REP002")], AcamarConfig()
        )
        assert result.entry["findings"] == []

    def test_worker_reports_syntax_error_not_raises(self, tmp_path):
        write_tree(tmp_path, {"repro/sparse/broken.py": "def broken(:\n"})
        path = tmp_path / "repro" / "sparse" / "broken.py"
        (result,) = lint_items([self.item(path, tmp_path)], AcamarConfig())
        assert result.entry is None
        assert "cannot lint" in result.error
