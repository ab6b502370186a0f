"""Whole-program layer mechanics (``repro.analysis.project``).

Covers the phase-1 facts records, the :class:`ProjectIndex` resolution
helpers and the serial two-phase pass.
"""

import pytest

from repro.analysis import run_project_lint
from repro.analysis.engine import load_source
from repro.analysis.project import ProjectIndex, extract_facts
from repro.errors import ConfigurationError

CLEAN = "VALUE = 1\n"


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
            "        tm.count(f\"fam.{x}\")\n",
        )
        emits = facts["emits"]
        assert list(emits["spans"]) == ["phase.run"]
        assert list(emits["counters"]) == ["hits"]
        assert list(emits["counter_heads"]) == ["fam."]

    def test_registry_only_for_telemetry_module(self, tmp_path):
        code = (
            "KNOWN_SPANS = frozenset({\"a.b\"})\n"
            "KNOWN_COUNTERS = frozenset({\"hits\"})\n"
            "KNOWN_COUNTER_PREFIXES = frozenset({\"fam.\"})\n"
        )
        telemetry = facts_for(tmp_path, "repro/telemetry.py", code)
        assert telemetry["registry"]["spans"] == {"a.b": 1}
        assert telemetry["registry"]["counters"] == {"hits": 2}
        assert telemetry["registry"]["prefixes"] == {"fam.": 3}
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


class TestSerialPass:
    def test_syntax_error_raises(self, tmp_path):
        write_tree(tmp_path, {
            "repro/sparse/clean.py": CLEAN,
            "repro/sparse/broken.py": "def broken(:\n",
        })
        with pytest.raises(ConfigurationError, match="cannot lint"):
            run_project_lint([tmp_path], root=tmp_path)
