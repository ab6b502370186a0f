"""Fixture-driven tests: every rule id fires on a bad snippet and stays
quiet on the matching good snippet.

Each rule's pair is the contract: remove the checker and the bad-snippet
test fails; the good snippets pin down what must NOT be flagged (the
sanctioned idioms)."""

import textwrap

import pytest

from repro.analysis import (
    ALL_CHECKERS,
    ALL_PROJECT_CHECKERS,
    RULE_IDS,
    partition_checkers,
    run_project_lint,
)
from repro.analysis.checkers import (
    DeterminismChecker,
    ExceptionPolicyChecker,
    LayeringChecker,
    NumericSafetyChecker,
    TelemetryNameChecker,
    VirtualClockChecker,
)
from repro.errors import UnknownNameError


def rules(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------- REP001


class TestDeterminism:
    CHECKER = DeterminismChecker()

    @pytest.mark.parametrize("snippet", [
        "import time\nt = time.time()\n",
        "import time\nt = time.monotonic()\n",
        "from datetime import datetime\nd = datetime.now()\n",
        "import os\nr = os.urandom(8)\n",
        "import uuid\nu = uuid.uuid4()\n",
        "import random\nr = random.random()\n",
        "import random\nrandom.shuffle(items)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(seed=None)\n",
        "import numpy as np\nx = np.random.rand(4)\n",
        "for x in {1, 2, 3}:\n    print(x)\n",
        "out = [x for x in set(names)]\n",
    ])
    def test_flags(self, lint_snippet, snippet):
        findings = lint_snippet("repro/sparse/mod.py", snippet, self.CHECKER)
        assert rules(findings) == ["REP001"], snippet

    @pytest.mark.parametrize("snippet", [
        # Explicitly seeded generators are the sanctioned idiom.
        "import numpy as np\nrng = np.random.default_rng(1234)\n",
        "import random\nrng = random.Random(7)\n",
        "for x in sorted(set(names)):\n    print(x)\n",
        "for x in (1, 2, 3):\n    print(x)\n",
        "ok = value in {1, 2, 3}\n",  # membership, not iteration
    ])
    def test_allows(self, lint_snippet, snippet):
        findings = lint_snippet("repro/sparse/mod.py", snippet, self.CHECKER)
        assert findings == [], snippet

    def test_out_of_scope_module_is_skipped(self, lint_snippet):
        code = "import time\nt = time.time()\n"
        assert lint_snippet("repro/campaign.py", code, self.CHECKER) == []
        assert lint_snippet("somepkg/mod.py", code, self.CHECKER) == []


# ---------------------------------------------------------------- REP002


class TestLayering:
    CHECKER = LayeringChecker()

    def test_sparse_must_not_import_upward(self, lint_snippet):
        findings = lint_snippet(
            "repro/sparse/mod.py",
            "from repro.solvers import make_solver\n",
            self.CHECKER,
        )
        assert rules(findings) == ["REP002"]
        assert "sparse" in findings[0].message

    def test_only_cli_imports_cli(self, lint_snippet):
        findings = lint_snippet(
            "repro/serve/mod.py", "from repro.cli import main\n", self.CHECKER
        )
        assert rules(findings) == ["REP002"]
        assert "repro.cli" in findings[0].message

    def test_serve_must_use_parallel_facade(self, lint_snippet):
        findings = lint_snippet(
            "repro/serve/mod.py",
            "from repro.parallel.engine import run_sharded\n",
            self.CHECKER,
        )
        assert rules(findings) == ["REP002"]
        assert "facade" in findings[0].message

    def test_facade_and_foundation_imports_allowed(self, lint_snippet):
        code = (
            "from repro.parallel import run_sharded\n"
            "from repro import telemetry as tm\n"
            "from repro.errors import ConfigurationError\n"
        )
        assert lint_snippet("repro/serve/mod.py", code, self.CHECKER) == []

    def test_root_facade_import_restricted(self, lint_snippet):
        code = "from repro import Acamar\n"
        findings = lint_snippet("repro/sparse/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP002"]
        # cli is sanctioned to use the facade
        assert lint_snippet("repro/cli.py", code, self.CHECKER) == []

    def test_real_tree_is_clean(self, repo_src):
        report = run_project_lint([repo_src], rules=[self.CHECKER.rule_id])
        assert report.findings == []

    def test_cycle_closing_edge_names_the_loop(self, lint_snippet):
        # gpu → fpga is undeclared, and fpga → gpu is sanctioned, so
        # this edge would close a cycle; the message must walk it.
        findings = lint_snippet(
            "repro/gpu/mod.py", "import repro.fpga\n", self.CHECKER
        )
        assert rules(findings) == ["REP002"]
        assert "closes a dependency cycle" in findings[0].message
        assert "gpu → fpga → gpu" in findings[0].message

    def test_acyclic_undeclared_edge_has_no_cycle_note(self, lint_snippet):
        # metrics → solvers is undeclared but nothing under solvers
        # reaches back to metrics: plain violation, no cycle chain.
        findings = lint_snippet(
            "repro/metrics/mod.py", "import repro.solvers\n", self.CHECKER
        )
        assert rules(findings) == ["REP002"]
        assert "cycle" not in findings[0].message

    def test_cycle_path_helper(self):
        from repro.analysis.checkers.layering import cycle_path

        assert cycle_path("gpu", "fpga") == ["fpga", "gpu"]
        assert cycle_path("metrics", "solvers") is None
        # Sanctioned mutual cycles resolve to the direct loop.
        assert cycle_path("core", "fpga") == ["fpga", "core"]
        # parallel reaches nothing above the foundation, so campaign's
        # import of it closes no loop.
        assert cycle_path("campaign", "parallel") is None


# ---------------------------------------------------------------- REP003


class TestNumericSafety:
    CHECKER = NumericSafetyChecker()

    @pytest.mark.parametrize("snippet", [
        "def f(x):\n    return x == 1.5\n",
        "def f(x):\n    return x != -2.25\n",
        "def f(x, y):\n    return float(x) == y\n",
        "import numpy as np\ndef f(x, y):\n    return np.float32(x) == y\n",
    ])
    def test_flags_float_equality(self, lint_snippet, snippet):
        findings = lint_snippet("repro/fpga/mod.py", snippet, self.CHECKER)
        assert rules(findings) == ["REP003"], snippet

    @pytest.mark.parametrize("snippet", [
        # Exact-zero breakdown checks are the sanctioned idiom.
        "def f(rho):\n    return rho == 0.0\n",
        "def f(x):\n    return abs(x - 1.5) < 1e-9\n",
        "def f(x):\n    return x >= 1.5\n",
        "def f(n):\n    return n == 1\n",  # int equality untouched
    ])
    def test_allows(self, lint_snippet, snippet):
        findings = lint_snippet("repro/fpga/mod.py", snippet, self.CHECKER)
        assert findings == [], snippet

    def test_flags_bare_float_cast_in_solver_loop(self, lint_snippet):
        code = textwrap.dedent("""
            def solve(xs):
                out = []
                for x in xs:
                    out.append(float(x))
                return out
        """)
        findings = lint_snippet("repro/solvers/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP003"]
        assert "inner loop" in findings[0].message

    def test_reduction_casts_in_loops_allowed(self, lint_snippet):
        code = textwrap.dedent("""
            import numpy as np

            def solve(r, ar, n):
                for _ in range(n):
                    rho = float(r @ ar)
                    nrm = float(np.linalg.norm(r))
                return rho, nrm
        """)
        assert lint_snippet("repro/solvers/mod.py", code, self.CHECKER) == []

    def test_loop_cast_rule_scoped_to_solvers(self, lint_snippet):
        code = "def f(xs):\n    for x in xs:\n        y = float(x)\n"
        assert lint_snippet("repro/fpga/mod.py", code, self.CHECKER) == []


# ---------------------------------------------------------------- REP004


class TestExceptionPolicy:
    CHECKER = ExceptionPolicyChecker()

    def test_flags_bare_except(self, lint_snippet):
        code = "try:\n    work()\nexcept:\n    cleanup()\n"
        findings = lint_snippet("repro/core/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP004"]

    def test_flags_silent_swallow(self, lint_snippet):
        code = "try:\n    work()\nexcept Exception:\n    pass\n"
        findings = lint_snippet("repro/core/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP004"]
        assert "swallow" in findings[0].message

    def test_recording_handler_allowed(self, lint_snippet):
        code = (
            "try:\n    work()\n"
            "except Exception as exc:\n    failures.append(exc)\n"
        )
        assert lint_snippet("repro/core/mod.py", code, self.CHECKER) == []

    @pytest.mark.parametrize("exc", ["ValueError", "KeyError", "RuntimeError"])
    def test_flags_builtin_domain_raises(self, lint_snippet, exc):
        code = f"def f():\n    raise {exc}('boom')\n"
        findings = lint_snippet("repro/core/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP004"], exc

    @pytest.mark.parametrize("snippet", [
        "from repro.errors import ValidationError\n"
        "def f():\n    raise ValidationError('boom')\n",
        "def f():\n    raise TypeError('api misuse')\n",
        "def f():\n    raise NotImplementedError\n",
        "def f():\n    try:\n        g()\n    except KeyError:\n        raise\n",
    ])
    def test_allows(self, lint_snippet, snippet):
        findings = lint_snippet("repro/core/mod.py", snippet, self.CHECKER)
        assert findings == [], snippet

    def test_flags_foreign_exception_classes(self, lint_snippet):
        code = (
            "from json import JSONDecodeError\n"
            "def f():\n    raise JSONDecodeError('m', 'd', 0)\n"
        )
        findings = lint_snippet("repro/core/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP004"]


# ---------------------------------------------------------------- REP005


class TestTelemetryNames:
    CHECKER = TelemetryNameChecker()

    def test_flags_unregistered_name(self, lint_snippet):
        code = (
            "from repro import telemetry as tm\n"
            "tm.count('serve.definitely_not_registered')\n"
        )
        findings = lint_snippet("repro/serve/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP005"]
        assert "KNOWN_COUNTERS" in findings[0].message

    def test_flags_computed_name(self, lint_snippet):
        code = (
            "from repro import telemetry as tm\n"
            "def f(name):\n    tm.count('prefix_' + name)\n"
        )
        findings = lint_snippet("repro/serve/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP005"]

    def test_registered_literals_and_conditional_allowed(self, lint_snippet):
        code = (
            "from repro import telemetry as tm\n"
            "def f(warm):\n"
            "    tm.count('serve.cache_hits' if warm else"
            " 'serve.cache_misses')\n"
            "    with tm.span('kernel.spmv'):\n        pass\n"
        )
        assert lint_snippet("repro/serve/mod.py", code, self.CHECKER) == []

    def test_dynamic_counter_family_allowed(self, lint_snippet):
        code = (
            "from repro import telemetry as tm\n"
            "def f(solver):\n    tm.count(f'solver_attempts.{solver}')\n"
        )
        assert lint_snippet("repro/core/mod.py", code, self.CHECKER) == []

    def test_dynamic_span_family_not_allowed(self, lint_snippet):
        code = (
            "from repro import telemetry as tm\n"
            "def f(solver):\n"
            "    with tm.span(f'solver_attempts.{solver}'):\n        pass\n"
        )
        findings = lint_snippet("repro/core/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP005"]

    def test_bare_imported_helpers_checked(self, lint_snippet):
        code = (
            "from repro.telemetry import count\n"
            "count('not.a.registered.counter')\n"
        )
        findings = lint_snippet("repro/core/mod.py", code, self.CHECKER)
        assert rules(findings) == ["REP005"]


# ---------------------------------------------------------------- REP006


class TestVirtualClock:
    CHECKER = VirtualClockChecker()

    @pytest.mark.parametrize("snippet", [
        "import time\n",
        "from time import perf_counter\n",
        "import datetime\n",
        "from datetime import timedelta\n",
    ])
    def test_flags_clock_imports_in_serve(self, lint_snippet, snippet):
        findings = lint_snippet("repro/serve/mod.py", snippet, self.CHECKER)
        assert rules(findings) == ["REP006"], snippet

    def test_flags_clock_calls(self, lint_snippet):
        code = "import time\n\ndef f():\n    return time.perf_counter()\n"
        findings = lint_snippet("repro/serve/mod.py", code, self.CHECKER)
        assert len(findings) == 2  # the import and the call

    def test_perf_counter_fine_outside_serve(self, lint_snippet):
        code = "import time\nt = time.perf_counter()\n"
        assert lint_snippet("repro/campaign.py", code, self.CHECKER) == []

    def test_virtual_time_arithmetic_allowed(self, lint_snippet):
        code = (
            "def tick(now_s, tick_ms):\n"
            "    return now_s + tick_ms / 1e3\n"
        )
        assert lint_snippet("repro/serve/mod.py", code, self.CHECKER) == []


# ------------------------------------------------------------- registry


class TestCheckerRegistry:
    def test_all_ten_rules_registered(self):
        assert RULE_IDS == (
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007", "REP008", "REP009", "REP010",
        )

    def test_partition_splits_by_family(self):
        file_checkers, project_checkers = partition_checkers(
            ["REP008", "REP002", "REP007"]
        )
        assert tuple(c.rule_id for c in file_checkers) == ("REP002",)
        assert tuple(c.rule_id for c in project_checkers) == (
            "REP008", "REP007",
        )

    def test_partition_none_means_everything(self):
        assert partition_checkers(None) == (
            ALL_CHECKERS, ALL_PROJECT_CHECKERS,
        )

    def test_subset_selection_preserves_order_and_dedupes(self):
        file_checkers, project_checkers = partition_checkers(
            ["REP004", "REP009", "REP001", "REP004", "REP009"]
        )
        assert tuple(c.rule_id for c in file_checkers) == (
            "REP004", "REP001",
        )
        assert tuple(c.rule_id for c in project_checkers) == ("REP009",)

    def test_unknown_rule_raises(self):
        with pytest.raises(UnknownNameError, match="REP999"):
            partition_checkers(["REP001", "REP999"])

    def test_none_means_everything(self):
        # An empty selection (``--rules ,``) selects every rule too.
        assert partition_checkers([]) == partition_checkers(None)
