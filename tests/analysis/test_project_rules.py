"""Good/bad fixture pairs for the cross-module rules REP007–REP010.

Each fixture is a tiny virtual repo tree run through the real
whole-program pipeline (``project_report`` in conftest), restricted to
the rule under test so the assertions stay sharp.
"""

TELEMETRY_REGISTRY = (
    "KNOWN_SPANS = frozenset({\"phase.run\"})\n"
    "KNOWN_COUNTERS = frozenset({\"hits\", \"fam.fixed\"})\n"
    "KNOWN_COUNTER_PREFIXES = frozenset({\"fam.\"})\n"
)

LIVE_EMITTER = (
    "from repro import telemetry as tm\n\n\n"
    "def f(x):\n"
    "    with tm.span(\"phase.run\"):\n"
    "        tm.count(\"hits\")\n"
    "        tm.count(f\"fam.{x}\")\n"
)


class TestTelemetryLiveness:
    """REP007 — every registered telemetry name is emitted somewhere."""

    def run(self, project_report, files):
        return project_report(files, rules=["REP007"]).findings

    def test_fully_live_registry_is_clean(self, project_report):
        assert self.run(project_report, {
            "repro/telemetry.py": TELEMETRY_REGISTRY,
            "repro/solvers/run.py": LIVE_EMITTER,
        }) == []

    def test_orphan_counter_flagged_at_registry_line(self, project_report):
        registry = TELEMETRY_REGISTRY.replace(
            '"hits"', '"hits", "ghost"'
        )
        (finding,) = self.run(project_report, {
            "repro/telemetry.py": registry,
            "repro/solvers/run.py": LIVE_EMITTER,
        })
        assert finding.rule == "REP007"
        assert finding.path == "repro/telemetry.py"
        assert finding.line == 2
        assert "'ghost'" in finding.message
        assert "KNOWN_COUNTERS" in finding.message

    def test_orphan_span_flagged(self, project_report):
        registry = TELEMETRY_REGISTRY.replace(
            '"phase.run"', '"phase.run", "dead.span"'
        )
        (finding,) = self.run(project_report, {
            "repro/telemetry.py": registry,
            "repro/solvers/run.py": LIVE_EMITTER,
        })
        assert "'dead.span'" in finding.message
        assert "KNOWN_SPANS" in finding.message

    def test_counter_under_live_prefix_family_is_exempt(self, project_report):
        # "fam.fixed" is never emitted literally, but the f-string head
        # keeps the whole registered family alive.
        assert self.run(project_report, {
            "repro/telemetry.py": TELEMETRY_REGISTRY,
            "repro/solvers/run.py": LIVE_EMITTER,
        }) == []

    def test_dead_prefix_family_flagged(self, project_report):
        registry = TELEMETRY_REGISTRY.replace(
            '"fam."', '"fam.", "dead."'
        )
        (finding,) = self.run(project_report, {
            "repro/telemetry.py": registry,
            "repro/solvers/run.py": LIVE_EMITTER,
        })
        assert "'dead.'" in finding.message
        assert "KNOWN_COUNTER_PREFIXES" in finding.message

    def test_silent_when_telemetry_module_not_linted(self, project_report):
        # A partial lint cannot prove an emission is missing.
        assert self.run(project_report, {
            "repro/solvers/run.py": LIVE_EMITTER,
        }) == []


WORKER_PRELUDE = (
    "from repro.parallel import run_sharded\n\n\n"
    "def work(items, config):\n"
    "    return []\n\n\n"
)


class TestWorkerBoundary:
    """REP008 — ``run_sharded`` work functions must pickle by name."""

    def run(self, project_report, files):
        return project_report(files, rules=["REP008"]).findings

    def test_top_level_work_fn_is_clean(self, project_report):
        assert self.run(project_report, {
            "repro/campaign/driver.py": WORKER_PRELUDE + (
                "def go(items, cfg):\n"
                "    return run_sharded(items, cfg, work_fn=work)\n"
            ),
        }) == []

    def test_lambda_work_fn_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/campaign/driver.py": WORKER_PRELUDE + (
                "def go(items, cfg):\n"
                "    return run_sharded(\n"
                "        items, cfg, work_fn=lambda i, c: []\n"
                "    )\n"
            ),
        })
        assert "lambda" in finding.message

    def test_nested_def_work_fn_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/campaign/driver.py": WORKER_PRELUDE + (
                "def go(items, cfg):\n"
                "    def inner(i, c):\n"
                "        return []\n"
                "    return run_sharded(items, cfg, work_fn=inner)\n"
            ),
        })
        assert "nested function" in finding.message

    def test_module_level_lambda_assignment_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/campaign/driver.py": WORKER_PRELUDE + (
                "shim = lambda i, c: []\n\n\n"
                "def go(items, cfg):\n"
                "    return run_sharded(items, cfg, work_fn=shim)\n"
            ),
        })
        assert "'<lambda>'" in finding.message

    def test_conditional_local_resolves_both_arms(self, project_report):
        # The campaign idiom: one arm clean, one arm a lambda.
        (finding,) = self.run(project_report, {
            "repro/campaign/driver.py": WORKER_PRELUDE + (
                "shim = lambda i, c: []\n\n\n"
                "def go(items, cfg, batch):\n"
                "    work_fn = work if batch else shim\n"
                "    return run_sharded(items, cfg, work_fn=work_fn)\n"
            ),
        })
        assert "'shim'" in finding.message

    def test_cross_module_import_of_top_level_def_is_clean(
        self, project_report
    ):
        assert self.run(project_report, {
            "repro/serve/profile.py": (
                "def profile_items(items, config):\n"
                "    return []\n"
            ),
            "repro/campaign/driver.py": (
                "from repro.parallel import run_sharded\n"
                "from repro.serve.profile import profile_items\n\n\n"
                "def go(items, cfg):\n"
                "    return run_sharded(\n"
                "        items, cfg, work_fn=profile_items\n"
                "    )\n"
            ),
        }) == []

    def test_cross_module_import_of_nested_def_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/serve/profile.py": (
                "def outer():\n"
                "    def profile_items(items, config):\n"
                "        return []\n"
                "    return profile_items\n"
            ),
            "repro/campaign/driver.py": (
                "from repro.parallel import run_sharded\n"
                "from repro.serve.profile import profile_items\n\n\n"
                "def go(items, cfg):\n"
                "    return run_sharded(\n"
                "        items, cfg, work_fn=profile_items\n"
                "    )\n"
            ),
        })
        assert "nested function" in finding.message

    def test_chain_leaving_the_tree_is_trusted(self, project_report):
        assert self.run(project_report, {
            "repro/campaign/driver.py": (
                "from repro.parallel import run_sharded\n"
                "from outside.lib import imported_work\n\n\n"
                "def go(items, cfg):\n"
                "    return run_sharded(\n"
                "        items, cfg, work_fn=imported_work\n"
                "    )\n"
            ),
        }) == []

    def test_lambda_in_crossing_argument_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/campaign/driver.py": WORKER_PRELUDE + (
                "def go(items, cfg):\n"
                "    return run_sharded(\n"
                "        items, cfg, key=lambda x: x, work_fn=work\n"
                "    )\n"
            ),
        })
        assert "run_sharded argument" in finding.message

    def test_executor_factory_lambda_is_parent_side(self, project_report):
        assert self.run(project_report, {
            "repro/campaign/driver.py": WORKER_PRELUDE + (
                "def go(items, cfg):\n"
                "    return run_sharded(\n"
                "        items, cfg,\n"
                "        executor_factory=lambda: None,\n"
                "        work_fn=work,\n"
                "    )\n"
            ),
        }) == []


class TestExitContract:
    """REP009 — CLI exit statuses provably confined to 0/1/2."""

    def run(self, project_report, files):
        return project_report(files, rules=["REP009"]).findings

    def test_confined_cli_is_clean(self, project_report):
        assert self.run(project_report, {
            "repro/cli.py": (
                "def _cmd_run(args):\n"
                "    return 0 if args else 1\n\n\n"
                "def main(argv=None):\n"
                "    return _cmd_run(argv)\n"
            ),
            "repro/__main__.py": (
                "import sys\n\n"
                "from repro.cli import main\n\n"
                "sys.exit(main())\n"
            ),
        }) == []

    def test_out_of_contract_literal_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/cli.py": (
                "def _cmd_run(args):\n"
                "    return 3\n"
            ),
        })
        assert "status 3" in finding.message
        assert "_cmd_run()" in finding.message

    def test_none_return_path_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/cli.py": (
                "def _cmd_run(args):\n"
                "    if args:\n"
                "        return 0\n"
                "    return None\n"
            ),
        })
        assert "None" in finding.message

    def test_missing_return_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/cli.py": (
                "def _cmd_run(args):\n"
                "    print(args)\n"
            ),
        })
        assert "no return statement" in finding.message

    def test_computed_status_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/cli.py": (
                "def _cmd_run(args):\n"
                "    return len(args)\n"
            ),
        })
        assert "len()" in finding.message

    def test_unconfined_main_reported_once_across_modules(
        self, project_report
    ):
        # main() leaks status 5; both the cli shape walk and the
        # __main__ sys.exit(main()) chase land on the same violation,
        # which must dedupe to one finding.
        (finding,) = self.run(project_report, {
            "repro/cli.py": (
                "def main(argv=None):\n"
                "    return 5\n"
            ),
            "repro/__main__.py": (
                "import sys\n\n"
                "from repro.cli import main\n\n"
                "sys.exit(main())\n"
            ),
        })
        assert "status 5" in finding.message

    def test_unenforced_helpers_are_ignored(self, project_report):
        assert self.run(project_report, {
            "repro/cli.py": (
                "def helper():\n"
                "    return 42\n\n\n"
                "def main(argv=None):\n"
                "    return 0\n"
            ),
        }) == []

    def test_module_level_sys_exit_literal_checked(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/cli.py": (
                "import sys\n\n"
                "sys.exit(3)\n"
            ),
        })
        assert "<module>()" in finding.message
        assert "status 3" in finding.message


class TestClockEscape:
    """REP010 — no wall-clock/RNG laundering into the deterministic
    core through helper re-exports."""

    def run(self, project_report, files):
        return project_report(files, rules=["REP010"]).findings

    def test_reexported_clock_import_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/helpers.py": "from time import perf_counter\n",
            "repro/sparse/mod.py": (
                "from repro.helpers import perf_counter\n"
            ),
        })
        assert finding.path == "repro/sparse/mod.py"
        assert "determinism-tainted" in finding.message
        assert "time.perf_counter" in finding.message

    def test_clock_calling_helper_function_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/helpers.py": (
                "import time\n\n\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "repro/solvers/mod.py": "from repro.helpers import stamp\n",
        })
        assert "calls time.time()" in finding.message

    def test_taint_propagates_through_reexport_chain(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/helpers.py": (
                "import time\n\n\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "repro/shim.py": "from repro.helpers import stamp\n",
            "repro/sparse/mod.py": "from repro.shim import stamp\n",
        })
        assert finding.path == "repro/sparse/mod.py"
        assert "via repro.helpers" in finding.message

    def test_shared_rng_instance_flagged(self, project_report):
        (finding,) = self.run(project_report, {
            "repro/helpers.py": (
                "import numpy as np\n\n"
                "RNG = np.random.default_rng(0)\n"
            ),
            "repro/gpu/mod.py": "from repro.helpers import RNG\n",
        })
        assert "RNG instance" in finding.message

    def test_pure_helper_import_is_clean(self, project_report):
        assert self.run(project_report, {
            "repro/helpers.py": (
                "import time\n\n\n"
                "def stamp():\n"
                "    return time.time()\n\n\n"
                "def pure(x):\n"
                "    return x + 1\n"
            ),
            "repro/sparse/mod.py": "from repro.helpers import pure\n",
        }) == []

    def test_telemetry_is_the_sanctioned_boundary(self, project_report):
        assert self.run(project_report, {
            "repro/telemetry.py": (
                "import time\n\n\n"
                "def span(name):\n"
                "    return time.perf_counter()\n"
            ),
            "repro/sparse/mod.py": "from repro.telemetry import span\n",
        }) == []

    def test_non_scoped_importer_is_not_flagged(self, project_report):
        assert self.run(project_report, {
            "repro/helpers.py": (
                "import time\n\n\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "repro/experiments/mod.py": (
                "from repro.helpers import stamp\n"
            ),
        }) == []
