"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

CHILD_TIMEOUT_S = 60
CHILD_ADDRESS_SPACE_B = 1 << 30


def _cap_address_space():
    import resource

    limit = (CHILD_ADDRESS_SPACE_B, CHILD_ADDRESS_SPACE_B)
    resource.setrlimit(resource.RLIMIT_AS, limit)


def run_cli(*argv):
    """Run ``python -m repro`` in a child process under a time and memory cap.

    The cases that use it would, without input validation, loop forever
    or allocate until memory runs out; the caps turn that into a failed
    test instead of a hung or exhausted host.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT_S,
        preexec_fn=_cap_address_space if os.name == "posix" else None,
    )


class TestListDatasets:
    def test_prints_all_rows(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "2cubes_sphere" in out
        assert out.count("\n") >= 26  # header + 25 rows


class TestSolve:
    def test_dataset_solve_succeeds(self, capsys):
        assert main(["solve", "--dataset", "Wa"]) == 0
        out = capsys.readouterr().out
        assert "solver sequence" in out
        assert "converged" in out

    def test_poisson_solve(self, capsys):
        assert main(["solve", "--poisson", "12"]) == 0
        out = capsys.readouterr().out
        assert "poisson_2d_12x12" in out

    def test_fixed_solver_bypass(self, capsys):
        assert main(["solve", "--poisson", "10", "--solver", "cg"]) == 0
        out = capsys.readouterr().out
        assert "fixed solver 'cg'" in out

    def test_fixed_solver_failure_exit_code(self, capsys):
        # Jacobi on the 2C class diverges: nonzero exit.
        assert main(["solve", "--dataset", "2C", "--solver", "jacobi"]) == 1

    def test_config_flags_forwarded(self, capsys):
        assert main([
            "solve", "--poisson", "10",
            "--sampling-rate", "4", "--r-opt", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 sets" in out

    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_config_file(self, tmp_path, capsys):
        import json

        from repro import AcamarConfig

        path = tmp_path / "config.json"
        path.write_text(json.dumps(AcamarConfig(r_opt=0).to_dict()))
        assert main([
            "solve", "--poisson", "10", "--config", str(path),
            "--r-opt", "0",
        ]) == 0
        assert "sets" in capsys.readouterr().out


class TestExport:
    def test_export_command(self, tmp_path, capsys):
        target = tmp_path / "exports"
        assert main(["export", str(target), "--keys", "2C,Wi"]) == 0
        out = capsys.readouterr().out
        assert "wrote 34 files" in out
        assert (target / "table2.csv").exists()


class TestExperiments:
    def test_single_experiment_with_subset(self, capsys):
        assert main(["experiment", "fig2", "--keys", "2C,Wi"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "2C" in out and "Wi" in out

    def test_chart_flag(self, capsys):
        assert main([
            "experiment", "fig2", "--keys", "2C,Wi", "--chart", "URB=64",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- URB=64 --" in out
        assert "|#" in out

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestCampaign:
    def test_campaign_with_keys(self, capsys):
        assert main(["campaign", "Wa", "Li"]) == 0
        out = capsys.readouterr().out
        assert "systems solved        : 2" in out
        assert "convergence rate      : 100%" in out

    def test_campaign_all_flag(self, capsys):
        assert main(["campaign", "--all", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "systems solved        : 25" in out

    def test_campaign_without_sources_errors(self, capsys):
        assert main(["campaign"]) == 2
        assert "no sources" in capsys.readouterr().err

    def test_campaign_unknown_source_errors(self, capsys):
        assert main(["campaign", "bogus-key"]) == 2
        assert "bogus-key" in capsys.readouterr().err

    def test_campaign_writes_csv_and_telemetry(self, tmp_path, capsys):
        import json

        csv_path = tmp_path / "campaign.csv"
        telemetry_path = tmp_path / "telemetry.json"
        assert main([
            "campaign", "Wa", "--csv", str(csv_path),
            "--telemetry", str(telemetry_path),
        ]) == 0
        assert csv_path.exists()
        document = json.loads(telemetry_path.read_text())
        assert set(document) == {"schema_version", "spans", "counters"}
        assert document["spans"]["campaign.run"]["count"] == 1
        assert document["spans"]["campaign.solve"]["count"] == 1

    def test_malformed_mtx_is_a_failed_entry(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate real general\n"
            b"1 1 1\n1 1 nan\n"
        )
        result = run_cli("campaign", str(path))
        assert result.returncode == 1, result.stderr
        assert "FAILED bad: SparseFormatError: line 3" in result.stdout
        assert "Traceback" not in result.stderr

    def test_mtx_declaring_huge_size_is_a_failed_entry(self, tmp_path):
        path = tmp_path / "huge.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate real general\n"
            b"999999999999 1 1\n1 1 2.0\n"
        )
        result = run_cli("campaign", str(path))
        assert result.returncode == 1, result.stderr
        assert "FAILED huge: SparseFormatError: line 2" in result.stdout
        assert "MemoryError" not in result.stdout + result.stderr
        assert "Traceback" not in result.stderr


class TestUnwritableOutput:
    """An output path into a missing directory exits 2 before any work."""

    @pytest.mark.parametrize("argv", [
        ("campaign", "Wa", "--csv"),
        ("campaign", "Wa", "--telemetry"),
        ("dse", "--out"),
        ("loadtest", "--out"),
        ("loadtest", "--cluster", "--out"),
        ("serve", "--out"),
        ("chaos", "--out"),
        ("lint", "--format", "sarif", "--out"),
    ])
    def test_missing_directory_exits_two(self, tmp_path, argv, capsys):
        target = tmp_path / "missing" / "report.out"
        assert main([*argv, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]}: cannot write ")
        assert "does not exist" in captured.err
        assert captured.out == ""

    def test_directory_as_output_exits_two(self, tmp_path, capsys):
        assert main(["chaos", "--out", str(tmp_path)]) == 2
        assert "it is a directory" in capsys.readouterr().err


class TestSolveExitContract:
    """Pins the documented exit codes: 0 converged, 1 not, 2 unresolvable."""

    def test_acamar_path_nonconvergence_is_one(self, capsys):
        assert main([
            "solve", "--dataset", "2C", "--max-iterations", "3",
        ]) == 1
        assert "max_iterations" in capsys.readouterr().out

    def test_unknown_dataset_is_two(self, capsys):
        assert main(["solve", "--dataset", "bogus-key"]) == 2
        err = capsys.readouterr().err
        assert "bogus-key" in err
        assert "solve:" in err

    def test_convergence_is_zero(self):
        assert main(["solve", "--dataset", "Wa"]) == 0

    def test_problem_too_large_for_memory_is_two(self, monkeypatch, capsys):
        # poisson_2d is replaced, never run: a host that overcommits can
        # grant a real 75 GiB request and then kill the process using it.
        message = (
            "Unable to allocate 74.5 GiB for an array with shape "
            "(10000000000,) and data type float64"
        )

        class ArrayMemoryError(MemoryError):
            """numpy's shape: the array shape in ``args``, text in ``str``."""

            def __str__(self):
                return message

        def too_large(n):
            raise ArrayMemoryError((n * n,), "float64")

        monkeypatch.setattr("repro.cli.poisson_2d", too_large)
        assert main(["solve", "--poisson", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"solve: {message}\n"
        assert captured.out == ""


class TestServe:
    def test_loadtest_summary_and_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main([
            "loadtest", "--seed", "0", "--duration", "0.5",
            "--rate", "40", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "requests generated" in printed
        assert "cache hit rate" in printed
        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert document["requests"]["unaccounted"] == 0

    def test_loadtest_reports_are_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main([
                "loadtest", "--seed", "0", "--duration", "0.5",
                "--rate", "40", "--out", str(path),
            ]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_serve_replays_saved_request_log(self, tmp_path):
        req = tmp_path / "req.jsonl"
        live = tmp_path / "live.jsonl"
        replay = tmp_path / "replay.jsonl"
        assert main([
            "serve", "--seed", "2", "--duration", "0.5", "--rate", "40",
            "--save-requests", str(req), "--responses", str(live),
        ]) == 0
        assert main([
            "serve", "--requests", str(req), "--responses", str(replay),
        ]) == 0
        assert live.read_bytes() == replay.read_bytes()

    def test_no_cache_flag_disables_cache(self, tmp_path, capsys):
        assert main([
            "loadtest", "--seed", "0", "--duration", "0.5",
            "--rate", "40", "--no-cache",
        ]) == 0
        assert "cache hit rate        : 0.0%" in capsys.readouterr().out

    def test_telemetry_export_holds_spans_and_counters(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "telemetry.json"
        assert main([
            "loadtest", "--seed", "0", "--duration", "0.5",
            "--rate", "40", "--telemetry", str(path),
        ]) == 0
        document = json.loads(path.read_text())
        assert set(document) == {"schema_version", "spans", "counters"}
        assert document["schema_version"] == 1
        assert any(
            name.startswith("solver_attempts.")
            for name in document["counters"]
        )


class TestServingExitContract:
    @pytest.mark.parametrize("command", ["loadtest", "serve"])
    @pytest.mark.parametrize("flags", [
        ("--rate", "-5"),
        ("--queue-capacity", "0"),
        ("--slots-per-device", "0"),
    ])
    def test_invalid_config_exits_two(self, command, flags, capsys):
        assert main([command, "--duration", "0.5", *flags]) == 2
        assert capsys.readouterr().err.startswith(f"{command}: ")


class TestMalformedRequestLog:
    """``serve --requests`` rejects a log the simulator cannot serve; at
    the parent a NaN arrival looped forever, hence the child's time cap."""

    GOOD = '{"request_id": 0, "source": "Wa", "arrival_s": 0.0}'

    @pytest.mark.parametrize("line, message", [
        ('{"request_id": 1, "source": "Wa", "arrival_s": NaN}',
         "req.jsonl:2: arrival_s must be a finite number"),
        ('{"request_id": 1, "source": "Wa", "arrival_s": Infinity}',
         "req.jsonl:2: arrival_s must be a finite number"),
        ('{"request_id": 1, "source": "Wa"}',
         "req.jsonl:2: missing key 'arrival_s'"),
        ("not json", "req.jsonl:2: not valid JSON"),
        ('{"request_id": 0, "source": "Li", "arrival_s": 0.1}',
         "req.jsonl:2: request_id 0 repeats line 1"),
    ])
    def test_exits_two(self, tmp_path, line, message):
        path = tmp_path / "req.jsonl"
        path.write_text(f"{self.GOOD}\n{line}\n")
        result = run_cli("serve", "--requests", str(path))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("serve: ")
        assert message in result.stderr
        assert "Traceback" not in result.stderr


class TestServiceConfigFlags:
    """Bad serving knobs exit 2 before any profiling solve runs."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-batch", "0", "max_batch must be >= 1"),
        ("--cache-capacity", "0", "cache_capacity must be >= 1"),
        ("--batch-window-ms", "-1", "batch_window_ms must be a finite"),
        ("--batch-window-ms", "nan", "batch_window_ms must be a finite"),
    ])
    def test_loadtest_exits_two(self, flag, value, message):
        result = run_cli("loadtest", "--duration", "2", flag, value)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("loadtest: ")
        assert message in result.stderr
        assert "Traceback" not in result.stderr


class TestNonFiniteTraffic:
    @pytest.mark.parametrize("argv", [
        ("loadtest", "--rate", "nan", "--duration", "1"),
        ("loadtest", "--duration", "inf"),
        ("loadtest", "--deadline-ms", "nan", "--duration", "1"),
        ("loadtest", "--cluster", "--rate", "nan"),
        ("loadtest", "--cluster", "--duration", "inf"),
    ])
    def test_loadtest_exits_two(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 2, result.stderr
        assert "must be a finite number" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_dse_space_exits_two(self, tmp_path, value):
        # json.dumps writes the NaN / Infinity literals json.loads accepts.
        document = {
            "axes": {
                "slots_per_fleet": [2], "max_unroll": [16],
                "solver_mix": ["paper-default"], "cache_capacity": [8],
                "queue_capacity": [256], "fleet_bounds": [[1, 2]],
            },
            "traffic": [{
                "name": "t", "mix": "uniform", "rate_rps": value,
                "duration_s": 1.0,
            }],
        }
        path = tmp_path / "space.json"
        path.write_text(json.dumps(document))
        result = run_cli("dse", "--space", str(path))
        assert result.returncode == 2, result.stderr
        assert "rate_rps must be a finite number" in result.stderr
        assert "Traceback" not in result.stderr


def assert_usage_error(result, command, message):
    """Exit 2 with exactly one stderr line naming the command."""
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"{command}: ")
    assert message in line


class TestUsageErrorBoundary:
    """Rejected input exits 2 with one stderr line through ``main``'s
    one usage-error boundary, never with a traceback."""

    @pytest.mark.parametrize("text, message", [
        ('{"tolerance": "abc"}', "tolerance must be a finite number"),
        ('{"dtype": "foo"}', "dtype must name a numpy data type"),
        ("not json", "cannot read config"),
        ("[1, 2]", "must hold a JSON object, got list"),
        (None, "cannot read config"),
    ], ids=["tolerance-str", "dtype", "not-json", "array", "missing"])
    def test_bad_config_file(self, tmp_path, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        result = run_cli("solve", "--poisson", "4", "--config", str(path))
        assert_usage_error(result, "solve", message)
        assert "problem:" not in result.stdout

    @pytest.mark.parametrize("argv, message", [
        (("solve", "--poisson", "0"), "grid must be at least 1x1"),
        (("solve", "--poisson", "-3"), "grid must be at least 1x1"),
        (("solve", "--poisson", "4", "--max-iterations", "0"),
         "max_iterations must be >= 1"),
        (("solve", "--poisson", "4", "--sampling-rate", "0"),
         "sampling_rate must be >= 1"),
        (("solve", "--poisson", "4", "--solver", "nope"),
         "unknown solver 'nope'"),
        (("chaos", "--chaos-seed", "-1"), "chaos seed must be >= 0"),
        (("experiment", "table2", "--keys", "XX"), "unknown dataset 'XX'"),
        (("experiment", "fig6", "--keys", "2C", "--chart", "nope"),
         "unknown column 'nope'"),
        (("dse", "--seed", "-1"), "seed must be a non-negative integer"),
        (("loadtest", "--seed", "-1", "--duration", "1"),
         "seed must be a non-negative integer"),
        (("loadtest", "--cluster", "--seed", "-1"),
         "seed must be a non-negative integer"),
        (("dse", "--workers", "0"), "workers must be an integer >= 1"),
        (("dse", "--workers", "-3"), "workers must be an integer >= 1"),
        (("loadtest", "--queue-capacity", "0", "--duration", "1"),
         "queue_capacity must be >= 1"),
        (("loadtest", "--workers", "0", "--duration", "1"),
         "workers must be >= 1"),
        (("loadtest", "--deadline-ms", "-5", "--duration", "1"),
         "deadline must be > 0 ms"),
        (("serve", "--gpu-tenants", "-1", "--duration", "1"),
         "gpu_tenants must be >= 0"),
        (("loadtest", "--cluster", "--duration", "1", "--rate", "10",
          "--cluster-max-batch", "0"), "max_batch must be >= 1"),
        (("loadtest", "--cluster", "--duration", "1", "--rate", "10",
          "--cluster-max-batch", "-1"), "max_batch must be >= 1"),
        (("serve", "--deadline-ms", "-5", "--duration", "1"),
         "deadline must be > 0 ms"),
        (("loadtest", "--cluster", "--deadline-ms", "0", "--duration", "1"),
         "deadline must be > 0 ms"),
    ])
    def test_bad_argument(self, argv, message):
        result = run_cli(*argv)
        assert_usage_error(result, argv[0], message)
        assert "problem:" not in result.stdout

    @pytest.mark.parametrize("flags, message", [
        (("--cluster-max-batch", "0"), "max_batch must be >= 1"),
        (("--cluster-max-batch", "-1"), "max_batch must be >= 1"),
        (("--cache-capacity", "0"), "cache_capacity must be >= 1"),
    ])
    def test_bad_cluster_knob_rejected_before_profiling(
        self, monkeypatch, capsys, flags, message
    ):
        import repro.serve.cluster.service as cluster_service

        def no_profiling(*args, **kwargs):
            raise AssertionError("profiling ran before the config check")

        monkeypatch.setattr(cluster_service, "build_profiles", no_profiling)
        argv = ["loadtest", "--cluster", "--duration", "1", "--rate", "10"]
        assert main([*argv, *flags]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("loadtest: ") and message in line

    @pytest.mark.parametrize("priority", ["true", "7"])
    def test_bad_priority_in_request_log(self, tmp_path, priority):
        log = tmp_path / "requests.jsonl"
        log.write_text(
            '{"request_id": 0, "source": "Wa", "arrival_s": 0.0, '
            f'"priority": {priority}}}\n'
        )
        result = run_cli("serve", "--requests", str(log))
        assert_usage_error(result, "serve", "unknown priority")
        assert "served" not in result.stdout

    SPACE = {
        "axes": {
            "slots_per_fleet": [2], "max_unroll": [16],
            "solver_mix": ["paper-default"], "cache_capacity": [8],
            "queue_capacity": [256], "fleet_bounds": [[1, 2]],
        },
        "traffic": [{
            "name": "t", "mix": "uniform", "rate_rps": 10.0,
            "duration_s": 1.0,
        }],
    }

    @pytest.mark.parametrize("section, key, value, message", [
        (None, "traffic", 5, "'traffic' must be a list of traffic specs"),
        ("axes", "slots_per_fleet", 2, "axis 'slots_per_fleet' must be a list"),
        ("axes", "max_unroll", [16.5], "max_unroll must be an integer"),
        ("axes", "cpu_assist", ["false"], "cpu_assist must be true or false"),
        ("traffic", "rate_rps", True, "rate_rps must be a finite number"),
        ("traffic", "mix", None, "is missing keys ['mix']"),
    ], ids=["traffic-int", "axis-int", "unroll-float", "assist-str",
            "rate-bool", "no-mix"])
    def test_bad_space_document(self, tmp_path, section, key, value, message):
        document = json.loads(json.dumps(self.SPACE))
        target = {
            None: document,
            "axes": document["axes"],
            "traffic": document["traffic"][0],
        }[section]
        if value is None:
            del target[key]
        else:
            target[key] = value
        path = tmp_path / "space.json"
        path.write_text(json.dumps(document))
        result = run_cli("dse", "--space", str(path))
        assert_usage_error(result, "dse", message)
        assert result.stdout == ""

    def test_export_unknown_key(self, tmp_path):
        result = run_cli("export", str(tmp_path / "out"), "--keys", "XX")
        assert_usage_error(result, "export", "unknown dataset 'XX'")


class TestNonFiniteKnobs:
    """Non-finite knobs exit 2 before any work: a NaN deadline would
    never expire, a NaN fill window would serve nothing and exit 0, and
    an infinite tolerance would report convergence after one
    iteration."""

    @pytest.mark.parametrize("argv, message", [
        (("loadtest", "--cluster", "--deadline-ms", "nan"),
         "deadline_ms must be a finite number"),
        (("loadtest", "--cluster", "--batch-fill-ms", "nan"),
         "batch_fill_ms must be a finite number >= 0"),
        (("serve", "--deadline-ms", "nan", "--duration", "1"),
         "deadline_ms must be a finite number"),
        (("loadtest", "--deadline-ms", "inf", "--duration", "1"),
         "deadline_ms must be a finite number"),
        (("solve", "--poisson", "4", "--msid-tolerance", "nan"),
         "msid_tolerance must be a finite number"),
        (("solve", "--poisson", "4", "--msid-tolerance", "inf"),
         "msid_tolerance must be a finite number"),
        (("dse", "--rate", "nan"), "rate_rps must be a finite number"),
        (("dse", "--rate", "inf"), "rate_rps must be a finite number"),
        (("dse", "--slo-ms", "nan"), "slo_p99_ms must be a finite number"),
    ])
    def test_flag_exits_two(self, argv, message):
        assert_usage_error(run_cli(*argv), argv[0], message)

    @pytest.mark.parametrize("payload, message", [
        ({"chunk_size": "x"}, "chunk_size must be an integer"),
        ({"sampling_rate": "7"}, "sampling_rate must be an integer"),
        ({"max_iterations": 2.5}, "max_iterations must be an integer"),
        ({"r_opt": 2.5}, "r_opt must be an integer"),
        ({"max_unroll": True}, "max_unroll must be an integer"),
        ({"setup_iterations": -5}, "setup_iterations must be >= 0"),
    ], ids=["chunk-str", "sampling-str", "iterations-float", "r-opt-float",
            "unroll-bool", "setup-negative"])
    def test_config_integer_field_exits_two(self, tmp_path, payload, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        result = run_cli("solve", "--poisson", "8", "--config", str(path))
        assert_usage_error(result, "solve", message)
        assert "problem:" not in result.stdout

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_config_tolerance_exits_two(self, tmp_path, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tolerance": value}))
        result = run_cli("solve", "--poisson", "4", "--config", str(path))
        assert_usage_error(
            result, "solve", "tolerance must be a finite number"
        )
        assert "converged" not in result.stdout


class TestClusterLoadtest:
    def test_cluster_summary_and_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "cluster.json"
        assert main([
            "loadtest", "--cluster", "--seed", "0", "--duration", "2",
            "--rate", "100", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "loadtest --cluster" in printed
        assert "fleets peak / final" in printed
        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert document["requests"]["unaccounted"] == 0
        assert document["cluster"]["affinity_routing"] is True

    def test_cluster_reports_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main([
                "loadtest", "--cluster", "--seed", "0", "--duration", "2",
                "--rate", "100", "--out", str(path),
            ]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_report(self, tmp_path, capsys):
        one = tmp_path / "w1.json"
        four = tmp_path / "w4.json"
        for path, workers in ((one, "1"), (four, "4")):
            assert main([
                "loadtest", "--cluster", "--seed", "0", "--duration", "2",
                "--rate", "100", "--workers", workers, "--out", str(path),
            ]) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()

    def test_cluster_flags_forwarded(self, tmp_path, capsys):
        import json

        out = tmp_path / "cluster.json"
        assert main([
            "loadtest", "--cluster", "--seed", "0", "--duration", "2",
            "--rate", "100", "--fleets", "3", "--max-fleets", "5",
            "--no-autoscale", "--no-affinity", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        cluster = document["cluster"]
        assert cluster["initial_fleets"] == 3
        assert cluster["max_fleets"] == 5
        assert cluster["autoscale"] is False
        assert cluster["affinity_routing"] is False
        assert (cluster["interval_s"], cluster["vnodes"]) == (1.0, 64)
        assert cluster["remote_fetch_ms"] == 0.25
        assert document["fleets"]["peak"] == 3

    def test_invalid_cluster_config_exits_two(self, capsys):
        assert main([
            "loadtest", "--cluster", "--duration", "2", "--rate", "100",
            "--fleets", "9", "--max-fleets", "4",
        ]) == 2
        assert "loadtest:" in capsys.readouterr().err
