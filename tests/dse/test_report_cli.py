"""Tests for DSE report assembly and the ``repro dse`` CLI."""

import json

import pytest

from repro.cli import main
from repro.dse import (
    CapacityQuery,
    DesignSpace,
    FleetShape,
    TrafficSpec,
    run_dse,
)


def tiny_space():
    return DesignSpace(
        shapes=(
            FleetShape(
                slots_per_fleet=2, max_unroll=16,
                solver_mix="paper-default", cache_capacity=8,
                queue_capacity=256, min_fleets=1, max_fleets=2,
            ),
            FleetShape(
                slots_per_fleet=4, max_unroll=16,
                solver_mix="paper-default", cache_capacity=8,
                queue_capacity=256, min_fleets=1, max_fleets=2,
            ),
        ),
        traffic=(
            TrafficSpec(
                name="t", mix="repeat-heavy", rate_rps=50.0,
                duration_s=2.0,
            ),
        ),
        sources=("2C", "Wi"),
    )


def tiny_space_document():
    return {
        "axes": {
            "slots_per_fleet": [2, 4],
            "max_unroll": [16],
            "solver_mix": ["paper-default"],
            "cache_capacity": [8],
            "queue_capacity": [256],
            "fleet_bounds": [[1, 2]],
        },
        "traffic": [{
            "name": "t", "mix": "repeat-heavy", "rate_rps": 50.0,
            "duration_s": 2.0,
        }],
        "sources": ["2C", "Wi"],
    }


@pytest.fixture(scope="module")
def tiny_report():
    return run_dse(
        space=tiny_space(), seed=0,
        query=CapacityQuery(slo_p99_ms=80.0, rate_rps=50.0),
    )


class TestDseReport:
    def test_json_is_deterministic(self, tiny_report):
        again = run_dse(
            space=tiny_space(), seed=0,
            query=CapacityQuery(slo_p99_ms=80.0, rate_rps=50.0),
        )
        assert tiny_report.to_json() == again.to_json()

    def test_document_structure(self, tiny_report):
        doc = tiny_report.as_dict()
        assert doc["schema_version"] == 1
        assert doc["dse"]["points"] == 2
        assert doc["dse"]["evaluated"] == 2
        assert doc["dse"]["failed"] == 0
        assert len(doc["points"]) == 2
        assert doc["frontier"]
        assert set(doc["frontier"]) <= {p["id"] for p in doc["points"]}
        assert doc["capacity"]["cheapest"] is not None

    def test_csv_has_one_row_per_point(self, tiny_report):
        lines = tiny_report.to_csv().strip().split("\n")
        assert lines[0].startswith("id,traffic,mix,")
        assert len(lines) == 1 + 2
        assert lines[0].endswith(",on_frontier")

    def test_text_summary_names_the_answer(self, tiny_report):
        text = tiny_report.render_text()
        assert "capacity answer" in text
        assert tiny_report.capacity["cheapest"]["id"] in text


class TestDseCli:
    def test_feasible_answer_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(tiny_space_document()))
        code = main([
            "dse", "--seed", "0", "--space", str(path),
            "--slo-ms", "80", "--rate", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity answer" in out

    def test_no_feasible_answer_exits_one(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(tiny_space_document()))
        code = main([
            "dse", "--seed", "0", "--space", str(path),
            "--slo-ms", "0.001", "--rate", "50",
        ])
        assert code == 1
        assert "no feasible configuration" in capsys.readouterr().out

    def test_bad_space_file_exits_two(self, tmp_path, capsys):
        code = main([
            "dse", "--space", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert "dse:" in capsys.readouterr().err

    def test_bad_query_exits_two(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(tiny_space_document()))
        code = main([
            "dse", "--space", str(path), "--slo-ms", "-1",
        ])
        assert code == 2

    def test_json_out_byte_identical_across_runs(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(tiny_space_document()))
        argv = [
            "dse", "--seed", "0", "--space", str(path),
            "--slo-ms", "80", "--rate", "50",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_idle_frontier_point_renders_na(self, tmp_path, capsys):
        # 0.1 rps for 1 s draws no arrival at seed 0: the only point
        # completes nothing, so its p99 is None.
        document = tiny_space_document()
        document["axes"]["slots_per_fleet"] = [2]
        document["traffic"][0].update(rate_rps=0.1, duration_s=1.0)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(document))
        code = main(["dse", "--seed", "0", "--space", str(path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "p99 n/a ms" in out
        assert "no feasible configuration" in out
        assert "Traceback" not in err

    def test_csv_format_prints_rows(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(tiny_space_document()))
        code = main([
            "dse", "--seed", "0", "--space", str(path),
            "--slo-ms", "80", "--rate", "50", "--format", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("id,traffic,mix,")
