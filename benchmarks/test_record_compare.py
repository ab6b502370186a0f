"""The record comparison the deterministic stage benches assert with."""

import json

import pytest

LIVE = {
    "spec": {"seed": 0, "mix": "repeat-heavy"},
    "warm": {"p50_ms": 1.735041, "completed": 620, "events_per_s": 812.5},
    "frontier": [{"id": "a", "p99_ms": 2.5}, {"id": "b", "p99_ms": 4.0}],
    "points_per_s": 31.0,
}


@pytest.fixture
def committed(tmp_path):
    """Write ``LIVE`` as a committed record with dotted field paths
    replaced (``None`` deletes the field); return its path."""

    def write(**changes):
        record = json.loads(json.dumps(LIVE))
        for path, value in changes.items():
            *parents, key = path.split(".")
            node = record
            for part in parents:
                node = node[int(part)] if isinstance(node, list) else node[part]
            if value is None:
                del node[key]
            else:
                node[key] = value
        target = tmp_path / "BENCH_example.json"
        target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return target

    return write


def _failure(assert_matches_record, path) -> str:
    with pytest.raises(AssertionError) as failure:
        assert_matches_record(LIVE, path)
    return str(failure.value)


def test_equal_record_passes(assert_matches_record, committed):
    assert_matches_record(LIVE, committed())


def test_wall_clock_fields_are_not_compared(assert_matches_record, committed):
    assert_matches_record(
        LIVE, committed(**{"warm.events_per_s": 90.0, "points_per_s": 2.0})
    )


@pytest.mark.parametrize(
    ("changes", "line"),
    [
        (
            {"warm.p50_ms": 1.735042},
            "warm.p50_ms: live 1.735041, committed 1.735042",
        ),
        (
            {"frontier.1.p99_ms": 4.5},
            "frontier[1].p99_ms: live 4.0, committed 4.5",
        ),
        (
            {"warm.completed": 620.0},
            "warm.completed: live 620, committed 620.0",
        ),
        (
            {"spec.rate_rps": 120.0},
            "spec.rate_rps: missing from the live record",
        ),
        ({"spec.mix": None}, "spec.mix: not in the committed record"),
    ],
    ids=[
        "nudged-field", "nudged-list-item", "int-vs-float",
        "extra-committed-key", "missing-committed-key",
    ],
)
def test_differing_field_is_named(
    assert_matches_record, committed, changes, line
):
    message = _failure(assert_matches_record, committed(**changes))
    assert message == f"1 field(s) differ from BENCH_example.json:\n{line}"


def test_every_difference_is_listed(assert_matches_record, committed):
    message = _failure(
        assert_matches_record,
        committed(**{"spec.seed": 1, "warm.p50_ms": 2.0, "frontier": []}),
    )
    assert [line.split(":")[0] for line in message.splitlines()] == [
        "3 field(s) differ from BENCH_example.json",
        "frontier",
        "spec.seed",
        "warm.p50_ms",
    ]
