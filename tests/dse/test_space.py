"""Tests for the declarative fleet design space."""

import json

import pytest

from repro.dse import (
    DEMO_SOURCES,
    SOLVER_MIXES,
    DesignSpace,
    FleetShape,
    TrafficSpec,
    cross_shapes,
    demo_space,
    load_space,
    point_id,
    space_from_dict,
)
from repro.errors import ConfigurationError


def small_shape(**overrides):
    fields = dict(
        slots_per_fleet=2, max_unroll=16, solver_mix="paper-default",
        cache_capacity=8, queue_capacity=512, min_fleets=1, max_fleets=2,
    )
    fields.update(overrides)
    return FleetShape(**fields)


class TestFleetShape:
    def test_round_trips_through_as_dict(self):
        shape = small_shape()
        assert FleetShape(**shape.as_dict()) == shape

    def test_shape_id_is_stable_and_readable(self):
        assert small_shape().shape_id == (
            "s2-u16-paper-default-c8-q512-f1:2"
        )

    @pytest.mark.parametrize("overrides", [
        {"slots_per_fleet": 0},
        {"max_unroll": 0},
        {"solver_mix": "nope"},
        {"cache_capacity": 0},
        {"queue_capacity": 0},
        {"min_fleets": 0},
        {"min_fleets": 3, "max_fleets": 2},
    ])
    def test_invalid_fields_raise(self, overrides):
        with pytest.raises(ConfigurationError):
            small_shape(**overrides)

    def test_every_solver_mix_is_a_full_fallback_order(self):
        for order in SOLVER_MIXES.values():
            assert sorted(order) == ["bicgstab", "cg", "jacobi"]


class TestTrafficSpec:
    def test_as_dict_round_trips(self):
        spec = TrafficSpec(
            name="t", mix="uniform", rate_rps=10.0, duration_s=1.0
        )
        assert TrafficSpec(**spec.as_dict()) == spec

    @pytest.mark.parametrize("overrides", [
        {"name": ""},
        {"mix": "nope"},
        {"rate_rps": 0.0},
        {"duration_s": 0.0},
        {"deadline_ms": 0.0},
    ])
    def test_invalid_fields_raise(self, overrides):
        fields = dict(
            name="t", mix="uniform", rate_rps=10.0, duration_s=1.0
        )
        fields.update(overrides)
        with pytest.raises(ConfigurationError):
            TrafficSpec(**fields)


class TestDesignSpace:
    def test_points_enumerate_shape_major(self):
        shapes = (small_shape(), small_shape(max_unroll=32))
        traffic = (
            TrafficSpec(name="a", mix="uniform", rate_rps=1.0,
                        duration_s=1.0),
            TrafficSpec(name="b", mix="uniform", rate_rps=2.0,
                        duration_s=1.0),
        )
        space = DesignSpace(
            shapes=shapes, traffic=traffic, sources=("2C",)
        )
        assert len(space) == 4
        ids = [point_id(s, t) for s, t in space.points()]
        assert ids == [
            f"{shapes[0].shape_id}@a", f"{shapes[0].shape_id}@b",
            f"{shapes[1].shape_id}@a", f"{shapes[1].shape_id}@b",
        ]

    def test_duplicate_shapes_raise(self):
        with pytest.raises(ConfigurationError):
            DesignSpace(
                shapes=(small_shape(), small_shape()),
                traffic=(TrafficSpec(name="a", mix="uniform",
                                     rate_rps=1.0, duration_s=1.0),),
                sources=("2C",),
            )

    def test_empty_sections_raise(self):
        traffic = (TrafficSpec(name="a", mix="uniform", rate_rps=1.0,
                               duration_s=1.0),)
        with pytest.raises(ConfigurationError):
            DesignSpace(shapes=(), traffic=traffic, sources=("2C",))
        with pytest.raises(ConfigurationError):
            DesignSpace(shapes=(small_shape(),), traffic=(),
                        sources=("2C",))
        with pytest.raises(ConfigurationError):
            DesignSpace(shapes=(small_shape(),), traffic=traffic,
                        sources=())


class TestCrossShapes:
    def test_full_cross_product(self):
        shapes = cross_shapes({
            "slots_per_fleet": (2, 4),
            "max_unroll": (16,),
            "solver_mix": ("paper-default", "cg-first"),
            "cache_capacity": (8,),
            "queue_capacity": (512,),
            "fleet_bounds": ((1, 2),),
        })
        assert len(shapes) == 4

    def test_missing_and_unknown_axes_raise(self):
        with pytest.raises(ConfigurationError):
            cross_shapes({"slots_per_fleet": (2,)})
        with pytest.raises(ConfigurationError):
            cross_shapes({
                "slots_per_fleet": (2,), "max_unroll": (16,),
                "solver_mix": ("paper-default",), "cache_capacity": (8,),
                "queue_capacity": (512,), "fleet_bounds": ((1, 2),),
                "bogus": (1,),
            })

    def test_bad_fleet_bounds_raise(self):
        with pytest.raises(ConfigurationError):
            cross_shapes({
                "slots_per_fleet": (2,), "max_unroll": (16,),
                "solver_mix": ("paper-default",), "cache_capacity": (8,),
                "queue_capacity": (512,), "fleet_bounds": (3,),
            })


class TestDemoSpace:
    def test_shape_and_size(self):
        space = demo_space()
        assert len(space.shapes) == 32
        assert len(space.traffic) == 2
        assert space.sources == DEMO_SOURCES
        assert len(space) == 64

    def test_demo_space_round_trips_through_dict(self):
        doc = demo_space().as_dict()
        rebuilt = DesignSpace(
            shapes=tuple(FleetShape(**s) for s in doc["shapes"]),
            traffic=tuple(TrafficSpec(**t) for t in doc["traffic"]),
            sources=tuple(doc["sources"]),
        )
        assert rebuilt == demo_space()


class TestLoadSpace:
    def document(self):
        return {
            "axes": {
                "slots_per_fleet": [2],
                "max_unroll": [16],
                "solver_mix": ["paper-default"],
                "cache_capacity": [8],
                "queue_capacity": [512],
                "fleet_bounds": [[1, 2]],
            },
            "traffic": [{
                "name": "t", "mix": "uniform", "rate_rps": 10.0,
                "duration_s": 1.0,
            }],
            "sources": ["2C", "Wi"],
        }

    def test_loads_valid_document(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(self.document()))
        space = load_space(path)
        assert len(space.shapes) == 1
        assert space.sources == ("2C", "Wi")

    def test_unknown_top_level_key_raises(self):
        doc = self.document()
        doc["bogus"] = 1
        with pytest.raises(ConfigurationError):
            space_from_dict(doc)

    def test_unknown_traffic_key_raises(self):
        doc = self.document()
        doc["traffic"][0]["bogus"] = 1
        with pytest.raises(ConfigurationError):
            space_from_dict(doc)

    def test_unknown_source_raises(self):
        doc = self.document()
        doc["sources"] = ["NOPE"]
        with pytest.raises(ConfigurationError):
            space_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(traffic=5),
         "'traffic' must be a list of traffic specs, got 5"),
        (lambda d: d["axes"].update(slots_per_fleet=2),
         "axis 'slots_per_fleet' must be a list, got 2"),
        (lambda d: d["axes"].update(solver_mix="paper-default"),
         "axis 'solver_mix' must be a list"),
        (lambda d: d["traffic"][0].pop("mix"), "is missing keys ['mix']"),
        (lambda d: d["traffic"][0].pop("rate_rps"),
         "is missing keys ['rate_rps']"),
        (lambda d: d["traffic"][0].pop("duration_s"),
         "is missing keys ['duration_s']"),
        (lambda d: d["axes"].update(slots_per_fleet=["x"]),
         "slots_per_fleet must be an integer, got 'x'"),
        (lambda d: d["axes"].update(max_unroll=[16.5]),
         "max_unroll must be an integer, got 16.5"),
        (lambda d: d["axes"].update(fleet_bounds=[[1.9, 3]]),
         "fleet_bounds entries must be (min, max) integer pairs, "
         "got [1.9, 3]"),
        (lambda d: d["axes"].update(cpu_assist=["false"]),
         "cpu_assist must be true or false, got 'false'"),
        (lambda d: d["axes"].update(gpu_tenants=[True]),
         "gpu_tenants must be an integer, got True"),
        (lambda d: d["axes"].update(queue_capacity=[True]),
         "queue_capacity must be an integer, got True"),
        (lambda d: d["traffic"][0].update(rate_rps=True),
         "rate_rps must be a finite number, got True"),
        (lambda d: d["traffic"][0].update(duration_s=True),
         "duration_s must be a finite number, got True"),
        (lambda d: d["traffic"][0].update(name=5),
         "traffic spec name must be a non-empty string, got 5"),
        (lambda d: d.update(sources="2C"),
         "'sources' must be a list of registry keys, got '2C'"),
    ], ids=[
        "traffic-int", "axis-int", "axis-str", "no-mix", "no-rate",
        "no-duration", "slots-str", "unroll-float", "bounds-float",
        "assist-str", "tenants-bool", "queue-bool", "rate-bool",
        "duration-bool", "name-int", "sources-str",
    ])
    def test_malformed_values_raise_naming_the_key(self, edit, message):
        doc = self.document()
        edit(doc)
        with pytest.raises(ConfigurationError) as info:
            space_from_dict(doc)
        assert message in str(info.value)

    def test_integral_values_are_taken_as_given(self):
        doc = self.document()
        doc["axes"]["gpu_tenants"] = [0, 1]
        doc["axes"]["cpu_assist"] = [False, True]
        space = space_from_dict(doc)
        assert [
            (shape.gpu_tenants, shape.cpu_assist) for shape in space.shapes
        ] == [(0, False), (0, True), (1, False), (1, True)]

    def test_missing_file_and_bad_json_raise(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_space(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_space(bad)
