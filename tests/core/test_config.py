"""Tests for AcamarConfig validation and the Initialize unit tables."""

import numpy as np
import pytest

from repro.config import AcamarConfig
from repro.core.initialize import (
    STATIC_INITIALIZE_UNROLL,
    initialize_spmv_count,
)
from repro.errors import ConfigurationError


class TestConfig:
    def test_paper_defaults(self):
        config = AcamarConfig()
        assert config.tolerance == 1e-5
        assert config.dtype == np.float32
        assert config.chunk_size == 4096
        assert config.sampling_rate == 32
        assert config.r_opt == 8
        assert config.msid_tolerance == 0.15
        assert config.setup_iterations == 200

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tolerance", 0.0),
            ("tolerance", -1e-5),
            ("chunk_size", 0),
            ("sampling_rate", 0),
            ("r_opt", -1),
            ("msid_tolerance", -0.1),
            ("max_unroll", 0),
            ("max_iterations", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            AcamarConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tolerance", "msid_tolerance"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "abc"])
    def test_non_finite_tolerances_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            AcamarConfig(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "chunk_size",
            "sampling_rate",
            "r_opt",
            "max_unroll",
            "setup_iterations",
            "max_iterations",
        ],
    )
    @pytest.mark.parametrize(
        "value", ["x", "7", 2.5, 8.0, True, False, None, np.float64(3.0)]
    )
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(
            ConfigurationError, match=f"^{field} must be an integer"
        ):
            AcamarConfig(**{field: value})

    def test_negative_setup_iterations_rejected(self):
        with pytest.raises(
            ConfigurationError, match="^setup_iterations must be >= 0"
        ):
            AcamarConfig(setup_iterations=-5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("chunk_size", np.int64(1024)),
            ("sampling_rate", np.int32(16)),
            ("r_opt", 0),
            ("setup_iterations", 0),
            ("max_unroll", 1),
            ("max_iterations", 1),
        ],
    )
    def test_integer_fields_accept_integers_at_their_bounds(self, field, value):
        assert getattr(AcamarConfig(**{field: value}), field) == value

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"chunk_size": "x"}, "chunk_size"),
            ({"sampling_rate": "7"}, "sampling_rate"),
            ({"max_iterations": 2.5}, "max_iterations"),
            ({"r_opt": 2.5}, "r_opt"),
            ({"max_unroll": True}, "max_unroll"),
            ({"setup_iterations": -5}, "setup_iterations"),
        ],
    )
    def test_from_dict_names_the_bad_integer_field(self, payload, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            AcamarConfig.from_dict(payload)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="^dtype must"):
            AcamarConfig.from_dict({"dtype": "foo"})

    def test_with_overrides(self):
        config = AcamarConfig().with_overrides(sampling_rate=64, r_opt=2)
        assert config.sampling_rate == 64
        assert config.r_opt == 2
        assert config.tolerance == 1e-5  # untouched

    def test_dtype_normalized(self):
        config = AcamarConfig(dtype=np.float64)
        assert config.dtype == np.dtype(np.float64)

    def test_frozen(self):
        config = AcamarConfig()
        with pytest.raises(Exception):
            config.sampling_rate = 5  # type: ignore[misc]


class TestInitializeUnit:
    def test_spmv_counts_match_algorithms(self):
        # Algorithms 2 and 3 compute r0 = b - A x0; Algorithm 1 does not.
        assert initialize_spmv_count("jacobi") == 0
        assert initialize_spmv_count("cg") == 1
        assert initialize_spmv_count("bicgstab") == 1

    def test_unknown_solver_gets_conservative_default(self):
        assert initialize_spmv_count("mystery") == 1

    def test_static_unroll_positive(self):
        assert STATIC_INITIALIZE_UNROLL >= 1


class TestSerialization:
    def test_roundtrip_defaults(self):
        config = AcamarConfig()
        rebuilt = AcamarConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_roundtrip_customized(self):
        config = AcamarConfig(
            sampling_rate=64,
            r_opt=2,
            dtype=np.float64,
            solver_fallback_order=("cg", "gmres"),
            solver_options={"gmres": {"restart": 128}},
            unroll_rounding="ceil",
        )
        rebuilt = AcamarConfig.from_dict(config.to_dict())
        assert rebuilt.sampling_rate == 64
        assert rebuilt.dtype == np.float64
        assert rebuilt.solver_fallback_order == ("cg", "gmres")
        assert rebuilt.solver_options["gmres"]["restart"] == 128
        assert rebuilt.unroll_rounding == "ceil"

    def test_json_roundtrip(self):
        import json

        config = AcamarConfig(sampling_rate=8)
        payload = json.loads(json.dumps(config.to_dict()))
        assert AcamarConfig.from_dict(payload).sampling_rate == 8

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            AcamarConfig.from_dict({"sampling_rte": 32})

    def test_partial_dict_uses_defaults(self):
        config = AcamarConfig.from_dict({"r_opt": 3})
        assert config.r_opt == 3
        assert config.sampling_rate == 32
