"""Memory-bandwidth feasibility of the configured Dynamic SpMV region."""

from repro.config import AcamarConfig
from repro.fpga import ALVEO_U55C

HBM_BANDWIDTH_BPS = 460e9
"""Sustained HBM2 bandwidth of the Alveo u55c."""

CSR_STREAM_BYTES_PER_LANE = 8
"""Per-lane per-cycle gather traffic: a 4 B value plus a 4 B index."""


class TestBandwidth:
    def test_paper_max_unroll_is_feasible(self):
        """The config's 64-lane ceiling must be streamable on the u55c:
        64 lanes x 8 B x 300 MHz <= 460 GB/s of HBM."""
        config = AcamarConfig()
        traffic = (
            config.max_unroll * CSR_STREAM_BYTES_PER_LANE * ALVEO_U55C.clock_hz
        )
        assert traffic <= HBM_BANDWIDTH_BPS
