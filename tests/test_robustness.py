import numpy as np
import pytest

from nearfield_pae.baseline import run_baseline
from nearfield_pae.channel import (
    ReceivedSignal,
    desk_scale_scenario,
    draw_poses,
    simulate_received,
)
from nearfield_pae.engine import run
from nearfield_pae.partition import uniform_partition


class TestNonFiniteSignal:
    """One bad sample in the 8d scene once gave `run` a converged MS
    behind the array and `run_baseline` a point near the origin."""

    @pytest.fixture(scope="class")
    def scene(self):
        sc = desk_scale_scenario(tx_power_dbm=20.0, distance_range=(1.5, 2.5))
        plan = uniform_partition(sc.bs, 4, 4, sc.lam)
        rng = np.random.default_rng(0)
        samples = simulate_received(sc, rng, draw_poses(sc, rng)).samples
        return sc, plan, samples

    @staticmethod
    def corrupted(samples, bad):
        """A finite signal whose row 5 of slot 0 is set to ``bad`` after
        construction."""
        signal = ReceivedSignal(samples.copy())
        signal.samples[5, 0] = bad
        return signal

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_construction_rejected(self, scene, bad):
        samples = scene[2].copy()
        samples[5, 0] = bad
        with pytest.raises(ValueError, match="row 5, slot 0"):
            ReceivedSignal(samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_rejects(self, scene, bad):
        sc, plan, samples = scene
        with pytest.raises(ValueError, match="not finite"):
            run(self.corrupted(samples, bad), sc, plan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_baseline_rejects(self, scene, bad):
        sc, _, samples = scene
        with pytest.raises(ValueError, match="not finite"):
            run_baseline(self.corrupted(samples, bad), sc)
