import numpy as np
import pytest

from nearfield_pae.aoa import SourcePrior, SubarraySnapshot
from nearfield_pae.baseline import farfield_aoa, run_baseline
from nearfield_pae.channel import (
    ReceivedSignal,
    desk_scale_scenario,
    draw_poses,
    simulate_received,
)
from nearfield_pae.circular import VmPair, VonMises
from nearfield_pae.engine import run
from nearfield_pae.geometry import UraSpec
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


class TestNonFiniteAngleInput:
    """The angle stage once took a NaN or inf noise power, a non-finite
    sample or a NaN amplitude prior variance: an 8x8 snapshot then gave
    cosines (-1, -1) or (0, 0) with no flag, and `farfield_aoa` returned
    (-1, -1) as a full-power component or raised ZeroDivisionError."""

    PAIR = VmPair(VonMises(0.0, 1.0), VonMises(0.0, 1.0))

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_snapshot_noise_power_rejected(self, noise):
        with pytest.raises(ValueError, match="noise power"):
            SubarraySnapshot(np.ones((8, 8), dtype=complex), noise, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_snapshot_samples_rejected(self, bad):
        samples = np.ones((8, 8), dtype=complex)
        samples[3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            SubarraySnapshot(samples, 1e-10, 1)

    def test_prior_variance_nan_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            SourcePrior(self.PAIR, np.nan)
        # an infinite variance is the flat amplitude prior
        assert SourcePrior(self.PAIR, np.inf).coeff_prior_var == np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_farfield_aoa_sample_rejected(self, bad):
        spec = UraSpec(8, 8, 0.005)
        y = np.ones(spec.n_antennas, dtype=complex)
        y[10] = bad
        with pytest.raises(ValueError, match="finite"):
            farfield_aoa(y, spec, 1, 1e-10)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_farfield_aoa_noise_power_rejected(self, noise):
        spec = UraSpec(8, 8, 0.005)
        with pytest.raises(ValueError, match="noise power"):
            farfield_aoa(np.ones(spec.n_antennas, dtype=complex), spec, 1, noise)
