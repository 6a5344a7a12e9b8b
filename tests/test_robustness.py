import numpy as np
import pytest

from nearfield_pae.aoa import estimate_aoa_posteriors
from nearfield_pae.baseline import farfield_aoa, run_baseline
from nearfield_pae.channel import (
    ReceivedSignal,
    desk_scale_scenario,
    draw_poses,
    simulate_received,
    subarray_steering,
)
from nearfield_pae.engine import EstimatorConfig, run
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


@pytest.mark.parametrize("slots", [1, 6])
def test_run_baseline_rejects_signal_shape(slots):
    """A signal with fewer or more slots than the pattern: one slot's
    cosines would broadcast over every slot of the pose fit, and extra
    slots were ignored."""
    sc = desk_scale_scenario()
    signal = ReceivedSignal(np.ones((sc.bs.n_antennas, slots), dtype=complex))
    with pytest.raises(ValueError, match="signal shape"):
        run_baseline(signal, sc)


class TestNonFiniteAngleInput:
    """The angle stage once took a NaN or inf noise power, a non-finite
    sample or a NaN amplitude prior variance: an 8x8 snapshot then gave
    cosines (-1, -1) or (0, 0) with no flag, and `farfield_aoa` returned
    (-1, -1) as a full-power component or raised ZeroDivisionError."""

    @staticmethod
    def solve(samples, noise, coeff_var=1e-8):
        """One snapshot, one source with prior means 0 and concentrations 1."""
        return estimate_aoa_posteriors(
            samples[None], [noise], np.zeros((1, 1, 2)), np.ones((1, 1, 2)), [[coeff_var]]
        )

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_snapshot_noise_power_rejected(self, noise):
        with pytest.raises(ValueError, match="noise power"):
            self.solve(np.ones((8, 8), dtype=complex), noise)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_snapshot_samples_rejected(self, bad):
        samples = np.ones((8, 8), dtype=complex)
        samples[3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            self.solve(samples, 1e-10)

    def test_prior_variance_nan_rejected(self):
        samples = np.ones((8, 8), dtype=complex)
        with pytest.raises(ValueError, match="variance"):
            self.solve(samples, 1e-10, np.nan)
        # an infinite variance is the flat amplitude prior: the amplitude's
        # posterior variance is then sigma^2 / n
        flat = self.solve(samples, 1e-10, np.inf)
        assert flat.coeff_var[0, 0] == pytest.approx(1e-10 / 64, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_farfield_aoa_sample_rejected(self, bad):
        spec = UraSpec(8, 8, 0.005)
        y = np.ones(spec.n_antennas, dtype=complex)
        y[10] = bad
        with pytest.raises(ValueError, match="finite"):
            farfield_aoa(y, spec, 1, 1e-10)

    @pytest.mark.parametrize("shape", [(5, 64), (64, 2, 2), (63,)])
    def test_farfield_aoa_shape_rejected(self, shape):
        """A transposed, stacked or short signal is not reshaped into
        snapshots."""
        spec = UraSpec(8, 8, 0.005)
        with pytest.raises(ValueError, match="shape"):
            farfield_aoa(np.ones(shape, dtype=complex), spec, 1, 1e-10)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_farfield_aoa_noise_power_rejected(self, noise):
        spec = UraSpec(8, 8, 0.005)
        with pytest.raises(ValueError, match="noise power"):
            farfield_aoa(np.ones(spec.n_antennas, dtype=complex), spec, 1, noise)


class TestFlatPriorDegenerateSnapshots:
    """Under flat priors (the baseline's setting) the joint angle solve
    has no amplitude ridge, so two sources at one cosine pair make A^H A
    singular. On an all-zero snapshot both sources start at the
    periodogram's first bin, where a solve without a floor on G raised
    LinAlgError; a snapshot of two sources at one cosine pair must give
    finite outputs too."""

    @staticmethod
    def solve(y):
        flat = np.zeros((1, 2, 2))
        return estimate_aoa_posteriors(y[None], [1e-10], flat, flat, np.full((1, 2), np.inf))

    @staticmethod
    def assert_finite(post):
        for a in (post.chi, post.kappa, post.coeff_mean, post.coeff_var):
            assert np.all(np.isfinite(a))

    def test_zero_snapshot(self):
        post = self.solve(np.zeros((8, 8), dtype=complex))
        self.assert_finite(post)
        # both sources start at the periodogram's first bin and stay there
        assert np.array_equal(post.cosines[0, 0], post.cosines[0, 1])

    def test_coincident_sources(self):
        y = (1e-4 + 2e-4j + 1.5e-4) * subarray_steering(8, 8, 0.3, -0.2)
        post = self.solve(y)
        self.assert_finite(post)
        assert np.min(np.abs(post.cosines[0] - (0.3, -0.2)).max(axis=1)) < 1e-6


class TestEstimatorControls:
    """Invalid controls once passed construction: ``iterations = 0`` made
    `run` return a pose at the array centre with no flag (2.5 ran two
    passes), a zero prior std raised a bare ZeroDivisionError inside
    `run`, and a negative attitude concentration or a bad nominal range
    was used. A NaN or infinite
    ``sigma_ini`` made `run` raise a misleading concentration error, and
    a bad amplitude prior variance failed only inside the angle stage. A
    NaN or infinite attitude prior mean made `run` raise LinAlgError."""

    @pytest.mark.parametrize("iterations", [0, -1, 2.5])
    def test_iterations_below_one_rejected(self, iterations):
        with pytest.raises(ValueError, match="iterations"):
            EstimatorConfig(iterations=iterations)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_ini_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma_ini"):
            EstimatorConfig(sigma_ini=sigma)

    @pytest.mark.parametrize("var", [0.0, -1.0, np.nan])
    def test_coeff_prior_var_rejected(self, var):
        with pytest.raises(ValueError, match="coeff_prior_var"):
            EstimatorConfig(coeff_prior_var=var)

    @pytest.mark.parametrize("std", [0.0, -1.0, np.nan])
    def test_position_prior_std_rejected(self, std):
        with pytest.raises(ValueError, match="position_prior_std"):
            EstimatorConfig(position_prior_std=std)

    @pytest.mark.parametrize("chi", [(np.nan, 0.0, 0.0), (0.0, 0.0, -np.inf)])
    def test_attitude_prior_chi_rejected(self, chi):
        with pytest.raises(ValueError, match="attitude_prior_chi"):
            EstimatorConfig(attitude_prior_chi=chi)

    @pytest.mark.parametrize("kappa", [(-1.0, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.inf)])
    def test_attitude_prior_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="attitude_prior_kappa"):
            EstimatorConfig(attitude_prior_kappa=kappa)

    @pytest.mark.parametrize("r_nom", [0.0, -2.0, np.inf, np.nan])
    def test_nominal_range_rejected(self, r_nom):
        with pytest.raises(ValueError, match="nominal_range"):
            EstimatorConfig(nominal_range=r_nom)

    def test_valid_controls_accepted(self):
        cfg = EstimatorConfig(
            iterations=1,
            position_prior_std=2.0,
            attitude_prior_kappa=(0.0, 1.0, 0.0),
            nominal_range=3.0,
            coeff_prior_var=np.inf,
        )
        assert cfg.iterations == 1 and cfg.coeff_prior_var == np.inf
