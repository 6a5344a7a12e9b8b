import numpy as np
import pytest

from nearfield_pae.aoa import estimate_aoa_posteriors
from nearfield_pae.baseline import farfield_aoa, run_baseline
from nearfield_pae.channel import (
    ReceivedSignal,
    desk_scale_scenario,
    draw_poses,
    reduced_coefficients,
    simulate_received,
    subarray_steering,
)
from nearfield_pae.cli import main
from nearfield_pae.engine import run
from nearfield_pae.geometry import UraSpec, half_wavelength_ura, wavelength
from nearfield_pae.harness import ConfigError, estimator_from_config, load_config, sweep_from_config
from nearfield_pae.mcrb import compute_bound, information_matrices, pack_poses
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
    """The iteration count is the estimator's one setting. Invalid counts
    once passed: ``iterations = 0`` made `run` return a pose at the array
    centre with no flag, 2.5 ran two passes and True one. The six prior and range
    settings are gone, so a config file that sets one, at any of the
    values once rejected here, is refused as an unknown key (exit 2)
    before any work starts."""

    @pytest.mark.parametrize("iterations", [0, -1, 2.5, True])
    def test_iterations_below_one_rejected(self, iterations):
        sc = desk_scale_scenario()
        plan = uniform_partition(sc.bs, 4, 4, sc.lam)
        signal = ReceivedSignal(np.ones((sc.bs.n_antennas, sc.n_slots), dtype=complex))
        with pytest.raises(ValueError, match="iterations"):
            run(signal, sc, plan, iterations=iterations)

    @staticmethod
    def assert_unknown_key(tmp_path, capsys, key, value):
        path = tmp_path / "estimator.ini"
        path.write_text(f"[estimator]\n{key} = {value}\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2
        assert f"unknown key '{key}' in section [estimator]" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_ini_rejected(self, tmp_path, capsys, sigma):
        self.assert_unknown_key(tmp_path, capsys, "sigma_ini", sigma)

    @pytest.mark.parametrize("var", [0.0, -1.0, np.nan])
    def test_coeff_prior_var_rejected(self, tmp_path, capsys, var):
        self.assert_unknown_key(tmp_path, capsys, "coeff_prior_var", var)

    @pytest.mark.parametrize("std", [0.0, -1.0, np.nan])
    def test_position_prior_std_rejected(self, tmp_path, capsys, std):
        self.assert_unknown_key(tmp_path, capsys, "position_prior_std", std)

    @pytest.mark.parametrize("chi", [(np.nan, 0.0, 0.0), (0.0, 0.0, -np.inf)])
    def test_attitude_prior_chi_rejected(self, tmp_path, capsys, chi):
        self.assert_unknown_key(tmp_path, capsys, "attitude_prior_chi", ", ".join(map(str, chi)))

    @pytest.mark.parametrize("kappa", [(-1.0, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.inf)])
    def test_attitude_prior_kappa_rejected(self, tmp_path, capsys, kappa):
        self.assert_unknown_key(
            tmp_path, capsys, "attitude_prior_kappa", ", ".join(map(str, kappa))
        )

    @pytest.mark.parametrize("r_nom", [0.0, -2.0, np.inf, np.nan])
    def test_nominal_range_rejected(self, tmp_path, capsys, r_nom):
        self.assert_unknown_key(tmp_path, capsys, "nominal_range", r_nom)

    @pytest.mark.parametrize("text", ["2.5", "0", "true"])
    def test_bad_iterations_text_rejected(self, tmp_path, text):
        """A count that is not auto or an integer >= 1 is a config error
        naming the key and the text, not int()'s message."""
        path = tmp_path / "estimator.ini"
        path.write_text(f"[estimator]\niterations = {text}\n")
        with pytest.raises(ConfigError, match=rf"\[estimator\] iterations .*'{text}'"):
            estimator_from_config(load_config(str(path)))

    def test_valid_controls_accepted(self, tmp_path):
        """``auto`` and integers >= 1 pass from a config file into a sweep."""
        path = tmp_path / "estimator.ini"
        for text, expected in (("auto", None), ("3", 3)):
            path.write_text(f"[estimator]\niterations = {text}\n")
            spec = sweep_from_config(load_config(str(path)))
            assert spec.iterations == expected


class TestPlanOfAnotherScene:
    """A partition plan built for another array or carrier was used as
    given: on the 1.5-2.5 m desk scene a 16x16-BS plan gave an estimate
    2.09 m off (flagged, but no error) and a bound of 1.61 m (0.0104 m
    with the right plan), and a plan built at 30 GHz an estimate 0.13 m
    off with no flag and a bound of 0.129 m. The exported
    `reduced_coefficients` returned cosines up to 0.017 off with the
    16x16-BS plan."""

    @pytest.fixture(scope="class")
    def scene(self):
        sc = desk_scale_scenario(tx_power_dbm=20.0, distance_range=(1.5, 2.5))
        rng = np.random.default_rng(0)
        poses = draw_poses(sc, rng)
        return sc, poses, simulate_received(sc, rng, poses)

    @staticmethod
    def wrong_plan(sc, case):
        if case == "array":
            return uniform_partition(UraSpec(16, 16, sc.bs.spacing), 4, 4, sc.lam)
        return uniform_partition(half_wavelength_ura(32, 32, 30e9), 4, 4, wavelength(30e9))

    @pytest.mark.parametrize("case", ["array", "carrier"])
    @pytest.mark.parametrize(
        "entry", ["run", "compute_bound", "information_matrices", "reduced_coefficients"]
    )
    def test_rejected(self, scene, case, entry):
        sc, poses, signal = scene
        plan = self.wrong_plan(sc, case)
        truth = pack_poses(poses)
        calls = {
            "run": lambda: run(signal, sc, plan),
            "compute_bound": lambda: compute_bound(poses, sc, plan),
            "information_matrices": lambda: information_matrices(
                truth, truth, sc, plan, sc.noise_power_w
            ),
            "reduced_coefficients": lambda: reduced_coefficients(sc, plan, poses),
        }
        with pytest.raises(ValueError, match="partition plan"):
            calls[entry]()


class TestThreeMsLowSnr:
    """K = 3 at 0 and 5 dBm on the 5-8 m desk scene: the estimator and
    the baseline return three finite poses or raise ValueError."""

    @pytest.mark.parametrize("tx_power_dbm", [0.0, 5.0])
    @pytest.mark.parametrize("trial", range(4))
    def test_finite_or_value_error(self, tx_power_dbm, trial):
        sc = desk_scale_scenario(num_ms=3, tx_power_dbm=tx_power_dbm)
        plan = uniform_partition(sc.bs, 4, 4, sc.lam)
        rng = np.random.default_rng(np.random.SeedSequence([0, 3, trial]))
        signal = simulate_received(sc, rng, draw_poses(sc, rng))
        for estimate in (lambda: run(signal, sc, plan), lambda: run_baseline(signal, sc)):
            try:
                ests = estimate()
            except ValueError:
                continue
            assert len(ests) == 3
            assert all(np.all(np.isfinite(est.position)) for est in ests)
