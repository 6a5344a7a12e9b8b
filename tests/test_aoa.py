import numpy as np
import pytest

from nearfield_pae.aoa import estimate_aoa_posteriors, match_components
from nearfield_pae.channel import subarray_steering
from nearfield_pae.circular import vm_extrinsic_stack

SIGW2 = 1e-10


def uniform_prior(coeff_var=1e-8):
    """(means, concentrations, amplitude variance) of one source."""
    return (0.0, 0.0), (1e-7, 1e-7), coeff_var


def informative_prior(phi, kappa, coeff_var=1e-8):
    return (np.pi * phi[0], np.pi * phi[1]), (kappa, kappa), coeff_var


def solve(snapshot, priors, **kwargs):
    """`estimate_aoa_posteriors` on a stack of one snapshot, with one
    prior per source."""
    y, noise_power = snapshot
    k = len(priors)
    return estimate_aoa_posteriors(
        np.asarray(y)[None],
        [noise_power],
        np.reshape([p[0] for p in priors], (1, k, 2)),
        np.reshape([p[1] for p in priors], (1, k, 2)),
        np.reshape([p[2] for p in priors], (1, k)),
        **kwargs,
    )


def make_snapshot(nx, ny, sources, noise_power=SIGW2, rng=None):
    """sources: list of (coeff, (phi_x, phi_y))."""
    y = np.zeros((nx, ny), dtype=np.complex128)
    for coeff, phi in sources:
        y += coeff * subarray_steering(nx, ny, *phi)
    if rng is not None:
        y += np.sqrt(noise_power / 2) * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
    return y, noise_power


class TestSingleSource:
    def test_noiseless_recovery(self):
        phi = (0.31, -0.52)
        snap = make_snapshot(8, 8, [(1e-4 + 2e-4j, phi)])
        post = solve(snap, [uniform_prior()])
        assert np.allclose(post.cosines[0, 0], phi, atol=1e-6)
        assert post.coeff_mean[0, 0] == pytest.approx(1e-4 + 2e-4j, rel=1e-3)
        assert post.kappa[0, 0, 0] > 1e4

    def test_identifiability_on_small_subarrays(self):
        rng = np.random.default_rng(0)
        for n in (4, 5, 8):
            phi = tuple(rng.uniform(-0.8, 0.8, 2))
            snap = make_snapshot(n, n, [(3e-4, phi)])
            post = solve(snap, [uniform_prior()])
            assert np.allclose(post.cosines[0, 0], phi, atol=1e-6)

    def test_zero_snapshot_returns_prior(self):
        rng = np.random.default_rng(1)
        prior = informative_prior((0.2, -0.4), 500.0)
        noise = np.sqrt(SIGW2 / 2) * (
            rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        )
        post = solve((noise, SIGW2), [prior])
        # belief stays near the prior and the coefficient is tiny
        assert abs(post.chi[0, 0, 0] - prior[0][0]) < 0.2
        assert abs(post.coeff_mean[0, 0]) < 10 * np.sqrt(SIGW2)

    def test_posterior_concentration_grows_with_snr(self):
        phi = (0.1, 0.3)
        kappas = []
        for amp in (1e-5, 1e-4, 1e-3):
            snap = make_snapshot(8, 8, [(amp, phi)], rng=np.random.default_rng(2))
            post = solve(snap, [uniform_prior(coeff_var=1.0)])
            kappas.append(post.kappa[0, 0, 0])
        assert kappas[0] < kappas[1] < kappas[2]


class TestTwoSources:
    def test_separated_sources_recovered(self):
        rng = np.random.default_rng(3)
        nx = 8
        sep = 5.0 / nx  # > 4/nx in cosine space
        snr_lin = 100.0  # 20 dB per antenna
        amp = np.sqrt(snr_lin * SIGW2)
        errors = []
        for _ in range(100):
            base = rng.uniform(-0.7, 0.1, 2)
            phi1 = (base[0], base[1])
            phi2 = (base[0] + sep, base[1] + sep)
            c1 = amp * np.exp(2j * np.pi * rng.random())
            c2 = amp * np.exp(2j * np.pi * rng.random())
            snap = make_snapshot(nx, nx, [(c1, phi1), (c2, phi2)], rng=rng)
            posts = solve(snap, [uniform_prior(amp**2), uniform_prior(amp**2)])
            est = sorted([tuple(c) for c in posts.cosines[0]])
            true = sorted([phi1, phi2])
            errors.append(np.array(est) - np.array(true))
        rmse = float(np.sqrt(np.mean(np.square(errors))))
        assert rmse < 10.0 / (nx * np.sqrt(snr_lin))

    def test_permutation_equivariance(self):
        phi1, phi2 = (0.2, -0.3), (-0.5, 0.4)
        snap = make_snapshot(8, 8, [(2e-4, phi1), (1e-4, phi2)])
        p1 = informative_prior(phi1, 50.0)
        p2 = informative_prior(phi2, 50.0)
        a = solve(snap, [p1, p2]).cosines[0]
        b = solve(snap, [p2, p1]).cosines[0]
        assert np.allclose(a[0], b[1], atol=1e-9)
        assert np.allclose(a[1], b[0], atol=1e-9)

    def test_objective_monotone_over_sweeps(self):
        rng = np.random.default_rng(4)
        snap = make_snapshot(
            8, 8, [(2e-4, (0.3, 0.1)), (1.5e-4, (-0.2, -0.4))], rng=rng
        )
        (trace,) = solve(
            snap,
            [uniform_prior(), uniform_prior()],
            diagnostics=True,
        ).traces
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


class TestThreeSources:
    """Three sources 5/nx apart in each cosine on 8x8 snapshots, 20 dB per
    antenna: the joint solve refines 6 cosines at once."""

    NX = 8
    SNR = 100.0

    @classmethod
    def draw(cls, rng):
        """A noisy snapshot of three separated sources, and their cosines
        (3, 2) in increasing phi_x."""
        sep = 5.0 / cls.NX
        base = rng.uniform((-0.8, -0.7), (-0.5, 0.1))
        phis = np.array([base, base + (sep, sep), base + (2 * sep, 0.0)])
        amp = np.sqrt(cls.SNR * SIGW2)
        sources = [(amp * np.exp(2j * np.pi * rng.random()), tuple(phi)) for phi in phis]
        return make_snapshot(cls.NX, cls.NX, sources, rng=rng), phis

    def test_separated_sources_recovered(self):
        rng = np.random.default_rng(8)
        errors = []
        for _ in range(40):
            snap, true = self.draw(rng)
            est = solve(snap, [uniform_prior(self.SNR * SIGW2)] * 3).cosines[0]
            errors.append(est[np.argsort(est[:, 0])] - true)
        rmse = float(np.sqrt(np.mean(np.square(errors))))
        assert rmse < 10.0 / (self.NX * np.sqrt(self.SNR))

    def test_permutation_equivariance(self):
        snap, true = self.draw(np.random.default_rng(9))
        priors = [informative_prior(phi, kappa) for phi, kappa in zip(true, (50.0, 20.0, 80.0))]
        perm = [2, 0, 1]
        a = solve(snap, priors).cosines[0]
        b = solve(snap, [priors[i] for i in perm]).cosines[0]
        assert np.allclose(b, a[perm], rtol=0.0, atol=1e-9)

    def test_objective_monotone_over_joint_steps(self):
        snap, _ = self.draw(np.random.default_rng(10))
        (trace,) = solve(snap, [uniform_prior()] * 3, diagnostics=True).traces
        assert len(trace) > 1
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


class TestInvariances:
    def test_scale_consistency(self):
        phi = (0.25, -0.15)
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        amp = 3e-4
        y = amp * subarray_steering(8, 8, *phi) + np.sqrt(SIGW2 / 2) * noise
        scale = 37.0
        snap_a = (y, SIGW2)
        snap_b = (scale * y, scale**2 * SIGW2)
        post_a = solve(snap_a, [uniform_prior(amp**2)])
        post_b = solve(snap_b, [uniform_prior(scale**2 * amp**2)])
        assert np.allclose(post_a.cosines, post_b.cosines, atol=1e-10)
        assert post_a.kappa[0, 0, 0] == pytest.approx(
            post_b.kappa[0, 0, 0], rel=1e-8
        )
        assert post_b.coeff_mean[0, 0] == pytest.approx(scale * post_a.coeff_mean[0, 0], rel=1e-8)

    def test_curvature_fallback_flag(self):
        # a pure-noise snapshot with a concentrated prior can yield
        # non-negative curvature on some axis; the flag must then be set
        # and the prior concentration reused -- construct the degenerate
        # case directly via a flat (all-ones) snapshot and huge prior
        snap = (np.zeros((4, 4), dtype=complex) + 1e-30, 1.0)
        prior = informative_prior((0.0, 0.0), 10.0, coeff_var=1e-30)
        post = solve(snap, [prior])
        # with no data information the posterior concentration equals the
        # prior's whether or not the fallback fired
        assert post.kappa[0, 0, 0] == pytest.approx(10.0, rel=1e-3)


class TestExtrinsic:
    def test_uniform_prior_gives_posterior(self):
        phi = (0.4, 0.1)
        snap = make_snapshot(8, 8, [(2e-4, phi)])
        priors = [uniform_prior()]
        posts = solve(snap, priors)
        ext_chi, ext_kappa = vm_extrinsic_stack(
            posts.chi, posts.kappa, np.reshape(priors[0][0], (1, 1, 2)), np.reshape(priors[0][1], (1, 1, 2))
        )
        assert ext_kappa[0, 0, 0] == pytest.approx(posts.kappa[0, 0, 0], rel=1e-5)
        assert ext_chi[0, 0, 0] == pytest.approx(posts.chi[0, 0, 0], abs=1e-6)

    def test_posterior_equals_prior_gives_zero(self):
        chi, kappa = np.array([[0.3, -0.2]]), np.array([[7.0, 5.0]])
        _, ext_kappa = vm_extrinsic_stack(chi, kappa, chi, kappa)
        assert ext_kappa[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert ext_kappa[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        empty = np.zeros((0, 2))
        chi, kappa = np.array([uniform_prior()[0]]), np.array([uniform_prior()[1]])
        with pytest.raises(ValueError):
            vm_extrinsic_stack(empty, empty, chi, kappa)


class TestMatching:
    def test_identity_when_aligned(self):
        ref = np.array([[0.1, 0.2], [-1.0, 0.5], [2.0, -2.0]])
        perm = match_components(ref, ref)
        assert np.array_equal(perm, [0, 1, 2])

    def test_recovers_shuffle(self):
        rng = np.random.default_rng(6)
        ref = rng.uniform(-np.pi, np.pi, (4, 2))
        shuffle = np.array([2, 0, 3, 1])
        cand = ref[shuffle] + rng.normal(0, 0.01, (4, 2))
        perm = match_components(ref, cand)
        recovered = cand[perm]
        assert np.allclose(recovered, ref, atol=0.05)

    def test_wraparound_distance(self):
        ref = np.array([[np.pi - 0.01, 0.0]])
        cand = np.array([[-np.pi + 0.01, 0.0]])
        perm = match_components(ref, cand)
        assert perm[0] == 0


def test_snapshot_validation():
    with pytest.raises(ValueError):
        solve((np.zeros(4, dtype=complex), 1.0), [uniform_prior()])
    with pytest.raises(ValueError):
        solve((np.zeros((2, 2), dtype=complex), 0.0), [uniform_prior()])
    with pytest.raises(ValueError):
        solve((np.zeros((2, 2), dtype=complex), 1.0), [])
    # one prior, but amplitude variances for two sources
    means, kappas, _ = uniform_prior()
    with pytest.raises(ValueError, match="priors"):
        estimate_aoa_posteriors(
            np.zeros((1, 2, 2), dtype=complex), [1.0], [[means]], [[kappas]], [[1e-8, 1e-8]]
        )
