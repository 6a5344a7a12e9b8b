import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import i0e, i1e

from nearfield_pae.circular import (
    KAPPA_MAX,
    GaussianBelief,
    VonMises,
    gaussian_to_vm,
    gaussian_to_vm_stack,
    laplace_fit,
    laplace_moments,
    log_i0,
    newton_fits,
    vm_extrinsic,
    vm_extrinsic_stack,
    vm_log_pdf,
    vm_multiply,
    vm_normalize,
)
from oracles import (
    finite_diff_gradient,
    gaussian_product,
    gaussian_to_vm_loop,
    regularize_hessian,
    vm_normalize_scalar,
)


class TestLogI0:
    def test_reference_value_at_one(self):
        assert log_i0(1.0) == pytest.approx(0.235914358507, abs=1e-10)

    def test_against_scipy_dual_route(self):
        # independent library evaluation: log I0(k) = log(i0e(k)) + k
        for kappa in (0.0, 1e-3, 0.5, 5.0, 49.9, 50.1, 500.0, 1e6, 1e11):
            assert log_i0(kappa) == pytest.approx(
                np.log(i0e(kappa)) + kappa, rel=1e-10
            )

    def test_vectorized(self):
        k = np.array([0.1, 10.0, 1000.0])
        out = log_i0(k)
        assert out.shape == (3,)
        assert np.allclose(out, [log_i0(v) for v in k])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_i0(-1.0)


class TestVonMises:
    def test_uniform_log_pdf(self):
        d = VonMises(0.7, 0.0)
        for theta in (-3.0, 0.0, 2.5):
            assert vm_log_pdf(d, theta) == pytest.approx(np.log(1 / (2 * np.pi)))

    def test_mode_value_at_unit_concentration(self):
        d = VonMises(0.4, 1.0)
        expected = 1.0 - np.log(2 * np.pi) - 0.235914358507
        assert vm_log_pdf(d, 0.4) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 5.0, 50.0, 200.0])
    def test_normalization_by_quadrature(self, kappa):
        d = VonMises(0.3, kappa)
        val, _ = quad(
            lambda t: np.exp(vm_log_pdf(d, t)), -np.pi, np.pi, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_wrapping_and_clamp(self):
        d = VonMises(3 * np.pi, 1e15)
        assert d.chi == pytest.approx(-np.pi)
        assert d.kappa == KAPPA_MAX
        with pytest.raises(ValueError):
            VonMises(0.0, -1.0)
        with pytest.raises(ValueError):
            VonMises(np.nan, 1.0)


class TestVmProduct:
    def test_aligned_means_add_concentration(self):
        out = vm_multiply(VonMises(0.0, 2.0), VonMises(0.0, 3.0))
        assert out.chi == pytest.approx(0.0)
        assert out.kappa == pytest.approx(5.0)

    def test_opposing_means_cancel(self):
        out = vm_multiply(VonMises(0.0, 2.0), VonMises(np.pi, 2.0))
        assert out.kappa == pytest.approx(0.0, abs=1e-12)

    def test_random_pairs_match_grid_oracle(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(-np.pi, np.pi, 100_001)
        for _ in range(15):
            a = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 8))
            b = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 8))
            out = vm_multiply(a, b)
            raw = np.exp(vm_log_pdf(a, grid) + vm_log_pdf(b, grid))
            raw /= np.trapezoid(raw, grid)
            ref = np.exp(vm_log_pdf(out, grid))
            ref /= np.trapezoid(ref, grid)
            assert np.max(np.abs(raw - ref)) < 1e-9

    def test_commutative_associative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 20))
            b = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 20))
            c = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 20))
            ab = vm_multiply(a, b)
            ba = vm_multiply(b, a)
            assert ab.kappa == pytest.approx(ba.kappa, abs=1e-12)
            assert np.angle(np.exp(1j * (ab.chi - ba.chi))) == pytest.approx(
                0.0, abs=1e-12
            )
            left = vm_multiply(vm_multiply(a, b), c)
            right = vm_multiply(a, vm_multiply(b, c))
            assert left.kappa == pytest.approx(right.kappa, abs=1e-9)
            assert np.angle(np.exp(1j * (left.chi - right.chi))) == pytest.approx(
                0.0, abs=1e-10
            )


class TestVmExtrinsic:
    def test_aligned_subtraction(self):
        out = vm_extrinsic(VonMises(0.0, 5.0), VonMises(0.0, 2.0))
        assert out.chi == pytest.approx(0.0)
        assert out.kappa == pytest.approx(3.0)

    def test_identical_beliefs_vanish(self):
        d = VonMises(1.2, 4.0)
        assert vm_extrinsic(d, d).kappa == pytest.approx(0.0, abs=1e-12)

    def test_random_matches_complex_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            post = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 30))
            pri = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 30))
            out = vm_extrinsic(post, pri)
            z = post.kappa * np.exp(1j * post.chi) - pri.kappa * np.exp(1j * pri.chi)
            assert out.kappa == pytest.approx(abs(z), abs=1e-12)
            if abs(z) > 1e-12:
                assert np.angle(np.exp(1j * (out.chi - np.angle(z)))) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_multiply_recovers_posterior_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            post = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(1, 30))
            pri = VonMises(rng.uniform(-np.pi, np.pi), rng.uniform(0, 0.9))
            ext = vm_extrinsic(post, pri)
            if ext.kappa <= 0:
                continue
            recon = vm_multiply(ext, pri)
            assert np.angle(np.exp(1j * (recon.chi - post.chi))) == pytest.approx(
                0.0, abs=1e-10
            )
            assert recon.kappa == pytest.approx(post.kappa, rel=1e-10)


class TestGaussianToVm:
    def test_broadside_reference_case(self):
        belief = GaussianBelief(np.array([0.0, 0.0, 10.0]), 0.01 * np.eye(3))
        pair = gaussian_to_vm(belief, np.zeros(3))
        expected = 100.0 / (0.01 * np.pi**2)
        assert pair.vx.chi == pytest.approx(0.0, abs=1e-12)
        assert pair.vy.chi == pytest.approx(0.0, abs=1e-12)
        assert pair.vx.kappa == pytest.approx(expected, rel=1e-9)
        assert pair.vy.kappa == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(1013.21, rel=1e-4)

    def test_point_mass_limit(self):
        belief = GaussianBelief(np.array([0.0, 0.0, 10.0]), 1e-300 * np.eye(3))
        pair = gaussian_to_vm(belief, np.zeros(3))
        assert pair.vx.kappa == KAPPA_MAX

    def test_endfire_degenerate_axis(self):
        belief = GaussianBelief(np.array([5.0, 0.0, 0.0]), 0.01 * np.eye(3))
        pair = gaussian_to_vm(belief, np.zeros(3))
        assert pair.vx.kappa == KAPPA_MAX
        assert abs(pair.vx.chi) == pytest.approx(np.pi)
        assert pair.vy.kappa < KAPPA_MAX

    def test_monte_carlo_circular_moments(self):
        rng = np.random.default_rng(4)
        mean = np.array([2.0, -1.0, 9.0])
        cov = np.diag([0.02, 0.03, 0.015])
        ref = np.array([0.3, 0.2, 0.0])
        belief = GaussianBelief(mean, cov)
        pair = gaussian_to_vm(belief, ref)
        assert np.linalg.norm(mean - ref) ** 2 / np.trace(cov) > 100
        samples = rng.multivariate_normal(mean, cov, size=200_000)
        diff = samples - ref
        for axis, comp in ((0, pair.vx), (1, pair.vy)):
            theta = np.pi * diff[:, axis] / np.linalg.norm(diff, axis=1)
            z = np.exp(1j * theta).mean()
            # circular mean within 5% of a std; circular variance within 5%
            assert np.angle(z * np.exp(-1j * comp.chi)) == pytest.approx(
                0.0, abs=0.05 / np.sqrt(comp.kappa)
            )
            circ_var_mc = 1.0 - abs(z)
            circ_var_vm = 1.0 - i1e(comp.kappa) / i0e(comp.kappa)
            assert circ_var_mc == pytest.approx(circ_var_vm, rel=0.05)

    def test_rotation_consistency(self):
        rng = np.random.default_rng(5)
        mean = np.array([1.0, 2.0, 8.0])
        cov = np.array([[0.02, 0.001, 0.0], [0.001, 0.03, 0.002], [0.0, 0.002, 0.01]])
        ref = np.array([0.1, -0.2, 0.0])

        # rotations about the z axis keep the axis frame aligned with the
        # x/y cosine definitions, so (chi, kappa) must be preserved when we
        # also rotate the queried axes; rotate scene and compare per-axis
        # against the rotated-frame construction
        def rotz(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

        base = gaussian_to_vm(GaussianBelief(mean, cov), ref)
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            r = rotz(ang)
            rotated = gaussian_to_vm(
                GaussianBelief(r @ mean, r @ cov @ r.T), r @ ref
            )
            # the cosine pair rotates like a 2-vector on the unit sphere
            base_vec = np.array([base.vx.chi, base.vy.chi]) / np.pi
            rot_vec = np.array([rotated.vx.chi, rotated.vy.chi]) / np.pi
            assert np.allclose(r[:2, :2] @ base_vec, rot_vec, atol=1e-9)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            gaussian_to_vm(GaussianBelief(np.zeros(2), np.eye(2)), np.zeros(3))


class TestStackedKernels:
    """The array kernels behind the angle stage against scalar loops."""

    @staticmethod
    def beliefs(seed):
        """Eight beliefs seen from their reference points: five generic,
        one near endfire on each axis (1 - phi^2 below 1e-12 but phi not
        exactly +/-1), and one whose covariance makes every denominator
        <= 0."""
        rng = np.random.default_rng(seed)
        refs = np.zeros((8, 3))
        refs[:, :2] = rng.uniform(-0.2, 0.2, (8, 2))
        means = refs + rng.uniform(-3.0, 3.0, (8, 3))
        means[:, 2] = np.abs(means[:, 2]) + 0.5
        tilt = rng.uniform(1e-8, 1e-7, 2)
        means[5] = refs[5] + rng.uniform(0.5, 4.0) * np.array([1.0, tilt[0], 0.0])
        means[6] = refs[6] - rng.uniform(0.5, 4.0) * np.array([tilt[1], 1.0, 0.0])
        a = rng.normal(0.0, rng.uniform(1e-3, 1.0), (8, 3, 3))
        covs = a @ np.swapaxes(a, 1, 2)
        covs[7] = -covs[7]
        return means, covs, refs

    @given(seed=st.integers(0, 2**32 - 1))
    def test_gaussian_to_vm_matches_loop(self, seed):
        means, covs, refs = self.beliefs(seed)
        chi, kappa = gaussian_to_vm_stack(means, covs, refs)
        assert chi.shape == kappa.shape == (8, 2)
        for b in range(8):
            want_chi, want_kappa = gaussian_to_vm_loop(means[b], covs[b], refs[b])
            assert np.allclose(chi[b], want_chi, rtol=1e-12, atol=1e-12 * np.pi)
            assert np.allclose(kappa[b], want_kappa, rtol=1e-12, atol=0.0)
        # both degenerate branches were taken
        assert kappa[5, 0] == kappa[6, 1] == KAPPA_MAX
        assert abs(chi[5, 0]) == abs(chi[6, 1]) == np.pi
        assert np.all(kappa[7] == KAPPA_MAX)

    def test_gaussian_to_vm_rejects_non_finite(self):
        means, covs, refs = self.beliefs(0)
        covs[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            gaussian_to_vm_stack(means, covs, refs)
        with pytest.raises(ValueError, match="coincides"):
            gaussian_to_vm_stack(refs, covs, refs)

    @given(
        chi=st.floats(-1e6, 1e6),
        kappa=st.one_of(st.floats(0.0, 1e13), st.just(KAPPA_MAX)),
    )
    def test_normalize_matches_von_mises(self, chi, kappa):
        got_chi, got_kappa = vm_normalize(np.array([chi, math.pi, -math.pi]), kappa)
        assert got_chi[0] == vm_normalize_scalar(chi, kappa)[0] == VonMises(chi, kappa).chi
        assert got_kappa == vm_normalize_scalar(chi, kappa)[1] == VonMises(chi, kappa).kappa
        assert got_chi[1] == got_chi[2] == -math.pi

    def test_normalize_rejects_non_finite(self):
        with pytest.raises(ValueError, match="mean direction"):
            vm_normalize(np.array([0.0, np.nan]), 1.0)
        with pytest.raises(ValueError, match="concentration"):
            vm_normalize(0.0, np.array([1.0, -1.0]))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            vm_extrinsic_stack(np.zeros(2), np.array([np.inf, 1.0]), np.zeros(2), np.ones(2))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_extrinsic_stack_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        chis = rng.uniform(-np.pi, np.pi, (2, 6))
        kappas = rng.uniform(0.0, 50.0, (2, 6))
        chi, kappa = vm_extrinsic_stack(chis[0], kappas[0], chis[1], kappas[1])
        for i in range(6):
            want = vm_extrinsic(VonMises(chis[0, i], kappas[0, i]), VonMises(chis[1, i], kappas[1, i]))
            assert (chi[i], kappa[i]) == (want.chi, want.kappa)
            # the phasor subtraction, checked as complex numbers
            z = kappas[0, i] * np.exp(1j * chis[0, i]) - kappas[1, i] * np.exp(1j * chis[1, i])
            assert abs(kappa[i] * np.exp(1j * chi[i]) - z) <= 1e-12 * (1.0 + kappas[:, i].sum())


class TestGaussianBelief:
    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            GaussianBelief(np.zeros(3), cov)

    def test_product_information_form(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a_cov = _random_spd(rng, 3)
            b_cov = _random_spd(rng, 3)
            a = GaussianBelief(rng.normal(size=3), a_cov)
            b = GaussianBelief(rng.normal(size=3), b_cov)
            prod = gaussian_product(a, b)
            lam = np.linalg.inv(a.cov) + np.linalg.inv(b.cov)
            assert np.allclose(np.linalg.inv(prod.cov), lam, rtol=1e-8)
            expected_mean = np.linalg.solve(
                lam,
                np.linalg.solve(a.cov, a.mean) + np.linalg.solve(b.cov, b.mean),
            )
            assert np.allclose(prod.mean, expected_mean, rtol=1e-8)

    def test_product_uses_stored_precision(self):
        # a Laplace fit at extreme curvature spread: the capped -1e-9
        # eigenvalue next to -1e9 leaves a covariance with condition number
        # 1e18, whose inverse is not the precision it came from
        c = np.sqrt(0.5)
        rot = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
        hess = -rot @ np.diag([1e9, 0.0, 1.0]) @ rot.T
        cov, prec, modified = laplace_moments(hess)
        assert modified
        a = GaussianBelief(np.array([1.0, 2.0, 3.0]), cov, prec)
        b = GaussianBelief(np.zeros(3), np.eye(3))
        prod = gaussian_product(a, b)
        assert np.array_equal(prod.precision, a.precision + np.eye(3))
        assert np.allclose(prod.mean, np.linalg.solve(prod.precision, prec @ a.mean))

    def test_identical_gaussians_halve_covariance(self):
        g = GaussianBelief(np.array([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0]))
        prod = gaussian_product(g, g)
        assert np.allclose(prod.mean, g.mean)
        assert np.allclose(prod.cov, g.cov / 2)


def _random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestLaplaceFit:
    def test_exact_on_gaussian(self):
        rng = np.random.default_rng(7)
        mu = np.array([0.5, -1.0, 2.0])
        cov = _random_spd(rng, 3)
        prec = np.linalg.inv(cov)

        def logp(x):
            d = x - mu
            return -0.5 * float(d @ prec @ d)

        fit = laplace_fit(logp, np.zeros(3), grad=lambda x: -prec @ (x - mu), hess=lambda x: -prec)
        assert fit.converged
        assert np.allclose(fit.mean, mu, atol=1e-8)
        assert np.allclose(fit.cov, cov, rtol=1e-5)

    def test_high_concentration_circular_density(self):
        kappa = 50.0
        d = VonMises(0.3, kappa)
        fit = laplace_fit(
            lambda x: float(vm_log_pdf(d, x[0])),
            np.array([0.0]),
            grad=lambda x: -kappa * np.sin(x - 0.3),
            hess=lambda x: -kappa * np.cos(x - 0.3),
        )
        # numeric moment oracle for the variance around the mean direction
        num, _ = quad(
            lambda t: (t - 0.3) ** 2 * np.exp(vm_log_pdf(d, t)), -np.pi, np.pi
        )
        assert fit.mean[0] == pytest.approx(0.3, abs=1e-7)
        assert fit.cov[0, 0] == pytest.approx(num, rel=0.03)
        assert fit.cov[0, 0] == pytest.approx(1.0 / kappa, rel=0.03)

    def test_zero_steps_when_started_at_mode(self):
        def logp(x):
            return -float(np.sum(x**4)) - float(np.sum(x**2))

        fit = laplace_fit(
            logp,
            np.zeros(2),
            grad=lambda x: -4.0 * x**3 - 2.0 * x,
            hess=lambda x: np.diag(-12.0 * x**2 - 2.0),
        )
        assert fit.n_polish_steps == 0
        assert fit.converged
        assert np.allclose(fit.cov, 0.5 * np.eye(2), rtol=1e-4)

    def test_saddle_is_regularized(self):
        def logp(x):
            return float(x[0] ** 2 - x[1] ** 2)  # saddle at origin

        fit = laplace_fit(
            logp,
            np.zeros(2),
            grad=lambda x: np.array([2.0 * x[0], -2.0 * x[1]]),
            hess=lambda x: np.diag([2.0, -2.0]),
        )
        assert fit.regularized
        vals = np.linalg.eigvalsh(fit.cov)
        assert np.all(vals >= 0)

    def test_nonconvergence_flagged(self):
        def logp(x):
            return float(x[0])  # unbounded slope, never converges

        fit = laplace_fit(
            logp,
            np.zeros(1),
            grad=lambda x: np.ones(1),
            hess=lambda x: np.zeros((1, 1)),
        )
        assert not fit.converged

    def test_ill_conditioned_with_polish(self):
        # plain gradient ascent stalls on this conditioning; Newton steps
        # must still reach the optimum
        scales = np.array([1.0, 1e3])

        def logp(x):
            return -0.5 * float(np.sum((x * scales) ** 2))

        def grad(x):
            return -x * scales**2

        fit = laplace_fit(
            logp, np.array([1.0, 1e-3]), grad=grad, hess=lambda x: -np.diag(scales**2)
        )
        assert fit.converged
        assert np.allclose(fit.mean, 0.0, atol=1e-8)

    def test_polish_survives_extreme_curvature_spread(self):
        # curvatures -1e9 and 0 along rotated axes at the start: capping the
        # zero at an absolute -1e-9 leaves a matrix that is singular in
        # floating point, so the polish step must not solve with it
        basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

        def logp(x):
            y = basis @ x
            return -0.5e9 * y[0] ** 2 - 100.0 * np.log1p(y[1] ** 2)

        def grad(x):
            y = basis @ x
            return basis.T @ np.array([-1e9 * y[0], -200.0 * y[1] / (1.0 + y[1] ** 2)])

        def hess(x):
            y = basis @ x
            weak = -200.0 * (1.0 - y[1] ** 2) / (1.0 + y[1] ** 2) ** 2
            return basis.T @ np.diag([-1e9, weak]) @ basis

        init = basis.T @ np.array([1e-3, 1.0])
        assert np.allclose(np.linalg.eigvalsh(hess(init)), [-1e9, 0.0], atol=1e-6)
        fit = laplace_fit(logp, init, grad=grad, hess=hess)
        assert fit.converged and fit.n_polish_steps > 0
        assert np.allclose(fit.mean, 0.0, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(fit.cov), [1e-9, 5e-3], rtol=1e-6)

    def test_gradient_checker(self):
        rng = np.random.default_rng(8)

        def f(x):
            return float(np.sin(x[0]) * np.cos(x[1]) + 0.1 * x[0] * x[1])

        def g(x):
            return np.array(
                [
                    np.cos(x[0]) * np.cos(x[1]) + 0.1 * x[1],
                    -np.sin(x[0]) * np.sin(x[1]) + 0.1 * x[0],
                ]
            )

        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            fd = finite_diff_gradient(f, x)
            assert np.linalg.norm(fd - g(x)) <= 1e-5 * max(1.0, np.linalg.norm(g(x)))


class TestNewtonFits:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stop_rule_is_scale_free(self, seed):
        """A log density and its multiples by 1e-12 and 1e12 have the same
        maximizer, and the solver must take the same steps to it. The stop
        leaves x within sqrt(2 eps |f| / curvature) of the maximizer, here
        below 1e-6; undamped Newton steps from the fit locate it."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 5, 3))
        b = rng.normal(size=(4, 5))
        init = rng.uniform(-3.0, 3.0, (4, 3))

        def terms(x, idx):
            # 5 - sum_j log cosh(a_j x - b_j) - x^T x / 20, concave
            u = np.einsum("bjn,bn->bj", a[idx], x) - b[idx]
            value = 5.0 - np.sum(np.logaddexp(u, -u) - math.log(2.0), axis=1)
            value -= 0.05 * np.sum(x * x, axis=1)
            grad = -np.einsum("bj,bjn->bn", np.tanh(u), a[idx]) - 0.1 * x
            curv = 1.0 / np.cosh(u) ** 2
            hess = -np.einsum("bj,bjn,bjm->bnm", curv, a[idx], a[idx]) - 0.1 * np.eye(3)
            return value, grad, hess

        fits = []
        for scale in (1e-12, 1.0, 1e12):
            fits.append(
                newton_fits(
                    lambda x, idx: scale * terms(x, idx)[0],
                    lambda x, idx: tuple(scale * t for t in terms(x, idx)),
                    init,
                )
            )
        optimum = fits[1].mean
        for _ in range(5):
            _, grad, hess = terms(optimum, np.arange(4))
            optimum = optimum - np.linalg.solve(hess, grad[..., None])[..., 0]
        for fit in fits:
            assert np.all(fit.converged)
            assert np.array_equal(fit.n_polish_steps, fits[1].n_polish_steps)
            assert np.allclose(fit.mean, fits[1].mean, rtol=0.0, atol=1e-10)
            assert np.allclose(fit.mean, optimum, rtol=0.0, atol=1e-6)


class TestHessianRegularization:
    def test_eigenvalues_capped(self):
        h = np.diag([3.0, -2.0, -1e-15])
        reg, modified = regularize_hessian(h)
        assert modified
        vals = np.linalg.eigvalsh(reg)
        assert np.all(vals <= -1e-9 + 1e-18)

    def test_negative_definite_untouched(self):
        h = -np.diag([1.0, 2.0])
        reg, modified = regularize_hessian(h)
        assert not modified
        assert np.allclose(reg, h)

    def test_covariance_is_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = rng.normal(size=(4, 4))
            h = 0.5 * (h + h.T)
            cov, _, _ = laplace_moments(h)
            assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)
            assert np.allclose(cov, cov.T)

    def test_cap_survives_extreme_curvature_spread(self):
        # eigenvalues -1e9 and -1e-9 along 45-degree axes: rebuilding the
        # matrix from capped eigenvalues and decomposing it again rounds
        # the capped one to zero, and the variance to inf
        c = np.sqrt(0.5)
        rot = np.array([[c, -c], [c, c]])
        h = -rot @ np.diag([1e9, 1e-9]) @ rot.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov, _, modified = laplace_moments(h)
        assert modified
        assert np.all(np.isfinite(cov))
        assert np.all(np.diag(cov) > 0)
