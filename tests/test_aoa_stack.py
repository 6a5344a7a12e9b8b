"""The stacked angle stage: one solve over many snapshots gives what each
snapshot gives alone, a snapshot whose prior fixes the periodogram
search's answer skips it and still gets the searched posterior, the
engine makes one call per subarray shape and pass, and the profiled
objective's derivatives, the steering kernel and the von Mises algebra
keep their identities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nearfield_pae import aoa, engine
from nearfield_pae.aoa import (
    _joint_terms,
    _profiled_terms,
    _projections,
    estimate_aoa_posteriors,
)
from nearfield_pae.channel import (
    desk_scale_scenario,
    draw_poses,
    simulate_received,
    subarray_steering,
)
from nearfield_pae.circular import VonMises, vm_extrinsic, vm_multiply
from nearfield_pae.partition import PartitionPlan, make_descriptor, uniform_partition
from oracles import finite_diff_gradient, finite_diff_hessian

SIGW2 = 1e-10


def prior(phi, kappa, coeff_var=1e-8):
    """(means, concentrations, amplitude variance) of one source."""
    return (np.pi * phi[0], np.pi * phi[1]), kappa, coeff_var


def solve(snapshots, priors, **kwargs):
    """`estimate_aoa_posteriors` on stacked snapshots (y, noise power),
    with one prior list per snapshot."""
    return estimate_aoa_posteriors(
        [y for y, _ in snapshots],
        [noise for _, noise in snapshots],
        *(np.array([[p[i] for p in pri] for pri in priors]) for i in range(3)),
        **kwargs,
    )


def two_source_snapshot(rng, sources, noise=True):
    y = sum(c * subarray_steering(8, 8, *phi) for c, phi in sources)
    if noise:
        y = y + np.sqrt(SIGW2 / 2) * (
            rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        )
    return y, SIGW2


def two_source_snapshot_with_priors(rng, a, b, kappa):
    """A K=2 snapshot with its priors at the sources, concentration ``kappa``."""
    snap = two_source_snapshot(rng, [(2e-4, a), (1e-4, b)])
    return snap, [prior(a, (kappa, kappa)), prior(b, (kappa, kappa))]


class TestStackedSolve:
    @staticmethod
    def mixed_stack():
        """K=2 snapshots whose processing orders, sweep counts and
        curvature fallbacks differ."""
        rng = np.random.default_rng(7)
        a, b = (0.2, -0.3), (-0.5, 0.4)
        snapshots = [
            two_source_snapshot(rng, [(2e-4, a), (1e-4, b)]),
            two_source_snapshot(rng, [(2e-4, a), (1e-4, b)]),
            two_source_snapshot(rng, [(1.5e-4, (0.1, 0.1)), (1.5e-4, (0.3, 0.25))]),
            two_source_snapshot(rng, [(2e-4, a), (1.5e-4, b)], noise=False),
            # no data and flat y priors: zero curvature on the y axes
            (np.zeros((8, 8), dtype=complex), SIGW2),
        ]
        priors = [
            [prior(a, (50, 50)), prior(b, (5, 5))],
            [prior(b, (5, 5)), prior(a, (50, 50))],
            [prior((0, 0), (1e-7, 1e-7)), prior((0, 0), (1e-7, 1e-7))],
            [prior(a, (1e3, 1e3)), prior(b, (1e3, 1e3))],
            [prior((0.1, 0.2), (10.0, 0.0)), prior((-0.3, 0.1), (20.0, 0.0))],
        ]
        return snapshots, priors

    def test_stack_equals_single_solves(self):
        snapshots, priors = self.mixed_stack()
        stacked = solve(snapshots, priors, diagnostics=True)
        assert len({len(trace) for trace in stacked.traces}) > 1
        assert np.any(stacked.curvature_fallback)
        for b, (snap, pri, trace) in enumerate(zip(snapshots, priors, stacked.traces)):
            alone = solve([snap], [pri], diagnostics=True)
            (alone_trace,) = alone.traces
            assert len(trace) == len(alone_trace)
            assert np.allclose(stacked.cosines[b], alone.cosines[0], rtol=0.0, atol=1e-12)
            assert np.array_equal(stacked.curvature_fallback[b], alone.curvature_fallback[0])

    def test_three_sources_stack_equals_single_solves(self):
        rng = np.random.default_rng(11)
        sep = 5.0 / 8
        snapshots, priors = [], []
        for kappa in (1e-7, 30.0, 300.0, 1e-7):
            base = rng.uniform((-0.8, -0.7), (-0.5, 0.1))
            phis = [base, base + (sep, sep), base + (2 * sep, 0.0)]
            amps = rng.uniform(1e-4, 2e-4, 3) * np.exp(2j * np.pi * rng.random(3))
            snapshots.append(two_source_snapshot(rng, list(zip(amps, map(tuple, phis)))))
            priors.append([prior(phi, (kappa, kappa)) for phi in phis])
        stacked = solve(snapshots, priors, diagnostics=True)
        for b, (snap, pri, trace) in enumerate(zip(snapshots, priors, stacked.traces)):
            alone = solve([snap], [pri], diagnostics=True)
            assert len(trace) == len(alone.traces[0])
            assert np.allclose(stacked.cosines[b], alone.cosines[0], rtol=0.0, atol=1e-12)
            assert np.allclose(stacked.kappa[b], alone.kappa[0], rtol=1e-9, atol=0.0)

    def test_mismatched_stack_rejected(self):
        snapshots, priors = self.mixed_stack()
        small = (np.zeros((4, 4), dtype=complex), SIGW2)
        with pytest.raises(ValueError, match="shape"):
            solve(snapshots[:1] + [small], priors[:2])
        with pytest.raises(ValueError, match="prior lists"):
            solve(snapshots[:2], priors[:1])
        with pytest.raises(ValueError, match="snapshot"):
            solve([], [])


class TestWarmStart:
    """`aoa._warm_snapshots` sends a snapshot whose priors pin every source
    within a periodogram bin straight to the joint solve, started at the
    prior means; the others search and ascend first."""

    A, B = (0.2, -0.3), (-0.5, 0.4)

    @staticmethod
    def record_warm(monkeypatch):
        """The warm flags of every solve that follows, in call order."""
        seen = []
        original = aoa._warm_snapshots

        def recording(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(aoa, "_warm_snapshots", recording)
        return seen

    @staticmethod
    def all_cold(monkeypatch):
        monkeypatch.setattr(aoa, "_warm_snapshots", lambda y, *args: np.zeros(len(y), dtype=bool))

    def dominant(self, rng):
        """A K=2 snapshot under priors 1e-4 off its sources with
        concentration 1e7 (spread 1e-4 in cosine against a bin of 1/16)."""
        snap = two_source_snapshot(rng, [(2e-4, self.A), (1e-4, self.B)])
        off = np.array([1e-4, -1e-4])
        return snap, [prior(self.A + off, (1e7, 1e7)), prior(self.B - off, (1e7, 1e7))]

    def outweighed(self, rng):
        """A K=1 snapshot whose tight prior (spread 3e-3) sits 0.1 off the
        source in both cosines, where the data's peak outweighs it."""
        snap = (2e-4 * subarray_steering(8, 8, 0.3, -0.2), SIGW2)
        return snap, [prior((0.4, -0.1), (1e4, 1e4))]

    def test_dominant_prior_gives_the_cold_posterior(self, monkeypatch):
        rng = np.random.default_rng(3)
        snap, pri = self.dominant(rng)
        seen = self.record_warm(monkeypatch)
        warm = solve([snap, snap], [pri, pri[::-1]])
        assert np.all(np.concatenate(seen))
        self.all_cold(monkeypatch)
        cold = solve([snap, snap], [pri, pri[::-1]])
        assert np.allclose(warm.cosines, cold.cosines, rtol=0.0, atol=1e-9)
        assert np.allclose(warm.kappa, cold.kappa, rtol=1e-6, atol=0.0)
        assert np.allclose(warm.coeff_mean, cold.coeff_mean, rtol=1e-6, atol=0.0)
        assert np.array_equal(warm.curvature_fallback, cold.curvature_fallback)

    def test_outweighed_tight_prior_lands_on_the_data_peak(self, monkeypatch):
        snap, pri = self.outweighed(np.random.default_rng(4))
        seen = self.record_warm(monkeypatch)
        post = solve([snap], [pri])
        assert not np.any(np.concatenate(seen))
        assert np.allclose(post.cosines[0, 0], (0.3, -0.2), rtol=0.0, atol=0.01)

    def test_mixed_stack_equals_single_solves(self, monkeypatch):
        rng = np.random.default_rng(5)
        snapshots, priors = zip(
            self.dominant(rng),
            two_source_snapshot_with_priors(rng, self.A, self.B, 1e-7),
            self.dominant(rng),
            two_source_snapshot_with_priors(rng, self.A, self.B, 50.0),
        )
        seen = self.record_warm(monkeypatch)
        stacked = solve(snapshots, priors, diagnostics=True)
        assert list(seen[0]) == [True, False, True, False]
        for b, (snap, pri, trace) in enumerate(zip(snapshots, priors, stacked.traces)):
            alone = solve([snap], [pri], diagnostics=True)
            assert len(trace) == len(alone.traces[0])
            assert np.allclose(stacked.cosines[b], alone.cosines[0], rtol=0.0, atol=1e-12)
            assert np.allclose(stacked.kappa[b], alone.kappa[0], rtol=1e-9, atol=0.0)
        snap, pri = self.outweighed(rng)
        one = solve([snap, snap], [pri, [prior((0.3, -0.2), (1e8, 1e8))]])
        assert list(seen[-1]) == [False, True]
        for b, pri_b in enumerate((pri, [prior((0.3, -0.2), (1e8, 1e8))])):
            alone = solve([snap], [pri_b])
            assert np.allclose(one.cosines[b], alone.cosines[0], rtol=0.0, atol=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k_count=st.sampled_from([1, 2]),
        log_kappa=st.floats(5.0, 8.0),
    )
    def test_warm_snapshots_search_within_a_bin(self, seed, k_count, log_kappa):
        """Where the test passes, the cold path's search of every source
        (the second one on the first one's residual) picks a grid point
        less than a bin (1/16 on 8x8) from the prior mean on both axes;
        the means lie up to four bins off the sources."""
        rng = np.random.default_rng(seed)
        sources = [self.A, self.B][:k_count]
        amps = rng.uniform(0.5e-4, 2e-4, k_count) * np.exp(2j * np.pi * rng.random(k_count))
        snapshots, priors = [], []
        for _ in range(4):
            snapshots.append(two_source_snapshot(rng, list(zip(amps, sources))))
            means = np.array(sources) + rng.uniform(-0.25, 0.25, (k_count, 2))
            kappa = 10.0 ** (log_kappa + rng.uniform(-0.5, 0.5))
            priors.append([prior(m, (kappa, kappa)) for m in means])
        searched = []
        original = aoa._periodogram_starts

        def recording(resid, chi, kappa, weight):
            searched.append((chi / np.pi, original(resid, chi, kappa, weight)))
            return searched[-1][1]

        # hypothesis reruns the body, so it patches per example
        with pytest.MonkeyPatch.context() as patch:
            seen = self.record_warm(patch)
            solve(snapshots, priors)
            patch.setattr(aoa, "_periodogram_starts", recording)
            self.all_cold(patch)
            solve(snapshots, priors)
        for means, starts in searched:
            gap = np.abs(np.mod(starts - means + 1.0, 2.0) - 1.0)
            assert np.all(gap[seen[0]] < 1.0 / 16.0)


class TestEngineCalls:
    """The angle stage stacks every snapshot of one subarray shape: a
    per-snapshot loop would call the routine M*T times per pass."""

    @staticmethod
    def stack_sizes(monkeypatch, sc, plan, iterations=None):
        sizes = []
        original = engine.estimate_aoa_posteriors

        def counting(samples, *args, **kwargs):
            sizes.append((samples.shape[1:], len(samples)))
            return original(samples, *args, **kwargs)

        monkeypatch.setattr(engine, "estimate_aoa_posteriors", counting)
        rng = np.random.default_rng(0)
        ests = engine.run(simulate_received(sc, rng, draw_poses(sc, rng)), sc, plan, iterations)
        assert all(np.all(np.isfinite(est.position)) for est in ests)
        return sizes

    def test_uniform_plan_one_call_per_pass(self, monkeypatch):
        sc = desk_scale_scenario(num_ms=2, distance_range=(1.5, 2.5))
        plan = uniform_partition(sc.bs, 4, 4, sc.lam)
        sizes = self.stack_sizes(monkeypatch, sc, plan, iterations=2)
        assert sizes == [((8, 8), 16 * sc.n_slots)] * 2

    def test_one_call_per_shape(self, monkeypatch):
        sc = desk_scale_scenario(distance_range=(1.5, 2.5))
        subs = [
            make_descriptor(sc.bs, sc.lam, 1, (1, 1), 16, 16),
            make_descriptor(sc.bs, sc.lam, 2, (17, 1), 16, 16),
            make_descriptor(sc.bs, sc.lam, 3, (1, 17), 32, 16),
        ]
        plan = PartitionPlan(sc.bs, sc.lam, subs)
        sizes = self.stack_sizes(monkeypatch, sc, plan)
        assert sorted(sizes) == [((16, 16), 2 * sc.n_slots), ((32, 16), sc.n_slots)]


cosine = st.floats(-0.9, 0.9)


class TestProfiledObjective:
    @given(seed=st.integers(0, 2**32 - 1), phi=st.tuples(cosine, cosine))
    def test_derivatives_match_finite_differences(self, seed, phi):
        rng = np.random.default_rng(seed)
        count, nx, ny = 3, 8, 6
        resid = rng.standard_normal((count, nx, ny)) + 1j * rng.standard_normal((count, nx, ny))
        phis = np.array(phi) + rng.uniform(-0.05, 0.05, (count, 2))
        chi = rng.uniform(-np.pi, np.pi, (count, 2))
        kappa = rng.uniform(0.0, 5.0, (count, 2))
        weight = rng.uniform(0.5, 2.0, count) / (nx * ny)
        g, dg, ddg = _projections(resid, phis)
        f, grad, hess = _profiled_terms(resid, phis, chi, kappa, weight)
        for i in range(count):
            one = slice(i, i + 1)

            def part(x, take):
                return take(_projections(resid[one], x[None], order=0)[0])

            def value(x):
                return _profiled_terms(resid[one], x[None], chi[one], kappa[one], weight[one], 0)[0]

            assert f[i] == pytest.approx(value(phis[i]), rel=1e-12)
            # central differences: first derivatives to ~1e-10 of their
            # scale, second derivatives to ~1e-6
            for take in (np.real, np.imag):
                fd_grad = finite_diff_gradient(lambda x: part(x, take), phis[i])
                fd_hess = finite_diff_hessian(lambda x: part(x, take), phis[i])
                scale = np.abs(dg[i]).max(), np.abs(ddg[i]).max()
                assert np.allclose(take(dg[i]), fd_grad, rtol=0.0, atol=1e-8 * scale[0])
                assert np.allclose(take(ddg[i]), fd_hess, rtol=0.0, atol=1e-5 * scale[1])
            scale = max(1.0, np.abs(hess[i]).max())
            fd_grad = finite_diff_gradient(value, phis[i])
            assert np.allclose(grad[i], fd_grad, rtol=0.0, atol=1e-8 * scale)
            fd_hess = finite_diff_hessian(value, phis[i])
            assert np.allclose(hess[i], fd_hess, rtol=0.0, atol=1e-5 * scale)

    @given(
        phi=st.tuples(cosine, cosine),
        phase=st.floats(0.0, 2.0 * np.pi),
        shape=st.sampled_from([(8, 8), (4, 6), (32, 16)]),
    )
    def test_plane_wave_projects_to_n_coeff(self, phi, phase, shape):
        coeff = 3e-4 * np.exp(1j * phase)
        y = coeff * subarray_steering(*shape, *phi)
        g, dg, _ = _projections(y[None], np.array([phi]))
        n = shape[0] * shape[1]
        assert abs(g[0] - n * coeff) <= 1e-12 * n * abs(coeff)
        # the periodogram |g|^2 peaks at the wave's own cosines
        assert np.allclose(np.real(np.conj(g[0]) * dg[0]), 0.0, atol=1e-9 * abs(g[0]) ** 2)


class TestJointObjective:
    @given(seed=st.integers(0, 2**32 - 1), k_count=st.sampled_from([2, 3]), flat=st.booleans())
    def test_derivatives_match_finite_differences(self, seed, k_count, flat):
        """`_joint_terms`' gradient and Hessian against central
        differences of its value, under flat (zero ridge) and finite
        amplitude priors, with sources at least 0.4 apart in phi_x."""
        rng = np.random.default_rng(seed)
        nx, ny = 8, 6
        y = rng.standard_normal((1, nx, ny)) + 1j * rng.standard_normal((1, nx, ny))
        phi = np.stack(
            [-0.6 + 0.6 * np.arange(k_count), rng.uniform(-0.8, 0.8, k_count)], axis=-1
        )[None] + rng.uniform(-0.1, 0.1, (1, k_count, 2))
        chi = rng.uniform(-np.pi, np.pi, (1, k_count, 2))
        kappa = rng.uniform(0.0, 5.0, (1, k_count, 2))
        ridge = np.zeros((1, k_count)) if flat else rng.uniform(0.1, 2.0, (1, k_count))
        sigw2 = rng.uniform(0.5, 2.0, 1)

        def value(x):
            return _joint_terms(y, x.reshape(phi.shape), chi, kappa, ridge, sigw2, order=0)[0]

        f, grad, hess = _joint_terms(y, phi, chi, kappa, ridge, sigw2)
        assert f[0] == pytest.approx(value(phi.ravel()), rel=1e-12)
        scale = max(1.0, np.abs(hess).max())
        fd_grad = finite_diff_gradient(value, phi.ravel())
        assert np.allclose(grad[0], fd_grad, rtol=0.0, atol=1e-8 * scale)
        fd_hess = finite_diff_hessian(value, phi.ravel())
        assert np.allclose(hess[0], fd_hess, rtol=0.0, atol=1e-5 * scale)


class TestVonMisesAlgebra:
    @given(
        chi_a=st.floats(-np.pi, np.pi),
        kappa_a=st.floats(0.0, 1e6),
        chi_b=st.floats(-np.pi, np.pi),
        kappa_b=st.floats(0.0, 1e6),
    )
    def test_extrinsic_undoes_multiply(self, chi_a, kappa_a, chi_b, kappa_b):
        a, b = VonMises(chi_a, kappa_a), VonMises(chi_b, kappa_b)
        back = vm_extrinsic(vm_multiply(a, b), b)
        # compared as concentration phasors: a flat belief has no mean
        z_a = a.kappa * np.exp(1j * a.chi)
        z_back = back.kappa * np.exp(1j * back.chi)
        assert abs(z_back - z_a) <= 1e-12 * (1.0 + a.kappa + b.kappa)
