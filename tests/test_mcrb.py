import numpy as np
import pytest
from dataclasses import replace

from nearfield_pae import mcrb
from nearfield_pae.channel import (
    desk_scale_scenario,
    draw_poses,
    reduced_coefficients,
    simulate_received,
)
from nearfield_pae.circular import LaplaceFit
from nearfield_pae.geometry import EulerAngles, Pose
from nearfield_pae.mcrb import (
    compute_bound,
    exact_mean,
    gain_index,
    information_matrices,
    lower_bound,
    pack_extended,
    pack_poses,
    poses_from_gamma,
    pseudotrue_fit,
    reduced_embedding,
    true_gain_vector,
    unpack_extended,
    _information_terms,
    _projected_residual,
)
from nearfield_pae.partition import subarray_groups, uniform_partition
from oracles import reduced_fisher_analytic, reduced_mean


def small_scene(bs_n=4, ms_n=4, mx=2, my=2, num_ms=1, pattern="t3", **kwargs):
    sc = desk_scale_scenario(
        bs_n=bs_n, ms_n=ms_n, num_ms=num_ms, pattern=pattern,
        distance_range=(4.0, 6.0), **kwargs
    )
    plan = uniform_partition(sc.bs, mx, my, sc.lam)
    return sc, plan


def fixed_pose(distance=5.0):
    d = np.array([0.25, -0.1, 0.96])
    return Pose(distance * d / np.linalg.norm(d), EulerAngles(0.4, -0.3, 1.2))


class TestExactMean:
    @pytest.mark.parametrize("distance_range", [(1.5, 2.5), (5.0, 8.0)])
    @pytest.mark.parametrize("num_ms", [1, 2])
    def test_equals_noiseless_simulation(self, num_ms, distance_range):
        """The bound's exact mean is the simulator's noiseless signal, bit
        for bit; seeds [0, 1, 7] and [0, 2, 7] at 1.5-2.5 m differed at
        rounding level while each built its own antenna positions."""
        sc = desk_scale_scenario(num_ms=num_ms, distance_range=distance_range)
        for i in range(8):
            rng = np.random.default_rng(np.random.SeedSequence([0, num_ms, i]))
            poses = draw_poses(sc, rng)
            clean = simulate_received(replace(sc, noise_power_w=0.0), rng, poses)
            assert np.array_equal(exact_mean(pack_poses(poses), sc), clean.samples.T.ravel()), i


class TestPseudotrue:
    def test_single_antenna_subarrays_zero_residual(self):
        # 1x1 subarrays make the reduced model exact: residual ~ 0 and
        # the pseudotrue pose equals the truth
        sc, plan = small_scene(bs_n=4, mx=4, my=4)
        truth = pack_poses([fixed_pose()])
        fit = pseudotrue_fit(truth, sc, plan)
        mu = exact_mean(truth, sc)
        assert fit.residual <= 1e-10 * np.linalg.norm(mu)
        assert np.allclose(fit.gamma_ff[:6], truth, atol=1e-8)
        assert "zero_residual" in fit.flags

    def test_inner_least_squares_matches_normal_equations(self):
        sc, plan = small_scene(bs_n=8, mx=2, my=2, num_ms=2, pattern="t3")
        rng = np.random.default_rng(0)
        poses = draw_poses(sc, rng)
        truth = pack_poses(poses)
        mu = exact_mean(truth, sc)
        _, c, _, _ = _projected_residual(truth, mu, sc, subarray_groups(plan))
        emb = reduced_embedding(truth, sc, plan)
        n_b = sc.bs.n_antennas
        for mi in range(plan.n_subarrays):
            rows = plan.subarray_row_indices(mi + 1).ravel()
            for t in range(sc.n_slots):
                cols = [
                    gain_index(mi, k, t, sc.num_ms, sc.n_slots)
                    for k in range(sc.num_ms)
                ]
                phi = emb[np.ix_(t * n_b + rows, cols)]
                y = mu[t * n_b + rows]
                # dense normal-equation oracle
                oracle = np.linalg.solve(phi.conj().T @ phi, phi.conj().T @ y)
                assert np.allclose(c[cols], oracle, rtol=1e-10, atol=1e-18)

    def test_bias_shrinks_with_distance(self):
        # odd-sized subarrays put the reference antenna at the true
        # centroid, so the pseudotrue offset is pure wavefront curvature
        # and decays with range
        sc, plan = small_scene(bs_n=6, ms_n=4, mx=2, my=2)
        biases = []
        for dist in (1.0, 2.0, 4.0, 8.0):
            pose = fixed_pose(dist)
            scd = replace(sc, poses=(pose,), distance_range=(dist * 0.9, dist * 1.1))
            truth = pack_poses([pose])
            fit = pseudotrue_fit(truth, scd, plan)
            biases.append(np.linalg.norm(fit.gamma_ff[:3] - truth[:3]))
        assert all(b1 > b2 for b1, b2 in zip(biases, biases[1:]))
        assert biases[-1] < 1e-5

    def test_even_subarray_reference_offset_floor(self):
        # with even-sized subarrays the ceil-half reference antenna sits
        # (lam/4, lam/4) off the subarray centroid; the pseudotrue pose
        # compensates by exactly that much, at any range
        sc, plan = small_scene(bs_n=8, ms_n=4, mx=2, my=2)
        lam = sc.lam
        for dist in (2.0, 8.0):
            pose = fixed_pose(dist)
            scd = replace(sc, poses=(pose,), distance_range=(dist * 0.9, dist * 1.1))
            truth = pack_poses([pose])
            fit = pseudotrue_fit(truth, scd, plan)
            bias = np.linalg.norm(fit.gamma_ff[:3] - truth[:3])
            assert bias == pytest.approx(lam * np.sqrt(2) / 4, rel=0.05)

    @pytest.mark.parametrize("num_ms", [1, 2])
    @pytest.mark.parametrize("blocks", [2, 4])
    def test_gradient_matches_brute_force(self, num_ms, blocks):
        """The analytic variable-projection gradient against central
        differences of the squared residual rebuilt from the dense
        embedding, with every block's gains solved by lstsq."""
        sc, plan = small_scene(bs_n=8, mx=blocks, my=blocks, num_ms=num_ms)
        poses = draw_poses(sc, np.random.default_rng(6))
        truth = pack_poses(poses)
        mu = exact_mean(truth, sc)
        n_b = sc.bs.n_antennas

        def brute_objective(gamma):
            emb = reduced_embedding(gamma, sc, plan)
            total = 0.0
            for mi in range(plan.n_subarrays):
                rows = plan.subarray_row_indices(mi + 1).ravel()
                for t in range(sc.n_slots):
                    r_idx = t * n_b + rows
                    cols = [
                        gain_index(mi, k, t, sc.num_ms, sc.n_slots)
                        for k in range(sc.num_ms)
                    ]
                    phi = emb[np.ix_(r_idx, cols)]
                    sol, *_ = np.linalg.lstsq(phi, mu[r_idx], rcond=None)
                    total += np.sum(np.abs(mu[r_idx] - phi @ sol) ** 2)
            return total

        # a generic point near the truth
        gamma = truth + np.random.default_rng(7).normal(0.0, 1e-3, truth.size)
        objective, _, grad, _ = _projected_residual(gamma, mu, sc, subarray_groups(plan))
        assert objective == pytest.approx(brute_objective(gamma), rel=1e-10)
        step = 1e-6
        oracle = np.zeros_like(gamma)
        for a in range(gamma.size):
            gp, gm = gamma.copy(), gamma.copy()
            gp[a] += step
            gm[a] -= step
            oracle[a] = (brute_objective(gp) - brute_objective(gm)) / (2 * step)
        assert np.max(np.abs(grad - oracle)) < 1e-6 * np.max(np.abs(oracle))

    def test_no_dense_embedding(self, monkeypatch):
        """The fit and the information matrices work on the steering
        blocks only; the dense (N_B T, M K T) embedding is never built."""
        sc, plan = small_scene(bs_n=8, mx=2, my=2, num_ms=2)
        truth = pack_poses(draw_poses(sc, np.random.default_rng(8)))

        def forbidden(*args, **kwargs):
            raise AssertionError("dense embedding built")

        monkeypatch.setattr(mcrb, "reduced_embedding", forbidden)
        fit = pseudotrue_fit(truth, sc, plan)
        assert fit.converged
        information_matrices(fit.gamma_ff, truth, sc, plan, sc.noise_power_w)

    def test_pseudotrue_gains_match_truth_at_zero_mismatch(self):
        sc, plan = small_scene(bs_n=4, mx=4, my=4)
        truth = pack_poses([fixed_pose()])
        fit = pseudotrue_fit(truth, sc, plan)
        _, c_fit = unpack_extended(fit.gamma_ff, 1)
        c_true = true_gain_vector(truth, sc, plan)
        assert np.allclose(c_fit, c_true, rtol=1e-8)


    def test_subarrays_smaller_than_ms_count_rejected(self):
        # 1x1 subarrays cannot identify K=2 gains per slot; the bound used
        # to raise LinAlgError from the singular Gram solve
        sc, plan = small_scene(bs_n=4, mx=4, my=4, num_ms=2)
        poses = draw_poses(sc, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 2 antennas.*smallest has 1"):
            pseudotrue_fit(pack_poses(poses), sc, plan)
        with pytest.raises(ValueError, match="at least 2 antennas.*smallest has 1"):
            compute_bound(poses, sc, plan)

    def test_true_gain_vector_matches_gain_index_loop(self):
        sc, plan = small_scene(bs_n=8, mx=2, my=2, num_ms=2)
        truth = pack_poses(draw_poses(sc, np.random.default_rng(10)))
        coeffs = reduced_coefficients(
            sc, plan, poses_from_gamma(truth, sc.num_ms), validate=False
        )
        m_count, k_count, t_count = coeffs.shape
        loop = np.zeros(m_count * k_count * t_count, dtype=np.complex128)
        for m in range(m_count):
            for k in range(k_count):
                for t in range(t_count):
                    loop[gain_index(m, k, t, k_count, t_count)] = coeffs.gains[m, k, t]
        c = true_gain_vector(truth, sc, plan)
        assert c.dtype == loop.dtype
        assert np.array_equal(c, loop)
        assert not np.shares_memory(c, coeffs.gains)


class TestGaussNewtonFit:
    @staticmethod
    def generic_point(num_ms, seed=11):
        sc, plan = small_scene(bs_n=8, mx=2, my=2, num_ms=num_ms)
        truth = pack_poses(draw_poses(sc, np.random.default_rng(seed)))
        return sc, plan, truth

    @pytest.mark.parametrize("num_ms", [1, 2])
    def test_gauss_newton_matrix_matches_brute_force(self, num_ms):
        """2 Re(D^H P D) with D the central differences of the dense
        reduced mean in the pose at fixed gains and P each dense block's
        projector off its steering columns, entry (a, b) measured in units
        of sqrt(H_aa H_bb)."""
        sc, plan, truth = self.generic_point(num_ms)
        mu = exact_mean(truth, sc)
        gamma = truth + np.random.default_rng(12).normal(0.0, 1e-3, truth.size)
        objective, c, grad, gauss_newton = _projected_residual(
            gamma, mu, sc, subarray_groups(plan)
        )
        n_pose, n_b = gamma.size, sc.bs.n_antennas
        step = 1e-6
        d_mat = np.zeros((mu.size, n_pose), dtype=complex)
        for a in range(n_pose):
            gp, gm = gamma.copy(), gamma.copy()
            gp[a] += step
            gm[a] -= step
            d_mat[:, a] = (
                reduced_mean(pack_extended(gp, c), sc, plan)
                - reduced_mean(pack_extended(gm, c), sc, plan)
            ) / (2 * step)
        emb = reduced_embedding(gamma, sc, plan)
        oracle = np.zeros((n_pose, n_pose))
        for mi in range(plan.n_subarrays):
            rows = plan.subarray_row_indices(mi + 1).ravel()
            for t in range(sc.n_slots):
                r_idx = t * n_b + rows
                cols = [gain_index(mi, k, t, sc.num_ms, sc.n_slots) for k in range(sc.num_ms)]
                phi = emb[np.ix_(r_idx, cols)]
                proj = np.eye(rows.size) - phi @ np.linalg.pinv(phi)
                block = d_mat[r_idx]
                oracle += 2.0 * np.real(block.conj().T @ proj @ block)
        unit = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
        assert np.max(np.abs(gauss_newton - oracle) / unit) < 1e-6
        assert np.all(np.linalg.eigvalsh(gauss_newton) > 0)

    @pytest.mark.parametrize("num_ms", [1, 2])
    def test_value_path_matches_derivative_path(self, num_ms):
        sc, plan, truth = self.generic_point(num_ms)
        mu = exact_mean(truth, sc)
        groups = subarray_groups(plan)
        gamma = truth + 1e-3
        full = _projected_residual(gamma, mu, sc, groups)
        value_only = _projected_residual(gamma, mu, sc, groups, derivatives=False)
        assert value_only[0] == full[0]
        assert np.array_equal(value_only[1], full[1])
        assert value_only[2] is None and value_only[3] is None

    def test_fit_matches_plain_gauss_newton(self):
        """The fitted pose against undamped Gauss-Newton steps iterated
        from the truth until the step stops shrinking (the rounding
        floor)."""
        sc, plan, truth = self.generic_point(1)
        mu = exact_mean(truth, sc)
        groups = subarray_groups(plan)
        reference = truth.copy()
        steps = []
        for _ in range(60):
            _, _, grad, gauss_newton = _projected_residual(reference, mu, sc, groups)
            step = np.linalg.solve(gauss_newton, -grad)
            reference = reference + step
            steps.append(np.linalg.norm(step))
            if len(steps) > 8 and steps[-1] >= min(steps[:-1]):
                break
        fit = pseudotrue_fit(truth, sc, plan)
        assert fit.converged and fit.flags == ()
        assert np.max(np.abs(fit.gamma_ff[: truth.size] - reference)) < 1e-9

    @pytest.mark.parametrize("seed", range(11, 17))
    def test_k2_fit_matches_plain_gauss_newton(self, seed):
        """Two MSs: each undamped Gauss-Newton step contracts the error by
        only 0.1-0.3 here (Gauss-Newton matrix condition 1e5-2e6), so a
        stop on the gradient's size left the fit up to 2.2e-4 short of
        where 200 steps from the truth arrive."""
        sc, plan, truth = self.generic_point(2, seed)
        mu = exact_mean(truth, sc)
        groups = subarray_groups(plan)
        reference = truth.copy()
        for _ in range(200):
            _, _, grad, gauss_newton = _projected_residual(reference, mu, sc, groups)
            reference = reference + np.linalg.solve(gauss_newton, -grad)
        fit = pseudotrue_fit(truth, sc, plan)
        assert fit.converged and fit.flags == ()
        assert np.max(np.abs(fit.gamma_ff[: truth.size] - reference)) < 1e-6

    def test_no_point_evaluated_twice(self, monkeypatch):
        """The fit's gains and gradient come from the solver's own
        evaluations: no point is evaluated with derivatives twice."""
        sc, plan, truth = self.generic_point(2)
        points = []
        original = mcrb._projected_residual

        def recording(gamma, *args, **kwargs):
            if kwargs.get("derivatives", True):
                points.append(gamma.tobytes())
            return original(gamma, *args, **kwargs)

        monkeypatch.setattr(mcrb, "_projected_residual", recording)
        fit = pseudotrue_fit(truth, sc, plan)
        assert fit.converged
        assert points[0] == truth.tobytes()
        assert len(points) == len(set(points))

    def test_descent_not_converged_when_solver_stops_at_start(self, monkeypatch):
        sc, plan, truth = self.generic_point(1)

        def stuck(value, derivatives, init):
            n = init.shape[-1]
            return LaplaceFit(
                mean=init.copy(),
                cov=np.broadcast_to(np.eye(n), (1, n, n)),
                precision=np.broadcast_to(np.eye(n), (1, n, n)),
                converged=np.ones(1, dtype=bool),
                regularized=np.zeros(1, dtype=bool),
                n_polish_steps=np.zeros(1, dtype=int),
            )

        monkeypatch.setattr(mcrb, "newton_fits", stuck)
        fit = pseudotrue_fit(truth, sc, plan)
        assert not fit.converged
        assert fit.flags == ("descent_not_converged",)
        assert np.array_equal(fit.gamma_ff[: truth.size], truth)


class TestInformationMatrices:
    def test_zero_mismatch_collapse(self):
        """With the exact mean replaced by the reduced mean, eps = 0 and
        A = -(2/s2) Re{J^H J}, B = +(2/s2) Re{J^H J}."""
        sc, plan = small_scene(bs_n=6, mx=2, my=2)
        truth = pack_poses([fixed_pose()])
        c = true_gain_vector(truth, sc, plan)
        gff = pack_extended(truth, c)
        sigw2 = sc.noise_power_w

        def injected_mean(gamma, scenario):
            return reduced_mean(gff, scenario, plan)

        a_mat, b_mat, _ = information_matrices(
            gff, truth, sc, plan, sigw2, exact_mean_fn=injected_mean
        )
        assert np.allclose(a_mat, -b_mat, rtol=1e-6, atol=np.max(np.abs(b_mat)) * 1e-8)

    def test_noise_scaling(self):
        sc, plan = small_scene(bs_n=6, mx=2, my=2)
        truth = pack_poses([fixed_pose()])
        fit = pseudotrue_fit(truth, sc, plan)
        a1, b1, _ = information_matrices(fit.gamma_ff, truth, sc, plan, 1e-10)
        a2, b2, _ = information_matrices(fit.gamma_ff, truth, sc, plan, 5e-11)
        assert np.allclose(a2, 2 * a1, rtol=1e-10)
        assert np.allclose(b2, 2 * b1, rtol=1e-10)
        lb1 = np.linalg.inv(a1) @ b1 @ np.linalg.inv(a1)
        lb2 = np.linalg.inv(a2) @ b2 @ np.linalg.inv(a2)
        assert np.allclose(lb2, 0.5 * lb1, rtol=1e-8)

    def test_entries_match_brute_force(self):
        """Full finite-difference differentiation of the reduced mean --
        no analytic shortcuts -- reproduces A and B."""
        sc, plan = small_scene(bs_n=4, ms_n=4, mx=2, my=2, pattern="t3")
        rng = np.random.default_rng(1)
        poses = draw_poses(sc, rng)
        truth = pack_poses(poses)
        fit = pseudotrue_fit(truth, sc, plan)
        sigw2 = sc.noise_power_w
        a_mat, b_mat, _ = information_matrices(fit.gamma_ff, truth, sc, plan, sigw2)

        gff0 = fit.gamma_ff
        eps = exact_mean(truth, sc) - reduced_mean(gff0, sc, plan)
        n = gff0.size

        def mu_of(vec):
            return reduced_mean(vec, sc, plan)

        step = 1e-6
        jac = np.zeros((eps.size, n), dtype=complex)
        for a in range(n):
            h = step * max(1.0, abs(gff0[a]))
            vp, vm = gff0.copy(), gff0.copy()
            vp[a] += h
            vm[a] -= h
            jac[:, a] = (mu_of(vp) - mu_of(vm)) / (2 * h)
        s2 = np.zeros((n, n))
        hstep = 1e-4
        for a in range(n):
            ha = hstep * max(1.0, abs(gff0[a]))
            for b in range(a, n):
                hb = hstep * max(1.0, abs(gff0[b]))
                vpp, vpm, vmp, vmm = (gff0.copy() for _ in range(4))
                vpp[a] += ha
                vpp[b] += hb
                vpm[a] += ha
                vpm[b] -= hb
                vmp[a] -= ha
                vmp[b] += hb
                vmm[a] -= ha
                vmm[b] -= hb
                d2 = (mu_of(vpp) - mu_of(vpm) - mu_of(vmp) + mu_of(vmm)) / (
                    4 * ha * hb
                )
                s2[a, b] = s2[b, a] = np.real(np.conj(eps) @ d2)
        gram = np.real(jac.conj().T @ jac)
        a_oracle = (2.0 / sigw2) * (s2 - gram)
        z = np.real(jac.conj().T @ eps)
        b_oracle = (4.0 / sigw2) * np.outer(z, z) + (2.0 / sigw2) * gram
        scale_a = np.max(np.abs(a_oracle))
        scale_b = np.max(np.abs(b_oracle))
        assert np.max(np.abs(a_mat - a_oracle)) < 1e-4 * scale_a
        assert np.max(np.abs(b_mat - b_oracle)) < 1e-4 * scale_b


    def test_terms_match_brute_force_in_fisher_units(self):
        """Each analytic term against differences of the dense reduced mean,
        entry (a, b) measured in units of sqrt(F_aa F_bb) with F = Re{J^H J}:
        the curvature term Re{eps^H d2mu} is about |eps|/|mu| smaller than
        the Gram term, so an error in it hides below a tolerance scaled to
        max |A|."""
        sc, plan = small_scene(bs_n=4, ms_n=4, mx=2, my=2, num_ms=2, pattern="t3")
        truth = pack_poses(draw_poses(sc, np.random.default_rng(9)))
        gff0 = pseudotrue_fit(truth, sc, plan).gamma_ff
        mu_true = exact_mean(truth, sc)
        eps = mu_true - reduced_mean(gff0, sc, plan)
        gram, s2, z = _information_terms(gff0, mu_true, sc, plan)
        n, n_pose = gff0.size, 6 * sc.num_ms

        def shifted(steps):
            vec = gff0.copy()
            for a, h in steps:
                vec[a] += h
            return reduced_mean(vec, sc, plan)

        hs = [1e-4 * max(1.0, abs(v)) for v in gff0]
        jac = np.array(
            [
                (shifted([(a, hs[a])]) - shifted([(a, -hs[a])])) / (2 * hs[a])
                for a in range(n)
            ]
        ).T
        # d2mu vanishes between gains, so one pose index suffices
        s2_oracle = np.zeros((n, n))
        for a in range(n_pose):
            for b in range(n):
                d2 = (
                    shifted([(a, hs[a]), (b, hs[b])])
                    - shifted([(a, hs[a]), (b, -hs[b])])
                    - shifted([(a, -hs[a]), (b, hs[b])])
                    + shifted([(a, -hs[a]), (b, -hs[b])])
                ) / (4 * hs[a] * hs[b])
                s2_oracle[a, b] = s2_oracle[b, a] = np.real(np.conj(eps) @ d2)
        gram_oracle = np.real(jac.conj().T @ jac)
        unit = np.sqrt(np.outer(np.diag(gram_oracle), np.diag(gram_oracle)))
        assert np.max(np.abs(gram - gram_oracle) / unit) < 1e-6
        assert np.max(np.abs(s2 - s2_oracle) / unit) < 1e-6
        assert np.max(np.abs(s2)) > 0 and np.all(s2[n_pose:, n_pose:] == 0)
        z_oracle = np.real(jac.conj().T @ eps)
        assert np.max(np.abs(z - z_oracle) / np.sqrt(np.diag(gram_oracle))) < 1e-6


class TestLowerBound:
    def test_zero_bias_is_pure_sandwich(self):
        rng = np.random.default_rng(2)
        n = 10
        m = rng.normal(size=(n, n))
        b_mat = m @ m.T + n * np.eye(n)
        a_mat = -(b_mat + 0.5 * np.eye(n))
        gff = rng.normal(size=n)
        res = lower_bound(a_mat, b_mat, gff, gff, k_count=1)
        a_inv = np.linalg.inv(a_mat)
        assert np.allclose(res.lb, (a_inv @ b_mat @ a_inv)[:6, :6], rtol=1e-10)
        assert res.bias_position == 0.0

    def test_pure_bias_limit(self):
        n = 8
        a_mat = -np.eye(n) * 1e12
        b_mat = np.eye(n) * 1e12
        delta = np.zeros(n)
        delta[:6] = [0.1, -0.2, 0.3, 0.01, 0.02, -0.03]
        gff = np.arange(n, dtype=float)
        res = lower_bound(a_mat, b_mat, gff, gff - delta, k_count=1)
        assert np.allclose(res.lb, np.outer(delta[:6], delta[:6]), atol=1e-10)

    def test_bound_matrix_psd_over_random_scenes(self):
        sc, plan = small_scene(bs_n=8, ms_n=4, mx=2, my=2, pattern="t3")
        rng = np.random.default_rng(3)
        for _ in range(10):
            poses = draw_poses(sc, rng)
            res = compute_bound(poses, sc, plan)
            assert np.allclose(res.lb, res.lb.T, atol=1e-9)
            assert np.min(np.linalg.eigvalsh(res.lb)) > -1e-9


class TestCrbCollapse:
    def test_single_antenna_subarrays_match_analytic_fisher(self):
        """At 1x1 subarrays the reduced model is exact; the bound machinery
        must then agree with the classical CRB computed from a fully
        analytic Fisher matrix of the same (gain-augmented) model, compared
        through a fixed-rank pseudo-inverse (pose is unidentifiable with
        per-antenna free gains, so the Fisher is rank deficient)."""
        sc, plan = small_scene(bs_n=4, mx=4, my=4, pattern="t3")
        truth = pack_poses([fixed_pose()])
        fit = pseudotrue_fit(truth, sc, plan)
        sigw2 = sc.noise_power_w
        a_mat, b_mat, _ = information_matrices(fit.gamma_ff, truth, sc, plan, sigw2)
        fisher = reduced_fisher_analytic(fit.gamma_ff, sc, plan, sigw2)
        # A = -F and B = F at zero mismatch
        scale = np.max(np.abs(fisher))
        assert np.max(np.abs(a_mat + fisher)) < 1e-3 * scale
        assert np.max(np.abs(b_mat - fisher)) < 1e-3 * scale
        # sandwich through a common fixed-rank pseudo-inverse
        rank = np.linalg.matrix_rank(fisher, tol=1e-8 * scale)
        a_pinv = np.linalg.pinv(a_mat, rcond=1e-8)
        lb = a_pinv @ b_mat @ a_pinv
        crb = np.linalg.pinv(fisher, rcond=1e-8)
        assert np.linalg.norm(lb - crb) < 1e-3 * np.linalg.norm(crb)

    def test_fisher_pose_columns_match_finite_differences(self):
        sc, plan = small_scene(bs_n=4, ms_n=4, mx=2, my=2, pattern="t3")
        rng = np.random.default_rng(4)
        poses = draw_poses(sc, rng)
        truth = pack_poses(poses)
        c = true_gain_vector(truth, sc, plan)
        gff = pack_extended(truth, c)
        fisher = reduced_fisher_analytic(gff, sc, plan, 1e-10)
        # gram oracle from numerical Jacobian
        n = gff.size
        jac = np.zeros((sc.bs.n_antennas * sc.n_slots, n), dtype=complex)
        for a in range(n):
            h = 1e-6 * max(1.0, abs(gff[a]))
            vp, vm = gff.copy(), gff.copy()
            vp[a] += h
            vm[a] -= h
            jac[:, a] = (reduced_mean(vp, sc, plan) - reduced_mean(vm, sc, plan)) / (2 * h)
        oracle = (2.0 / 1e-10) * np.real(jac.conj().T @ jac)
        assert np.max(np.abs(fisher - oracle)) < 1e-4 * np.max(np.abs(oracle))


class TestConvenienceWrapper:
    def test_bound_reports_per_ms_traces(self):
        sc, plan = small_scene(bs_n=8, ms_n=4, mx=2, my=2, num_ms=2, pattern="t3")
        rng = np.random.default_rng(5)
        poses = draw_poses(sc, rng)
        res = compute_bound(poses, sc, plan)
        assert res.position_trace.shape == (2,)
        assert res.attitude_trace.shape == (2,)
        assert np.all(res.position_trace > 0)
        assert res.position_rmse_bound == pytest.approx(
            np.sqrt(np.sum(res.position_trace))
        )

    def test_invalid_noise_rejected(self):
        sc, plan = small_scene()
        truth = pack_poses([fixed_pose()])
        with pytest.raises(ValueError):
            information_matrices(
                pack_extended(truth, true_gain_vector(truth, sc, plan)),
                truth,
                sc,
                plan,
                0.0,
            )
