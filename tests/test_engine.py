import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nearfield_pae import baseline, engine, mcrb
from nearfield_pae.baseline import run_baseline
from nearfield_pae.channel import (
    ReceivedSignal,
    desk_scale_scenario,
    draw_poses,
    simulate_received,
)
from nearfield_pae.circular import laplace_fit, newton_fits
from nearfield_pae.engine import (
    POSE_PRIOR,
    SIGMA_INI,
    PosePrior,
    composite_fits,
    composite_vm_terms,
    composite_vm_value,
    feedback_messages,
    final_map,
    fuse_antenna_position,
    init_messages,
    pose_terms,
    procrustes_pose,
    project_pose_to_antennas,
    triangulate_init,
    update_pose_messages,
)
from nearfield_pae.geometry import (
    EulerAngles,
    Pose,
    TransmitPattern,
    aoa_cosines,
    canonicalize_euler,
    euler_from_rotation,
    rotation_bases,
    rotation_basis,
)
from nearfield_pae.mcrb import compute_bound
from nearfield_pae.partition import uniform_partition
from oracles import (
    composite_vm_grad,
    finite_diff_gradient,
    finite_diff_hessian,
    rotation_basis_derivatives,
)


def default_prior():
    return PosePrior(1e3, np.zeros(3), np.full(3, 1e-6))


def desk_setup(num_ms=1, **kwargs):
    sc = desk_scale_scenario(num_ms=num_ms, **kwargs)
    plan = uniform_partition(sc.bs, 4, 4, sc.lam)
    return sc, plan


class TestInitMessages:
    def test_default_initialization(self):
        state = init_messages(4, 2, 3)
        assert state.prior_mean.shape == (4, 2, 3, 3)
        assert np.allclose(state.prior_mean[..., :2], 0.0)
        assert np.allclose(state.prior_mean[..., 2], 1.0)
        assert np.allclose(state.prior_cov[0, 0, 0], SIGMA_INI**2 * np.eye(3))
        assert np.all(state.prior_cov == state.prior_cov[0, 0, 0])

    def test_empty_state(self):
        state = init_messages(2, 0, 3)
        assert state.prior_mean.shape == (2, 0, 3, 3)


class TestCompositeObjective:
    def exact_extrinsics(self, p_true, refs, kappa=1e8):
        chis = np.array(
            [np.pi * np.array(aoa_cosines(p_true, r)) for r in refs]
        )
        kappas = np.full((len(refs), 2), kappa)
        return chis, kappas

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        refs = rng.normal(0, 0.1, (6, 3))
        refs[:, 2] = 0.0
        for _ in range(100):
            chis = rng.uniform(-np.pi, np.pi, (6, 2))
            kappas = rng.uniform(0, 1e4, (6, 2))
            p = rng.normal(0, 2, 3) + np.array([0, 0, 5.0])
            g = composite_vm_grad(p, refs, chis, kappas)
            fd = finite_diff_gradient(
                lambda x: composite_vm_value(x, refs, chis, kappas), p
            )
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        refs = rng.normal(0, 0.1, (6, 3))
        refs[:, 2] = 0.0
        for i in range(60):
            chis = rng.uniform(-np.pi, np.pi, (6, 2))
            kappas = rng.uniform(0, 1e4, (6, 2))
            if i % 2:
                # near endfire: the line of sight almost in the array plane,
                # so phi_x^2 + phi_y^2 is close to 1
                azimuth = rng.uniform(-np.pi, np.pi)
                p = 5.0 * np.array([np.cos(azimuth), np.sin(azimuth), 0.02])
            else:
                p = rng.normal(0, 2, 3) + np.array([0, 0, 5.0])
            value, grad, hess = composite_vm_terms(p, refs, chis, kappas)
            assert value == pytest.approx(composite_vm_value(p, refs, chis, kappas), rel=1e-12)
            assert np.allclose(grad, composite_vm_grad(p, refs, chis, kappas), rtol=1e-12)
            # step 3e-4 balances truncation against rounding on values ~1e5
            fd = finite_diff_hessian(lambda x: composite_vm_value(x, refs, chis, kappas), p, 3e-4)
            assert np.allclose(hess, hess.T)
            assert np.max(np.abs(hess - fd)) <= 1e-5 * max(1.0, np.max(np.abs(hess)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @example(seed=13, count=12)
    def test_stacked_solve_equals_single_solves(self, seed, count):
        """`composite_fits` on a stack gives each problem what it gets
        alone: noisy beliefs, one problem left with a single subarray."""
        rng = np.random.default_rng(seed)
        refs = rng.normal(0, 0.1, (5, 3))
        refs[:, 2] = 0.0
        truth = rng.normal(0, 1, (count, 3)) + np.array([0, 0, 5.0])
        chis = np.array(
            [[np.pi * np.array(aoa_cosines(p, r)) for r in refs] for p in truth]
        ) + rng.normal(0, 0.01, (count, 5, 2))
        kappas = rng.uniform(10, 1e5, (count, 5, 2))
        kappas[min(3, count - 1), 1:] = 0.0
        inits = truth + rng.normal(0, 0.05, (count, 3))
        stacked = composite_fits(refs, chis, kappas, inits)
        for b in range(count):
            args = (refs, chis[b], kappas[b])
            single = laplace_fit(
                lambda p: composite_vm_value(p, *args),
                inits[b],
                grad=lambda p: composite_vm_terms(p, *args)[1],
                hess=lambda p: composite_vm_terms(p, *args)[2],
            )
            one = stacked.problem(b)
            assert one.converged == single.converged
            assert one.regularized == single.regularized
            assert one.n_polish_steps == single.n_polish_steps
            assert np.allclose(one.mean, single.mean, rtol=1e-12, atol=1e-12)
            assert np.allclose(one.cov, single.cov, rtol=1e-9, atol=0.0)
            assert np.allclose(one.precision, single.precision, rtol=1e-9, atol=1e-9)

    def test_two_subarray_triangulation(self):
        refs = np.array([[-0.08, 0.0, 0.0], [0.08, 0.0, 0.0]])
        p_true = np.array([0.4, -0.3, 5.0])
        chis, kappas = self.exact_extrinsics(p_true, refs)
        # independent two-ray least-squares oracle
        mats, rhs = np.zeros((3, 3)), np.zeros(3)
        for i, ref in enumerate(refs):
            phi = chis[i] / np.pi
            d = np.array([phi[0], phi[1], np.sqrt(1 - phi @ phi)])
            proj = np.eye(3) - np.outer(d, d)
            mats += proj
            rhs += proj @ ref
        oracle = np.linalg.solve(mats, rhs)
        assert np.allclose(oracle, p_true, atol=1e-8)

        state = init_messages(2, 1, 1)
        state.ext_chi[:, 0, 0] = chis
        state.ext_kappa[:, 0, 0] = kappas
        plan2 = _FakePlan(refs)
        fuse_antenna_position(state, plan2, 5.0)
        assert state.fused_ok[0, 0]
        assert np.linalg.norm(state.fused_mean[0, 0] - p_true) < 1e-4

    def test_fit_behind_bs_plane_rejected(self):
        """Cosines see z only through |z|, so the mirror image of a mode
        behind the BS plane is a mode too; a fit that ends there keeps its
        start with the non-informative precision and is flagged."""
        refs = np.array([[-0.08, 0.0, 0.0], [0.08, 0.0, 0.0]])
        p_true = np.array([0.4, -0.3, 5.0])
        chis, kappas = self.exact_extrinsics(p_true, refs)
        state = init_messages(2, 1, 1)
        state.ext_chi[:, 0, 0] = chis
        state.ext_kappa[:, 0, 0] = kappas
        # a previous iteration's fused point, mirrored behind the plane
        state.iteration = 1
        state.fused_ok[0, 0] = True
        state.fused_mean[0, 0] = p_true * [1.0, 1.0, -1.0]
        flags = fuse_antenna_position(state, _FakePlan(refs), 5.0)
        assert (0, "fusion_diverged_k0t0") in flags
        assert not state.fused_ok[0, 0]
        assert np.array_equal(state.fused_mean[0, 0], p_true * [1.0, 1.0, -1.0])
        assert np.allclose(np.diag(np.linalg.inv(state.fused_prec[0, 0])), SIGMA_INI**2)

    def test_flat_composite_flagged(self):
        state = init_messages(2, 1, 1)
        plan2 = _FakePlan(np.array([[-0.08, 0, 0], [0.08, 0, 0]]))
        flags = fuse_antenna_position(state, plan2, desk_scale_scenario().nominal_range)
        assert not state.fused_ok[0, 0]
        assert (0, "flat_composite_k0t0") in flags
        assert np.allclose(np.diag(np.linalg.inv(state.fused_prec[0, 0])), SIGMA_INI**2)

    def test_triangulate_single_ray_uses_nominal_range(self):
        refs = np.array([[0.0, 0.0, 0.0]])
        chis = np.array([[0.0, 0.0]])
        kappas = np.array([[10.0, 10.0]])
        init = triangulate_init(refs, chis, kappas, 6.0)
        assert np.allclose(init, [0, 0, 6.0])

    def test_relabeling_subarrays_leaves_objective_unchanged(self):
        rng = np.random.default_rng(11)
        refs = rng.normal(0, 0.1, (6, 3))
        chis = rng.uniform(-np.pi, np.pi, (6, 2))
        kappas = rng.uniform(0, 100, (6, 2))
        p = np.array([0.5, -0.5, 5.0])
        base = composite_vm_value(p, refs, chis, kappas)
        perm = rng.permutation(6)
        assert composite_vm_value(p, refs[perm], chis[perm], kappas[perm]) == (
            pytest.approx(base, rel=1e-14)
        )


class _FakePlan:
    """Minimal stand-in exposing reference positions only."""

    def __init__(self, refs):
        self._refs = np.asarray(refs, dtype=float)

    def reference_positions(self):
        return self._refs

    @property
    def n_subarrays(self):
        return len(self._refs)


class TestPoseObjective:
    def build_obs(self, pose, q_locals, cov_scale=1e-8):
        basis = rotation_basis(pose.attitude).matrix
        obs = pose.position[None, :] + (basis @ q_locals.T).T
        weights = np.tile(np.eye(3) / cov_scale, (len(q_locals), 1, 1))
        return obs, weights

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        q = rng.normal(0, 0.05, (4, 2))
        prior = PosePrior(50.0, np.array([0.1, -0.2, 0.3]), np.array([2.0, 1.0, 3.0]))
        obs = rng.normal(0, 1, (4, 3)) + np.array([0, 0, 5.0])
        weights = np.array([_rand_spd(rng) for _ in range(4)])
        args = (obs[None], weights[None], q, prior)
        for _ in range(100):
            x = np.concatenate([rng.normal(0, 2, 3), rng.uniform(-1.2, 1.2, 3)])
            g = pose_terms(x[None], *args)[1][0]
            fd = finite_diff_gradient(lambda v: pose_terms(v[None], *args, order=0)[0], x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(14)
        q = rng.normal(0, 0.05, (4, 2))
        prior = PosePrior(50.0, np.array([0.1, -0.2, 0.3]), np.array([2.0, 1.0, 3.0]))
        # observations that no pose fits exactly, so the residual term counts
        obs = rng.normal(0, 1, (4, 3)) + np.array([0, 0, 5.0])
        weights = np.array([_rand_spd(rng) for _ in range(4)])
        args = (obs[None], weights[None], q, prior)
        for _ in range(50):
            x = np.concatenate([rng.normal(0, 2, 3), rng.uniform(-1.2, 1.2, 3)])
            hess = pose_terms(x[None], *args)[2][0]
            fd = np.array(
                [
                    finite_diff_gradient(lambda v: pose_terms(v[None], *args)[1][0, i], x)
                    for i in range(6)
                ]
            )
            assert np.allclose(hess, hess.T)
            assert np.max(np.abs(hess - fd)) <= 1e-5 * max(1.0, np.max(np.abs(hess)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_stacked_terms_equal_single_calls(self, seed, batch):
        rng = np.random.default_rng(seed)
        prior = PosePrior(50.0, np.array([0.1, -0.2, 0.3]), np.array([2.0, 1.0, 3.0]))
        q = rng.normal(0, 0.05, (batch, 4, 2))
        obs = rng.normal(0, 1, (batch, 4, 3)) + np.array([0, 0, 5.0])
        weights = np.array([[_rand_spd(rng) for _ in range(4)] for _ in range(batch)])
        weights[rng.random((batch, 4)) < 0.25] = 0.0  # dropped observations
        x = np.concatenate([rng.normal(0, 2, (batch, 3)), rng.uniform(-4, 4, (batch, 3))], axis=1)
        stacked = pose_terms(x, obs, weights, q, prior)
        assert np.array_equal(stacked[0], pose_terms(x, obs, weights, q, prior, order=0))
        for b in range(batch):
            single = pose_terms(x[b : b + 1], obs[b : b + 1], weights[b : b + 1], q[b], prior)
            for part, one in zip(stacked, single):
                assert np.max(np.abs(part[b] - one[0])) <= 1e-12 * np.max(np.abs(one[0]))

    def test_noiseless_pose_recovery(self):
        sc, _ = desk_setup()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([1.0, -2.0, 6.0]), EulerAngles(0.7, -0.4, 2.1))
        obs, weights = self.build_obs(pose, q)
        state = init_messages(1, 1, len(q))
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e8 * np.eye(3), (len(q), 1, 1))
        state.fused_ok[0] = True
        update_pose_messages(state, q)
        truth = np.concatenate([pose.position, pose.attitude.as_array()])
        # Procrustes oracle: closed-form alignment on the exact points
        oracle = procrustes_pose(obs, q)
        assert np.allclose(oracle, truth, atol=1e-9)
        for t in range(len(q)):
            assert np.allclose(state.pose_mean[0, t], truth, atol=1e-6)

    def test_identity_attitude_recovered(self):
        sc, _ = desk_setup()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([0.5, 0.5, 5.0]), EulerAngles(0, 0, 0))
        obs, weights = self.build_obs(pose, q)
        state = init_messages(1, 1, len(q))
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e8 * np.eye(3), (len(q), 1, 1))
        state.fused_ok[0] = True
        update_pose_messages(state, q)
        basis = rotation_bases(state.pose_mean[0, :1, 3:])[0][0]
        assert np.allclose(basis, np.eye(3)[:, :2], atol=1e-6)

    def test_collinear_pattern_flagged(self):
        # three antennas on a line: rotation about that line unobservable
        q = np.array([[-0.04, 0.0], [0.0, 0.0], [0.04, 0.0]])
        pose = Pose(np.array([0.0, 0.0, 5.0]), EulerAngles(0, 0, 0))
        obs = pose.position[None, :] + np.pad(q, ((0, 0), (0, 1)))
        state = init_messages(1, 1, 3)
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e8 * np.eye(3), (3, 1, 1))
        state.fused_ok[0] = True
        flags = update_pose_messages(state, q)
        assert any("pose_near_singular" in name for _, name in flags)
        # the unobservable direction keeps a huge variance
        assert np.max(np.diag(state.pose_cov_theta[0, 0])) > 1e5


def _rand_spd(rng):
    a = rng.normal(size=(3, 3))
    return a @ a.T + 3 * np.eye(3)


class TestProjection:
    def test_zero_attitude_covariance(self):
        state = init_messages(1, 1, 1)
        state.pose_mean[0, 0] = [1.0, 2.0, 5.0, 0.3, -0.2, 0.9]
        cp = np.diag([1e-4, 2e-4, 3e-4])
        state.pose_cov_p[0, 0] = cp
        state.pose_cov_theta[0, 0] = np.zeros((3, 3))
        _, cov = project_pose_to_antennas(state, np.array([[0.05, -0.02]]))
        assert np.allclose(cov[0, 0], cp, atol=1e-18)

    def test_center_antenna_passthrough(self):
        state = init_messages(1, 1, 1)
        state.pose_mean[0, 0] = [1.0, 2.0, 5.0, 0.3, -0.2, 0.9]
        cp = np.diag([1e-4, 2e-4, 3e-4])
        ca = np.diag([1e-2, 1e-2, 1e-2])
        state.pose_cov_p[0, 0] = cp
        state.pose_cov_theta[0, 0] = ca
        mean, cov = project_pose_to_antennas(state, np.zeros((1, 2)))
        assert np.allclose(mean[0, 0], [1.0, 2.0, 5.0])
        assert np.allclose(cov[0, 0], cp, atol=1e-18)

    def test_linearized_covariance_formula(self):
        rng = np.random.default_rng(2)
        state = init_messages(1, 1, 1)
        theta = rng.uniform(-1, 1, 3)
        q = rng.normal(0, 0.05, 2)
        state.pose_mean[0, 0, :3] = rng.normal(0, 2, 3)
        state.pose_mean[0, 0, 3:] = theta
        cp = _rand_spd(rng) * 1e-4
        ca = _rand_spd(rng) * 1e-4
        state.pose_cov_p[0, 0] = cp
        state.pose_cov_theta[0, 0] = ca
        _, cov = project_pose_to_antennas(state, q[None])
        deriv = rotation_basis_derivatives(theta)
        q_mat = np.stack([deriv[a] @ q for a in range(3)], axis=1)
        assert np.allclose(cov[0, 0], cp + q_mat @ ca @ q_mat.T, atol=1e-15)

    def test_every_cell_matches_the_per_cell_formula(self):
        rng = np.random.default_rng(4)
        state = init_messages(1, 2, 5)
        state.pose_mean[:] = np.concatenate(
            [rng.normal(0, 2, (2, 5, 3)), rng.uniform(-3, 3, (2, 5, 3))], axis=-1
        )
        state.pose_cov_p[:] = [[_rand_spd(rng) * 1e-4 for _ in range(5)] for _ in range(2)]
        state.pose_cov_theta[:] = [[_rand_spd(rng) * 1e-4 for _ in range(5)] for _ in range(2)]
        q = rng.normal(0, 0.05, (5, 2))
        mean, cov = project_pose_to_antennas(state, q)
        assert mean.shape == (2, 5, 3) and cov.shape == (2, 5, 3, 3)
        for k, t in np.ndindex(2, 5):
            pose = state.pose_mean[k, t]
            deriv = rotation_basis_derivatives(pose[3:])
            q_mat = np.stack([deriv[a] @ q[t] for a in range(3)], axis=1)
            expected = state.pose_cov_p[k, t] + q_mat @ state.pose_cov_theta[k, t] @ q_mat.T
            offset = rotation_bases(pose[None, 3:])[0][0] @ q[t]
            assert np.allclose(mean[k, t], pose[:3] + offset, rtol=0.0, atol=1e-14)
            assert np.allclose(cov[k, t], expected, rtol=1e-12, atol=1e-18)
            assert np.array_equal(cov[k, t], cov[k, t].T)


class TestFeedback:
    def test_single_subarray_passthrough(self):
        sc = desk_scale_scenario()
        plan = uniform_partition(sc.bs, 1, 1, sc.lam)
        state = init_messages(1, 1, 1)
        state.eta_mean[0, 0] = [1.0, 2.0, 3.0]
        state.eta_cov[0, 0] = np.diag([1.0, 2.0, 3.0])
        feedback_messages(state, plan, sc.nominal_range)
        assert np.allclose(state.prior_mean[0, 0, 0], [1.0, 2.0, 3.0])
        assert np.allclose(state.prior_cov[0, 0, 0], np.diag([1.0, 2.0, 3.0]))

    def test_flat_leave_one_out_dropped(self):
        sc, plan = desk_setup()
        state = init_messages(plan.n_subarrays, 1, 1)
        state.eta_mean[0, 0] = [0.5, 0.5, 5.0]
        state.eta_cov[0, 0] = 0.01 * np.eye(3)
        flags = feedback_messages(state, plan, sc.nominal_range)
        assert (0, "gamma_flat_m0k0t0") in flags
        assert np.allclose(state.prior_mean[0, 0, 0], [0.5, 0.5, 5.0])

    def test_fit_behind_bs_plane_dropped(self):
        """A leave-one-out fit started at the mirror image of the antenna
        behind the BS plane ends there (cosines see z only through |z|);
        as in fusion it is diverged, so the pose-projected belief stands
        in its place and the stage flags it."""
        sc, plan = desk_setup()
        p_true = np.array([0.7, -0.5, 6.0])
        refs = plan.reference_positions()
        state = init_messages(plan.n_subarrays, 1, 1)
        for m in range(plan.n_subarrays):
            state.ext_chi[m, 0, 0] = np.pi * np.array(aoa_cosines(p_true, refs[m]))
            state.ext_kappa[m, 0, 0] = 1e7
        state.fused_mean[0, 0] = p_true * [1.0, 1.0, -1.0]
        state.eta_mean[0, 0] = p_true + 1e-3
        state.eta_cov[0, 0] = 1e-6 * np.eye(3)
        flags = feedback_messages(state, plan, sc.nominal_range)
        count = plan.n_subarrays
        assert flags == [(0, f"gamma_diverged_m{m}k0t0") for m in range(count)]
        assert np.array_equal(state.prior_mean[:, 0, 0], np.tile(p_true + 1e-3, (count, 1)))
        assert np.array_equal(state.prior_cov[:, 0, 0], np.tile(1e-6 * np.eye(3), (count, 1, 1)))

    def test_combination_matches_closed_form(self):
        # exact extrinsic geometry: the leave-one-out fit is concentrated,
        # and the information-form combination must match the closed-form
        # two-Gaussian product of the eta belief and the fitted Gamma
        sc, plan = desk_setup()
        rng = np.random.default_rng(3)
        p_true = np.array([0.7, -0.5, 6.0])
        refs = plan.reference_positions()
        state = init_messages(plan.n_subarrays, 1, 1)
        for m in range(plan.n_subarrays):
            state.ext_chi[m, 0, 0] = np.pi * np.array(aoa_cosines(p_true, refs[m]))
            state.ext_kappa[m, 0, 0] = 1e7
        state.fused_mean[0, 0] = p_true + rng.normal(0, 1e-4, 3)
        state.fused_ok[0, 0] = True
        eta_mean = p_true + rng.normal(0, 1e-3, 3)
        eta_cov = _rand_spd(rng) * 1e-6
        state.eta_mean[0, 0] = eta_mean
        state.eta_cov[0, 0] = eta_cov
        flags = feedback_messages(state, plan, sc.nominal_range)
        assert flags == []
        # reproduce Gamma independently and combine in closed form
        keep = [m for m in range(plan.n_subarrays) if m != 2]
        args = (refs[keep], state.ext_chi[keep, 0, 0], state.ext_kappa[keep, 0, 0])
        fit = laplace_fit(
            lambda p: composite_vm_value(p, *args),
            state.fused_mean[0, 0],
            grad=lambda p: composite_vm_terms(p, *args)[1],
            hess=lambda p: composite_vm_terms(p, *args)[2],
        )
        lam = np.linalg.inv(eta_cov) + np.linalg.inv(fit.cov)
        cov = np.linalg.inv(lam)
        mean = cov @ (
            np.linalg.solve(eta_cov, eta_mean) + np.linalg.solve(fit.cov, fit.mean)
        )
        assert np.allclose(state.prior_cov[2, 0, 0], cov, rtol=1e-8)
        assert np.allclose(state.prior_mean[2, 0, 0], mean, rtol=1e-8)


class TestEngineEndToEnd:
    def test_noiseless_single_ms(self):
        sc, plan = desk_setup()
        sc = replace(sc, noise_power_w=1e-18)
        rng = np.random.default_rng(4)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        est = engine.run(sig, sc, plan)[0]
        # residual is the plane-wave-per-subarray model bias at this range
        assert np.linalg.norm(est.position - poses[0].position) < 0.02
        r_true = rotation_basis(poses[0].attitude).matrix
        assert np.sum((r_true - est.basis.matrix) ** 2) / 2 < 1e-6

    def test_deterministic_replay(self):
        sc, plan = desk_setup()
        rng = np.random.default_rng(5)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        a = engine.run(sig, sc, plan)[0]
        b = engine.run(sig, sc, plan)[0]
        assert np.array_equal(a.position, b.position)
        assert a.attitude.as_array().tolist() == b.attitude.as_array().tolist()

    def test_single_ms_runs_one_iteration(self):
        sc, _ = desk_setup()
        assert engine.iteration_count(None, sc.num_ms) == 1
        assert engine.iteration_count(None, desk_scale_scenario(num_ms=3).num_ms) == 5

    def test_translation_equivariance(self):
        sc, plan = desk_setup(tx_power_dbm=20.0)
        rng = np.random.default_rng(6)
        base = draw_poses(sc, rng)[0]
        shift = np.array([0.4, -0.3, 0.5])
        shifted = Pose(base.position + shift, base.attitude)
        sc_a = replace(sc, poses=(base,))
        sc_b = replace(sc, poses=(shifted,))
        sig_a = simulate_received(sc_a, np.random.default_rng(7), [base])
        sig_b = simulate_received(sc_b, np.random.default_rng(7), [shifted])
        est_a = engine.run(sig_a, sc_a, plan)[0]
        est_b = engine.run(sig_b, sc_b, plan)[0]
        delta = est_b.position - est_a.position
        # solver tolerance: both scenes carry their own estimation error,
        # so agreement is at the per-scene error scale, not machine epsilon
        assert np.linalg.norm(delta - shift) < 0.3

    def test_leave_one_out_messages(self):
        from nearfield_pae.geometry import TransmitPattern

        sc, plan = desk_setup(tx_power_dbm=20.0)
        pattern = TransmitPattern(((1, 1), (16, 16)), 16, 16)
        sc = replace(sc, pattern=pattern)
        rng = np.random.default_rng(8)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        q = sc.pattern.local_positions(sc.ms, sc.lam)

        def pose_message_t0(signal):
            state = init_messages(plan.n_subarrays, 1, 2)
            state.flags += engine.aoa_module_pass(state, signal, plan, sc)
            fuse_antenna_position(state, plan, sc.nominal_range)
            update_pose_messages(state, q)
            return state.pose_mean[0, 0].copy()

        baseline_msg = pose_message_t0(sig)
        perturbed = sig.samples.copy()
        perturbed[:, 0] += 1e-3 * np.exp(1j * 0.7)
        from nearfield_pae.channel import ReceivedSignal

        perturbed_msg = pose_message_t0(ReceivedSignal(perturbed))
        assert np.array_equal(baseline_msg, perturbed_msg)

    def test_emitted_covariances_psd(self):
        sc, plan = desk_setup(tx_power_dbm=10.0)
        rng = np.random.default_rng(9)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        est = engine.run(sig, sc, plan)[0]
        for cov in (est.cov_position, est.cov_attitude):
            assert np.allclose(cov, cov.T)
            assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)

    def test_multi_ms_position_recovery(self):
        sc = desk_scale_scenario(num_ms=3, tx_power_dbm=20.0)
        plan = uniform_partition(sc.bs, 4, 4, sc.lam)
        rng = np.random.default_rng(0)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        ests = engine.run(sig, sc, plan)
        from nearfield_pae.harness import trial_errors

        sq_pos, _ = trial_errors(ests, poses)
        # summed over three MSs; each is bound-limited near ~0.3 m here
        assert np.sqrt(sq_pos) < 1.5

    def test_signal_shape_checked(self):
        sc, plan = desk_setup()
        from nearfield_pae.channel import ReceivedSignal

        with pytest.raises(ValueError, match="signal shape"):
            engine.run(ReceivedSignal(np.zeros((3, 2), dtype=complex)), sc, plan)


class TestRunFlags:
    def test_collinear_pattern_flag_reaches_estimate(self):
        # rotation about the line through three collinear antennas is
        # unobservable; the pose-message stage flags it
        sc = replace(
            desk_scale_scenario(tx_power_dbm=20.0),
            pattern=TransmitPattern(((1, 1), (8, 1), (16, 1)), 16, 16),
            noise_power_w=1e-18,
        )
        plan = uniform_partition(sc.bs, 4, 4, sc.lam)
        rng = np.random.default_rng(0)
        poses = draw_poses(sc, rng)
        est = engine.run(simulate_received(sc, rng, poses), sc, plan)[0]
        assert any(name.startswith("pose_near_singular_k0") for name in est.flags)

    def test_stage_flags_go_to_their_ms(self):
        # an empty signal leaves every composite without a usable mode:
        # flat (the angle stage's extrinsic concentrations are rounding,
        # below 1e-14), or fitted and flagged
        sc, plan = desk_setup(num_ms=2)
        silent = ReceivedSignal(np.zeros((sc.bs.n_antennas, sc.n_slots), dtype=complex))
        ests = engine.run(silent, sc, plan)
        for k, est in enumerate(ests):
            assert any(name.startswith(("flat_composite", "fusion_")) for name in est.flags)
            assert len(set(est.flags)) == len(est.flags)
            other = 1 - k
            assert not any(f"k{other}t" in name for name in est.flags)


class TestMultiMsRobustness:
    """Low-SNR multi-MS scenes: the estimator may miss, but it must return
    finite poses for every MS without raising."""

    @pytest.mark.parametrize("num_ms", [2, 3])
    @pytest.mark.parametrize("tx_power_dbm", [0.0, 5.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_returns_finite_poses(self, num_ms, tx_power_dbm, seed):
        sc, plan = desk_setup(num_ms=num_ms, tx_power_dbm=tx_power_dbm)
        rng = np.random.default_rng(np.random.SeedSequence([seed, num_ms, int(tx_power_dbm)]))
        poses = draw_poses(sc, rng)
        ests = engine.run(simulate_received(sc, rng, poses), sc, plan)
        assert len(ests) == num_ms
        for est in ests:
            assert np.all(np.isfinite(est.position))
            assert np.all(np.isfinite(est.basis.matrix))


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestBenchmarkHooks:
    """The benchmark's tracer wraps engine, baseline and bound attributes
    by name and reads each Laplace fit; a refactor that renames them
    breaks ``--trace 1``, and one that calls a layer through a local
    binding makes its metrics read 0. No stage calls
    ``engine.laplace_fit`` any more, but the tracer still wraps it, so it
    must still install."""

    HOOKS = (
        "aoa_module_pass",
        "fuse_antenna_position",
        "update_pose_messages",
        "feedback_messages",
        "final_map",
        "estimate_aoa_posteriors",
        "laplace_fit",
        "composite_vm_value",
    )
    REFERENCE_HOOKS = (
        (baseline, "farfield_aoa"),
        (baseline, "pose_from_aoas"),
        (mcrb, "pseudotrue_fit"),
        (mcrb, "information_matrices"),
        (mcrb, "lower_bound"),
        (mcrb, "reduced_embedding"),
    )

    def test_tracer_install_and_uninstall(self):
        tracing = _perfbench_tracing()
        originals = {name: getattr(engine, name) for name in self.HOOKS}
        sc, plan = desk_setup(tx_power_dbm=20.0)
        rng = np.random.default_rng(4)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            engine.run(sig, sc, plan)
        finally:
            tracer.uninstall()
        assert all(getattr(engine, name) is originals[name] for name in self.HOOKS)
        _, calls = tracer.totals()
        for name in self.HOOKS[:-1]:
            # one MS: no feedback stage; no stage calls laplace_fit
            if name not in ("feedback_messages", "laplace_fit"):
                assert calls[f"engine.{name}"] >= 1, name
        assert tracer.counts["composite_evals"] >= 1
        assert tracer.counts["laplace_converged"] == calls["engine.laplace_fit"]

    def test_reference_hooks_record_calls(self):
        """`run_baseline` and `compute_bound` reach every baseline and
        bound layer the tracer wraps through the module attribute, once
        per trial for the stacked `farfield_aoa`; the bound never builds
        the dense `reduced_embedding`, whose hook must still install."""
        tracing = _perfbench_tracing()
        originals = {(mod, name): getattr(mod, name) for mod, name in self.REFERENCE_HOOKS}
        sc, plan = desk_setup(tx_power_dbm=20.0, distance_range=(1.5, 2.5))
        rng = np.random.default_rng(np.random.SeedSequence([0, 0, 0]))
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_baseline(sig, sc)
            compute_bound(poses, sc, plan)
        finally:
            tracer.uninstall()
        assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())
        _, calls = tracer.totals()
        assert calls["baseline.farfield_aoa"] == 1
        for mod, name in self.REFERENCE_HOOKS[:-1]:
            assert calls[f"{mod.__name__.split('.')[-1]}.{name}"] >= 1, name
        assert calls["mcrb.reduced_embedding"] == 0


class TestSingularCurvatureRegression:
    """Seeded trials whose Newton polish once solved with a numerically
    singular capped Hessian and raised LinAlgError."""

    @staticmethod
    def run_seeded(sc, plan, rng):
        poses = draw_poses(sc, rng)
        ests = engine.run(simulate_received(sc, rng, poses), sc, plan)
        assert len(ests) == sc.num_ms
        for est in ests:
            assert np.all(np.isfinite(est.position))
            assert np.all(np.isfinite(est.basis.matrix))

    def test_unpartitioned_array_at_60_dbm(self):
        # acceptance criterion 9: M = 1, 60 dBm (seed 901, point 2, trial 0)
        sc = desk_scale_scenario(tx_power_dbm=60.0)
        plan = uniform_partition(sc.bs, 1, 1, sc.lam)
        self.run_seeded(sc, plan, np.random.default_rng(np.random.SeedSequence([901, 2, 0])))

    def test_two_ms_at_0_dbm(self):
        sc, plan = desk_setup(num_ms=2, tx_power_dbm=0.0)
        self.run_seeded(sc, plan, np.random.default_rng(3))


class TestFinalMap:
    def test_exact_inputs_recover_pose(self):
        sc, _ = desk_setup()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([-1.0, 1.5, 7.0]), EulerAngles(-0.9, 0.5, -2.2))
        basis = rotation_basis(pose.attitude).matrix
        obs = pose.position[None, :] + (basis @ q.T).T
        state = init_messages(1, 1, len(q))
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e10 * np.eye(3), (len(q), 1, 1))
        state.fused_ok[0] = True
        est = final_map(state, q)[0]
        assert np.linalg.norm(est.position - pose.position) < 1e-6
        assert np.allclose(est.basis.matrix, basis, atol=1e-6)

    def test_concentrated_prior_dominates_uninformative_data(self):
        sc, _ = desk_setup()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        target = np.array([0.3, -0.4, 5.0])
        prior = PosePrior(1e-6, np.array([0.2, 0.6, -0.4]), np.full(3, 1e10))
        obs = target[None, :] + np.zeros((len(q), 3))
        weights = np.tile(1e-12 * np.eye(3), (len(q), 1, 1))
        fit = engine.pose_fits(
            obs[None], weights[None], q, prior, procrustes_pose(obs, q)[None]
        ).problem(0)
        attitude = canonicalize_euler(fit.mean[3:])
        assert np.linalg.norm(fit.mean[:3]) < 1e-4
        assert attitude.roll == pytest.approx(0.2, abs=1e-4)
        assert attitude.pitch == pytest.approx(0.3, abs=1e-4)
        assert attitude.yaw == pytest.approx(-0.4, abs=1e-4)

    def test_stacked_fit_equals_one_problem_fits(self):
        """K=2: each MS's MAP equals a one-problem `newton_fits` from the
        better start by `pose_terms`, with the same flags. The weights
        hardly see depth (z), so each pose and its tilt mirrored about the
        xy-plane are two local maxima, and each MS's starts lie in
        different ones: the start rule decides the result."""
        sc, _ = desk_setup(num_ms=2)
        q = sc.pattern.local_positions(sc.ms, sc.lam)

        def antennas(x):
            return x[:3] + q @ rotation_basis(EulerAngles(*x[3:])).matrix.T

        def mirrored(x):
            basis = np.diag([1.0, 1.0, -1.0]) @ rotation_basis(EulerAngles(*x[3:])).matrix
            rot = np.column_stack([basis, np.cross(basis[:, 0], basis[:, 1])])
            return np.concatenate([x[:3], euler_from_rotation(rot).as_array()])

        truths = (
            np.array([0.4, -0.3, 2.0, 0.5, -0.2, 1.1]),
            np.array([-0.6, 0.2, 1.8, -2.0, 0.4, -0.7]),
        )
        state = init_messages(1, 2, len(q))
        state.have_pose = True
        state.fused_prec[:] = np.diag([1e8, 1e8, 1e-2])
        # MS 0: exact positions, so the alignment fit is exact; its pose
        # message holds the mirrored tilt
        state.fused_mean[0] = antennas(truths[0])
        state.pose_mean[0] = mirrored(truths[0])
        # MS 1: mirrored depths on all antennas but the first, whose depth
        # is true and well weighted; the unweighted alignment fit leads to
        # the mirrored tilt, and the true pose, its pose message, scores higher
        state.fused_mean[1] = antennas(truths[1])
        state.fused_mean[1, 1:, 2] = antennas(mirrored(truths[1]))[1:, 2]
        state.fused_prec[1, 0] = np.diag([1e8, 1e8, 1e6])
        state.pose_mean[1] = truths[1]
        ests = final_map(state, q)
        prior = POSE_PRIOR
        chosen = []
        for k, est in enumerate(ests):
            args = (state.fused_mean[k][None], state.fused_prec[k][None], q, prior)
            starts = np.array([procrustes_pose(state.fused_mean[k], q), state.pose_mean[k, 0]])
            chosen.append(int(np.argmax([pose_terms(x[None], *args, order=0)[0] for x in starts])))
            fit = newton_fits(
                lambda x, _: pose_terms(x, *args, order=0),
                lambda x, _: pose_terms(x, *args),
                starts[chosen[-1]][None],
            ).problem(0)
            assert np.array_equal(est.position, fit.mean[:3])
            attitude = canonicalize_euler(fit.mean[3:])
            assert np.array_equal(est.attitude.as_array(), attitude.as_array())
            assert np.array_equal(est.cov_position, fit.cov[:3, :3])
            assert np.array_equal(est.cov_attitude, fit.cov[3:, 3:])
            expected = ("final_map_nonconverged",) * (not fit.converged) + (
                "final_map_regularized",
            ) * fit.regularized
            assert est.converged == fit.converged and est.flags == expected
        assert chosen == [0, 1]
