import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nearfield_pae import engine
from nearfield_pae.channel import (
    ReceivedSignal,
    desk_scale_scenario,
    draw_poses,
    simulate_received,
)
from nearfield_pae.circular import finite_diff_gradient, finite_diff_hessian, laplace_fit
from nearfield_pae.engine import (
    EstimatorConfig,
    PosePrior,
    composite_fits,
    composite_vm_grad,
    composite_vm_terms,
    composite_vm_value,
    feedback_messages,
    final_map,
    fuse_antenna_position,
    init_messages,
    pose_gradient,
    pose_hessian,
    pose_objective,
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
    rotation_basis,
    rotation_matrix_from_theta,
)
from nearfield_pae.partition import uniform_partition


def default_prior():
    return PosePrior(1e3, np.zeros(3), np.full(3, 1e-6))


def desk_setup(num_ms=1, **kwargs):
    sc = desk_scale_scenario(num_ms=num_ms, **kwargs)
    plan = uniform_partition(sc.bs, 4, 4, sc.lam)
    return sc, plan


class TestInitMessages:
    def test_default_initialization(self):
        cfg = EstimatorConfig()
        state = init_messages(4, 2, 3, cfg)
        assert state.prior_mean.shape == (4, 2, 3, 3)
        assert np.allclose(state.prior_mean[..., :2], 0.0)
        assert np.allclose(state.prior_mean[..., 2], 1.0)
        assert np.allclose(state.prior_cov[0, 0, 0], cfg.sigma_ini**2 * np.eye(3))
        assert np.all(state.prior_cov == state.prior_cov[0, 0, 0])

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(ValueError):
            init_messages(1, 1, 1, EstimatorConfig(sigma_ini=0.0))

    def test_empty_state(self):
        state = init_messages(2, 0, 3, EstimatorConfig())
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

    def test_stacked_solve_equals_single_solves(self):
        rng = np.random.default_rng(13)
        refs = rng.normal(0, 0.1, (5, 3))
        refs[:, 2] = 0.0
        count = 12
        truth = rng.normal(0, 1, (count, 3)) + np.array([0, 0, 5.0])
        chis = np.array(
            [[np.pi * np.array(aoa_cosines(p, r)) for r in refs] for p in truth]
        ) + rng.normal(0, 0.01, (count, 5, 2))
        kappas = rng.uniform(10, 1e5, (count, 5, 2))
        kappas[3, 1:] = 0.0  # one problem left with a single subarray
        inits = truth + rng.normal(0, 0.05, (count, 3))
        cfg = EstimatorConfig()
        stacked = composite_fits(refs, chis, kappas, inits, cfg.ga)
        for b in range(count):
            args = (refs, chis[b], kappas[b])
            single = laplace_fit(
                lambda p: composite_vm_value(p, *args),
                inits[b],
                grad=lambda p: composite_vm_terms(p, *args)[1],
                hess=lambda p: composite_vm_terms(p, *args)[2],
                opts=cfg.ga,
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

        cfg = EstimatorConfig(nominal_range=5.0).resolve(
            desk_scale_scenario(distance_range=(4.0, 6.0))
        )
        sc, plan = desk_setup()
        state = init_messages(2, 1, 1, cfg)
        state.ext_chi[:, 0, 0] = chis
        state.ext_kappa[:, 0, 0] = kappas
        plan2 = _FakePlan(refs)
        fuse_antenna_position(state, plan2, cfg)
        assert state.fused_ok[0, 0]
        assert np.linalg.norm(state.fused_mean[0, 0] - p_true) < 1e-4

    def test_flat_composite_flagged(self):
        cfg = EstimatorConfig().resolve(desk_scale_scenario())
        state = init_messages(2, 1, 1, cfg)
        plan2 = _FakePlan(np.array([[-0.08, 0, 0], [0.08, 0, 0]]))
        flags = fuse_antenna_position(state, plan2, cfg)
        assert not state.fused_ok[0, 0]
        assert (0, "flat_composite_k0t0") in flags
        assert np.allclose(np.diag(np.linalg.inv(state.fused_prec[0, 0])), cfg.sigma_ini**2)

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
        for _ in range(100):
            x = np.concatenate([rng.normal(0, 2, 3), rng.uniform(-1.2, 1.2, 3)])
            g = pose_gradient(x, obs, weights, q, prior)
            fd = finite_diff_gradient(
                lambda v: pose_objective(v, obs, weights, q, prior), x
            )
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(14)
        q = rng.normal(0, 0.05, (4, 2))
        prior = PosePrior(50.0, np.array([0.1, -0.2, 0.3]), np.array([2.0, 1.0, 3.0]))
        # observations that no pose fits exactly, so the residual term counts
        obs = rng.normal(0, 1, (4, 3)) + np.array([0, 0, 5.0])
        weights = np.array([_rand_spd(rng) for _ in range(4)])
        for _ in range(50):
            x = np.concatenate([rng.normal(0, 2, 3), rng.uniform(-1.2, 1.2, 3)])
            hess = pose_hessian(x, obs, weights, q, prior)
            fd = np.array(
                [
                    finite_diff_gradient(
                        lambda v: pose_gradient(v, obs, weights, q, prior)[i], x
                    )
                    for i in range(6)
                ]
            )
            assert np.allclose(hess, hess.T)
            assert np.max(np.abs(hess - fd)) <= 1e-5 * max(1.0, np.max(np.abs(hess)))

    def test_noiseless_pose_recovery(self):
        sc, _ = desk_setup()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([1.0, -2.0, 6.0]), EulerAngles(0.7, -0.4, 2.1))
        obs, weights = self.build_obs(pose, q)
        cfg = EstimatorConfig().resolve(sc)
        state = init_messages(1, 1, len(q), cfg)
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e8 * np.eye(3), (len(q), 1, 1))
        state.fused_ok[0] = True
        update_pose_messages(state, q, cfg)
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
        cfg = EstimatorConfig().resolve(sc)
        state = init_messages(1, 1, len(q), cfg)
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e8 * np.eye(3), (len(q), 1, 1))
        state.fused_ok[0] = True
        update_pose_messages(state, q, cfg)
        basis = rotation_matrix_from_theta(state.pose_mean[0, 0, 3:])
        assert np.allclose(basis, np.eye(3)[:, :2], atol=1e-6)

    def test_collinear_pattern_flagged(self):
        # three antennas on a line: rotation about that line unobservable
        q = np.array([[-0.04, 0.0], [0.0, 0.0], [0.04, 0.0]])
        pose = Pose(np.array([0.0, 0.0, 5.0]), EulerAngles(0, 0, 0))
        obs = pose.position[None, :] + np.pad(q, ((0, 0), (0, 1)))
        cfg = EstimatorConfig().resolve(desk_scale_scenario())
        state = init_messages(1, 1, 3, cfg)
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e8 * np.eye(3), (3, 1, 1))
        state.fused_ok[0] = True
        flags = update_pose_messages(state, q, cfg)
        assert any("pose_near_singular" in name for _, name in flags)
        # the unobservable direction keeps a huge variance
        assert np.max(np.diag(state.pose_cov_theta[0, 0])) > 1e5


def _rand_spd(rng):
    a = rng.normal(size=(3, 3))
    return a @ a.T + 3 * np.eye(3)


class TestProjection:
    def test_zero_attitude_covariance(self):
        cfg = EstimatorConfig().resolve(desk_scale_scenario())
        state = init_messages(1, 1, 1, cfg)
        state.pose_mean[0, 0] = [1.0, 2.0, 5.0, 0.3, -0.2, 0.9]
        cp = np.diag([1e-4, 2e-4, 3e-4])
        state.pose_cov_p[0, 0] = cp
        state.pose_cov_theta[0, 0] = np.zeros((3, 3))
        belief = project_pose_to_antennas(state, 0, 0, np.array([0.05, -0.02]))
        assert np.allclose(belief.cov, cp, atol=1e-18)

    def test_center_antenna_passthrough(self):
        cfg = EstimatorConfig().resolve(desk_scale_scenario())
        state = init_messages(1, 1, 1, cfg)
        state.pose_mean[0, 0] = [1.0, 2.0, 5.0, 0.3, -0.2, 0.9]
        cp = np.diag([1e-4, 2e-4, 3e-4])
        ca = np.diag([1e-2, 1e-2, 1e-2])
        state.pose_cov_p[0, 0] = cp
        state.pose_cov_theta[0, 0] = ca
        belief = project_pose_to_antennas(state, 0, 0, np.zeros(2))
        assert np.allclose(belief.mean, [1.0, 2.0, 5.0])
        assert np.allclose(belief.cov, cp, atol=1e-18)

    def test_linearized_covariance_formula(self):
        rng = np.random.default_rng(2)
        cfg = EstimatorConfig().resolve(desk_scale_scenario())
        state = init_messages(1, 1, 1, cfg)
        theta = rng.uniform(-1, 1, 3)
        q = rng.normal(0, 0.05, 2)
        state.pose_mean[0, 0, :3] = rng.normal(0, 2, 3)
        state.pose_mean[0, 0, 3:] = theta
        cp = _rand_spd(rng) * 1e-4
        ca = _rand_spd(rng) * 1e-4
        state.pose_cov_p[0, 0] = cp
        state.pose_cov_theta[0, 0] = ca
        belief = project_pose_to_antennas(state, 0, 0, q)
        from nearfield_pae.geometry import rotation_basis_derivatives

        deriv = rotation_basis_derivatives(theta)
        q_mat = np.stack([deriv[a] @ q for a in range(3)], axis=1)
        assert np.allclose(belief.cov, cp + q_mat @ ca @ q_mat.T, atol=1e-15)


class TestFeedback:
    def test_single_subarray_passthrough(self):
        sc = desk_scale_scenario()
        cfg = EstimatorConfig().resolve(sc)
        plan = uniform_partition(sc.bs, 1, 1, sc.lam)
        state = init_messages(1, 1, 1, cfg)
        state.eta_mean[0, 0] = [1.0, 2.0, 3.0]
        state.eta_cov[0, 0] = np.diag([1.0, 2.0, 3.0])
        feedback_messages(state, plan, cfg)
        assert np.allclose(state.prior_mean[0, 0, 0], [1.0, 2.0, 3.0])
        assert np.allclose(state.prior_cov[0, 0, 0], np.diag([1.0, 2.0, 3.0]))

    def test_flat_leave_one_out_dropped(self):
        sc, plan = desk_setup()
        cfg = EstimatorConfig().resolve(sc)
        state = init_messages(plan.n_subarrays, 1, 1, cfg)
        state.eta_mean[0, 0] = [0.5, 0.5, 5.0]
        state.eta_cov[0, 0] = 0.01 * np.eye(3)
        flags = feedback_messages(state, plan, cfg)
        assert (0, "gamma_flat_m0k0t0") in flags
        assert np.allclose(state.prior_mean[0, 0, 0], [0.5, 0.5, 5.0])

    def test_combination_matches_closed_form(self):
        # exact extrinsic geometry: the leave-one-out fit is concentrated,
        # and the information-form combination must match the closed-form
        # two-Gaussian product of the eta belief and the fitted Gamma
        sc, plan = desk_setup()
        cfg = EstimatorConfig().resolve(sc)
        rng = np.random.default_rng(3)
        p_true = np.array([0.7, -0.5, 6.0])
        refs = plan.reference_positions()
        state = init_messages(plan.n_subarrays, 1, 1, cfg)
        for m in range(plan.n_subarrays):
            state.ext_chi[m, 0, 0] = np.pi * np.array(aoa_cosines(p_true, refs[m]))
            state.ext_kappa[m, 0, 0] = 1e7
        state.fused_mean[0, 0] = p_true + rng.normal(0, 1e-4, 3)
        state.fused_ok[0, 0] = True
        eta_mean = p_true + rng.normal(0, 1e-3, 3)
        eta_cov = _rand_spd(rng) * 1e-6
        state.eta_mean[0, 0] = eta_mean
        state.eta_cov[0, 0] = eta_cov
        flags = feedback_messages(state, plan, cfg)
        assert flags == []
        # reproduce Gamma independently and combine in closed form
        keep = [m for m in range(plan.n_subarrays) if m != 2]
        from nearfield_pae.circular import laplace_fit

        args = (refs[keep], state.ext_chi[keep, 0, 0], state.ext_kappa[keep, 0, 0])
        fit = laplace_fit(
            lambda p: composite_vm_value(p, *args),
            state.fused_mean[0, 0],
            grad=lambda p: composite_vm_terms(p, *args)[1],
            hess=lambda p: composite_vm_terms(p, *args)[2],
            opts=cfg.ga,
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
        cfg = EstimatorConfig().resolve(sc)
        assert cfg.iterations == 1
        sc3 = desk_scale_scenario(num_ms=3)
        assert EstimatorConfig().resolve(sc3).iterations == 5

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
        cfg = EstimatorConfig().resolve(sc)
        q = sc.pattern.local_positions(sc.ms, sc.lam)

        def pose_message_t0(signal):
            state = init_messages(plan.n_subarrays, 1, 2, cfg)
            state.flags += engine.aoa_module_pass(state, signal, plan, sc, cfg)
            fuse_antenna_position(state, plan, cfg)
            update_pose_messages(state, q, cfg)
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
        # an empty signal leaves every composite without a usable mode
        sc, plan = desk_setup(num_ms=2)
        silent = ReceivedSignal(np.zeros((sc.bs.n_antennas, sc.n_slots), dtype=complex))
        ests = engine.run(silent, sc, plan)
        for k, est in enumerate(ests):
            assert any(name.startswith("fusion_") for name in est.flags)
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


class TestBenchmarkHooks:
    """The benchmark's tracer wraps engine attributes by name and reads
    each Laplace fit; a refactor that renames them breaks ``--trace 1``."""

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

    def test_tracer_install_and_uninstall(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
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
            if name != "feedback_messages":  # one MS: no feedback stage
                assert calls[f"engine.{name}"] >= 1, name
        assert tracer.counts["composite_evals"] >= 1
        assert tracer.counts["laplace_converged"] == calls["engine.laplace_fit"]


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
        cfg = EstimatorConfig().resolve(sc)
        state = init_messages(1, 1, len(q), cfg)
        state.fused_mean[0] = obs
        state.fused_prec[0] = np.tile(1e10 * np.eye(3), (len(q), 1, 1))
        state.fused_ok[0] = True
        est = final_map(state, q, cfg)[0]
        assert np.linalg.norm(est.position - pose.position) < 1e-6
        assert np.allclose(est.basis.matrix, basis, atol=1e-6)

    def test_concentrated_prior_dominates_uninformative_data(self):
        sc, _ = desk_setup()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        target = np.array([0.3, -0.4, 5.0])
        cfg = replace(
            EstimatorConfig(
                position_prior_std=1e-6,
                attitude_prior_chi=(0.2, 0.6, -0.4),
                attitude_prior_kappa=(1e10, 1e10, 1e10),
            )
        ).resolve(sc)
        state = init_messages(1, 1, len(q), cfg)
        state.fused_mean[0] = target[None, :] + np.zeros((len(q), 3))
        state.fused_prec[0] = np.tile(1e-12 * np.eye(3), (len(q), 1, 1))
        est = final_map(state, q, cfg)[0]
        assert np.linalg.norm(est.position) < 1e-4
        assert est.attitude.roll == pytest.approx(0.2, abs=1e-4)
        assert est.attitude.pitch == pytest.approx(0.3, abs=1e-4)
        assert est.attitude.yaw == pytest.approx(-0.4, abs=1e-4)
