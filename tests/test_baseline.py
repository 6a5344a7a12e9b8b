import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, strategies as st

from nearfield_pae.baseline import (
    _START_ATTITUDES,
    cosine_fit_terms,
    farfield_aoa,
    pose_from_aoas,
    run_baseline,
)
from nearfield_pae.channel import (
    ReceivedSignal,
    desk_scale_scenario,
    draw_poses,
    simulate_received,
)
from nearfield_pae.circular import newton_fits
from nearfield_pae.geometry import (
    EulerAngles,
    Pose,
    UraSpec,
    aoa_cosines,
    canonicalize_euler,
    ms_antenna_global_position,
    ray_from_cosines,
    rotation_bases,
    rotation_basis,
)
from oracles import finite_diff_gradient, finite_diff_hessian

SIGW2 = 1e-10


def whole_array_steering(spec, phi):
    u = np.arange(1, spec.nx + 1)
    v = np.arange(1, spec.ny + 1)
    col = np.exp(1j * np.pi * phi[0] * u)[:, None] * np.exp(
        1j * np.pi * phi[1] * v
    )[None, :]
    # vec layout: u fastest
    return col.T.ravel()


class TestFarFieldAoa:
    def test_exact_recovery_on_plane_waves(self):
        spec = UraSpec(32, 32, 0.005)
        rng = np.random.default_rng(0)
        for _ in range(5):
            phi = rng.uniform(-0.7, 0.7, 2)
            y = 5e-4 * whole_array_steering(spec, phi)
            est = farfield_aoa(y, spec, 1, SIGW2)
            assert np.allclose(est.cosines[0, 0], phi, atol=1e-7)
            assert not est.low_power.any()

    # the periodogram grid is 4x padded, bins 1/64 apart on 32 elements:
    # a start midway between bins must still lie inside the main lobe
    @given(
        phi=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
        phase=st.floats(0.0, 2.0 * np.pi),
    )
    @example(phi=(1.0 / 128, 0.5 + 1.0 / 128), phase=0.0)
    @example(phi=(-0.9, 0.9), phase=3.0)
    def test_any_single_plane_wave_recovered(self, phi, phase):
        spec = UraSpec(32, 32, 0.005)
        y = 5e-4 * np.exp(1j * phase) * whole_array_steering(spec, phi)
        est = farfield_aoa(y, spec, 1, SIGW2)
        assert np.allclose(est.cosines[0, 0], phi, atol=1e-7)
        assert not est.low_power.any()

    def test_two_plane_waves(self):
        spec = UraSpec(32, 32, 0.005)
        phi1, phi2 = np.array([0.3, -0.2]), np.array([-0.4, 0.5])
        y = 4e-4 * whole_array_steering(spec, phi1) + 3e-4 * whole_array_steering(
            spec, phi2
        )
        ests = farfield_aoa(y, spec, 2, SIGW2)
        got = sorted(map(tuple, ests.cosines[0]))
        want = sorted([tuple(phi1), tuple(phi2)])
        assert np.allclose(got, want, atol=1e-6)

    def test_pure_noise_flagged(self):
        spec = UraSpec(16, 16, 0.005)
        rng = np.random.default_rng(1)
        y = np.sqrt(SIGW2 / 2) * (
            rng.standard_normal(spec.n_antennas)
            + 1j * rng.standard_normal(spec.n_antennas)
        )
        ests = farfield_aoa(y, spec, 2, SIGW2)
        assert ests.low_power.all()

    def test_nearfield_input_is_biased(self):
        # inside the array's near field the common-angle assumption fails;
        # record the bias relative to the true center direction
        sc = desk_scale_scenario(tx_power_dbm=20.0, distance_range=(1.0, 1.5))
        pose = Pose(np.array([0.3, -0.2, 1.2]), EulerAngles(0, 0, 0))
        sc = replace(sc, poses=(pose,), noise_power_w=0.0, fresnel_override=True)
        sig = simulate_received(sc, np.random.default_rng(2), [pose])
        est = farfield_aoa(sig.samples[:, 0], sc.bs, 1, SIGW2).cosines[0, 0]
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        ant = ms_antenna_global_position(pose, q[0])
        true_phi = np.array(aoa_cosines(ant, np.zeros(3)))
        bias = np.linalg.norm(est - true_phi)
        far = farfield_aoa(
            3e-4 * whole_array_steering(sc.bs, true_phi), sc.bs, 1, SIGW2
        ).cosines[0, 0]
        far_bias = np.linalg.norm(far - true_phi)
        assert bias > 10 * far_bias  # matched model is orders cleaner

    def test_two_waves_ranked_by_peak_metric(self):
        spec = UraSpec(16, 16, 0.005)
        phi1, phi2 = np.array([0.2, 0.1]), np.array([-0.3, -0.5])
        y = 4e-4 * whole_array_steering(spec, phi1) + 2e-4 * whole_array_steering(
            spec, phi2
        )
        ests = farfield_aoa(y, spec, 2, SIGW2)
        by_x = np.argsort(ests.cosines[0, :, 0])  # phi2 first
        assert np.allclose(ests.cosines[0, by_x[0]], phi2, atol=1e-6)
        assert np.allclose(ests.cosines[0, by_x[1]], phi1, atol=1e-6)
        assert ests.peak_metric[0, by_x[1]] > ests.peak_metric[0, by_x[0]]

    @pytest.mark.parametrize("num_ms", [1, 2])
    def test_snapshots_stacked_equal_single_calls(self, num_ms):
        """All T slots in one call give, bit for bit, what T one-column
        calls give."""
        sc = desk_scale_scenario(num_ms=num_ms, tx_power_dbm=10.0)
        rng = np.random.default_rng(np.random.SeedSequence([0, num_ms, 3]))
        samples = simulate_received(sc, rng).samples
        got = farfield_aoa(samples, sc.bs, num_ms, sc.noise_power_w)
        for t in range(sc.n_slots):
            one = farfield_aoa(samples[:, t : t + 1], sc.bs, num_ms, sc.noise_power_w)
            for name in ("cosines", "coeff", "peak_metric", "low_power"):
                assert np.array_equal(getattr(got, name)[t], getattr(one, name)[0]), (t, name)


def exact_tracks(pose, q_locals):
    """Whole-array cosines (T, 2) of the antennas at ``q_locals`` on an MS
    at ``pose``, seen from the array centre."""
    return np.array(
        [aoa_cosines(ms_antenna_global_position(pose, q), np.zeros(3)) for q in q_locals]
    )


class TestPoseFromAoas:
    def test_exact_cosines_recover_pose(self):
        sc = desk_scale_scenario()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([1.0, 2.0, 7.0]), EulerAngles(0.5, -0.3, 1.7))
        tracks = exact_tracks(pose, q)
        fitted, flags = pose_from_aoas(tracks, q, range_init=7.3)
        assert "collinear_pattern" not in flags
        assert np.linalg.norm(fitted[:3] - pose.position) < 1e-3
        assert np.allclose(
            rotation_bases(fitted[None, 3:])[0][0],
            rotation_basis(pose.attitude).matrix,
            atol=1e-3,
        )

    def test_collinear_pattern_flagged(self):
        q = np.array([[-0.04, 0.0], [0.0, 0.0], [0.04, 0.0]])
        tracks = np.tile([0.1, 0.2], (3, 1))
        pose, flags = pose_from_aoas(tracks, q, range_init=5.0)
        assert "collinear_pattern" in flags
        assert np.all(np.isfinite(pose))

    # three slots give six cosines for six unknowns, so exact cosines may
    # have several exact poses (perspective-3-point, the extra ones a tilt
    # mirrored about the line of sight); the fit must reach one of them
    @pytest.mark.parametrize(
        "attitude",
        [(0.4, -0.2, 1.1), (0.0, 0.0, 0.0), (2.5, 0.6, -2.0), (-1.0, 0.3, 0.2)],
    )
    def test_three_slot_pattern_reaches_exact_cosines(self, attitude):
        sc = desk_scale_scenario(pattern="t3", distance_range=(1.5, 2.5))
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([0.3, -0.2, 2.0]), EulerAngles(*attitude))
        tracks = exact_tracks(pose, q)
        fitted, flags = pose_from_aoas(tracks, q, range_init=2.2)
        assert flags == []
        fitted_pose = Pose(fitted[:3], canonicalize_euler(fitted[3:]))
        assert np.allclose(exact_tracks(fitted_pose, q), tracks, atol=1e-12)
        assert np.linalg.norm(fitted[:3] - pose.position) < 0.05

    @pytest.mark.parametrize("bad", [-2.0, 0.0, np.nan, np.inf])
    def test_invalid_range_init_rejected(self, bad):
        sc = desk_scale_scenario()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        tracks = np.tile([0.1, 0.2], (len(q), 1))
        with pytest.raises(ValueError, match="range_init"):
            pose_from_aoas(tracks, q, range_init=bad)


    def test_matched_model_attitude_floor(self):
        # genuinely planar wavefronts (synthesized, so the model is matched
        # regardless of range) at 20 dB per-antenna SNR: attitude NMSE must
        # sit below 1e-4; a paper-sized MS aperture gives the parallax the
        # rigid fit relies on
        sc = desk_scale_scenario(ms_n=64)
        spec = sc.bs
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        rng = np.random.default_rng(3)
        nmses = []
        for _ in range(10):
            pose = draw_poses(sc, rng)[0]
            amp = np.sqrt(100 * SIGW2)  # 20 dB per antenna
            cols = []
            for qq in q:
                ant = ms_antenna_global_position(pose, qq)
                phi = aoa_cosines(ant, np.zeros(3))
                col = amp * whole_array_steering(spec, phi)
                col += np.sqrt(SIGW2 / 2) * (
                    rng.standard_normal(col.shape)
                    + 1j * rng.standard_normal(col.shape)
                )
                cols.append(col)
            sig = ReceivedSignal(np.array(cols).T)
            est = run_baseline(sig, replace(sc, poses=(pose,)))[0]
            r_true = rotation_basis(pose.attitude).matrix
            nmses.append(np.sum((r_true - est.basis.matrix) ** 2) / 2)
        assert np.mean(nmses) < 1e-4


class TestCosineFit:
    """The pose fit's objective, its analytic derivatives and the stacked
    solve over its starts."""

    @pytest.mark.parametrize(
        "pitch",
        [0.3, np.pi / 2 - 1e-3, -np.pi / 2 + 1e-3],
        ids=["moderate", "near_plus_half_pi", "near_minus_half_pi"],
    )
    def test_derivatives_match_finite_differences(self, pitch):
        sc = desk_scale_scenario()
        # a 0.8 m aperture, so the attitude terms stand clear of rounding
        q = 10.0 * sc.pattern.local_positions(sc.ms, sc.lam)
        rng = np.random.default_rng(21)
        aoas = rng.uniform(-0.5, 0.5, (len(q), 2))
        for _ in range(3):
            x = np.concatenate(
                [
                    rng.normal(0.0, 0.5, 3) + [0.0, 0.0, 2.0],
                    [rng.uniform(-3.0, 3.0), pitch, rng.uniform(-3.0, 3.0)],
                ]
            )

            def f(y):
                return cosine_fit_terms(y[None], aoas, q, order=0)[0]

            value, grad, hess = (a[0] for a in cosine_fit_terms(x[None], aoas, q))
            assert value == pytest.approx(f(x), rel=1e-15)
            assert np.max(np.abs(grad - finite_diff_gradient(f, x))) < 1e-9
            assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-15)
            assert np.max(np.abs(hess - finite_diff_hessian(f, x))) < 2e-5

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_stacked_terms_equal_single_calls(self, seed, batch):
        rng = np.random.default_rng(seed)
        q = rng.normal(0.0, 0.05, (5, 2))
        aoas = rng.uniform(-0.5, 0.5, (5, 2))
        x = np.concatenate(
            [rng.normal(0.0, 0.5, (batch, 3)) + [0.0, 0.0, 2.0], rng.uniform(-4, 4, (batch, 3))],
            axis=1,
        )
        stacked = cosine_fit_terms(x, aoas, q)
        assert np.array_equal(stacked[0], cosine_fit_terms(x, aoas, q, order=0))
        for b in range(batch):
            for part, one in zip(stacked, cosine_fit_terms(x[b : b + 1], aoas, q)):
                assert np.max(np.abs(part[b] - one[0])) <= 1e-12 * np.max(np.abs(one[0]))

    def test_stacked_starts_equal_single_solves(self):
        sc = desk_scale_scenario(distance_range=(1.5, 2.5))
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([0.5, 0.3, 1.8]), EulerAngles(-2.0, 0.4, 0.7))
        rng = np.random.default_rng(22)
        tracks = exact_tracks(pose, q)
        tracks += rng.normal(0.0, 1e-4, tracks.shape)
        p0 = 2.0 * ray_from_cosines(tracks.mean(axis=0))
        init = np.hstack([np.tile(p0, (len(_START_ATTITUDES), 1)), _START_ATTITUDES])

        def solve(starts):
            return newton_fits(
                lambda x, _: cosine_fit_terms(x, tracks, q, order=0),
                lambda x, _: cosine_fit_terms(x, tracks, q),
                starts,
            )

        stacked = solve(init)
        singles = [solve(init[b : b + 1]).problem(0) for b in range(len(init))]
        for b, single in enumerate(singles):
            one = stacked.problem(b)
            assert one.converged and single.converged
            assert one.n_polish_steps == single.n_polish_steps
            assert np.allclose(one.mean, single.mean, rtol=1e-12, atol=1e-12)
        values = [cosine_fit_terms(s.mean[None], tracks, q, order=0)[0] for s in singles]
        fitted, flags = pose_from_aoas(tracks, q, range_init=2.0)
        assert flags == []
        assert np.allclose(fitted[:3], singles[int(np.argmax(values))].mean[:3], atol=1e-12)

    def test_stops_at_the_optimum_in_range(self):
        """At 6 m the range curvature is only about 1e-6, so a stop on
        the gradient's size (|g| < 1e-8 max(1, |f|)) left the range up to
        7e-6 m short on these poses; undamped Newton steps from the fitted
        pose, iterated until the step stops shrinking (the rounding
        floor), must not move it."""
        sc = desk_scale_scenario()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        rng = np.random.default_rng(23)
        for _ in range(4):
            pose = Pose(
                np.array([1.0, -0.5, 6.0]) + rng.normal(0.0, 0.5, 3),
                EulerAngles(*rng.uniform(-1.0, 1.0, 3)),
            )
            tracks = exact_tracks(pose, q) + rng.normal(0.0, 3e-4, (len(q), 2))
            fitted, flags = pose_from_aoas(tracks, q, range_init=6.0)
            reference = fitted.copy()
            steps = []
            for _ in range(60):
                _, grad, hess = cosine_fit_terms(reference[None], tracks, q)
                step = np.linalg.solve(hess[0], -grad[0])
                reference = reference + step
                steps.append(np.linalg.norm(step))
                if len(steps) > 1 and steps[-1] >= min(steps[:-1]):
                    break
            assert flags == []
            assert np.linalg.norm(reference[:3] - fitted[:3]) < 1e-8

    def test_reaches_lower_cost_than_early_stop(self):
        """8d scene (K=1, 20 dBm, r in [1.5, 2.5] m), trial
        SeedSequence([0, 0, 9]): a Levenberg-Marquardt fit stopped at cost
        2.16e-7 with attitude NMSE 0.627; the optimum has cost 5.8e-9 and
        NMSE 9e-6."""
        sc = desk_scale_scenario(tx_power_dbm=20.0, distance_range=(1.5, 2.5))
        rng = np.random.default_rng(np.random.SeedSequence([0, 0, 9]))
        poses = draw_poses(sc, rng)
        est = run_baseline(simulate_received(sc, rng, poses), sc)[0]
        r_true = rotation_basis(poses[0].attitude).matrix
        nmse = np.sum((r_true - est.basis.matrix) ** 2) / 2
        assert est.converged
        assert nmse < 1e-3
        assert np.linalg.norm(est.position - poses[0].position) < 0.01


class TestRunBaseline:
    def test_single_ms_end_to_end(self):
        sc = desk_scale_scenario(tx_power_dbm=20.0)
        rng = np.random.default_rng(4)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        est = run_baseline(sig, sc)[0]
        # near-field bias plus parallax-ranged fit: sub-meter at this scale
        assert np.linalg.norm(est.position - poses[0].position) < 1.0

    def test_multi_ms_returns_k_estimates(self):
        sc = desk_scale_scenario(num_ms=2, tx_power_dbm=20.0)
        rng = np.random.default_rng(5)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        ests = run_baseline(sig, sc)
        assert len(ests) == 2

    @pytest.mark.parametrize("bad", [-2.0, np.nan, np.inf])
    def test_invalid_range_init_rejected(self, bad):
        """On the 8d scene, trial SeedSequence([0, 0, 0]), range_init=-2
        once returned a pose 3 m behind the array."""
        sc = desk_scale_scenario(tx_power_dbm=20.0, distance_range=(1.5, 2.5))
        rng = np.random.default_rng(np.random.SeedSequence([0, 0, 0]))
        sig = simulate_received(sc, rng, draw_poses(sc, rng))
        with pytest.raises(ValueError, match="range_init"):
            run_baseline(sig, sc, range_init=bad)

    def test_deterministic(self):
        sc = desk_scale_scenario(tx_power_dbm=15.0)
        rng = np.random.default_rng(6)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        a = run_baseline(sig, sc)[0]
        b = run_baseline(sig, sc)[0]
        assert np.array_equal(a.position, b.position)
