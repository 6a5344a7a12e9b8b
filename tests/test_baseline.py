import numpy as np
from dataclasses import replace
from hypothesis import example, given, strategies as st

from nearfield_pae.baseline import (
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
from nearfield_pae.geometry import (
    EulerAngles,
    Pose,
    UraSpec,
    aoa_cosines,
    ms_antenna_global_position,
    rotation_basis,
)

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
            est = farfield_aoa(y, spec, 1, SIGW2)[0]
            assert np.allclose(est.cosines, phi, atol=1e-7)
            assert not est.low_power

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
        est = farfield_aoa(y, spec, 1, SIGW2)[0]
        assert np.allclose(est.cosines, phi, atol=1e-7)
        assert not est.low_power

    def test_two_plane_waves(self):
        spec = UraSpec(32, 32, 0.005)
        phi1, phi2 = np.array([0.3, -0.2]), np.array([-0.4, 0.5])
        y = 4e-4 * whole_array_steering(spec, phi1) + 3e-4 * whole_array_steering(
            spec, phi2
        )
        ests = farfield_aoa(y, spec, 2, SIGW2)
        got = sorted([tuple(e.cosines) for e in ests])
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
        assert all(e.low_power for e in ests)

    def test_nearfield_input_is_biased(self):
        # inside the array's near field the common-angle assumption fails;
        # record the bias relative to the true center direction
        sc = desk_scale_scenario(tx_power_dbm=20.0, distance_range=(1.0, 1.5))
        pose = Pose(np.array([0.3, -0.2, 1.2]), EulerAngles(0, 0, 0))
        sc = replace(sc, poses=(pose,), noise_power_w=0.0, fresnel_override=True)
        sig = simulate_received(sc, np.random.default_rng(2), [pose])
        est = farfield_aoa(sig.samples[:, 0], sc.bs, 1, SIGW2)[0]
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        ant = ms_antenna_global_position(pose, q[0])
        true_phi = np.array(aoa_cosines(ant, np.zeros(3)))
        bias = np.linalg.norm(est.cosines - true_phi)
        far = farfield_aoa(
            3e-4 * whole_array_steering(sc.bs, true_phi), sc.bs, 1, SIGW2
        )[0]
        far_bias = np.linalg.norm(far.cosines - true_phi)
        assert bias > 10 * far_bias  # matched model is orders cleaner

    def test_two_waves_ranked_by_peak_metric(self):
        spec = UraSpec(16, 16, 0.005)
        phi1, phi2 = np.array([0.2, 0.1]), np.array([-0.3, -0.5])
        y = 4e-4 * whole_array_steering(spec, phi1) + 2e-4 * whole_array_steering(
            spec, phi2
        )
        ests = farfield_aoa(y, spec, 2, SIGW2)
        by_x = sorted(ests, key=lambda e: e.cosines[0])  # phi2 first
        assert np.allclose(by_x[0].cosines, phi2, atol=1e-6)
        assert np.allclose(by_x[1].cosines, phi1, atol=1e-6)
        assert by_x[1].peak_metric > by_x[0].peak_metric


class TestPoseFromAoas:
    def synth_tracks(self, pose, spec, lam, q_locals):
        out = []
        for q in q_locals:
            ant = ms_antenna_global_position(pose, q)
            out.append(aoa_cosines(ant, np.zeros(3)))
        return np.array(out)

    def test_exact_cosines_recover_pose(self):
        sc = desk_scale_scenario()
        q = sc.pattern.local_positions(sc.ms, sc.lam)
        pose = Pose(np.array([1.0, 2.0, 7.0]), EulerAngles(0.5, -0.3, 1.7))
        tracks = self.synth_tracks(pose, sc.ms, sc.lam, q)
        fitted, flags = pose_from_aoas(tracks, q, range_init=7.3)
        assert "collinear_pattern" not in flags
        assert np.linalg.norm(fitted[:3] - pose.position) < 1e-3
        from nearfield_pae.geometry import rotation_matrix_from_theta

        assert np.allclose(
            rotation_matrix_from_theta(fitted[3:]),
            rotation_basis(pose.attitude).matrix,
            atol=1e-3,
        )

    def test_collinear_pattern_flagged(self):
        q = np.array([[-0.04, 0.0], [0.0, 0.0], [0.04, 0.0]])
        tracks = np.tile([0.1, 0.2], (3, 1))
        _, flags = pose_from_aoas(tracks, q, range_init=5.0)
        assert "collinear_pattern" in flags

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

    def test_deterministic(self):
        sc = desk_scale_scenario(tx_power_dbm=15.0)
        rng = np.random.default_rng(6)
        poses = draw_poses(sc, rng)
        sig = simulate_received(sc, rng, poses)
        a = run_baseline(sig, sc)[0]
        b = run_baseline(sig, sc)[0]
        assert np.array_equal(a.position, b.position)
