import numpy as np
import pytest

from nearfield_pae.channel import (
    ReceivedSignal,
    all_ms_antenna_positions,
    dbm_to_watt,
    desk_scale_scenario,
    draw_poses,
    estimate_noise_power,
    load_signal,
    nearfield_channel_coeff,
    nearfield_channel_vector,
    save_signal,
    simulate_received,
    subarray_steering,
    reduced_coefficients,
    reduced_received,
    watt_to_dbm,
)
from nearfield_pae.geometry import (
    EulerAngles,
    Pose,
    bs_antenna_grid,
    ms_antenna_global_position,
    ms_local_antenna_position,
)
from nearfield_pae.partition import uniform_partition


def scenario_with_pose(pose, noise_dbm=-70.0, **kwargs):
    sc = desk_scale_scenario(noise_power_dbm=noise_dbm, **kwargs)
    from dataclasses import replace

    return replace(sc, poses=(pose,))


def default_pose(distance=6.0):
    return Pose(
        distance * np.array([0.2, -0.1, 0.97]) / np.linalg.norm([0.2, -0.1, 0.97]),
        EulerAngles(0.3, -0.2, 1.1),
    )


class TestChannelCoefficient:
    def test_magnitude_at_one_meter(self):
        h = nearfield_channel_coeff([0, 0, 0], [0, 0, 1.0], 1.0, 0.004)
        assert abs(h) == pytest.approx(0.004 / (4 * np.pi), rel=1e-12)
        assert abs(h) == pytest.approx(3.1831e-4, rel=1e-4)

    def test_unit_phase_at_one_wavelength(self):
        lam = 0.004
        h = nearfield_channel_coeff([0, 0, 0], [0, 0, lam], 1.0, lam)
        assert h.imag == pytest.approx(0.0, abs=1e-12)
        assert h.real > 0

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(2)
        lam = 0.0107
        for _ in range(100):
            b = rng.normal(0, 0.1, 3)
            m = rng.normal(0, 3, 3) + np.array([0, 0, 5.0])
            beta = rng.uniform(0.5, 2.0)
            r = np.sqrt(np.sum((m - b) ** 2))
            expected = beta * lam / (4 * np.pi * r) * np.exp(-2j * np.pi * r / lam)
            assert nearfield_channel_coeff(b, m, beta, lam) == pytest.approx(expected)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            nearfield_channel_coeff([0, 0, 0], [0, 0, 0], 1.0, 0.004)


class TestSimulateReceived:
    def test_noiseless_single_slot_equals_channel(self):
        pose = default_pose()
        sc = scenario_with_pose(pose, tx_power_dbm=10.0)
        from dataclasses import replace

        sc = replace(sc, noise_power_w=0.0)
        rng = np.random.default_rng(0)
        sig = simulate_received(sc, rng, [pose])
        grid = bs_antenna_grid(sc.bs, sc.lam)
        amp = np.sqrt(sc.tx_power_w)
        for t, (q, s) in enumerate(sc.pattern.slots):
            local = ms_local_antenna_position(sc.ms, q, s, sc.lam)
            ant = ms_antenna_global_position(pose, local)
            h = nearfield_channel_vector(grid, ant, 1.0, sc.lam)
            assert np.allclose(sig.samples[:, t], amp * h, rtol=1e-12)

    def test_pure_noise_variance(self):
        pose = default_pose()
        sc = scenario_with_pose(pose, noise_dbm=-70.0)
        from dataclasses import replace

        sc = replace(sc, tx_power_w=0.0)
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(25):
            samples.append(simulate_received(sc, rng, [pose]).samples.ravel())
        w = np.concatenate(samples)
        n = w.size  # >= 1e5 complex samples
        assert n >= 1e5
        est = np.mean(np.abs(w) ** 2)
        tol = 3.0 * sc.noise_power_w / np.sqrt(n)
        assert abs(est - sc.noise_power_w) < tol

    def test_two_ms_scene_is_linear(self):
        pose_a = default_pose(5.5)
        pose_b = Pose(np.array([1.0, 2.0, 6.0]), EulerAngles(-0.5, 0.1, 0.4))
        from dataclasses import replace

        sc2 = desk_scale_scenario(num_ms=2)
        sc2 = replace(sc2, poses=(pose_a, pose_b))
        seed = 42
        both = simulate_received(
            sc2, np.random.default_rng(seed), [pose_a, pose_b]
        )
        sc1 = replace(sc2, num_ms=1, antenna_gains=(1.0,), poses=(pose_a,))
        only_a = simulate_received(sc1, np.random.default_rng(seed), [pose_a])
        sc1b = replace(sc1, poses=(pose_b,))
        only_b_clean = simulate_received(
            replace(sc1b, noise_power_w=0.0), np.random.default_rng(0), [pose_b]
        )
        assert np.allclose(
            both.samples, only_a.samples + only_b_clean.samples, atol=1e-18
        )

    def test_fresnel_rejection_and_override(self):
        pose = Pose(np.array([0.0, 0.0, 0.05]), EulerAngles(0, 0, 0))
        sc = scenario_with_pose(pose)
        with pytest.raises(ValueError, match="reactive region"):
            simulate_received(sc, np.random.default_rng(0), [pose])
        from dataclasses import replace

        sc_ok = replace(sc, fresnel_override=True)
        simulate_received(sc_ok, np.random.default_rng(0), [pose])

    def test_rician_power_ratio(self):
        pose = default_pose()
        from dataclasses import replace

        kfac = 10.0
        sc = replace(
            scenario_with_pose(pose), rician_kfactor=kfac, noise_power_w=0.0
        )
        sc_los = replace(sc, rician_kfactor=np.inf)
        rng = np.random.default_rng(3)
        diffuse_powers = []
        los = simulate_received(sc_los, np.random.default_rng(0), [pose]).samples
        for _ in range(30):
            y = simulate_received(sc, rng, [pose]).samples
            diffuse_powers.append(np.mean(np.abs(y - los) ** 2) / np.mean(np.abs(los) ** 2))
        ratio = np.mean(diffuse_powers)
        assert ratio == pytest.approx(1.0 / kfac, rel=0.1)


def test_rician_simulation_matches_slot_major_loop():
    """The stacked simulator draws the diffuse terms in the order of a
    loop over slots, then MSs, and sums the MSs alike, bit for bit."""
    from dataclasses import replace

    from nearfield_pae.channel import _complex_noise, activated_antenna_positions

    sc = replace(desk_scale_scenario(num_ms=2, rician_kfactor=10.0), antenna_gains=(1.0, 0.7))
    poses = draw_poses(sc, np.random.default_rng(5))
    got = simulate_received(sc, np.random.default_rng(6), poses).samples
    rng = np.random.default_rng(6)
    grid = bs_antenna_grid(sc.bs, sc.lam)
    antennas = activated_antenna_positions(sc, poses)
    want = np.zeros((sc.bs.n_antennas, sc.n_slots), dtype=np.complex128)
    for t in range(sc.n_slots):
        for k in range(sc.num_ms):
            h = nearfield_channel_vector(grid, antennas[k, t], sc.antenna_gains[k], sc.lam)
            h = h + np.abs(h) * _complex_noise(rng, h.shape, 1.0 / sc.rician_kfactor)
            want[:, t] += np.sqrt(sc.tx_power_w) * h
    want += _complex_noise(rng, want.shape, sc.noise_power_w)
    assert np.array_equal(got, want)


def test_all_ms_antenna_positions_match_per_antenna_loop():
    sc = desk_scale_scenario(num_ms=2, distance_range=(1.5, 2.5))
    poses = draw_poses(sc, np.random.default_rng(3))
    want = np.array(
        [
            ms_antenna_global_position(pose, ms_local_antenna_position(sc.ms, q, s, sc.lam))
            for pose in poses
            for q in range(1, sc.ms.nx + 1)
            for s in range(1, sc.ms.ny + 1)
        ]
    )
    got = all_ms_antenna_positions(sc, poses)
    # one matrix product per pose instead of one per antenna: rounding only
    assert got.shape == want.shape == (2 * sc.ms.n_antennas, 3)
    assert np.allclose(got, want, rtol=0.0, atol=4 * np.finfo(float).eps * np.abs(want).max())


class TestSwffModel:
    def setup_method(self):
        self.pose = default_pose()
        self.sc = scenario_with_pose(self.pose)
        self.plan = uniform_partition(self.sc.bs, 4, 4, self.sc.lam)

    def test_broadside_gain_magnitude(self):
        # put the antenna broadside to the central-ish subarray reference
        coeffs = reduced_coefficients(self.sc, self.plan, [self.pose])
        amp = np.sqrt(self.sc.tx_power_w)
        for mi in range(self.plan.n_subarrays):
            for t in range(self.sc.n_slots):
                r = coeffs.distances[mi, 0, t]
                assert abs(coeffs.gains[mi, 0, t]) == pytest.approx(
                    amp * self.sc.lam / (4 * np.pi * r), rel=1e-12
                )

    def test_reconstruction_matches_first_order_expansion(self):
        """gain * steering must equal the channel with the first-order
        distance expansion, exactly."""
        coeffs = reduced_coefficients(self.sc, self.plan, [self.pose])
        sig = reduced_received(coeffs, self.plan, 0.0)
        amp = np.sqrt(self.sc.tx_power_w)
        lam = self.sc.lam
        for t, (q, s) in enumerate(self.sc.pattern.slots):
            local = ms_local_antenna_position(self.sc.ms, q, s, lam)
            ant = ms_antenna_global_position(self.pose, local)
            for mi, sub in enumerate(self.plan.subarrays):
                r_m = np.linalg.norm(ant - sub.ref_position)
                phi = (ant - sub.ref_position)[:2] / r_m
                rows = self.plan.subarray_row_indices(mi + 1)
                for i in range(sub.nx):
                    for j in range(sub.ny):
                        i_off = (i + 1) - sub.ref_index[0]
                        j_off = (j + 1) - sub.ref_index[1]
                        r_taylor = r_m - lam / 2 * (phi[0] * i_off + phi[1] * j_off)
                        expected = (
                            amp
                            * lam
                            / (4 * np.pi * r_m)
                            * np.exp(-2j * np.pi * r_taylor / lam)
                        )
                        got = sig.samples[rows[i, j], t]
                        assert got == pytest.approx(expected, rel=1e-10)

    def test_first_order_distance_error_scale(self):
        """|exact - first-order| stays within the second-order bound."""
        rng = np.random.default_rng(4)
        lam = self.sc.lam
        for _ in range(20):
            pose = draw_poses(self.sc, rng)[0]
            ant = ms_antenna_global_position(
                pose, ms_local_antenna_position(self.sc.ms, 1, 1, lam)
            )
            for sub in self.plan.subarrays:
                r_m = np.linalg.norm(ant - sub.ref_position)
                phi = (ant - sub.ref_position)[:2] / r_m
                worst = 0.0
                for i in range(1, sub.nx + 1):
                    for j in range(1, sub.ny + 1):
                        u, v = sub.to_global(i, j)
                        from nearfield_pae.geometry import bs_antenna_position

                        pos = bs_antenna_position(self.sc.bs, u, v, lam)
                        r_exact = np.linalg.norm(ant - pos)
                        i_off = i - sub.ref_index[0]
                        j_off = j - sub.ref_index[1]
                        r_taylor = r_m - lam / 2 * (phi[0] * i_off + phi[1] * j_off)
                        worst = max(worst, abs(r_exact - r_taylor))
                # second-order term is at most (max offset)^2 / (2 r)
                max_offset = np.hypot(
                    max(sub.ref_index[0] - 1, sub.nx - sub.ref_index[0]),
                    max(sub.ref_index[1] - 1, sub.ny - sub.ref_index[1]),
                ) * (lam / 2)
                assert worst <= max_offset**2 / (2 * r_m) * 1.05

    def test_far_scene_relative_gap(self):
        from dataclasses import replace

        d_r = self.plan.subarrays[0].rayleigh_distance(self.sc.lam)
        direction = np.array([0.15, -0.1, 0.98])
        direction /= np.linalg.norm(direction)
        pose = Pose(50.0 * d_r * direction, EulerAngles(0.3, -0.2, 1.1))
        sc = replace(self.sc, poses=(pose,), noise_power_w=0.0)
        exact = simulate_received(sc, np.random.default_rng(0), [pose])
        approx = reduced_received(
            reduced_coefficients(sc, self.plan, [pose]), self.plan, 0.0
        )
        gap = np.linalg.norm(approx.samples - exact.samples) / np.linalg.norm(
            exact.samples
        )
        assert gap < 1e-2

    def test_gap_shrinks_with_distance(self):
        from dataclasses import replace

        d_r = self.plan.subarrays[0].rayleigh_distance(self.sc.lam)
        direction = np.array([0.2, 0.1, 0.95])
        direction /= np.linalg.norm(direction)
        gaps = []
        for mult in (2.0, 8.0, 32.0):
            pose = Pose(mult * d_r * direction, EulerAngles(0, 0, 0))
            sc = replace(self.sc, poses=(pose,), noise_power_w=0.0)
            exact = simulate_received(sc, np.random.default_rng(0), [pose])
            approx = reduced_received(
                reduced_coefficients(sc, self.plan, [pose]), self.plan, 0.0
            )
            gaps.append(
                np.linalg.norm(approx.samples - exact.samples)
                / np.linalg.norm(exact.samples)
            )
        assert gaps[0] > gaps[1] > gaps[2]

    def test_far_field_validation_gate(self):
        from dataclasses import replace

        close = Pose(np.array([0.0, 0.0, 0.4]), EulerAngles(0, 0, 0))
        sc = replace(self.sc, poses=(close,))
        with pytest.raises(ValueError, match="far-field condition"):
            reduced_coefficients(sc, self.plan, [close])
        sc_ok = replace(sc, fresnel_override=True)
        reduced_coefficients(sc_ok, self.plan, [close])

    def test_zero_coefficients_give_pure_noise(self):
        coeffs = reduced_coefficients(self.sc, self.plan, [self.pose])
        coeffs.gains[:] = 0.0
        rng = np.random.default_rng(5)
        sig = reduced_received(coeffs, self.plan, 1e-10, rng)
        assert np.mean(np.abs(sig.samples) ** 2) == pytest.approx(1e-10, rel=0.2)


class TestNoiseCalibration:
    def test_empirical_noise_power(self):
        rng = np.random.default_rng(6)
        power = dbm_to_watt(-70.0)
        from nearfield_pae.channel import _complex_noise

        w = _complex_noise(rng, (1_000_000,), power)
        assert np.mean(np.abs(w) ** 2) == pytest.approx(power, rel=0.01)

    def test_estimate_noise_power(self):
        rng = np.random.default_rng(7)
        from nearfield_pae.channel import _complex_noise

        w = _complex_noise(rng, (200_000,), 2.5e-10)
        assert estimate_noise_power(w) == pytest.approx(2.5e-10, rel=0.02)


class TestSignalIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        sig = ReceivedSignal(rng.normal(size=(64, 5)) + 1j * rng.normal(size=(64, 5)))
        path = tmp_path / "sig.bin"
        save_signal(path, sig, seed=123)
        back, seed = load_signal(path)
        assert seed == 123
        assert np.array_equal(back.samples, sig.samples)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="bad header"):
            load_signal(path)

    def test_truncated_payload_rejected(self, tmp_path):
        sig = ReceivedSignal(np.ones((4, 2), dtype=complex))
        path = tmp_path / "sig.bin"
        save_signal(path, sig, 0)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_signal(path)

    def test_header_layout(self, tmp_path):
        sig = ReceivedSignal(np.zeros((3, 2), dtype=complex))
        path = tmp_path / "sig.bin"
        save_signal(path, sig, seed=7)
        raw = path.read_bytes()
        assert raw[:8] == b"NFPAESIG"
        import struct

        n_b, t, seed = struct.unpack("<QQQ", raw[8:32])
        assert (n_b, t, seed) == (3, 2, 7)
        assert len(raw) == 32 + 3 * 2 * 2 * 8


def test_dbm_conversions():
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)
    assert dbm_to_watt(20.0) == pytest.approx(0.1)
    assert watt_to_dbm(dbm_to_watt(-70.0)) == pytest.approx(-70.0)
    with pytest.raises(ValueError):
        watt_to_dbm(0.0)


def test_steering_entries():
    steer = subarray_steering(3, 2, 0.25, -0.5)
    for i in range(1, 4):
        for j in range(1, 3):
            assert steer[i - 1, j - 1] == pytest.approx(
                np.exp(1j * np.pi * (i * 0.25 - j * 0.5))
            )


def test_draw_poses_respects_ranges():
    sc = desk_scale_scenario(num_ms=3)
    rng = np.random.default_rng(9)
    poses = draw_poses(sc, rng)
    assert len(poses) == 3
    for pose in poses:
        r = np.linalg.norm(pose.position)
        assert sc.distance_range[0] <= r <= sc.distance_range[1]
        assert pose.position[2] > 0
        assert abs(pose.attitude.pitch) <= np.pi / 3 + 1e-12
