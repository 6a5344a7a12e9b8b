import numpy as np
import pytest

from nearfield_pae.geometry import (
    EulerAngles,
    Pose,
    TransmitPattern,
    UraSpec,
    aoa_cosines,
    bs_antenna_grid,
    bs_antenna_position,
    canonicalize_euler,
    direction_cosine_derivatives,
    direction_cosine_hessian,
    euler_from_rotation,
    fresnel_distance,
    half_wavelength_ura,
    ms_antenna_global_position,
    ms_local_antenna_position,
    named_pattern,
    pattern_five_point,
    pattern_nine_point,
    pattern_three_point,
    ray_from_cosines,
    rayleigh_distance,
    rotation_basis,
    rotation_basis_derivatives,
    rotation_matrix,
    rotation_matrix_from_theta,
    vec_index,
    wavelength,
    wrap_angle,
)

C = 299_792_458.0


def compose_oracle(roll, pitch, yaw):
    """Independent elementary-rotation composition used as the oracle."""
    cx, sx = np.cos(roll), np.sin(roll)
    cy, sy = np.cos(pitch), np.sin(pitch)
    cz, sz = np.cos(yaw), np.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


class TestArrayLayout:
    def test_center_antenna_of_odd_grid(self):
        spec = UraSpec(3, 3, 0.002)
        assert np.allclose(bs_antenna_position(spec, 2, 2, 0.004), [0, 0, 0])

    def test_two_by_two_corner(self):
        spec = UraSpec(2, 2, 0.002)
        assert np.allclose(
            bs_antenna_position(spec, 1, 1, 0.004), [-0.001, -0.001, 0.0]
        )

    def test_large_grid_corner_formula(self):
        lam = C / 28e9
        spec = UraSpec(120, 120, lam / 2)
        pos = bs_antenna_position(spec, 120, 1, lam)
        assert pos[0] == pytest.approx((119 / 2) * lam / 2, rel=1e-15)
        assert pos[1] == pytest.approx(-(119 / 2) * lam / 2, rel=1e-15)

    def test_index_out_of_range_rejected(self):
        spec = UraSpec(4, 4, 0.002)
        with pytest.raises(ValueError):
            bs_antenna_position(spec, 0, 1, 0.004)
        with pytest.raises(ValueError):
            bs_antenna_position(spec, 1, 5, 0.004)

    def test_grid_is_centered(self):
        spec = UraSpec(6, 9, 0.002)
        grid = bs_antenna_grid(spec, 0.004)
        assert np.allclose(grid.mean(axis=0), 0.0, atol=1e-15)

    def test_grid_matches_elementwise(self):
        spec = UraSpec(5, 4, 0.002)
        grid = bs_antenna_grid(spec, 0.004)
        for u in range(1, 6):
            for v in range(1, 5):
                row = vec_index(spec, u, v)
                assert np.allclose(grid[row], bs_antenna_position(spec, u, v, 0.004))

    def test_ms_local_center(self):
        spec = UraSpec(5, 5, 0.002)
        assert np.allclose(ms_local_antenna_position(spec, 3, 3, 0.004), [0, 0])

    def test_ms_local_two_by_two(self):
        spec = UraSpec(2, 2, 0.002)
        assert np.allclose(
            ms_local_antenna_position(spec, 1, 2, 0.004), [-0.001, 0.001]
        )

    def test_ms_local_corner_large(self):
        lam = 0.004
        spec = UraSpec(100, 100, lam / 2)
        assert np.allclose(
            ms_local_antenna_position(spec, 1, 1, lam),
            [-99 * lam / 4, -99 * lam / 4],
        )


class TestRotation:
    def test_identity(self):
        basis = rotation_basis(EulerAngles(0, 0, 0))
        assert np.allclose(basis.ex, [1, 0, 0])
        assert np.allclose(basis.ey, [0, 1, 0])

    def test_quarter_turn_about_z(self):
        basis = rotation_basis(EulerAngles(0, 0, np.pi / 2))
        assert np.allclose(basis.ex, [0, 1, 0], atol=1e-15)
        assert np.allclose(basis.ey, [-1, 0, 0], atol=1e-15)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            roll = rng.uniform(-np.pi, np.pi)
            pitch = rng.uniform(-np.pi / 2, np.pi / 2)
            yaw = rng.uniform(-np.pi, np.pi)
            basis = rotation_basis(EulerAngles(roll, pitch, yaw)).matrix
            assert np.allclose(basis, compose_oracle(roll, pitch, yaw)[:, :2], atol=1e-12)

    def test_orthonormal_at_pitch_limits(self):
        for pitch in (-np.pi / 2, np.pi / 2):
            basis = rotation_basis(EulerAngles(0.3, pitch, -1.1)).matrix
            assert abs(np.linalg.norm(basis[:, 0]) - 1) < 1e-12
            assert abs(np.linalg.norm(basis[:, 1]) - 1) < 1e-12
            assert abs(basis[:, 0] @ basis[:, 1]) < 1e-12

    def test_orthonormality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            angles = EulerAngles(
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-np.pi / 2, np.pi / 2),
                rng.uniform(-np.pi, np.pi),
            )
            m = rotation_basis(angles).matrix
            assert abs(np.linalg.norm(m[:, 0]) - 1) < 1e-12
            assert abs(np.linalg.norm(m[:, 1]) - 1) < 1e-12
            assert abs(m[:, 0] @ m[:, 1]) < 1e-12

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-7
        for _ in range(50):
            theta = rng.uniform(-1.2, 1.2, 3)
            deriv = rotation_basis_derivatives(theta)
            for axis in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[axis] += h
                tm[axis] -= h
                fd = (
                    rotation_matrix_from_theta(tp) - rotation_matrix_from_theta(tm)
                ) / (2 * h)
                assert np.max(np.abs(deriv[axis] - fd)) < 1e-6

    def test_euler_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            angles = EulerAngles(
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01),
                rng.uniform(-np.pi, np.pi),
            )
            back = euler_from_rotation(rotation_matrix(angles))
            assert np.allclose(back.as_array(), angles.as_array(), atol=1e-12)

    def test_canonicalize_preserves_rotation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            canon = canonicalize_euler(theta)
            assert abs(canon.pitch) <= np.pi / 2
            assert np.allclose(
                rotation_matrix_from_theta(theta),
                rotation_basis(canon).matrix,
                atol=1e-12,
            )

    def test_pitch_outside_support_rejected(self):
        with pytest.raises(ValueError):
            EulerAngles(0.0, 2.0, 0.0)

    def test_roll_yaw_wrap(self):
        angles = EulerAngles(3 * np.pi, 0.0, -3 * np.pi)
        assert angles.roll == pytest.approx(-np.pi)
        assert angles.yaw == pytest.approx(-np.pi)


class TestGlobalPositions:
    def test_zero_local_is_the_center(self):
        pose = Pose(np.array([1.0, 2.0, 3.0]), EulerAngles(0.4, 0.2, -0.7))
        assert np.allclose(ms_antenna_global_position(pose, [0, 0]), pose.position)

    def test_unrotated_offset(self):
        pose = Pose(np.array([1.0, -1.0, 5.0]), EulerAngles(0, 0, 0))
        assert np.allclose(
            ms_antenna_global_position(pose, [0.2, -0.3]), [1.2, -1.3, 5.0]
        )

    def test_matches_full_rotation_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            pose = Pose(
                rng.normal(0, 3, 3),
                EulerAngles(
                    rng.uniform(-np.pi, np.pi),
                    rng.uniform(-np.pi / 2, np.pi / 2),
                    rng.uniform(-np.pi, np.pi),
                ),
            )
            local = rng.normal(0, 0.1, 2)
            r3 = compose_oracle(*pose.attitude.as_array())
            expected = pose.position + r3 @ np.array([local[0], local[1], 0.0])
            assert np.allclose(
                ms_antenna_global_position(pose, local), expected, atol=1e-12
            )


class TestFieldBoundaries:
    def test_fresnel_reference_value(self):
        assert fresnel_distance(0.5, 0.004) == pytest.approx(1.25, abs=1e-12)

    def test_fresnel_limit_zero(self):
        assert fresnel_distance(0.0, 0.004) == 0.0

    def test_fresnel_recomputed_at_28ghz(self):
        lam = C / 28e9
        assert fresnel_distance(0.5, lam) == pytest.approx(
            (0.5**4 / (8 * lam)) ** (1 / 3), rel=1e-14
        )

    def test_rayleigh_reference_value(self):
        assert rayleigh_distance(0.5, 0.004) == pytest.approx(125.0, abs=1e-12)

    def test_rayleigh_square_subarray(self):
        s = np.hypot(0.1, 0.1)
        assert rayleigh_distance(s, 0.004) == pytest.approx(10.0, rel=1e-12)

    def test_rayleigh_trivial(self):
        assert rayleigh_distance(1.0, 2.0) == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fresnel_distance(0.5, 0.0)
        with pytest.raises(ValueError):
            rayleigh_distance(-1.0, 0.004)


class TestAoaCosines:
    def test_broadside(self):
        assert aoa_cosines([0, 0, 7.0], [0, 0, 0]) == (0.0, 0.0)

    def test_endfire(self):
        assert aoa_cosines([3.0, 0, 0], [0, 0, 0]) == (1.0, 0.0)

    def test_matches_normalized_dot_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            target = rng.normal(0, 5, 3)
            ref = rng.normal(0, 0.2, 3)
            if np.linalg.norm(target - ref) < 1e-6:
                continue
            px, py = aoa_cosines(target, ref)
            diff = target - ref
            assert px == pytest.approx(diff[0] / np.linalg.norm(diff), abs=1e-15)
            assert py == pytest.approx(diff[1] / np.linalg.norm(diff), abs=1e-15)
            assert px**2 + py**2 <= 1 + 1e-12

    def test_behind_the_plane(self):
        px, py = aoa_cosines([0.3, -0.4, -2.0], [0, 0, 0])
        assert px**2 + py**2 <= 1 + 1e-12

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            aoa_cosines([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestRayFromCosines:
    def test_inverts_aoa_cosines_in_front(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            target = rng.normal(0, 2, 3)
            target[2] = abs(target[2]) + 0.1
            ray = ray_from_cosines(np.array(aoa_cosines(target, np.zeros(3))))
            assert np.allclose(ray, target / np.linalg.norm(target), atol=1e-12)

    def test_outside_unit_disc_scaled_to_rim(self):
        ray = ray_from_cosines(np.array([1.2, 1.6]))
        assert np.allclose(ray, [0.6, 0.8, 0.0])


class TestDirectionCosineDerivatives:
    def test_weighted_hessian_contracts_the_per_cosine_stack(self):
        rng = np.random.default_rng(19)
        diff = rng.normal(0, 1, (4, 7, 3))
        weights = rng.normal(0, 1, (4, 7, 2))
        per_cosine = direction_cosine_hessian(diff)
        assert per_cosine.shape == (4, 7, 2, 3, 3)
        assert np.allclose(
            direction_cosine_hessian(diff, weights),
            np.einsum("bml,bmlxy->bxy", weights, per_cosine),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_jacobian_and_hessian_match_differences(self):
        rng = np.random.default_rng(20)
        h = 1e-6
        for _ in range(20):
            d = rng.normal(0, 1, 3)
            phi, jac = direction_cosine_derivatives(d)
            hess = direction_cosine_hessian(d)
            for x in range(3):
                step = np.zeros(3)
                step[x] = h
                phi_p, jac_p = direction_cosine_derivatives(d + step)
                phi_m, jac_m = direction_cosine_derivatives(d - step)
                assert np.allclose((phi_p - phi_m) / (2 * h), jac[:, x], atol=1e-7)
                assert np.allclose((jac_p - jac_m) / (2 * h), hess[:, :, x], atol=1e-6)


class TestPatterns:
    def test_five_point_contents(self):
        spec = UraSpec(16, 16, 0.005)
        assert pattern_five_point(spec).slots == (
            (1, 1),
            (1, 16),
            (16, 1),
            (16, 16),
            (9, 9),
        )

    def test_three_and_nine_point_sizes(self):
        spec = UraSpec(16, 16, 0.005)
        assert len(pattern_three_point(spec)) == 3
        t9 = pattern_nine_point(spec)
        assert len(t9) == 9
        assert set(pattern_five_point(spec).slots) <= set(t9.slots)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            TransmitPattern(((1, 1), (1, 1)), 4, 4)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            TransmitPattern(((0, 1),), 4, 4)
        with pytest.raises(ValueError):
            TransmitPattern(((1, 5),), 4, 4)

    def test_named_lookup(self):
        spec = UraSpec(8, 8, 0.005)
        assert named_pattern("T5", spec).slots == pattern_five_point(spec).slots
        with pytest.raises(ValueError):
            named_pattern("t7", spec)


def test_wavelength():
    assert wavelength(28e9) == pytest.approx(C / 28e9, rel=1e-15)
    with pytest.raises(ValueError):
        wavelength(0.0)


def test_wrap_angle():
    assert wrap_angle(np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(0.1) == pytest.approx(0.1)
    vals = wrap_angle(np.linspace(-10, 10, 101))
    assert np.all(vals >= -np.pi) and np.all(vals < np.pi)


def test_half_wavelength_ura():
    spec = half_wavelength_ura(32, 32, 28e9)
    assert spec.spacing == pytest.approx(C / 28e9 / 2)
    assert spec.largest_dimension == pytest.approx(np.hypot(31, 31) * spec.spacing)
