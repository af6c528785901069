import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towedtma import sensing
from towedtma.sensing import (
    ZeroRangeError,
    bearing_jacobian,
    ghost_bearing,
    measure,
    reflect_state,
    true_bearing,
    wrap_angle,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)


class TestWrapAngle:
    def test_pi_stays_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)

    def test_three_half_pi(self):
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)

    def test_minus_three_pi(self):
        assert wrap_angle(-3 * np.pi) == pytest.approx(np.pi)

    @given(a=angles)
    @settings(max_examples=200, deadline=None)
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi
        k = (a - w) / (2 * np.pi)
        assert abs(k - round(k)) < 1e-9

    def test_array_input(self):
        a = np.array([0.0, np.pi, 3 * np.pi / 2, -3 * np.pi])
        w = wrap_angle(a)
        assert np.allclose(w, [0.0, np.pi, -np.pi / 2, np.pi])


class TestTrueBearing:
    def test_north_east_diagonal(self):
        assert true_bearing(np.array([1.0, 1.0, 0, 0])) == pytest.approx(np.pi / 4)

    def test_due_north(self):
        assert true_bearing(np.array([0.0, 1.0, 0, 0])) == pytest.approx(0.0)

    def test_south_west_quadrant(self):
        assert true_bearing(np.array([-1.0, -1.0, 0, 0])) == pytest.approx(-3 * np.pi / 4)

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRangeError):
            true_bearing(np.array([0.0, 0.0, 1.0, 1.0]))


class TestGhostBearing:
    def test_on_axis_fixed_point(self):
        h = 0.7
        assert ghost_bearing(h, h) == pytest.approx(h)

    def test_arithmetic(self):
        assert ghost_bearing(np.pi / 4, np.pi / 2) == pytest.approx(3 * np.pi / 4)

    @given(theta=angles, h=angles)
    @settings(max_examples=200, deadline=None)
    def test_involution(self, theta, h):
        t = wrap_angle(theta)
        once = ghost_bearing(t, h)
        assert wrap_angle(ghost_bearing(once, h) - t) == pytest.approx(0.0, abs=1e-9)


class TestBearingJacobian:
    def test_due_north(self):
        assert np.allclose(bearing_jacobian(np.array([0.0, 1.0, 0, 0])), [1, 0, 0, 0])

    def test_due_east(self):
        assert np.allclose(bearing_jacobian(np.array([1.0, 0.0, 0, 0])), [0, -1, 0, 0])

    def test_sized_to_state(self):
        assert bearing_jacobian(np.zeros(5) + [1, 2, 0, 0, 0]).shape == (5,)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-7
        for _ in range(100):
            x = rng.normal(size=4)
            if abs(x[0]) + abs(x[1]) < 0.1:
                continue
            J = bearing_jacobian(x)
            for j in range(2):
                dx = np.zeros(4)
                dx[j] = h
                fd = wrap_angle(
                    true_bearing(x + dx) - true_bearing(x - dx)
                ) / (2 * h)
                assert J[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_radial_motion_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=4)
            J = bearing_jacobian(x)
            radial = np.array([x[0], x[1], 0.0, 0.0])
            assert J @ radial == pytest.approx(0.0, abs=1e-12)

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRangeError):
            bearing_jacobian(np.zeros(4))


class TestMeasure:
    def test_noise_free_is_exact(self):
        rng = np.random.default_rng(0)
        rel = np.array([3.0, 4.0, 0, 0])
        pair = measure(rel, heading=0.5, noise_std=0.0, rng=rng)
        assert pair.y1 == pytest.approx(true_bearing(rel))

    def test_mirror_identity(self):
        rng = np.random.default_rng(1)
        rel = np.array([3.0, 4.0, 0, 0])
        for _ in range(50):
            h = rng.uniform(-np.pi, np.pi)
            pair = measure(rel, heading=h, noise_std=0.1, rng=rng)
            assert wrap_angle(pair.y1 + pair.y2 - 2 * h) == pytest.approx(0.0, abs=1e-12)

    def test_empirical_noise_std(self):
        rng = np.random.default_rng(2)
        rel = np.array([3.0, 4.0, 0, 0])
        theta = true_bearing(rel)
        std = np.deg2rad(1.5)
        draws = np.array(
            [
                wrap_angle(measure(rel, 0.0, std, rng).y1 - theta)
                for _ in range(100_000)
            ]
        )
        assert draws.std() == pytest.approx(std, rel=0.02)

    def test_reflection_swaps_pair(self):
        # reflecting the relative state across the array axis swaps the
        # true and ghost slots when the noise sign is reflected too
        rel = np.array([3.0, 4.0, 0.1, -0.2])
        h = 0.3
        class FixedRng:
            def __init__(self, v):
                self.v = v
            def standard_normal(self, size):
                return np.full(size, self.v)

        p = measure(rel, h, 0.02, FixedRng(0.7))
        p_ref = measure(reflect_state(rel, h), h, 0.02, FixedRng(-0.7))
        assert wrap_angle(p_ref.y1 - p.y2) == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(p_ref.y2 - p.y1) == pytest.approx(0.0, abs=1e-12)


class TestReflectState:
    def test_involution(self):
        x = np.array([1.0, 2.0, -0.3, 0.4, 0.02])
        back = reflect_state(reflect_state(x, 0.77), 0.77)
        assert np.allclose(back, x, atol=1e-14)

    def test_mirrors_bearing(self):
        x = np.array([1.0, 2.0, 0.0, 0.0])
        h = 0.6
        got = true_bearing(reflect_state(x, h))
        assert wrap_angle(got - ghost_bearing(true_bearing(x), h)) == pytest.approx(
            0.0, abs=1e-12
        )
