import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towedtma import kinematics
from towedtma.kinematics import (
    CT,
    CV,
    MotionModel,
    ObserverState,
    cv_transition,
    ct_transition,
    observer_input,
    process_jacobian,
    process_noise_cov,
)


def cv_model(T=1.0, q1=1.944e-6):
    return MotionModel(kind=CV, T=T, q1=q1)


def ct_model(T=1.0, q1=1.944e-6, q2=3.78e-7):
    return MotionModel(kind=CT, T=T, q1=q1, q2=q2)


class TestCvTransition:
    def test_position_advances_by_velocity(self):
        out = cv_transition(np.array([1.0, 2.0, 0.06, 0.0]), T=1.0)
        assert np.allclose(out, [1.06, 2.0, 0.06, 0.0])

    def test_zero_fixed_point(self):
        for T in (0.5, 1.0, 7.0):
            assert np.array_equal(cv_transition(np.zeros(4), T), np.zeros(4))

    def test_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(7)
        T = 2.5
        F = np.eye(4)
        F[0, 2] = F[1, 3] = T
        for _ in range(20):
            x = rng.normal(size=4)
            assert np.allclose(cv_transition(x, T), F @ x, atol=1e-14)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            cv_transition(np.zeros(5), 1.0)


class TestCtTransition:
    def test_small_turn_rate_matches_cv(self):
        x = np.array([1.0, -2.0, 0.1, 0.05, 1e-12])
        out = ct_transition(x, T=1.0)
        cv = cv_transition(x[:4], T=1.0)
        assert np.allclose(out[:4], cv, atol=1e-9)
        assert out[4] == x[4]

    def test_half_turn_flips_velocity(self):
        T = 1.0
        x = np.array([0.0, 0.0, 0.3, 0.0, np.pi / T])
        out = ct_transition(x, T)
        assert np.allclose(out[2:4], [-0.3, 0.0], atol=1e-12)

    def test_entries_against_scalar_evaluation(self):
        # independent high-precision evaluation of the trig entries
        import math

        psi, T = np.deg2rad(3.0), 1.0
        x = np.array([1.0, 2.0, -0.05, 0.12, psi])
        a = math.sin(psi * T) / psi
        b = (1.0 - math.cos(psi * T)) / psi
        expect = np.array(
            [
                x[0] + a * x[2] - b * x[3],
                x[1] + b * x[2] + a * x[3],
                math.cos(psi * T) * x[2] - math.sin(psi * T) * x[3],
                math.sin(psi * T) * x[2] + math.cos(psi * T) * x[3],
                psi,
            ]
        )
        assert np.allclose(ct_transition(x, T), expect, atol=1e-15)

    def test_continuity_across_taylor_boundary(self):
        T = 1.0
        x = np.array([0.4, -0.3, 0.08, -0.02, 0.0])
        for psi in (9.999e-9, 1.0001e-8, -9.999e-9, -1.0001e-8):
            x[4] = psi
            lo = ct_transition(x, T)
            x4 = x.copy()
            x4[4] = 0.0
            ref = np.append(cv_transition(x[:4], T), psi)
            assert np.allclose(lo, ref, atol=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(11, 5))
        batch = ct_transition(pts, T=1.0)
        for i in range(11):
            assert np.allclose(batch[i], ct_transition(pts[i], T=1.0))


EPS = kinematics.PSI_EPS
# turn rates where the scalar and array paths could part: signed zeros,
# subnormals, both sides of PSI_EPS and its neighbouring floats, and rates
# so large that psi*T overflows
EDGE_RATES = [
    float(r)
    for m in (0.0, 5e-324, 2.2250738585072014e-308, 1e-300, np.nextafter(EPS, 0.0), EPS,
              np.nextafter(EPS, 1.0), 0.05, 1e10, 1e200, 1e308)
    for r in (m, -m)
]
turn_rates = st.one_of(
    st.sampled_from(EDGE_RATES),
    st.floats(-2 * EPS, 2 * EPS),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
components = st.floats(-10.0, 10.0)


def assert_same_bits(got, want):
    # array_equal takes -0.0 == 0.0; the signs of zeros must match too
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCtScalarPath:
    @given(
        psi=turn_rates,
        T=st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 10.0),
        xyv=st.lists(components, min_size=4, max_size=4),
        obs=st.lists(components, min_size=8, max_size=8),
    )
    # a rate whose libm square psi**2 differs from psi*psi in the last bit
    @example(psi=0.027836505711946465, T=1.0, xyv=[0.0, 0.0, 0.3, -0.2], obs=[0.0] * 8)
    # a rate whose square overflows to inf
    @example(psi=1e200, T=1.0, xyv=[0.0, 0.0, 0.3, -0.2], obs=[0.0] * 8)
    @settings(max_examples=300, deadline=None)
    def test_single_state_matches_batch_path(self, psi, T, xyv, obs):
        x = np.array([*xyv, psi])
        vx, vy = xyv[2:]
        model = ct_model(T=T)
        with np.errstate(all="ignore"):
            assert_same_bits(ct_transition(x, T), ct_transition(x[None], T)[0])
            scalar = kinematics._ct_coeffs(psi, T)
            a, b, cs, sn = (c[0] for c in kinematics._ct_coeffs(np.array([psi]), T))
            J = process_jacobian(model, x)
            # the psi column from the array-path coefficients, in numpy
            # scalar arithmetic, with 1 - cos(psi*T) taken as 2 sin^2(psi*T/2)
            p = np.float64(psi)
            if abs(p) < EPS:
                da, db = -p * T**3 / 3.0, T**2 / 2.0
            else:
                sh = np.sin(p * T / 2.0)
                da, db = (p * T * cs - sn) / (p * p), (p * T * sn - 2.0 * sh * sh) / (p * p)
            want_col = [da * vx - db * vy, db * vx + da * vy,
                        -T * sn * vx - T * cs * vy, T * cs * vx - T * sn * vy]
            o0 = ObserverState(*obs[:4], heading=0.0)
            o1 = ObserverState(*obs[4:], heading=0.0)
            u = observer_input(o0, o1, model, x)
            want_u = [
                o1.x - o0.x - a * o0.vx + b * o0.vy,
                o1.y - o0.y - b * o0.vx - a * o0.vy,
                o1.vx - cs * o0.vx + sn * o0.vy,
                o1.vy - sn * o0.vx - cs * o0.vy,
                0.0,
            ]
        assert all(isinstance(c, float) for c in scalar)
        assert_same_bits(scalar, [a, b, cs, sn])
        assert_same_bits(J[:4, :4], [[1, 0, a, -b], [0, 1, b, a], [0, 0, cs, -sn], [0, 0, sn, cs]])
        assert_same_bits(J[:4, 4], want_col)
        assert_same_bits(u, want_u)

    @given(rates=st.lists(turn_rates, min_size=1, max_size=12), T=st.sampled_from([0.5, 1.0, 2.0]))
    @example(rates=[0.0, 0.05, -EPS / 2, 1.0], T=1.0)  # np.where branch
    @example(rates=[0.05, -1.0, EPS, 3.0], T=1.0)  # no rate below PSI_EPS
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_match_single_states(self, rates, T):
        rng = np.random.default_rng(len(rates))
        states = np.column_stack([rng.normal(size=(len(rates), 4)), rates])
        with np.errstate(all="ignore"):
            batch = ct_transition(states, T)
            coeffs = kinematics._ct_coeffs(np.array(rates), T)
            for i, psi in enumerate(rates):
                assert_same_bits(batch[i], ct_transition(states[i], T))
                assert_same_bits([c[i] for c in coeffs], kinematics._ct_coeffs(psi, T))

    @pytest.mark.parametrize("psi, T", [(math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0),
                                        (1e308, 2.0)])
    def test_non_finite_turn_gives_nan_not_an_exception(self, psi, T):
        # math.cos raises ValueError on inf; the coefficients must be the
        # NaNs numpy gives, so a run fails as a filter failure instead
        with np.errstate(all="ignore"):
            scalar = kinematics._ct_coeffs(psi, T)
            batch = kinematics._ct_coeffs(np.array([psi]), T)
            x = np.array([1.0, 2.0, 0.1, 0.0, psi])
            o0 = ObserverState(x=0.0, y=0.0, vx=0.1, vy=0.02, heading=0.0)
            o1 = ObserverState(x=0.1, y=0.0, vx=0.1, vy=0.02, heading=0.0)
            outs = (ct_transition(x, T)[:4], process_jacobian(ct_model(T=T), x)[:4, 2:],
                    observer_input(o0, o1, ct_model(T=T), x)[:4])
        assert all(math.isnan(c) for c in scalar)
        assert_same_bits(scalar, [c[0] for c in batch])
        for out in outs:
            assert np.isnan(out).all()


class TestObserverInput:
    def test_stationary_observer_gives_zero(self):
        o = ObserverState(x=1.0, y=2.0, vx=0.0, vy=0.0, heading=0.0)
        assert np.allclose(observer_input(o, o, cv_model(), np.zeros(4)), 0.0)

    def test_exact_cv_motion_gives_zero(self):
        # the CV input does not depend on the state passed
        T = 1.0
        o0 = ObserverState(x=1.0, y=2.0, vx=0.05, vy=-0.02, heading=0.3)
        o1 = ObserverState(
            x=o0.x + T * o0.vx, y=o0.y + T * o0.vy, vx=o0.vx, vy=o0.vy, heading=0.3
        )
        state = np.array([3.0, -1.0, 0.2, 0.1])
        assert np.allclose(observer_input(o0, o1, cv_model(T), state), 0.0, atol=1e-15)

    def test_matched_turn_gives_zero(self):
        # observer track built with the same rotation the formula assumes;
        # the CT input takes the turn rate from the state's fifth component,
        # not from its position or velocity
        psi, T = 0.04, 1.0
        track = np.array([1.0, -0.5, 0.07, 0.11, psi])
        nxt = ct_transition(track, T)
        o0 = ObserverState(x=track[0], y=track[1], vx=track[2], vy=track[3], heading=0.0)
        o1 = ObserverState(x=nxt[0], y=nxt[1], vx=nxt[2], vy=nxt[3], heading=0.0)
        u = observer_input(o0, o1, ct_model(T), np.array([3.0, -1.0, 0.2, 0.1, psi]))
        assert np.allclose(u, 0.0, atol=1e-14)
        assert u.shape == (5,)
        assert u[4] == 0.0
        unturned = observer_input(o0, o1, ct_model(T), np.array([3.0, -1.0, 0.2, 0.1, 0.0]))
        assert np.linalg.norm(unturned[:4]) > 1e-3


class TestProcessNoiseCov:
    def test_zero_intensity(self):
        assert np.array_equal(process_noise_cov(cv_model(q1=0.0)), np.zeros((4, 4)))

    def test_cv_entries(self):
        q1 = 1.944e-6
        Q = process_noise_cov(cv_model(T=1.0, q1=q1))
        assert Q[0, 0] == pytest.approx(q1 / 3)
        assert Q[0, 2] == pytest.approx(q1 / 2)
        assert Q[2, 2] == pytest.approx(q1)

    def test_ct_block_structure(self):
        q2 = 3.78e-7
        Q = process_noise_cov(ct_model(T=1.0, q2=q2))
        assert Q.shape == (5, 5)
        assert Q[4, 4] == pytest.approx(q2)
        assert np.allclose(Q[:4, 4], 0.0)
        assert np.allclose(Q[4, :4], 0.0)

    @given(
        q1=st.floats(0.0, 10.0),
        q2=st.floats(0.0, 10.0),
        T=st.floats(0.01, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_psd(self, q1, q2, T):
        Q = process_noise_cov(ct_model(T=T, q1=q1, q2=q2))
        assert np.allclose(Q, Q.T)
        assert np.linalg.eigvalsh(Q).min() >= -1e-12


class TestProcessJacobian:
    def test_cv_is_transition_matrix(self):
        J = process_jacobian(cv_model(T=2.0), np.zeros(4))
        F = np.eye(4)
        F[0, 2] = F[1, 3] = 2.0
        assert np.array_equal(J, F)

    def test_ct_zero_velocity_kills_psi_column(self):
        J = process_jacobian(ct_model(), np.array([1.0, 2.0, 0.0, 0.0, 0.03]))
        assert np.allclose(J[:4, 4], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        model = ct_model()
        h = 1e-6
        for _ in range(100):
            x = rng.normal(size=5)
            x[4] = rng.normal(scale=0.1)
            J = process_jacobian(model, x)
            for j in range(5):
                dx = np.zeros(5)
                dx[j] = h
                fd = (ct_transition(x + dx, 1.0) - ct_transition(x - dx, 1.0)) / (2 * h)
                scale = np.maximum(np.abs(J[:, j]), 1.0)
                assert np.all(np.abs(J[:, j] - fd) / scale < 1e-5)

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("psi_T", [kinematics.PSI_EPS, -kinematics.PSI_EPS, 2e-8, 1e-7,
                                       1e-6, 1e-5, 1e-3, 0.05])
    def test_ct_psi_column_against_mpmath(self, psi_T, T):
        # just above PSI_EPS, 1 - cos(psi*T) cancels to nothing in floats;
        # the reference takes the analytic derivatives at 50 digits
        vx, vy, psi = 0.3, -0.2, psi_T / T
        J = process_jacobian(ct_model(T=T), np.array([1.0, 2.0, vx, vy, psi]))
        with mpmath.workdps(50):
            p, t = mpmath.mpf(psi), mpmath.mpf(T)
            sn, cs = mpmath.sin(p * t), mpmath.cos(p * t)
            da = (p * t * cs - sn) / p**2
            db = (p * t * sn - (1 - cs)) / p**2
            want = [float(w) for w in (da * vx - db * vy, db * vx + da * vy,
                                       -t * (sn * vx + cs * vy), t * (cs * vx - sn * vy), 1)]
        assert np.all(np.abs(J[:, 4] - want) <= 1e-8 * np.maximum(np.abs(want), 1.0))


class TestMotionModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MotionModel(kind="nope", T=1.0, q1=0.0)
        with pytest.raises(ValueError):
            MotionModel(kind=CV, T=0.0, q1=0.0)
        with pytest.raises(ValueError):
            MotionModel(kind=CV, T=1.0, q1=-1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^T: "):
                MotionModel(kind=CV, T=bad, q1=0.0)
            for name in ("q1", "q2"):
                with pytest.raises(ValueError, match=f"^{name}: "):
                    MotionModel(**{"kind": CT, "T": 1.0, "q1": 0.0, name: bad})

    def test_dims(self):
        assert cv_model().dim == 4
        assert ct_model().dim == 5

    def test_kinds_and_linearity(self):
        assert kinematics.MODEL_KINDS == (CV, CT)
        assert cv_model().linear
        assert not ct_model().linear


# names and literals that spell a motion-model case, or the CT state size
_CASE_TOKENS = {"CV", "CT", "cv", "ct", 5}


def _names_case(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _CASE_TOKENS:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _CASE_TOKENS:
            return True
        if (
            isinstance(sub, ast.Constant)
            and not isinstance(sub.value, bool)
            and sub.value in _CASE_TOKENS
        ):
            return True
    return False


def _case_comparisons(path: Path) -> list[str]:
    """``file:line in scope: source`` of each comparison naming a case."""
    text = path.read_text()
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Compare) and any(
                _names_case(op) for op in [child.left, *child.comparators]
            ):
                seg = ast.get_source_segment(text, child)
                found.append(f"{path.name}:{child.lineno} in {scope or '<module>'}: {seg}")
            visit(child, scope)

    visit(ast.parse(text), "")
    return found


def test_only_kinematics_branches_on_the_case():
    # the motion model is the whole case spec: every other module asks the
    # MotionModel (dim, linear, transition, observer_input) instead of
    # comparing the kind or the state size itself
    src = Path(kinematics.__file__).parent
    sites = [
        site
        for path in sorted(src.glob("*.py"))
        if path.name != "kinematics.py"
        for site in _case_comparisons(path)
    ]
    assert not sites, "case decided outside kinematics:\n" + "\n".join(sites)
    # the scan does see the comparisons kinematics itself makes
    assert any("MotionModel.dim" in s for s in _case_comparisons(src / "kinematics.py"))
