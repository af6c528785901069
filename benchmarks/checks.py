"""Correctness checks every workload runs when it ends.

The checks recompute results apart from the program (plain numpy, or
``scipy.integrate.quad``) or test properties the method must have. None
compares against stored numbers, so they keep holding after a change that
corrects the method.
"""

from __future__ import annotations

import math
import sys

import numpy as np

RTOL = 1e-12


class Checks:
    """Collects (name, ok, detail) results; one failure makes the run incorrect."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def report(self, stream=sys.stderr) -> None:
        for name, ok, detail in self.results:
            print(f"check {'PASS' if ok else 'FAIL'} {name} {detail}", file=stream)


def close(a, b, rtol: float = RTOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return a.shape == b.shape and bool(
        np.all((np.isnan(a) & np.isnan(b)) | (np.abs(a - b) <= rtol * scale))
    )


def reduce_cell(sums, bound: float) -> dict:
    """Track loss and the per-step error curves from per-run errors.

    Runs that diverged or failed are left out of the curves; failed runs
    and runs ending beyond ``bound`` count as lost.
    """
    kept = [s for s in sums if not s.diverged and not s.failed]
    lost = sum(1 for s in sums if s.failed or s.terminal_range_error > bound)
    out = {"n_runs": len(sums), "track_loss_pct": 100.0 * lost / len(sums), "included": len(kept)}
    if kept:
        pos = np.array([s.pos_err for s in kept])  # (runs, steps, 2)
        vel = np.array([s.vel_err for s in kept])
        out["rmse_pos"] = np.sqrt(np.einsum("rkc,rkc->k", pos, pos) / len(kept))
        out["rmse_vel"] = np.sqrt(np.einsum("rkc,rkc->k", vel, vel) / len(kept))
        out["bias_pos"] = np.hypot(*(pos.sum(axis=0) / len(kept)).T)
    return out


def cell_metric_errors(sums, bound: float, evalkit) -> list[str]:
    """Where evalkit's RMSE, bias norm and track loss differ from :func:`reduce_cell`."""
    ref = reduce_cell(sums, bound)
    errs = []
    if not close(evalkit.track_loss_pct(sums, bound), ref["track_loss_pct"]):
        errs.append("track loss")
    if ref["included"]:
        if not (close(evalkit.rmse(sums, "position").values, ref["rmse_pos"])
                and close(evalkit.rmse(sums, "velocity").values, ref["rmse_vel"])):
            errs.append("rmse")
        if not close(evalkit.bias_norm(sums, "position").values, ref["bias_pos"]):
            errs.append("bias norm")
    return errs


class CellAccumulator:
    """Running sums of one Monte Carlo cell for the checks made at the end.

    Memory stays constant however many rounds a run makes, so the peak
    resident set does not grow with the machine's speed.
    """

    def __init__(self, label: str, resolved: bool, bound: float) -> None:
        self.label = label
        self.resolved = resolved
        self.bound = bound
        self.metric_errors: list[str] = []
        self.non_diverged = 0
        self.decided = 0
        self.kept = 0
        self.err_sum = 0.0
        self.sq_sum = 0.0

    def add(self, r: int, sums, evalkit) -> None:
        self.metric_errors += [f"round {r}: {e}" for e in cell_metric_errors(sums, self.bound, evalkit)]
        for s in sums:
            if not s.diverged:
                self.non_diverged += 1
                self.decided += s.terminal_max_weight >= 0.99
            if not s.diverged and not s.failed:
                self.kept += 1
                self.err_sum = self.err_sum + s.pos_err
                self.sq_sum = self.sq_sum + np.sum(s.pos_err**2, axis=1)

    def check(self, checks: Checks) -> None:
        """evalkit against numpy, then AC3 (resolved mode) and AC4's bias properties."""
        label = self.label
        checks.expect(f"{label}.metrics", not self.metric_errors, "; ".join(self.metric_errors[:3]))
        if self.resolved:
            frac = self.decided / max(self.non_diverged, 1)
            checks.expect(f"{label}.decided", frac > 0.95,
                          f"{100 * frac:.1f}% of {self.non_diverged}")
        if not self.kept:
            checks.expect(f"{label}.bias", False, "every run diverged")
            return
        b = np.hypot(*(self.err_sum / self.kept).T)
        r = np.sqrt(self.sq_sum / self.kept)
        checks.expect(
            f"{label}.bias",
            b[-1] <= r[-1] and b[-1] <= b[-10],
            f"bias {b[-1]:.3f} (10 steps before {b[-10]:.3f}) rmse {r[-1]:.3f}",
        )


def wrap(a: float) -> float:
    """Angle wrapped to (-pi, pi], written apart from the program's own."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def mirror_errors(pairs, wrap_angle) -> int:
    """Pairs that are not the exact mirror y2 == wrap(2h - y1)."""
    return sum(
        1
        for p in pairs
        if p.y2 != wrap_angle(2.0 * p.heading - p.y1)
        or abs(wrap(p.y2 - wrap(2.0 * p.heading - p.y1))) > 1e-12
    )


def mixture_error(bank) -> str:
    """Empty if the bank's weights and fused moments are right, else why."""
    w1, w2 = bank.w1, bank.w2
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0 and abs(w1 + w2 - 1.0) <= 1e-12):
        return f"weights {w1!r}, {w2!r}"
    m1, m2 = bank.belief1.mean, bank.belief2.mean
    mean = w1 * m1 + w2 * m2
    d1, d2 = m1 - mean, m2 - mean
    cov = w1 * (bank.belief1.cov + np.outer(d1, d1)) + w2 * (
        bank.belief2.cov + np.outer(d2, d2)
    )
    if not (close(bank.fused.mean, mean, 1e-10) and close(bank.fused.cov, cov, 1e-10)):
        return "fused moments differ from the mixture of the sides"
    return ""


def _srf_moments_quad(u: float) -> tuple[float, float]:
    from scipy.integrate import quad

    # r^k exp(-(r-u)^2/2) scaled by exp(u^2/2) for u < 0, so nothing underflows
    if u >= 0:
        upper, pts = u + 40.0, [u]
        expo = lambda r: -0.5 * (r - u) ** 2
    else:
        upper, pts = 40.0, None
        expo = lambda r: -0.5 * r * r + u * r
    m = [
        quad(lambda r, k=k: r**k * math.exp(expo(r)), 0.0, upper, points=pts,
             epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for k in (1, 2, 3)
    ]
    return m[1] / m[0], m[2] / m[0]


def check_srf_moments(checks: Checks, captured) -> None:
    """Captured shifted-Rayleigh moments against numerical integration.

    For u >= 0 the program's closed form is well conditioned and must agree
    to 1e-10. For u < 0 it subtracts nearly equal terms (up to 7e-6 lost
    near u = -30) and below u = -35 switches to a Gamma(2) approximation
    (0.6% off at the switch); those arguments are held to 1e-2, which still
    catches a wrong formula. Both losses are recorded in CHANGES.md.
    """
    worst = {True: 0.0, False: 0.0}
    for args, kwargs, out in captured:
        u = float(args[0] if args else kwargs["u"])
        ref = _srf_moments_quad(u)
        err = max(abs(a - b) / abs(b) for a, b in zip(out, ref))
        worst[u >= 0] = max(worst[u >= 0], err)
    checks.expect(
        "srf_moments.quad",
        worst[True] <= 1e-10 and worst[False] <= 1e-2,
        f"{len(captured)} calls, worst rel {worst[True]:.1e} (u >= 0), {worst[False]:.1e} (u < 0)",
    )


def check_point_sets(checks: Checks, captured) -> None:
    """Captured point sets reproduce their belief's mean and covariance."""
    worst = 0.0
    for args, kwargs, ps in captured:
        belief = args[1] if len(args) > 1 else kwargs["belief"]
        w, x = ps.weights, ps.points
        mean = w @ x
        d = x - mean
        cov = (w[:, None] * d).T @ d
        scale = max(float(np.max(np.abs(belief.cov))), 1e-300)
        worst = max(
            worst,
            float(np.max(np.abs(mean - belief.mean))) / max(float(np.max(np.abs(belief.mean))), 1e-300),
            float(np.max(np.abs(cov - belief.cov))) / scale,
        )
    checks.expect(
        "point_sets.moments", worst <= 1e-10, f"{len(captured)} sets, worst rel {worst:.1e}"
    )


def schema_errors(obj, schema, where: str = "report") -> list[str]:
    """Errors of ``obj`` against the subset of JSON Schema the report uses."""
    kinds = {
        "object": dict, "array": list, "string": str, "integer": int,
        "number": (int, float), "boolean": bool, "null": type(None),
    }
    errs = []
    t = schema.get("type")
    if t is not None:
        allowed = tuple(kinds[x] for x in (t if isinstance(t, list) else [t]))
        if isinstance(obj, bool) and bool not in allowed or not isinstance(obj, allowed):
            return [f"{where}: {type(obj).__name__} is not {t}"]
    if isinstance(obj, dict):
        errs += [f"{where}: no {k!r}" for k in schema.get("required", []) if k not in obj]
        for k, sub in schema.get("properties", {}).items():
            if k in obj:
                errs += schema_errors(obj[k], sub, f"{where}.{k}")
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            errs += schema_errors(item, schema["items"], f"{where}[{i}]")
    return errs
