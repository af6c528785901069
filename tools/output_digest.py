"""One sha256 over every seeded output of the tracker, for bit-identity checks.

Run it on two trees and compare the last line:

    python3 tools/output_digest.py

or let it compare a revision with the working tree:

    python3 tools/output_digest.py --against HEAD~

It imports ``towedtma`` from the ``src/`` directory of the tree it lives in
and hashes seven parts, printing each part's digest to stderr. The
digests hold for one numpy version, one SIMD dispatch level and one
BLAS/LAPACK build (``OUTPUT_SCHEMA.md``), so stderr opens with those:
numpy's version, the CPU features of its baseline and the dispatch targets
it runs on this CPU (``NPY_DISABLE_CPU_FEATURES`` turns targets off), and
the BLAS and LAPACK libraries it was built with. stdout holds only the
total.

The parts:

* ``runs``: 15 runs (master seed 3) of every (filter, case, mode) cell;
  per run its synthesised inputs (the observer states, the absolute and
  relative truth, and each pair's bearings, heading and time), the
  log-odds, the bank's fused mean (what the run summaries read), the side
  beliefs and the fused estimate built on read of every step, the failure
  string and the true slot.
* ``points``: 50 random beliefs at n = 4 and n = 5 through ``points_for``
  for every sample-point kind; points and weights.
* ``kinematics``: ``ct_transition`` on single states and on batches,
  ``process_jacobian`` and ``observer_input`` over a fixed set of turn
  rates: signed zeros, subnormals, both sides of ``PSI_EPS`` and its
  neighbouring floats, a rate whose libm square is one ulp off
  ``psi * psi``, large and non-finite values, at three intervals.
* ``filters``: 100 random beliefs at n = 4 and n = 5 through ``predict``
  for every filter kind (CV at n = 4, CT at n = 5, each with a random
  observer input) and ``update`` for every filter kind but the SRF,
  ``srf_update``, ``symmetrize`` and
  ``lrtma.fuse`` (weights 0, 1, 1/2 and random), with ``cv_transition`` on
  single states and one batch, and ``wrap_angle`` on an array of edge
  angles: odd multiples of pi and their neighbouring floats, signed zeros,
  1e300, +/-inf and NaN, and ``shifted_rayleigh_moments`` at +/-0, at the
  sample points +/-1, +/-sqrt(2), +/-8 sqrt(2) and +/-37.677 and at -35
  (the edge of its Gamma(2) tail), each with its neighbouring floats. It
  reaches the measurement layer directly, where the scenarios of ``runs``
  may never go. Ten of those beliefs also go through ``update`` (every
  kind) and ``srf_update`` at edge bearings: +/-0, +/-pi and their
  neighbouring floats, the smallest subnormal, +/-1e300, +/-inf and NaN;
  where a call raises, the name of the exception's class is hashed.
  Twenty more CT beliefs, built so that every kind's point set holds turn
  rates on both sides of ``PSI_EPS``, go through ``predict`` for every
  kind.
* ``truth``: ``simkit.gen_target_track`` for CV and CT at T = 0.5 and 1,
  with the default and with zero process noise, each followed by the
  generator's next draw (zero noise must draw nothing); and
  ``relative_truth`` of each track with every observer and with the first
  half of them (the later rows stay the target's); and the observer states
  of ``simkit.gen_observer_track`` for ownship plans whose maneuver breaks
  fall inside a step: 12.4-16.6 min at T = 0.5 and 1, and the default
  13-17 min at T = 0.75 (at T = 0.5 and 1 its breaks fall on samples).
* ``init``: ``lrtma.init_bank`` for CV and CT on fixed first bearings (0,
  +/-pi/2, +/-pi and their neighbouring floats), 40 random ones and +/-inf
  and NaN, each with a random heading and observer, and on its mirrored
  pair (slots swapped, every angle negated, the observer reflected across
  north).
* ``files``: the byte-reproducible files of ``towedtma montecarlo
  --filter all --case all --mode all --runs 20`` (metric series and
  ``summary.json``) and of ``towedtma track --case cv`` / ``--case ct``,
  written to a temporary directory. Each carries its manifest key. The
  montecarlo command runs twice, serially and with ``--workers 2``; the
  tool exits non-zero unless both write the same bytes, which it then
  hashes once. ``towedtma report`` then runs on the serial directory, and
  the tool exits non-zero unless every JSON file there parses with
  ``NaN`` and ``Infinity`` refused. Of ``timings.json`` it hashes the
  layout but not the wall-clock values: the top-level keys,
  ``manifest_key`` and ``note``, and per row its keys, its cell and
  whether ``rel_exec_time`` is null. It hashes ``report.json`` with its
  ``timings`` rows cut to that same row layout.

``--against REV`` exports REV and the working tree into sibling temporary
directories with ``bench_pairs.exported_trees``, the export that
``tools/bench_pairs.py`` runs its pairs in, and runs REV's copy of this
tool and the working tree's copy on each tree. It
prints each tool's digests on the two trees side by side and exits 1,
naming the tool and part, when a tool fails or its digests differ between
the trees. REV's tool shows that the outputs it knew are unchanged; this
tree's tool covers what was added since.

Digests depend on the platform's floating-point libraries, so compare two
trees on one machine; no test stores a digest.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from towedtma import cli, gaussfilt, kinematics, lrtma, sensing, simkit  # noqa: E402

RUNS, SEED = 15, 3
POINT_KINDS = (gaussfilt.UKF, gaussfilt.CKF, gaussfilt.GHF, gaussfilt.SRF)
MOMENT_KINDS = (gaussfilt.EKF, gaussfilt.UKF, gaussfilt.CKF, gaussfilt.GHF)
# the benchmark scenario's process noise, by state dimension
PREDICT_MODELS = {4: kinematics.MotionModel(kinematics.CV, 1.0, 1.944e-6),
                  5: kinematics.MotionModel(kinematics.CT, 1.0, 1.944e-6, 3.78e-7)}


def _feed(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def runs_digest(h) -> None:
    for kind in gaussfilt.FILTER_KINDS:
        for case in kinematics.MODEL_KINDS:
            cfg = simkit.ScenarioConfig(filter_kind=kind, model_kind=case, seed=SEED)
            for mode in simkit.MODES:
                for i in range(RUNS):
                    rec = simkit.simulate_run(cfg, simkit.run_seed(SEED, i), mode=mode)
                    h.update(f"{kind}.{case}.{mode}.{i}:{rec.failure}:{rec.true_slot}".encode())
                    _feed(h, [dataclasses.astuple(o) for o in rec.observers], rec.target_abs,
                          rec.truth_rel, [(p.y1, p.y2, p.heading, p.t) for p in rec.measurements])
                    for est in rec.estimates:
                        _feed(h, [est.log_odds], est.mean)
                        for b in (est.belief1, est.belief2, est.fused):
                            _feed(h, b.mean, b.cov)


def points_digest(h) -> None:
    rng = np.random.default_rng(SEED)
    for n in (4, 5):
        for _ in range(50):
            A = rng.normal(size=(n, n))
            b = gaussfilt.GaussianBelief(rng.normal(size=n), A @ A.T + n * np.eye(n))
            for kind in POINT_KINDS:
                ps = gaussfilt.points_for(kind, b)
                _feed(h, ps.points, ps.weights)


def kinematics_digest(h) -> None:
    eps = kinematics.PSI_EPS
    # 0.027836505711946465: libm pow(psi, 2) and psi * psi differ in the last bit
    rates = [0.0, 5e-324, 1e-300, 1e-12, np.nextafter(eps, 0.0), eps,
             np.nextafter(eps, 1.0), 1e-6, 0.01, 0.027836505711946465, 0.05, 1.0, 3.0,
             1e3, 1e10, 1e200, 1e308, np.inf, np.nan]
    rates = np.array(rates + [-r for r in rates])
    rng = np.random.default_rng(SEED)
    o0, o1 = (kinematics.ObserverState(*rng.normal(size=4), heading=0.0) for _ in range(2))
    with np.errstate(all="ignore"):
        for T in (0.5, 1.0, 2.0):
            model = kinematics.MotionModel(kinematics.CT, T, 0.0)
            states = np.column_stack([rng.normal(size=(len(rates), 4)), rates])
            _feed(h, kinematics.ct_transition(states, T))
            _feed(h, kinematics.ct_transition(states[np.abs(rates) >= eps], T))
            for x in states:
                _feed(h, kinematics.ct_transition(x, T), kinematics.process_jacobian(model, x),
                      kinematics.observer_input(o0, o1, model, x))


def filters_digest(h) -> None:
    rng = np.random.default_rng(SEED)
    weights = (0.0, 1.0, 0.5)
    for n in (4, 5):
        prev = None
        for i in range(100):
            A = rng.normal(size=(n, n))
            b = gaussfilt.GaussianBelief(10.0 * rng.normal(size=n), A @ A.T + 0.1 * np.eye(n))
            y, sigma = rng.uniform(-np.pi, np.pi), rng.uniform(1e-3, 0.1)
            _feed_predicts(h, b, PREDICT_MODELS[n], 0.1 * rng.normal(size=n))
            outs = [gaussfilt.update(b, y, sigma, kind) for kind in MOMENT_KINDS]
            outs.append(gaussfilt.srf_update(b, y, sigma))
            for out in outs:
                _feed(h, out.posterior.mean, out.posterior.cov,
                      [out.pred_meas, out.innov_cov, out.log_likelihood])
            _feed(h, gaussfilt.symmetrize(A))
            if prev is not None:
                w = weights[i % 3] if i % 4 else rng.uniform()
                fused = lrtma.fuse(prev, b, (w, 1.0 - w))
                _feed(h, fused.mean, fused.cov)
            prev = b
    _edge_bearing_updates(h, rng)
    _near_zero_turn_predicts(h, rng)
    states = rng.normal(size=(100, 4))
    for T in (0.5, 1.0, 2.0):
        _feed(h, kinematics.cv_transition(states, T))
        for x in states:
            _feed(h, kinematics.cv_transition(x, T))
    odd_pi = [k * np.pi for k in (1, 3, 5, 7, 101, 1e6 + 1)]
    edges = [0.0, 1e300, np.inf, np.nan, 2 * np.pi] + [
        v for a in odd_pi for v in (a, np.nextafter(a, 0.0), np.nextafter(a, np.inf))]
    angles = np.concatenate([edges, -np.array(edges), rng.uniform(-50.0, 50.0, size=100)])
    with np.errstate(invalid="ignore"):
        _feed(h, sensing.wrap_angle(angles))
    # the SRF range moments at sample points where the scenarios rarely go,
    # and at the Gamma(2) tail's edge -35
    moment_points = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.67712072049519]
    moment_points = moment_points + [-e for e in moment_points] + [-35.0]
    args = [0.0, -0.0] + [v for e in moment_points
                          for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    for u in args:
        _feed(h, gaussfilt.shifted_rayleigh_moments(float(u)))


def _feed_predicts(h, b, model, u) -> None:
    for kind in gaussfilt.FILTER_KINDS:
        prior = gaussfilt.predict(b, model, u, kind)
        _feed(h, prior.mean, prior.cov)


def _near_zero_turn_predicts(h, rng) -> None:
    # a turn rate within PSI_EPS / 2 of zero: the rate row of the factor has
    # no first entry and a last one of 3 PSI_EPS, so every point set holds
    # rates below PSI_EPS (its centre, or the points along the first column)
    # and above it (along the last)
    eps = kinematics.PSI_EPS
    for _ in range(20):
        L = np.tril(rng.normal(size=(5, 5)))
        L[range(4), range(4)] = np.abs(L.diagonal()[:4]) + 0.1
        L[4] = [0.0, *(eps * L[4, 1:4]), 3.0 * eps]
        mean = np.append(10.0 * rng.normal(size=4), 0.5 * eps * rng.uniform(-1.0, 1.0))
        b = gaussfilt.GaussianBelief(mean, L @ L.T)
        _feed_predicts(h, b, PREDICT_MODELS[5], 0.1 * rng.normal(size=5))


def _edge_bearings() -> list:
    edges = [0.0, np.pi, np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0),
             np.nextafter(0.0, 1.0), 1e300, np.inf]
    return edges + [-y for y in edges] + [np.nan]


def _feed_outcome(h, fn, *args) -> None:
    """An update's posterior and reported fields, or its exception's class name."""
    try:
        out = fn(*args)
        _feed(h, out.posterior.mean, out.posterior.cov,
              [out.pred_meas, out.innov_cov, out.log_likelihood])
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        h.update(type(exc).__name__.encode())


def _edge_bearing_updates(h, rng) -> None:
    # update (every kind) and srf_update at bearings a scenario never draws
    with np.errstate(all="ignore"):
        for n in (4, 5):
            for _ in range(5):
                A = rng.normal(size=(n, n))
                b = gaussfilt.GaussianBelief(10.0 * rng.normal(size=n),
                                             A @ A.T + 0.1 * np.eye(n))
                sigma = rng.uniform(1e-3, 0.1)
                for y in _edge_bearings():
                    for kind in gaussfilt.FILTER_KINDS:
                        _feed_outcome(h, gaussfilt.update, b, y, sigma, kind)
                    _feed_outcome(h, gaussfilt.srf_update, b, y, sigma)


def truth_digest(h) -> None:
    for case in kinematics.MODEL_KINDS:
        for T in (0.5, 1.0):
            base = simkit.ScenarioConfig(model_kind=case, T=T, horizon=round(30 / T))
            for cfg in (base, dataclasses.replace(base, q1=0.0, q2=0.0)):
                rng = np.random.default_rng(SEED)
                target = simkit.gen_target_track(cfg, rng)
                # the generator's next draw: a zero-noise truth draws nothing
                _feed(h, target, [rng.standard_normal()], simkit.gen_target_track(cfg))
                observers = simkit.gen_observer_track(cfg)
                _feed(h, simkit.relative_truth(target, observers),
                      simkit.relative_truth(target, observers[: len(observers) // 2]))
    for T, start, end in ((0.5, 12.4, 16.6), (1.0, 12.4, 16.6), (0.75, 13.0, 17.0)):
        cfg = simkit.ScenarioConfig(T=T, horizon=round(30 / T), maneuver_start_min=start,
                                    maneuver_end_min=end)
        _feed(h, [dataclasses.astuple(o) for o in simkit.gen_observer_track(cfg)])


def init_digest(h) -> None:
    rng = np.random.default_rng(SEED)
    prior = simkit.ScenarioConfig().prior()
    edges = [0.0, np.pi / 2, np.pi, np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0)]
    bearings = edges + [-y for y in edges] + list(rng.uniform(-np.pi, np.pi, size=40))
    bearings += [np.inf, -np.inf, np.nan]
    # a non-finite first bearing gives NaN beliefs, with numpy's warnings
    with np.errstate(invalid="ignore"):
        for case in kinematics.MODEL_KINDS:
            model = simkit.ScenarioConfig(model_kind=case).motion_model()
            for y1 in bearings:
                x, y, vx, vy = rng.normal(size=4)
                hd = rng.uniform(-np.pi, np.pi)
                y2 = sensing.wrap_angle(2.0 * hd - y1)
                sides = (
                    (sensing.BearingPair(y1, y2, hd, 1),
                     kinematics.ObserverState(x, y, vx, vy, hd)),
                    (sensing.BearingPair(-y2, -y1, -hd, 1),
                     kinematics.ObserverState(-x, y, -vx, vy, -hd)),
                )
                for pair, obs in sides:
                    bank = lrtma.init_bank(pair, prior, obs, model)
                    for b in (bank.belief1, bank.belief2):
                        _feed(h, b.mean, b.cov)


def _refuse_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def _timings_layout(rows: list) -> list:
    # the rows' cells and keys, not their wall-clock values
    return [[list(row), row["filter"], row["case"], row["mode"], row["rel_exec_time"] is None]
            for row in rows]


def files_digest(h) -> None:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp)
        argv = ["montecarlo", "--filter", "all", "--case", "all", "--mode", "all", "--runs", "20"]
        assert cli.main(argv + ["--out", str(out / "mc")]) == 0
        assert cli.main(argv + ["--workers", "2", "--out", str(out / "pooled")]) == 0
        files = sorted(out.glob("mc/metrics_*.csv")) + [out / "mc" / "summary.json"]
        for path in files:
            if path.read_bytes() != (out / "pooled" / path.name).read_bytes():
                sys.exit(f"files: {path.name} differs between serial and --workers 2")
        for case in kinematics.MODEL_KINDS:
            assert cli.main(["track", "--case", case, "--out", str(out / "track")]) == 0
        files += sorted(out.glob("track/track_*.csv"))
        for path in files:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        assert cli.main(["report", str(out / "mc")]) == 0
        blobs = {}
        for path in sorted(out.glob("mc/*.json")):
            try:
                blobs[path.name] = json.loads(path.read_text(), parse_constant=_refuse_constant)
            except ValueError as exc:
                sys.exit(f"files: {path.name} is not strict JSON ({exc})")
        timings = blobs["timings.json"]
        layout = [list(timings), timings["manifest_key"], timings["note"]]
        h.update(json.dumps(layout + _timings_layout(timings["rows"])).encode())
        report = blobs["report.json"]
        report["timings"] = _timings_layout(report["timings"])
        h.update(json.dumps(report).encode())


PARTS = (("runs", runs_digest), ("points", points_digest), ("kinematics", kinematics_digest),
         ("filters", filters_digest), ("truth", truth_digest), ("init", init_digest),
         ("files", files_digest))


def _numpy_platform() -> list[str]:
    """numpy's version, SIMD baseline and dispatch, and BLAS/LAPACK build."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    on = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    off = [f for f in umath.__cpu_dispatch__ if f not in on]
    lines = [f"numpy {np.__version__}",
             f"cpu baseline: {' '.join(umath.__cpu_baseline__) or '-'}",
             f"cpu dispatch: {' '.join(on) or '-'} (not dispatched: {' '.join(off) or '-'})"]
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = [(k, f"{deps[k].get('name')} {deps[k].get('version')}") for k in ("blas", "lapack")]
    except TypeError:  # numpy < 1.26 has no mode argument
        libs = [(k, ",".join(dict.fromkeys(
            np.__config__.get_info(f"{k}_opt_info").get("libraries", []))))
            for k in ("blas", "lapack")]
    return lines + [f"{k}: {lib or 'unknown'}" for k, lib in libs]


def digest_all() -> int:
    for line in _numpy_platform():
        print(line, file=sys.stderr)
    total = hashlib.sha256()
    for name, part in PARTS:
        h = hashlib.sha256()
        part(h)
        print(f"{name}: {h.hexdigest()}", file=sys.stderr)
        total.update(h.digest())
    print(total.hexdigest())
    return 0


def _run_tool(tree: Path, tool: str) -> dict[str, str] | None:
    """The digests a copy of the tool in ``tree/tools`` prints, the total
    under ``total``; None, after its stderr, if it fails."""
    proc = subprocess.run([sys.executable, str(tree / "tools" / tool)], cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{tool} on {tree.name} exited with code {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    digests = dict(re.findall(r"^(\w+): ([0-9a-f]{64})$", proc.stderr, re.MULTILINE))
    digests["total"] = lines[-1]
    return digests


def against(rev: str) -> int:
    """Run ``rev``'s tool and this tree's tool on ``rev`` and on the working
    tree, print each tool's digests side by side, and return 1 if a tool
    fails or its digests differ between the trees."""
    import bench_pairs  # the sibling tool, on sys.path as this script's directory

    with bench_pairs.exported_trees(rev) as (commit, *trees):
        # each tool hashes the package of the tree it sits in
        tools = {f"_digest_{name}.py": tree / "tools" / "output_digest.py"
                 for name, tree in zip(("rev", "tree"), trees)}
        for tree in trees:
            for name, src in tools.items():
                shutil.copyfile(src, tree / "tools" / name)
        bad = []
        for name, label in zip(tools, (f"{rev}'s tool", "this tree's tool")):
            runs = [_run_tool(tree, name) for tree in trees]
            print(f"{label}: {rev} ({commit[:12]}) | working tree")
            if None in runs:
                bad.append(f"{label} failed")
                continue
            for part in dict.fromkeys([*runs[0], *runs[1]]):
                a, b = (r.get(part, "missing") for r in runs)
                print(f"  {part:10s} {a[:16]}  {b[:16]}  {'same' if a == b else 'DIFFERS'}")
                if a != b:
                    bad.append(f"{label}: {part}")
    for what in bad:
        print(f"differs: {what}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="compare REV with the working tree under both trees' tools")
    args = ap.parse_args(argv)
    return digest_all() if args.against is None else against(args.against)


if __name__ == "__main__":
    sys.exit(main())
