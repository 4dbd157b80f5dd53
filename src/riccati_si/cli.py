"""Command line harness: run solvers from JSON configs, overlay convergence
histories, and run the self-check suites.

Exit codes: 0 converged / all checks pass, 1 configuration error, 2 solver
stopped at max_iter, 3 solver breakdown, 4 self-check violation.

``run`` and ``compare`` share one rule. Anything that fails before the
solver call (parsing the config, building the problem, building or
checking the shift list) is a bad config: exit 1, an ``error:`` line and
no outputs. Anything the solver call raises is a breakdown: exit 3, with
the partial history when the solver kept one. ``compare`` prepares every
config before it solves any.
"""

from __future__ import annotations

import argparse
import inspect
import json
import operator
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .problems import (
    CareProblem,
    load_problem,
    make_laplacian_problem,
    make_toeplitz_problem,
    random_stable_problem,
)
from .shifts import ShiftSequence, penzl_shifts
from .dense import (
    analyze_hamiltonian,
    care_residual,
    convergence_bound,
    dense_care_solve,
    dense_subspace_iteration,
    spectral_radius_identity_check,
)
from .ilrsi import (
    ConvergenceHistory,
    _fmt,
    check_stopping,
    ilrsi_solve,
    residual_norm,
)
from .rksm import (
    _check_pairs,
    build_distinct_basis,
    check_entrywise_T,
    check_sylvester_identity,
    rksm_solve,
)

_SOLVERS = ("ilrsi", "rksm", "dense_fixed_point", "dense_exact")


def _adaptive_poles(problem, variant="plain"):
    if variant not in ("plain", "stabilized"):
        raise ValueError(
            f"shifts.variant must be plain or stabilized, got {variant!r}")
    return f"adaptive_{variant}"


def _shift_file(problem, path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"shift file {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "shifts" in doc:
        doc = doc["shifts"]
    return ShiftSequence(tuple(complex(re, im) for re, im in doc))


_REQUIRED = object()  # the config must give the key
_OWN = object()  # passed only when given, so the builder's default applies

# Every key of the problem and shifts sections: for each kind, its builder
# and, per key, the JSON type and default. Problem keys go to the builder
# by position in this order (random_stable also gets the top-level seed),
# shift keys by name after the problem.
_KEYS = {
    "problem": {
        "laplacian": (make_laplacian_problem, {"m": (int, 10)}),
        "toeplitz": (make_toeplitz_problem,
                     {"n": (int, 500), "normalize_b": (bool, _OWN)}),
        "random_stable": (random_stable_problem,
                          {"n": (int, 40), "p": (int, 1), "q": (int, 1)}),
        "files": (load_problem, {"a": (str, _REQUIRED), "b": (str, _REQUIRED),
                                 "c": (str, _REQUIRED), "e": (str, _OWN)}),
    },
    "shifts": {
        "penzl": (penzl_shifts, {"m": (int, _OWN), "m1": (int, _OWN),
                                 "m2": (int, _OWN), "mode": (str, _OWN)}),
        "adaptive": (_adaptive_poles, {"variant": (str, _OWN)}),
        "file": (_shift_file, {"path": (str, _REQUIRED)}),
    },
}
_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _typed(where, value, typ):
    """value if it has the JSON type typ; a bool is not an integer."""
    if typ is int and not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    elif typ is not int and isinstance(value, typ):
        return value
    raise ValueError(f"{where} must be {_TYPE_NAMES[typ]}, got {value!r}")


def _section(name, spec):
    """One section checked against its table, with the table's defaults
    filled in."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name} must be a JSON object, got {spec!r}")
    kinds = _KEYS[name]
    kind = spec.get("kind")
    if kind not in kinds:
        raise ValueError(
            f"{name}.kind must be one of {sorted(kinds)}, got {kind!r}")
    keys = kinds[kind][1]
    extra = set(spec) - {"kind", *keys}
    if extra:
        raise ValueError(f"unknown key(s) {sorted(extra)} in {name} "
                         f"({kind}); allowed: {sorted(keys)}")
    checked = {"kind": kind}
    for key, (typ, default) in keys.items():
        if key in spec:
            checked[key] = _typed(f"{name}.{key}", spec[key], typ)
        elif default is _REQUIRED:
            raise ValueError(f"{name}.{key} is required for {kind}")
        elif default is not _OWN:
            checked[key] = default
    return checked


@dataclass
class RunConfig:
    """One solver run parsed from a JSON document."""

    problem: dict
    solver: str
    shifts: dict | None = None
    tol: float = 1e-8
    max_iter: int = 100
    seed: int = 0

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        allowed = {f.name for f in fields(cls)}
        if set(d) - allowed:
            raise ValueError(f"unknown key(s) {sorted(set(d) - allowed)} in "
                             f"config; allowed: {sorted(allowed)}")
        if d.get("solver") not in _SOLVERS:
            raise ValueError(
                f"solver must be one of {_SOLVERS}, got {d.get('solver')!r}")
        cfg = cls(**{**d, "problem": _section("problem", d.get("problem"))})
        if (cfg.shifts is None) != (cfg.solver == "dense_exact"):
            raise ValueError(f"solver {cfg.solver} takes no shifts"
                             if cfg.shifts is not None else
                             f"solver {cfg.solver} requires a shifts spec")
        if cfg.shifts is not None:
            cfg.shifts = _section("shifts", cfg.shifts)
            if cfg.shifts["kind"] == "adaptive" and cfg.solver != "rksm":
                raise ValueError(
                    f"adaptive shifts require the rksm solver; give "
                    f"{cfg.solver} a penzl or file shift spec")
        cfg.tol, cfg.max_iter = check_stopping(cfg.tol, cfg.max_iter)
        cfg.seed = _typed("seed", cfg.seed, int)
        return cfg


def _problem_call(cfg: RunConfig):
    """The problem's builder and its bound arguments, the builder's own
    defaults applied: configs with equal calls build the same problem."""
    spec = dict(cfg.problem)
    build = _KEYS["problem"][spec.pop("kind")][0]
    seed = {"seed": cfg.seed} if build is random_stable_problem else {}
    call = inspect.signature(build).bind(*spec.values(), **seed)
    call.apply_defaults()
    return build, call


# what _prepare raises on a bad config
_BAD_CONFIG = (ValueError, TypeError, OSError)


def _prepare(doc):
    """Everything before the solver call: parse the config, build the
    problem and the shift input. Returns (cfg, problem, shifts), where
    shifts is a ShiftSequence for precomputed kinds, the adaptive strategy
    string for rksm and [] for dense_exact."""
    cfg = RunConfig.from_dict(doc)
    build, call = _problem_call(cfg)
    problem = build(*call.args, **call.kwargs)
    if cfg.shifts is None:
        return cfg, problem, []
    spec = dict(cfg.shifts)
    kind = spec.pop("kind")
    shifts = _KEYS["shifts"][kind][0](problem, **spec)
    if (cfg.solver == "rksm" and kind != "adaptive"
            and problem.A.dtype.kind != "c"):
        _check_pairs(shifts.values)
    return cfg, problem, shifts


def _relative_rank(X):
    s = np.linalg.svd(X, compute_uv=False)
    return int(np.count_nonzero(s > 1e-12 * max(s[0], 1e-300)))


def _dense_exact_run(problem):
    X = dense_care_solve(problem)
    cc = float(np.linalg.norm(problem.C.conj().T @ problem.C))
    E = None if problem.E is None else problem.E.toarray()
    R = care_residual(problem.A.toarray(), problem.B, problem.C, X, E)
    history = ConvergenceHistory(status="converged")
    history.append(1, dim=problem.n, rank=_relative_rank(X),
                   rel_residual=float(np.linalg.norm(R)) / cc)
    return history


def _dense_fixed_point_run(problem, shifts, cfg):
    history = ConvergenceHistory()
    cc = float(np.linalg.norm(problem.C @ problem.C.conj().T))
    A = problem.A.toarray()
    X = None
    for it in range(1, cfg.max_iter + 1):
        alpha = shifts[(it - 1) % len(shifts)]
        X = dense_subspace_iteration(problem, [alpha], X0=X)[-1].X
        rel = float(np.linalg.norm(
            care_residual(A, problem.B, problem.C, X))) / cc
        history.append(it, dim=problem.n, rank=_relative_rank(X),
                       rel_residual=rel)
        if rel <= cfg.tol:
            history.status = "converged"
            break
    else:
        history.status = "max_iter"
    return history


def _solve(cfg: RunConfig, problem: CareProblem, shifts, label=None):
    """Run one prepared config; returns (history, shift list used).

    Whatever the solver call raises is a breakdown, reported on stderr
    (after the run's label, if given): a SolverBreakdown keeps its partial
    history, anything else (a LinAlgError is a ValueError) gets an empty
    one."""
    try:
        if cfg.solver == "dense_exact":
            return _dense_exact_run(problem), []
        if cfg.solver == "dense_fixed_point":
            return _dense_fixed_point_run(problem, shifts, cfg), \
                list(shifts.values)
        solve = ilrsi_solve if cfg.solver == "ilrsi" else rksm_solve
        solution, history = solve(problem, shifts, tol=cfg.tol,
                                  max_iter=cfg.max_iter)
        return history, list(solution.shifts_used)
    except (RuntimeError, ValueError) as exc:
        where = f"{label}: " if label else ""
        print(f"breakdown: {where}{exc}", file=sys.stderr)
        history = getattr(exc, "history", None) or ConvergenceHistory()
        history.status = "breakdown"
        return history, []


def _atomic_write(path, data: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_EXIT_BY_STATUS = {"converged": 0, "max_iter": 2, "breakdown": 3}


def _summary_doc(cfg, history, shifts_used):
    last = history.records[-1] if history.records else None
    return {
        "status": history.status,
        "iterations": len(history.records),
        "final_dim": last.dim if last else 0,
        "final_rank": last.rank if last else 0,
        "final_rel_residual": last.rel_residual if last else None,
        "solver": cfg.solver,
        "tol": cfg.tol,
        "shifts": [[s.real, s.imag] for s in map(complex, shifts_used)],
    }


def cmd_run(doc, out_dir=".") -> int:
    """Run one config; write history CSV + summary JSON into out_dir."""
    try:
        cfg, problem, shifts = _prepare(doc)
    except _BAD_CONFIG as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    history, shifts_used = _solve(cfg, problem, shifts)
    _atomic_write(os.path.join(out_dir, "history.csv"), history.to_csv())
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(_summary_doc(cfg, history, shifts_used),
                             indent=2, sort_keys=True) + "\n")
    return _EXIT_BY_STATUS.get(history.status, 3)


def cmd_compare(docs, out_dir=".") -> int:
    """Run several configs on the same problem; write a CSV of residual
    versus space dimension with one column per run, plus a verdict JSON.
    Every config is prepared before any is solved."""
    if len(docs) < 2:
        print("error: compare needs at least two configs", file=sys.stderr)
        return 1
    prepared = []
    for i, doc in enumerate(docs):
        try:
            prepared.append(_prepare(doc))
        except _BAD_CONFIG as exc:
            print(f"error: config {i}: {exc}", file=sys.stderr)
            return 1
    calls = [_problem_call(cfg) for cfg, _, _ in prepared]
    if any(call != calls[0] for call in calls):
        print("error: configs disagree on the problem under test",
              file=sys.stderr)
        return 1

    series = []
    reached = {}
    worst = 0
    for i, (cfg, problem, shifts) in enumerate(prepared):
        label = f"run{i}_{cfg.solver}"
        if cfg.shifts is not None:
            label += "_" + (shifts if isinstance(shifts, str)
                            else cfg.shifts["kind"])
        history, _ = _solve(cfg, problem, shifts, label)
        per_dim = {}
        hit = None
        for r in history.records:
            if r.rel_residual == r.rel_residual:
                per_dim[r.dim] = r.rel_residual
                if hit is None and r.rel_residual <= cfg.tol:
                    hit = r.dim
        series.append(per_dim)
        reached[label] = hit
        worst = max(worst, _EXIT_BY_STATUS.get(history.status, 3))

    dims = sorted(set().union(*series))
    lines = ["dim," + ",".join(f"rel_residual_{lb}" for lb in reached)]
    for d in dims:
        row = [str(d)]
        for s in series:
            row.append(_fmt(s[d]) if d in s else "")
        lines.append(",".join(row))
    _atomic_write(os.path.join(out_dir, "compare.csv"), "\n".join(lines) + "\n")

    finishers = {lb: d for lb, d in reached.items() if d is not None}
    tied = [lb for lb, d in finishers.items() if d == min(finishers.values())]
    winner = tied[0] if len(tied) == 1 else "tie"
    verdict = {"winner": winner, "reached_tol_at_dim": reached}
    _atomic_write(os.path.join(out_dir, "verdict.json"),
                  json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    print(json.dumps(verdict, sort_keys=True))
    return worst


# ---------------------------------------------------------------------------
# self-check suites

def _suite_identities(rng):
    checks = []
    for trial in range(3):
        n = int(rng.integers(20, 51))
        k = int(rng.integers(3, 11))
        prob = random_stable_problem(n, 1, 1, seed=int(rng.integers(1 << 30)))
        base = 0.2 + 5.0 * rng.random(k)
        shifts = [complex(b) for b in np.unique(base)]
        data = build_distinct_basis(prob, shifts)
        defect = check_sylvester_identity(data)
        thr = 1e-10 * np.linalg.norm(data.T)
        checks.append({"check": "check_sylvester_identity", "instance": trial,
                       "defect": defect, "threshold": thr,
                       "pass": bool(defect <= thr)})
        err = check_entrywise_T(data)
        checks.append({"check": "check_entrywise_T", "instance": trial,
                       "defect": err, "threshold": 1e-10,
                       "pass": bool(err <= 1e-10)})
    return checks


def _suite_oracle(rng):
    checks = []
    from .ilrsi import ilrsi_init, ilrsi_step
    for trial in range(3):
        n = int(rng.integers(10, 41))
        prob = random_stable_problem(n, 1, 1, seed=int(rng.integers(1 << 30)))
        shifts = penzl_shifts(prob, m=4)
        vals = [complex(v) for v in shifts.values]
        seq = [vals[i % len(vals)] for i in range(6)]
        traj = dense_subspace_iteration(prob, seq)
        st = None
        worst = 0.0
        for i, a in enumerate(seq):
            st = ilrsi_init(prob, a) if st is None else ilrsi_step(st, a)
            Xk = st.solution.to_dense()
            ref = traj[i].X
            worst = max(worst, np.linalg.norm(Xk - ref)
                        / max(np.linalg.norm(ref), 1e-300))
        checks.append({"check": "ilrsi_vs_dense_iteration", "instance": trial,
                       "defect": worst, "threshold": 1e-8,
                       "pass": bool(worst <= 1e-8)})
        rn = residual_norm(prob, st.residual_factor)
        A = prob.A.toarray()
        X = st.solution.to_dense()
        dense_rn = np.linalg.norm(care_residual(A, prob.B, prob.C, X))
        rerr = abs(rn - dense_rn) / max(dense_rn, 1e-300)
        checks.append({"check": "residual_norm_vs_dense", "instance": trial,
                       "defect": rerr, "threshold": 1e-10,
                       "pass": bool(rerr <= 1e-10)})
    return checks


def _suite_bound(rng):
    checks = []
    for trial in range(3):
        n = int(rng.integers(5, 11))
        prob = random_stable_problem(n, 1, 1, seed=int(rng.integers(1 << 30)))
        shifts = penzl_shifts(prob, m=3)
        vals = [complex(v) for v in shifts.values][:4]
        an = analyze_hamiltonian(prob, vals)
        checks.append({"check": "distance_d_below_one", "instance": trial,
                       "defect": an.d, "threshold": 1.0,
                       "pass": bool(an.d < 1.0)})
        ok = True
        gap = 0.0
        for k in range(1, len(vals) + 1):
            dist, bound = convergence_bound(an, k)
            if dist > bound * (1 + 1e-9):
                ok = False
                gap = max(gap, dist - bound)
        checks.append({"check": "distance_below_bound", "instance": trial,
                       "defect": gap, "threshold": 0.0, "pass": bool(ok)})
        defect = spectral_radius_identity_check(an)
        checks.append({"check": "spectral_radius_identity", "instance": trial,
                       "defect": defect, "threshold": 1e-8,
                       "pass": bool(defect <= 1e-8)})
    return checks


_SUITES = {"identities": _suite_identities, "oracle": _suite_oracle,
           "bound": _suite_bound}


def cmd_verify(suite, out_dir=".") -> int:
    """Run one self-check suite on seeded instances; dump a JSON report."""
    if suite not in _SUITES:
        print(f"error: unknown suite {suite!r}; choose from "
              f"{sorted(_SUITES)}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks = _SUITES[suite](rng)
    failed = [c for c in checks if not c["pass"]]
    report = {"suite": suite, "checks": checks,
              "failed": [c["check"] for c in failed]}
    _atomic_write(os.path.join(out_dir, f"verify_{suite}.json"),
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"suite": suite, "failed": report["failed"]},
                     sort_keys=True))
    if failed:
        for c in failed:
            print(f"violated: {c['check']} (defect {c['defect']:.3e}, "
                  f"threshold {c['threshold']:.3e})", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riccati-si",
        description="Low-rank Riccati solvers: run, compare, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one solver config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=".")
    p_cmp = sub.add_parser("compare", help="overlay several runs")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--out", default=".")
    p_ver = sub.add_parser("verify", help="run a self-check suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify(args.suite, out_dir=args.out)
    docs = []
    for path in [args.config] if args.command == "run" else args.configs:
        try:
            with open(path) as fh:
                docs.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
            return 1
    if args.command == "run":
        return cmd_run(docs[0], out_dir=args.out)
    return cmd_compare(docs, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
