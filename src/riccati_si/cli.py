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
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, field

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
    CSV_HEADER,
    ConvergenceHistory,
    SolverBreakdown,
    _fmt,
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

_PROBLEM_KEYS = {
    "laplacian": {"m"},
    "toeplitz": {"n", "normalize_b", "raw"},
    "random_stable": {"n", "p", "q"},
    "files": {"a", "b", "c", "e"},
}
_SHIFT_KEYS = {
    "penzl": {"m", "m1", "m2", "mode"},
    "adaptive": {"variant"},
    "file": {"path"},
}
_SOLVERS = ("ilrsi", "rksm", "dense_fixed_point", "dense_exact")
_TOP_KEYS = {"problem", "solver", "shifts", "tol", "max_iter",
             "truncation_tol", "seed", "out"}


class ConfigError(ValueError):
    pass


def _reject_unknown(d, allowed, where):
    extra = set(d) - allowed
    if extra:
        raise ConfigError(
            f"unknown key(s) {sorted(extra)} in {where}; allowed: "
            f"{sorted(allowed)}"
        )


@dataclass
class RunConfig:
    """One solver run parsed from a JSON document."""

    problem: dict
    solver: str
    shifts: dict | None = None
    tol: float = 1e-8
    max_iter: int = 100
    truncation_tol: float | None = None
    seed: int = 0
    out: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(d, _TOP_KEYS, "config")
        if "problem" not in d:
            raise ConfigError("config is missing the problem field")
        prob = dict(d["problem"])
        kind = prob.pop("kind", None)
        if kind not in _PROBLEM_KEYS:
            raise ConfigError(
                f"problem.kind must be one of {sorted(_PROBLEM_KEYS)}, "
                f"got {kind!r}"
            )
        _reject_unknown(prob, _PROBLEM_KEYS[kind], f"problem ({kind})")
        solver = d.get("solver")
        if solver not in _SOLVERS:
            raise ConfigError(f"solver must be one of {_SOLVERS}, got {solver!r}")
        shifts = d.get("shifts")
        if shifts is not None:
            shifts = dict(shifts)
            skind = shifts.pop("kind", None)
            if skind not in _SHIFT_KEYS:
                raise ConfigError(
                    f"shifts.kind must be one of {sorted(_SHIFT_KEYS)}, "
                    f"got {skind!r}"
                )
            _reject_unknown(shifts, _SHIFT_KEYS[skind], f"shifts ({skind})")
            shifts["kind"] = skind
        tol = float(d.get("tol", 1e-8))
        if tol <= 0:
            raise ConfigError(f"tol must be positive, got {tol}")
        max_iter = int(d.get("max_iter", 100))
        if max_iter < 0:
            raise ConfigError(f"max_iter must be nonnegative, got {max_iter}")
        trunc = d.get("truncation_tol")
        if trunc is not None:
            trunc = float(trunc)
            if not 0.0 < trunc < 1.0:
                raise ConfigError(
                    f"truncation_tol must be in (0, 1), got {trunc}"
                )
        out = d.get("out", {})
        if out:
            _reject_unknown(out, {"history", "summary"}, "out")
        prob["kind"] = kind
        return cls(problem=prob, solver=solver, shifts=shifts, tol=tol,
                   max_iter=max_iter, truncation_tol=trunc,
                   seed=int(d.get("seed", 0)), out=dict(out))


def _build_problem(cfg: RunConfig) -> CareProblem:
    spec = dict(cfg.problem)
    kind = spec.pop("kind")
    if kind == "laplacian":
        return make_laplacian_problem(int(spec.get("m", 10)))
    if kind == "toeplitz":
        return make_toeplitz_problem(
            int(spec.get("n", 500)),
            normalize_b=bool(spec.get("normalize_b", True)),
            raw=bool(spec.get("raw", False)),
        )
    if kind == "random_stable":
        return random_stable_problem(
            int(spec.get("n", 40)), int(spec.get("p", 1)),
            int(spec.get("q", 1)), seed=cfg.seed,
        )
    return load_problem(spec["a"], spec["b"], spec["c"], spec.get("e"))


def _build_shifts(cfg: RunConfig, problem: CareProblem):
    """Materialize the shift spec and check that it fits the solver: a
    ShiftSequence for precomputed kinds, the adaptive strategy string for
    rksm, [] for dense_exact."""
    if cfg.solver == "dense_exact":
        return []
    spec = cfg.shifts
    if spec is None:
        raise ConfigError(f"solver {cfg.solver!r} requires a shifts spec")
    kind = spec["kind"]
    if kind == "adaptive":
        if cfg.solver != "rksm":
            raise ConfigError(
                f"adaptive shifts require the rksm solver; give {cfg.solver} "
                "a penzl or file shift spec"
            )
        variant = spec.get("variant", "plain")
        if variant not in ("plain", "stabilized"):
            raise ConfigError(
                f"shifts.variant must be plain or stabilized, got {variant!r}"
            )
        return f"adaptive_{variant}"
    if kind == "penzl":
        shifts = penzl_shifts(
            problem, m=int(spec.get("m", 10)), m1=int(spec.get("m1", 20)),
            m2=int(spec.get("m2", 10)), mode=spec.get("mode", "on_A"),
        )
    else:
        with open(spec["path"]) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "shifts" in doc:
            doc = doc["shifts"]
        shifts = ShiftSequence.from_json(json.dumps(doc))
    if cfg.solver == "rksm" and problem.A.dtype.kind != "c":
        _check_pairs(shifts)
    return shifts


def _prepare(doc):
    """Everything before the solver call: parse the config, build the
    problem and the shift input. Returns (cfg, problem, shifts); any failure
    here is a ConfigError."""
    try:
        cfg = RunConfig.from_dict(doc)
        problem = _build_problem(cfg)
        return cfg, problem, _build_shifts(cfg, problem)
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _relative_rank(X):
    s = np.linalg.svd(X, compute_uv=False)
    return int(np.count_nonzero(s > 1e-12 * max(s[0], 1e-300)))


def _dense_exact_run(problem):
    X = dense_care_solve(problem)
    cc = float(np.linalg.norm(problem.C.conj().T @ problem.C))
    A = problem.A.toarray()
    B, C = problem.B, problem.C
    if problem.E is None:
        R = care_residual(A, B, C, X)
    else:
        E = problem.E.toarray()
        XE = X @ E
        R = (A.conj().T @ XE + XE.conj().T @ A
             - XE.conj().T @ (B @ B.conj().T) @ XE
             + C.conj().T @ C)
    history = ConvergenceHistory(status="converged")
    history.append(1, dim=problem.n, rank=_relative_rank(X),
                   rel_residual=float(np.linalg.norm(R)) / cc)
    return history


def _dense_fixed_point_run(problem, shifts, cfg):
    history = ConvergenceHistory()
    cc = float(np.linalg.norm(problem.C @ problem.C.conj().T))
    X = None
    for it in range(1, cfg.max_iter + 1):
        alpha = shifts[(it - 1) % len(shifts)]
        X = dense_subspace_iteration(problem, [alpha], X0=X)[-1].X
        rel = float(np.linalg.norm(
            care_residual(problem.A.toarray(), problem.B, problem.C, X))) / cc
        history.append(it, dim=problem.n, rank=_relative_rank(X),
                       rel_residual=rel)
        if rel <= cfg.tol:
            history.status = "converged"
            break
    else:
        history.status = "max_iter"
    return history


def _solve(cfg: RunConfig, problem: CareProblem, shifts):
    """Run one prepared config; returns (history, shift list used).

    Whatever the solver call raises is a breakdown, reported on stderr: a
    SolverBreakdown keeps its partial history, anything else (a LinAlgError
    is a ValueError) gets an empty one."""
    try:
        if cfg.solver == "dense_exact":
            return _dense_exact_run(problem), []
        if cfg.solver == "dense_fixed_point":
            return _dense_fixed_point_run(problem, shifts, cfg), \
                list(shifts.values)
        options = {"tol": cfg.tol, "max_iter": cfg.max_iter}
        if cfg.solver == "ilrsi":
            if cfg.truncation_tol is not None:
                options["truncation_tol"] = cfg.truncation_tol
            solution, history = ilrsi_solve(problem, shifts, options)
        else:
            solution, history = rksm_solve(problem, shifts, options)
        return history, list(solution.shifts_used)
    except (RuntimeError, ValueError) as exc:
        print(f"breakdown: {exc}", file=sys.stderr)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    history, shifts_used = _solve(cfg, problem, shifts)
    hist_path = os.path.join(out_dir, cfg.out.get("history", "history.csv"))
    summ_path = os.path.join(out_dir, cfg.out.get("summary", "summary.json"))
    _atomic_write(hist_path, history.to_csv())
    _atomic_write(summ_path, json.dumps(_summary_doc(cfg, history, shifts_used),
                                        indent=2, sort_keys=True) + "\n")
    return _EXIT_BY_STATUS.get(history.status, 3)


def _problem_fingerprint(cfg: RunConfig):
    doc = dict(cfg.problem)
    if cfg.problem.get("kind") == "random_stable":
        doc["seed"] = cfg.seed
    return json.dumps(doc, sort_keys=True)


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
        except ConfigError as exc:
            print(f"error: config {i}: {exc}", file=sys.stderr)
            return 1
    if len({_problem_fingerprint(cfg) for cfg, _, _ in prepared}) != 1:
        print("error: configs disagree on the problem under test",
              file=sys.stderr)
        return 1

    labels = []
    series = []
    reached = {}
    worst = 0
    for i, (cfg, problem, shifts) in enumerate(prepared):
        label = f"run{i}_{cfg.solver}"
        if cfg.shifts is not None:
            label += "_" + cfg.shifts["kind"]
            if cfg.shifts["kind"] == "adaptive":
                label += "_" + cfg.shifts.get("variant", "plain")
        labels.append(label)
        history, _ = _solve(cfg, problem, shifts)
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
    lines = ["dim," + ",".join(f"rel_residual_{lb}" for lb in labels)]
    for d in dims:
        row = [str(d)]
        for s in series:
            row.append(_fmt(s[d]) if d in s else "")
        lines.append(",".join(row))
    _atomic_write(os.path.join(out_dir, "compare.csv"), "\n".join(lines) + "\n")

    finishers = {lb: d for lb, d in reached.items() if d is not None}
    if not finishers:
        winner = "tie"
    else:
        best = min(finishers.values())
        tied = [lb for lb, d in finishers.items() if d == best]
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
