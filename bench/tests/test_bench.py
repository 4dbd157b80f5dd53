"""Tests of the benchmark itself, at tiny problem sizes.

    python -m pytest bench/tests
"""

import json

import numpy as np
import pytest

import riccati_si
import run
import tracing
import workloads

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "lap-ilrsi": {"m": 12},
    "multi-ilrsi": {"m": 12, "p": 4, "q": 2},
    "toeplitz-rksm": {"n": 400},
    "rksm-sweep": {"n": 30, "grids": 1},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIZES", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)


def bench(capsys, workload, trace=0, seed=1):
    run.main(["--workload", workload, "--seed", str(seed),
              "--seconds", "0.01", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out[:-1]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload, trace, section):
    result, lines = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith(f"{workload} failed_share = ") for line in lines)
    env = json.loads(next(line[5:] for line in lines if line.startswith("env: ")))
    assert env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload, solver", [("lap-ilrsi", "ilrsi_solve"),
                                              ("toeplitz-rksm", "rksm_solve"),
                                              ("rksm-sweep", "rksm_solve")])
def test_corrupted_solution_is_caught_and_counted(capsys, monkeypatch, workload, solver):
    honest = getattr(riccati_si, solver)

    def corrupted(*args, **kwargs):
        solution, history = honest(*args, **kwargs)
        solution.V = 1.01 * solution.V
        return solution, history

    monkeypatch.setattr(riccati_si, solver, corrupted)
    result, lines = bench(capsys, workload)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["solved_share"]["value"] == 0.0
    share = next(line for line in lines if line.startswith(f"{workload} failed_share = "))
    assert float(share.split()[3]) == 1.0
    assert any(line.startswith("check failed:") for line in lines)


def _inputs(workload, seed):
    return [(c.problem.A.toarray(), c.problem.B, c.problem.C, c.solver, c.poles, c.tol)
            for c in workloads.make_cases(workload, np.random.default_rng(seed))]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_seed_changes_only_the_seeded_workloads(workload):
    first, second = _inputs(workload, 1), _inputs(workload, 2)
    assert len(first) == len(second)
    same = all(a[3:] == b[3:] and all(np.array_equal(x, y) for x, y in zip(a[:3], b[:3]))
               for a, b in zip(first, second))
    assert same == (workload not in ("multi-ilrsi", "rksm-sweep"))
    assert all(a[3:] == b[3:] for a, b in zip(first, second))


def test_traced_run_marks_a_vanished_target_absent(capsys, monkeypatch):
    targets = [t if t[1] != "residual_norm" else ("riccati_si.ilrsi", "gone", t[2])
               for t in tracing.TARGETS]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    step = riccati_si.ilrsi.ilrsi_step
    result, lines = bench(capsys, "lap-ilrsi", trace=1)
    assert "ilrsi.residual_s" not in result["metrics"]
    assert "ilrsi.loop_self_s" in result["metrics"]
    assert any(line.startswith("absent: ilrsi.residual_s") for line in lines)
    assert riccati_si.ilrsi.ilrsi_step is step
