import json
import subprocess
import sys

import numpy as np
import pytest

from riccati_si import (
    care_residual,
    cli,
    ilrsi_init,
    ilrsi_step,
    penzl_shifts,
    random_stable_problem,
    residual_norm,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "riccati_si.cli", *args],
        capture_output=True, text=True,
    )


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**overrides):
    doc = {
        "problem": {"kind": "laplacian", "m": 6},
        "solver": "ilrsi",
        "shifts": {"kind": "penzl", "m": 6},
        "tol": 1e-8,
        "max_iter": 40,
    }
    doc.update(overrides)
    return doc


# Config overrides that are bad before the solver call, each with the key
# its error line names: in run and in compare each exits 1 with an error
# line and writes no outputs. A NaN tol would never be met, an infinite one
# at the first step, and a fractional max_iter would be rounded down; the
# other keys are not config keys. Each value must have its key's JSON type:
# a bool is not an integer, and an integer path would be opened as a file
# descriptor (0 is the CLI's stdin).
_BAD_CONFIGS = {
    "non-numeric-max-iter": ({"max_iter": "ten"}, "max_iter"),
    "files-without-a": ({"problem": {"kind": "files", "b": "b.mtx",
                                     "c": "c.mtx"}}, "problem.a"),
    "nan-tol": ({"tol": float("nan")}, "tol"),
    "infinite-tol": ({"tol": float("inf")}, "tol"),
    "fractional-max-iter": ({"max_iter": 2.5}, "max_iter"),
    "truncation-tol": ({"truncation_tol": 1e-8}, "truncation_tol"),
    "out-names": ({"out": {"history": "../escaped.csv"}}, "'out'"),
    "toeplitz-raw": ({"problem": {"kind": "toeplitz", "n": 50, "raw": True}},
                     "raw"),
    "coerced-fields": ({"problem": {"kind": "toeplitz", "n": 60.9,
                                    "normalize_b": "false"},
                        "shifts": {"kind": "penzl", "m": 4.8}, "seed": 3.7},
                       "problem.n"),
    "fractional-n": ({"problem": {"kind": "toeplitz", "n": 60.9}},
                     "problem.n"),
    "string-normalize-b": ({"problem": {"kind": "toeplitz", "n": 50,
                                        "normalize_b": "false"}},
                           "problem.normalize_b"),
    "fractional-penzl-m": ({"shifts": {"kind": "penzl", "m": 4.8}},
                           "shifts.m"),
    "fractional-seed": ({"seed": 3.7}, "seed"),
    "string-n": ({"problem": {"kind": "random_stable", "n": "12"}},
                 "problem.n"),
    "float-p": ({"problem": {"kind": "random_stable", "n": 12, "p": 1.0}},
                "problem.p"),
    "bool-max-iter": ({"max_iter": True}, "max_iter"),
    "bool-tol": ({"tol": True}, "tol"),
    "string-tol": ({"tol": "1e-8"}, "tol"),
    "integer-shift-path": ({"shifts": {"kind": "file", "path": 0}},
                           "shifts.path"),
    "integer-matrix-path": ({"problem": {"kind": "files", "a": 1, "b": "b",
                                         "c": "c"}}, "problem.a"),
}
_bad_configs = pytest.mark.parametrize(
    "overrides,key", list(_BAD_CONFIGS.values()), ids=list(_BAD_CONFIGS))


class TestRun:
    def test_converged_run_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        proc = run_cli("run", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,dim,rank,rel_residual,seconds"
        assert len(lines) > 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["solver"] == "ilrsi"
        assert summary["final_rel_residual"] <= 1e-8
        assert summary["shifts"]
        assert all(len(pair) == 2 for pair in summary["shifts"])

    def test_outputs_are_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        for d in ("one", "two"):
            proc = run_cli("run", "--config", cfg, "--out", str(tmp_path / d))
            assert proc.returncode == 0
        for name in ("history.csv", "summary.json"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name

    def test_negative_tol_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config(tol=-1.0))
        proc = run_cli("run", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "tol" in proc.stderr

    def test_unknown_key_rejected(self, tmp_path):
        doc = base_config()
        doc["solverr"] = "ilrsi"
        cfg = write_config(tmp_path / "cfg.json", doc)
        proc = run_cli("run", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "solverr" in proc.stderr

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "cannot read" in proc.stderr

    def test_max_iter_exhaustion_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           base_config(tol=1e-14, max_iter=2))
        proc = run_cli("run", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "max_iter"

    def test_adaptive_requires_rksm(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            base_config(shifts={"kind": "adaptive", "variant": "plain"}))
        proc = run_cli("run", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "rksm" in proc.stderr

    def test_shift_file_round_trip(self, tmp_path):
        first = write_config(tmp_path / "first.json",
                             base_config(solver="rksm"))
        proc = run_cli("run", "--config", first, "--out", str(tmp_path / "a"))
        assert proc.returncode == 0, proc.stderr
        # the summary doubles as a shift file for a replay run
        replay = write_config(
            tmp_path / "replay.json",
            base_config(shifts={"kind": "file",
                                "path": str(tmp_path / "a" / "summary.json")}))
        proc = run_cli("run", "--config", replay, "--out", str(tmp_path / "b"))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["status"] == "converged"

    def test_unpaired_rksm_pole_list_is_config_error(self, tmp_path):
        # on real data rksm takes a conjugate pair in one step, so the
        # list must hold each pair in adjacent entries
        shifts = tmp_path / "shifts.json"
        shifts.write_text(json.dumps([[2, 1], [1, 0], [2, -1]]))
        cfg = write_config(
            tmp_path / "cfg.json",
            base_config(solver="rksm",
                        shifts={"kind": "file", "path": str(shifts)}))
        proc = run_cli("run", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "not next to its conjugate" in proc.stderr
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("shifts", [
        {"kind": "file", "text": "[[-1, 0], [2, 0]]"},
        {"kind": "file", "text": "[[1, 0"},
        {"kind": "penzl", "m": 40},
        {"kind": "penzl", "m": 6, "mode": "on_X"},
    ], ids=["negative-shift", "malformed-file", "penzl-over-budget",
            "penzl-unknown-mode"])
    def test_bad_shift_spec_is_config_error(self, tmp_path, capsys, shifts):
        # the shift list is built before the solver call, so a failure
        # there is a bad config, not a breakdown
        if "text" in shifts:
            path = tmp_path / "shifts.json"
            path.write_text(shifts["text"])
            shifts = {"kind": "file", "path": str(path)}
        cfg = write_config(tmp_path / "cfg.json", base_config(shifts=shifts))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "history.csv").exists()
        assert not (out / "summary.json").exists()

    @_bad_configs
    def test_bad_config_is_error(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path / "cfg.json", base_config(**overrides))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key in err
        assert "Traceback" not in err
        assert not (out / "history.csv").exists()
        assert not (out / "summary.json").exists()
        assert not (tmp_path / "escaped.csv").exists()

    def test_integer_shift_path_does_not_read_stdin(self, tmp_path):
        # open(0) would read the CLI's stdin, and wait while it stays open
        cfg = write_config(tmp_path / "cfg.json",
                           base_config(shifts={"kind": "file", "path": 0}))
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-m", "riccati_si.cli", "run", "--config", cfg,
             "--out", str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            _, err = proc.communicate()
        assert code == 1
        assert err.startswith("error: shifts.path must be a string")
        assert not out.exists()

    @pytest.mark.parametrize("shifts", [
        {"kind": "penzl", "m": 4},
        {"kind": "file"},
        {"kind": "penzl", "m": -3},
    ], ids=["penzl", "file-without-path", "negative-penzl-m"])
    def test_dense_exact_takes_no_shifts(self, tmp_path, capsys, shifts):
        # dense_exact would never read the spec, so it is a bad config
        cfg = write_config(
            tmp_path / "cfg.json",
            {"problem": {"kind": "random_stable", "n": 12},
             "solver": "dense_exact", "shifts": shifts})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: solver dense_exact takes no shifts")
        assert not out.exists()

    def test_malformed_shift_file_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "bad_shifts.json"
        path.write_text("[[1, 0")
        cfg = write_config(tmp_path / "cfg.json",
                           base_config(shifts={"kind": "file",
                                               "path": str(path)}))
        assert cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: shift file {path} is not valid JSON")

    @pytest.mark.parametrize("text,error", [
        ("[[true, false], [2, 0]]", ": entry 0 must be a pair of finite"),
        ("[[2, 0], [Infinity, 0]]", ": entry 1 must be a pair of finite"),
        ("[[1, 0, 5]]", ": entry 0 must be a pair of finite"),
        ("[[1, NaN]]", ": entry 0 must be a pair of finite"),
        ('[[1, "0"]]', ": entry 0 must be a pair of finite"),
        ("[3]", ": entry 0 must be a pair of finite"),
        ('{"shifts": [[2, 0], [1%s, 0]]}' % ("0" * 400),
         ": entry 1 must be a pair of finite"),
        ('{"shifts": 2}', " must hold a list of [re, im] pairs"),
    ], ids=["bools", "infinity", "triple", "nan", "string", "bare-number",
            "integer-overflow", "not-a-list"])
    def test_malformed_shift_entry_is_error(self, tmp_path, capsys, text,
                                            error):
        path = tmp_path / "bad_shifts.json"
        path.write_text(text)
        cfg = write_config(tmp_path / "cfg.json",
                           base_config(shifts={"kind": "file",
                                               "path": str(path)}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: shift file {path}{error}")
        assert not out.exists()

    def test_dense_exact_single_row(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"problem": {"kind": "random_stable", "n": 12}, "seed": 3,
             "solver": "dense_exact"})
        proc = run_cli("run", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert len(lines) == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["final_dim"] == 12
        assert summary["final_rel_residual"] <= 1e-10

    def test_dense_fixed_point_follows_ilrsi(self, tmp_path):
        # both solvers run the same iteration, so their residual histories
        # agree row by row
        histories = {}
        for solver in ("dense_fixed_point", "ilrsi"):
            cfg = write_config(
                tmp_path / f"{solver}.json",
                {"problem": {"kind": "random_stable", "n": 12}, "seed": 3,
                 "solver": solver, "shifts": {"kind": "penzl", "m": 4},
                 "tol": 1e-9, "max_iter": 30})
            out = tmp_path / solver
            proc = run_cli("run", "--config", cfg, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            summary = json.loads((out / "summary.json").read_text())
            assert summary["status"] == "converged"
            rows = (out / "history.csv").read_text().splitlines()[1:]
            histories[solver] = [row.split(",") for row in rows]
        dense, low_rank = histories["dense_fixed_point"], histories["ilrsi"]
        assert len(dense) == len(low_rank) > 2
        assert all(row[1] == "12" for row in dense)
        for d, r in zip(dense, low_rank):
            assert float(d[3]) == pytest.approx(float(r[3]), rel=1e-6,
                                                abs=1e-12)


class TestCompare:
    def test_requires_two_configs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", base_config())
        proc = run_cli("compare", "--configs", cfg, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "two configs" in proc.stderr

    def test_problem_mismatch_rejected(self, tmp_path):
        a = write_config(tmp_path / "a.json", base_config())
        b = write_config(tmp_path / "b.json",
                         base_config(problem={"kind": "laplacian", "m": 7}))
        proc = run_cli("compare", "--configs", a, b, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "disagree" in proc.stderr

    @pytest.mark.parametrize("problems", [
        ({"kind": "laplacian"}, {"kind": "laplacian", "m": 10}),
        ({"kind": "toeplitz", "n": 50},
         {"kind": "toeplitz", "n": 50, "normalize_b": True}),
    ], ids=["laplacian-m", "toeplitz-normalize-b"])
    def test_spelled_out_default_is_the_same_problem(self, tmp_path, capsys,
                                                     problems):
        a, b = (write_config(tmp_path / f"{i}.json", base_config(problem=p))
                for i, p in enumerate(problems))
        assert cli.main(["compare", "--configs", a, b,
                         "--out", str(tmp_path)]) == 0
        assert "disagree" not in capsys.readouterr().err
        assert (tmp_path / "verdict.json").exists()

    def test_valid_overlay(self, tmp_path):
        a = write_config(tmp_path / "a.json", base_config())
        b = write_config(tmp_path / "b.json", base_config(solver="rksm"))
        proc = run_cli("compare", "--configs", a, b, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == ("dim,rel_residual_run0_ilrsi_penzl,"
                            "rel_residual_run1_rksm_penzl")
        assert len(lines) > 2
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        labels = {"run0_ilrsi_penzl", "run1_rksm_penzl"}
        assert set(verdict["reached_tol_at_dim"]) == labels
        assert verdict["winner"] in labels | {"tie"}

    @_bad_configs
    def test_bad_config_is_error(self, tmp_path, capsys, overrides, key):
        a = write_config(tmp_path / "a.json", base_config(**overrides))
        b = write_config(tmp_path / "b.json",
                         base_config(solver="rksm", **overrides))
        assert cli.main(["compare", "--configs", a, b,
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "compare.csv").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_dense_exact_over_threshold_is_breakdown(tmp_path, capsys, command):
    # the dense threshold is checked by the solver call itself, so both
    # commands report a breakdown
    cfg = write_config(tmp_path / "cfg.json",
                       {"problem": {"kind": "random_stable", "n": 420},
                        "solver": "dense_exact"})
    args = ["run", "--config", cfg] if command == "run" else \
        ["compare", "--configs", cfg, cfg]
    assert cli.main([*args, "--out", str(tmp_path)]) == 3
    label = "" if command == "run" else "run0_dense_exact: "
    assert f"breakdown: {label}problem dimension 420" in \
        capsys.readouterr().err


def test_compare_breakdowns_name_their_runs(tmp_path, capsys):
    # two configs that break down the same way print one line each,
    # labelled as in compare.csv
    cfg = write_config(tmp_path / "cfg.json",
                       {"problem": {"kind": "random_stable", "n": 420},
                        "solver": "dense_exact"})
    assert cli.main(["compare", "--configs", cfg, cfg,
                     "--out", str(tmp_path)]) == 3
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("breakdown:")]
    assert [ln.split(":")[1].strip() for ln in lines] == \
        ["run0_dense_exact", "run1_dense_exact"]
    header = (tmp_path / "compare.csv").read_text().splitlines()[0]
    assert header == ("dim,rel_residual_run0_dense_exact,"
                      "rel_residual_run1_dense_exact")


class TestVerify:
    def test_identities_suite_passes(self, tmp_path):
        proc = run_cli("verify", "--suite", "identities",
                       "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(
            (tmp_path / "verify_identities.json").read_text())
        assert report["failed"] == []
        assert any(c["check"] == "check_sylvester_identity"
                   for c in report["checks"])

    def test_fault_injection_detected(self, tmp_path, capsys, monkeypatch):
        build = cli.build_distinct_basis

        def corrupt_t(*args, **kwargs):
            data = build(*args, **kwargs)
            data.T[0, 0] += 1.0
            return data

        monkeypatch.setattr(cli, "build_distinct_basis", corrupt_t)
        assert cli.main(["verify", "--suite", "identities",
                         "--out", str(tmp_path)]) == 4
        assert "violated" in capsys.readouterr().err
        report = json.loads(
            (tmp_path / "verify_identities.json").read_text())
        assert "check_sylvester_identity" in report["failed"]

    def test_oracle_residual_norm_matches_dense_to_rounding(self):
        # the oracle suite's instances, drawn as it draws them. At every
        # step the factored residual norm is within rounding of the dense
        # assembly at the scale of ||C*C||_F. The suite's own check is
        # relative to the residual, which falls to about 3e-7 ||C*C||_F on
        # instance 2, so its 1e-10 asks for more than rounding allows there
        rng = np.random.default_rng(1)
        for _ in range(3):
            n = int(rng.integers(10, 41))
            prob = random_stable_problem(n, 1, 1,
                                         seed=int(rng.integers(1 << 30)))
            vals = penzl_shifts(prob, m=4).values
            A = prob.A.toarray()
            cc = np.linalg.norm(prob.C.conj().T @ prob.C)
            state = None
            for i in range(6):
                a = vals[i % len(vals)]
                state = ilrsi_init(prob, a) if state is None else \
                    ilrsi_step(state, a)
                dense = np.linalg.norm(care_residual(
                    A, prob.B, prob.C, state.solution.to_dense()))
                assert abs(residual_norm(prob, state.residual_factor)
                           - dense) <= 1e-14 * cc

    def test_unknown_suite_rejected(self, tmp_path):
        proc = run_cli("verify", "--suite", "vibes", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "unknown suite" in proc.stderr
