import json
import subprocess
import sys

import pytest

from riccati_si import cli


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

    @pytest.mark.parametrize("overrides", [
        {"max_iter": "ten"},
        {"problem": {"kind": "files", "b": "b.mtx", "c": "c.mtx"}},
    ], ids=["non-numeric-max-iter", "files-without-a"])
    def test_bad_config_is_error(self, tmp_path, capsys, overrides):
        a = write_config(tmp_path / "a.json", base_config(**overrides))
        b = write_config(tmp_path / "b.json",
                         base_config(solver="rksm", **overrides))
        assert cli.main(["compare", "--configs", a, b,
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
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
    assert "breakdown: problem dimension 420" in capsys.readouterr().err


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

    def test_unknown_suite_rejected(self, tmp_path):
        proc = run_cli("verify", "--suite", "vibes", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "unknown suite" in proc.stderr
