import contextlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from releq import (
    Configuration,
    Problem,
    ProblemDocument,
    save_document,
)
from releq import cli
from releq.cli import main

import oracles


@pytest.fixture
def two_body_doc(tmp_path):
    prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
    cfg = Configuration(oracles.two_body_points(1.0, 1.0, 1.0, -1.5))
    path = tmp_path / "twobody.json"
    save_document(path, ProblemDocument(prob, cfg))
    return path


@pytest.fixture
def trigon_doc(tmp_path):
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
    rho = oracles.ngon_circumradius(3, 1.0, 1.0, -1.5)
    cfg = Configuration(oracles.ngon_points(3, rho))
    path = tmp_path / "trigon.json"
    save_document(path, ProblemDocument(prob, cfg))
    return path


@pytest.fixture
def problem_only_doc(tmp_path):
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
    path = tmp_path / "three.json"
    save_document(path, ProblemDocument(prob))
    return path


class TestVerify:
    def test_oracle_passes(self, two_body_doc, capsys):
        code = main(["verify", str(two_body_doc), "--t-end", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out.split("\n", 1)[1])
        assert report["passed"] is True
        assert all(g["gap"] < 1e-12 for g in report["lemma_gaps"])

    def test_perturbed_positions_fail(self, two_body_doc, tmp_path, capsys):
        raw = json.loads(two_body_doc.read_text())
        raw["positions"][0][0] += 0.1
        bad = tmp_path / "perturbed.json"
        bad.write_text(json.dumps(raw))
        code = main(["verify", str(bad), "--t-end", "0.5"])
        out = capsys.readouterr().out
        assert code == 1
        report = json.loads(out.split("\n", 1)[1])
        assert report["residual"]["max_norm"] > 1e-3

    def test_out_of_domain_exponent(self, two_body_doc, tmp_path, capsys):
        raw = json.loads(two_body_doc.read_text())
        raw["exponent"] = -0.3
        bad = tmp_path / "bad_a.json"
        bad.write_text(json.dumps(raw))
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "a < -1/2" in err

    def test_aborted_integration_keeps_the_report(self, tmp_path, capsys):
        # the unstable 12-ring at a = -2 departs from rest so fast that a
        # long horizon aborts the dynamic check: the static checks' report
        # is still written, and the abort is its one error line and exit 1
        prob = Problem(2, np.ones(12), [1.0], -2.0)
        rho = oracles.ngon_circumradius(12, 1.0, 1.0, -2.0)
        path = tmp_path / "ring12.json"
        save_document(path, ProblemDocument(
            prob, Configuration(oracles.ngon_points(12, rho))))
        runs = []
        for horizon in ([], ["--t-end", "20"]):
            out = tmp_path / f"report{len(runs)}.json"
            code = main(["verify", str(path), "--out", str(out), *horizon])
            runs.append((code, json.loads(out.read_text()),
                         capsys.readouterr()))
        (code, full, _), (aborted_code, aborted, streams) = runs
        assert code == 0 and aborted_code == 1
        assert aborted["passed"] is True
        assert aborted["residual"] == full["residual"]
        assert aborted["relative_equilibrium_deviation"] is None
        assert aborted["deviation_error"].startswith("step size underflow")
        assert "deviation_error" not in full
        assert streams.err == f"error: {aborted['deviation_error']}\n"
        assert streams.out.startswith("verify: PASS ")
        assert streams.out.endswith(" deviation=failed\n")

    def test_missing_positions(self, problem_only_doc, capsys):
        assert main(["verify", str(problem_only_doc)]) == 2
        assert "positions" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_tol_must_be_usable(self, tol, tmp_path, capsys):
        # two unit masses at (+-3, 0) are far from balance (residual ~3):
        # --tol inf passed them and nan or -1 failed every input, while
        # 0 stays allowed as a test for an exact zero
        far = tmp_path / "far.json"
        save_document(far, ProblemDocument(
            Problem(2, [1.0, 1.0], [1.0], -1.5),
            Configuration([[3.0, 0.0], [-3.0, 0.0]])))
        code = main(["verify", str(far), "--tol", tol, "--t-end", "0.5"])
        captured = capsys.readouterr()
        if tol == "0":
            assert code == 1
            assert captured.out.startswith("verify: FAIL residual_max=")
            assert captured.err == ""
        else:
            assert code == 2
            assert captured.out == ""
            assert captured.err == \
                f"error: tol must be finite and >= 0, got {float(tol)}\n"

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 3

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    def test_report_written_to_out(self, two_body_doc, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["verify", str(two_body_doc), "--t-end", "0.5",
                     "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["residual"]["max_norm"] < 1e-13
        # summary still on stdout
        assert capsys.readouterr().out.startswith("verify: PASS")

    def test_gap_rows_cover_every_cluster_size(self, trigon_doc, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["verify", str(trigon_doc), "--t-end", "0.5",
                     "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert [g["l"] for g in report["lemma_gaps"]] == [2, 3]
        assert len(report["weighted_centroid_residual"]) == 2


class TestSolve:
    def test_requires_positions(self, problem_only_doc, capsys):
        assert main(["solve", str(problem_only_doc)]) == 2
        assert "positions" in capsys.readouterr().err

    def test_damping_flags_accepted(self, two_body_doc, tmp_path):
        out = tmp_path / "solved.json"
        code = main(["solve", str(two_body_doc), "--damping-init", "1e-2",
                     "--damping-grow", "5", "--damping-shrink", "0.4",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["termination"] == "converged"

    @pytest.mark.parametrize("flags", [
        ["--damping-grow", "1.0"],
        ["--damping-grow", "0.5"],
        ["--damping-init", "0"],
        ["--damping-init", "-1e-3"],
        ["--damping-shrink", "nan"],
    ])
    def test_damping_flags_that_never_terminate_rejected(self, two_body_doc,
                                                         flags):
        # rejected steps would repeat forever without growing the damping
        assert main(["solve", str(two_body_doc), *flags]) == 2

    def test_perturbed_seed_converges(self, two_body_doc, tmp_path, capsys):
        raw = json.loads(two_body_doc.read_text())
        raw["positions"][0][0] += 0.05
        raw["positions"][1][1] -= 0.03
        seed_doc = tmp_path / "seed.json"
        seed_doc.write_text(json.dumps(raw))
        out_path = tmp_path / "solved.json"
        code = main(["solve", str(seed_doc), "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["termination"] == "converged"
        pts = np.array(payload["points"])
        sep = np.linalg.norm(pts[0] - pts[1])
        assert sep == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)


class TestSearch:
    def test_byte_identical_runs(self, problem_only_doc, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        args = ["search", str(problem_only_doc), "--trials", "40",
                "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_output(self, problem_only_doc, tmp_path):
        out1 = tmp_path / "j1.json"
        out2 = tmp_path / "j4.json"
        args = ["search", str(problem_only_doc), "--trials", "30",
                "--seed", "3"]
        assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(args + ["--jobs", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_fingerprints(self, problem_only_doc, tmp_path):
        out = tmp_path / "classes.csv"
        assert main(["search", str(problem_only_doc), "--trials", "40",
                     "--seed", "5", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("class,hits,iterations,residual_max,d0")
        assert len(lines) == 3  # header + the two known classes

    def test_csv_without_classes_is_header_only(self, problem_only_doc,
                                                 tmp_path):
        # an unreachable tolerance leaves no converged trial
        out = tmp_path / "none.csv"
        assert main(["search", str(problem_only_doc), "--trials", "3",
                     "--tol", "1e-300", "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text() == "class,hits,iterations,residual_max\n"

    def test_bad_trials_flag(self, problem_only_doc, capsys):
        assert main(["search", str(problem_only_doc), "--trials", "0"]) == 2


class TestContinue:
    def test_rows_match_closed_form(self, two_body_doc, tmp_path):
        out = tmp_path / "cont.csv"
        code = main(["continue", str(two_body_doc), "--a-target", "-1.0",
                     "--steps", "10", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 11
        header = lines[0].split(",")
        a_col = header.index("a")
        d_col = header.index("min_pairwise_distance")
        for line in lines[1:]:
            cells = line.split(",")
            a_val = float(cells[a_col])
            sep = float(cells[d_col])
            exact = oracles.two_body_separation(1.0, 1.0, 1.0, a_val)
            assert sep == pytest.approx(exact, abs=1e-10)

    def test_bad_target_rejected(self, two_body_doc, capsys):
        assert main(["continue", str(two_body_doc),
                     "--a-target", "-0.4"]) == 2
        assert "-0.5" in capsys.readouterr().err

    def test_failed_start_writes_no_report(self, trigon_doc, tmp_path,
                                           capsys):
        # no step can reach a tolerance of 1e-300, so the starting solve
        # stalls and the walk never begins
        out = tmp_path / "cont.json"
        assert main(["continue", str(trigon_doc), "--a-target", "-1.2",
                     "--tol", "1e-300", "--out", str(out)]) == 1
        streams = capsys.readouterr()
        assert streams.err == "continue: starting solve failed (stalled)\n"
        assert streams.out == ""
        assert not out.exists()


class TestProbe:
    def test_single_probe_json(self, problem_only_doc, tmp_path, capsys):
        out = tmp_path / "probe.json"
        code = main(["probe", str(problem_only_doc), "--trials", "40",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["classes_found"] == 2
        assert report["min_pairwise_distance"] > 0.0
        summary = capsys.readouterr().out
        assert summary.startswith("probe: classes=2")

    def test_sweep_csv(self, two_body_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["probe", str(two_body_doc), "--trials", "15",
                     "--seed", "2", "--omegas", "0.5,1,2",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "omega_scale,classes_found,c_hat,C_hat,trials,converged"
        assert len(lines) == 4
        for line, omega in zip(lines[1:], (0.5, 1.0, 2.0)):
            cells = line.split(",")
            assert float(cells[0]) == omega
            assert int(cells[1]) == 1    # the two-body class
            exact = 2.0 ** (1.0 / 3.0) * omega ** (-2.0 / 3.0)
            assert float(cells[2]) == pytest.approx(exact, rel=1e-6)
            assert int(cells[4]) == 15

    def test_csv_without_convergence_has_empty_bounds(self,
                                                      problem_only_doc,
                                                      tmp_path):
        # an unreachable tolerance leaves no converged trial
        out = tmp_path / "probe.csv"
        assert main(["probe", str(problem_only_doc), "--trials", "3",
                     "--tol", "1e-300", "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text() == (
            "omega_scale,classes_found,c_hat,C_hat,trials,converged\n"
            "1.0,0,,,3,0\n")

    def test_single_probe_is_unit_sweep(self, problem_only_doc, tmp_path,
                                        capsys):
        # probe without --omegas is the sweep at omega = 1: the same
        # report, and the same CSV bytes
        args = ["probe", str(problem_only_doc), "--trials", "20",
                "--seed", "4"]
        out = {}
        for name, extra in (("single", []), ("sweep", ["--omegas", "1"])):
            for fmt in ("json", "csv"):
                path = tmp_path / f"{name}.{fmt}"
                assert main(args + extra + ["--format", fmt,
                                            "--out", str(path)]) == 0
                out[name, fmt] = path.read_text()
        capsys.readouterr()
        sweep = json.loads(out["sweep", "json"])
        assert sweep["omegas"] == [1.0]
        assert json.loads(out["single", "json"]) == sweep["reports"][0]
        assert out["single", "csv"] == out["sweep", "csv"]

    @pytest.mark.parametrize("omegas", ["", " "])
    def test_omegas_naming_no_value_is_empty_sweep(self, omegas,
                                                   problem_only_doc,
                                                   tmp_path, capsys):
        # every --omegas value that names no number runs the empty sweep
        args = ["probe", str(problem_only_doc), "--trials", "5"]
        out = {}
        for value in (omegas, ","):
            for fmt in ("json", "csv"):
                path = tmp_path / f"{fmt}.{fmt}"
                assert main(args + ["--omegas", value, "--format", fmt,
                                    "--out", str(path)]) == 0
                out[value, fmt] = path.read_text()
                out[value, fmt, "stdout"] = capsys.readouterr().out
        assert out[",", "json", "stdout"] == (
            "probe: sweep omegas=0 total_classes=0\n")
        assert json.loads(out[",", "json"]) == {"omegas": [], "reports": []}
        for key in (("json",), ("csv",), ("json", "stdout"),
                    ("csv", "stdout")):
            assert out[(omegas,) + key] == out[(",",) + key]

    def test_probe_byte_identical(self, problem_only_doc, tmp_path):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        args = ["probe", str(problem_only_doc), "--trials", "25",
                "--seed", "6"]
        assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestIntegrate:
    def test_trigon_deviation_summary(self, trigon_doc, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["integrate", str(trigon_doc), "--t-end", "6.2831853",
                     "--tol", "1e-10", "--format", "csv", "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        deviation = float(summary.split("deviation=")[1])
        assert deviation < 1e-6
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,body,q0,q1,v0,v1"
        assert len(lines) == 1 + 65 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and int(first[1]) == 0

    def test_json_trajectory(self, two_body_doc, tmp_path):
        out = tmp_path / "traj.json"
        code = main(["integrate", str(two_body_doc), "--t-end", "1.0",
                     "--samples", "8", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["times"]) == 9
        assert payload["deviation"] < 1e-7


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("command", ["verify", "integrate"])
def test_zero_samples_rejected(command, two_body_doc):
    # one sample at t=0 would report a vacuous zero deviation
    assert main([command, str(two_body_doc), "--samples", "0"]) == 2


@pytest.mark.parametrize("command", ["verify", "integrate"])
def test_infinite_horizon_rejected(command, two_body_doc, capsys):
    # an infinite horizon used to integrate forever
    with np.errstate(invalid="ignore"):
        assert main([command, str(two_body_doc), "--t-end", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command,message", [
    ("verify", "step size underflow"),
    ("integrate", "step size underflow"),
], ids=["verify", "integrate"])
def test_overflowing_forces_fail_with_one_error_line(command, message,
                                                     tmp_path, capsys):
    # r^(2a) overflows at a = -200: verify's cluster gaps come out NaN,
    # and the integrator that both commands reach has a NaN first step,
    # which must underflow
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -200.0)
    cfg = Configuration([[-0.01, 0.0], [0.0, 0.0], [0.01, 0.0]])
    path = tmp_path / "overflow.json"
    save_document(path, ProblemDocument(prob, cfg))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, str(path), "--t-end", "1.0"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("command", ["search", "probe"])
def test_overflowing_seed_fails_with_one_error_line(command, tmp_path,
                                                   capsys):
    # at a seed radius near 9e300 the squared distances of every drawn
    # seed overflow, which the collision rule rejects: the search ends
    # with that rule's error, not a traceback, and writes no report
    prob = Problem(2, [1.0, 1.0, 1.0], [1e-150], -0.5000001)
    path, out = tmp_path / "far.json", tmp_path / "report.json"
    save_document(path, ProblemDocument(prob))
    assert main([command, str(path), "--trials", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "colliding configuration" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "integrate"])
def test_overflowing_forces_print_no_warnings(command, tmp_path):
    # in a fresh process nothing filters numpy's RuntimeWarnings, which
    # used to precede the error line (six for verify, one for integrate)
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -200.0)
    cfg = Configuration([[-0.01, 0.0], [0.0, 0.0], [0.01, 0.0]])
    path = tmp_path / "overflow.json"
    save_document(path, ProblemDocument(prob, cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "releq.cli", command, str(path),
         "--t-end", "1.0"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: step size underflow at t=0"]


@pytest.mark.parametrize("field,value,command", [
    ("exponent", float("-inf"), ["search", "--trials", "3"]),
    ("masses", [float("inf"), 1.0], ["search", "--trials", "3"]),
    ("masses", [float("inf"), 1.0], ["verify"]),
    ("frequencies", [float("inf")], ["search", "--trials", "3"]),
], ids=["exponent-search", "masses-search", "masses-verify",
        "frequencies-search"])
def test_non_finite_document_values_rejected(field, value, command,
                                              two_body_doc, tmp_path, capsys):
    # JSON's Infinity parses; Problem must refuse it
    raw = json.loads(two_body_doc.read_text())
    raw[field] = value
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(raw))
    assert main([command[0], str(bad), *command[1:]]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("place", [
    lambda raw, v: raw["masses"].__setitem__(1, v),
    lambda raw, v: raw["frequencies"].__setitem__(0, v),
    lambda raw, v: raw["positions"][0].__setitem__(0, v),
    lambda raw, v: raw.__setitem__("exponent", -v),
], ids=["masses", "frequencies", "position", "exponent"])
def test_int_beyond_float_range_reads_as_infinite(place, two_body_doc,
                                                  tmp_path, capsys):
    # json keeps 10**400 as an int; it must be refused as bad input, with
    # the message the float literal 1e400 in its place gets
    raw = json.loads(two_body_doc.read_text())
    place(raw, 10 ** 400)
    text = json.dumps(raw)
    stderr = []
    for name, body in (("int", text), ("float", text.replace(
            str(10 ** 400), "1e400"))):
        path = tmp_path / f"{name}.json"
        path.write_text(body)
        assert main(["solve", str(path)]) == 2
        stderr.append(capsys.readouterr().err)
    assert stderr[0] == stderr[1]
    assert "finite" in stderr[0]


def test_infinite_omega_rejected(two_body_doc, capsys):
    assert main(["probe", str(two_body_doc), "--trials", "3",
                 "--omegas", "1,inf"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", [
    ["solve"],
    ["search", "--trials", "3"],
    ["probe", "--trials", "3"],
    ["continue", "--a-target", "-2", "--steps", "2"],
], ids=["solve", "search", "probe", "continue"])
def test_unusable_tolerance_rejected(command, tol, two_body_doc, capsys):
    # --tol inf reported every seed as an equilibrium class; nan, 0 and
    # -1 ran every trial to failure, and both exited 0
    assert main([command[0], str(two_body_doc), *command[1:],
                 "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "tol_res" in errors[0]


@pytest.mark.parametrize("command", [
    ["search", "--trials", "0"],
    ["probe", "--trials", "0"],
    ["probe", "--omegas", "-1"],
    ["probe", "--omegas", "abc"],
])
def test_bad_solver_flag_is_reported_first(command, two_body_doc, capsys):
    # the options are checked once, when they are built from the flags,
    # before any other value reaches the library
    assert main([command[0], str(two_body_doc), *command[1:],
                 "--damping-init", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: damping_init must be > 0, got 0.0\n"


def test_parser_is_built_once(monkeypatch, two_body_doc, capsys):
    builds = []
    build_parser = cli.build_parser

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    runs = []
    for _ in range(2):
        assert main(["verify", str(two_body_doc), "--t-end", "0.5"]) == 0
        runs.append(capsys.readouterr().out)
    assert builds == [1]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["verify", "integrate"])
def test_unallocatable_samples_fail_with_one_error_line(command, two_body_doc,
                                                        tmp_path, capsys):
    # 10**18 float64 samples ask for 8 EB, more than any address space
    # holds, so numpy fails before it touches memory: one error line,
    # exit 1 and no report, not a traceback
    out = tmp_path / "report.json"
    assert main([command, str(two_body_doc), "--samples",
                 "1000000000000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: MemoryError:")
    assert not out.exists()


_RESULT_KEYS = ["points", "residual_max", "iterations", "termination"]
_FINGERPRINT_KEYS = ["sorted_distances", "sorted_mass_weighted_norms"]
_PROBE_KEYS = {
    "": ["problem", "classes_found", "min_pairwise_distance",
         "max_point_norm", "per_class", "trials", "converged", "dropped"],
    "problem": ["n", "k", "exponent", "masses", "frequencies"],
    "per_class[0]": ["min_pairwise_distance", "max_point_norm",
                     "residual_max", "hits"],
}
_VERIFY_KEYS = {
    "residual": ["per_body", "max_norm", "rms"],
    "lemma_gaps[0]": ["l", "lhs", "rhs", "gap"],
}


def _key_orders(record, path=""):
    """The key order of ``record`` and of every record nested in it, by
    dotted path; a list of records stands for its first, ``name[0]``."""
    orders = {path: list(record)}
    for key, value in record.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            key, value = f"{key}[0]", value[0]
        if isinstance(value, dict):
            orders.update(_key_orders(value, f"{path}.{key}".lstrip(".")))
    return orders


@pytest.mark.parametrize("doc,argv,code,keys", [
    ("two", ["verify"], 0, {
        "": ["residual", "lemma_gaps", "weighted_centroid_residual",
             "relative_equilibrium_deviation", "deviation_t_end", "tol",
             "passed"], **_VERIFY_KEYS}),
    ("ring12", ["verify", "--t-end", "20"], 1, {
        "": ["residual", "lemma_gaps", "weighted_centroid_residual",
             "relative_equilibrium_deviation", "deviation_error",
             "deviation_t_end", "tol", "passed"], **_VERIFY_KEYS}),
    ("two", ["solve"], 0, {
        "": [*_RESULT_KEYS, "residual_history", "fingerprint"],
        "fingerprint": _FINGERPRINT_KEYS}),
    ("two", ["solve", "--tol", "1e-300"], 1, {
        "": [*_RESULT_KEYS, "residual_history"]}),
    ("three", ["search", "--trials", "12", "--seed", "3"], 0, {
        "": ["trials", "rng_seed", "converged", "dropped", "classes"],
        "classes[0]": [*_RESULT_KEYS, "fingerprint", "hits"],
        "classes[0].fingerprint": _FINGERPRINT_KEYS}),
    ("two", ["continue", "--a-target", "-1.2", "--steps", "2"], 0, {
        "": ["a_target", "steps", "rows"],
        "rows[0]": ["a", *_RESULT_KEYS, "min_pairwise_distance",
                    "max_point_norm"]}),
    ("three", ["probe", "--trials", "12", "--seed", "3"], 0, _PROBE_KEYS),
    ("three", ["probe", "--trials", "6", "--seed", "3",
               "--omegas", "0.5,2"], 0, {
        "": ["omegas", "reports"],
        **{f"reports[0].{path}".rstrip("."): order
           for path, order in _PROBE_KEYS.items()}}),
    ("two", ["integrate", "--samples", "4"], 0, {
        "": ["t_end", "tol", "deviation", "times", "positions",
             "velocities"]}),
], ids=["verify", "verify-aborted", "solve", "solve-stalled", "search",
        "continue", "probe", "probe-omegas", "integrate"])
def test_report_key_order(doc, argv, code, keys, two_body_doc,
                          problem_only_doc, tmp_path, capsys):
    # every JSON report and each record nested in it keeps its keys in
    # this order; the verify-aborted row is the unstable 12-ring at
    # a = -2, whose long horizon adds deviation_error
    if doc == "ring12":
        rho = oracles.ngon_circumradius(12, 1.0, 1.0, -2.0)
        path = tmp_path / "ring12.json"
        save_document(path, ProblemDocument(
            Problem(2, np.ones(12), [1.0], -2.0),
            Configuration(oracles.ngon_points(12, rho))))
    else:
        path = {"two": two_body_doc, "three": problem_only_doc}[doc]
    out = tmp_path / "report.json"
    assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == code
    capsys.readouterr()
    assert _key_orders(json.loads(out.read_text())) == keys


def test_out_path_in_missing_directory_is_io_error(two_body_doc, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["verify", str(two_body_doc), "--t-end", "0.5",
                 "--out", str(missing)]) == 3


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_out_file_follows_umask(umask, two_body_doc, tmp_path):
    out = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        assert main(["solve", str(two_body_doc), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


class TestStreamedReports:
    """Reports written in blocks keep the bytes of one whole-text write."""

    @pytest.fixture(scope="class")
    def ring16(self, tmp_path_factory):
        # the 16-body rolling search of tools/cli_hashes.py: 83 classes,
        # a report of about 21 000 encoder chunks, so many blocks
        path = tmp_path_factory.mktemp("ring16") / "ring16.json"
        save_document(path, ProblemDocument(Problem(2, [1.0] * 16, [1.0],
                                                    -1.5)))
        return path

    def _search(self, ring16, capsys, *flags):
        code = main(["search", str(ring16), "--trials", "100", "--seed",
                     "3", *flags])
        assert code == 0
        return capsys.readouterr().out

    def test_json_out_stdout_and_dump_agree(self, ring16, tmp_path, capsys):
        out = tmp_path / "search.json"
        self._search(ring16, capsys, "--out", str(out))
        printed = self._search(ring16, capsys).split("\n", 1)[1]
        written = out.read_text()
        payload = json.loads(written)
        assert len(payload["classes"]) > 50
        assert written == printed
        assert written == json.dumps(payload, indent=2) + "\n"

    def test_csv_is_the_joined_text(self, ring16, tmp_path, capsys):
        out = tmp_path / "search.json"
        self._search(ring16, capsys, "--out", str(out))
        classes = json.loads(out.read_text())["classes"]
        printed = self._search(ring16, capsys, "--format", "csv")
        fp = classes[0]["fingerprint"]
        distances = len(fp["sorted_distances"])
        norms = len(fp["sorted_mass_weighted_norms"])
        lines = [",".join(["class", "hits", "iterations", "residual_max",
                           *(f"d{i}" for i in range(distances)),
                           *(f"w{i}" for i in range(norms))])]
        for idx, cls in enumerate(classes):
            fp = cls["fingerprint"]
            lines.append(",".join([
                str(idx), str(cls["hits"]), str(cls["iterations"]),
                *(repr(float(x)) for x in [cls["residual_max"],
                                           *fp["sorted_distances"],
                                           *fp["sorted_mass_weighted_norms"]
                                           ])]))
        assert printed.split("\n", 1)[1] == "\n".join(lines) + "\n"


class _Count:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


@pytest.mark.parametrize("to_file", [True, False])
def test_emit_memory_is_bounded(to_file, tmp_path):
    # the shape of a cold n = 30 search report: 120 classes, each with 60
    # coordinates and 465 + 30 fingerprint floats, about 2 MB of text
    rng = np.random.default_rng(0)
    payload = {"classes": [{"points": rng.random((30, 2)).tolist(),
                            "sorted_distances": rng.random(465).tolist(),
                            "sorted_norms": rng.random(30).tolist()}
                           for _ in range(120)]}
    out = tmp_path / "report.json"
    args = cli._parser().parse_args(
        ["search", "doc.json", *(["--out", str(out)] if to_file else [])])
    sink = _Count()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            cli._emit(args, cli.json_chunks(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size if to_file else sink.size
    assert size >= 1_000_000
    assert peak < size / 10, peak
