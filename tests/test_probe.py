import json

import numpy as np
import pytest

from releq import cli, solver
from releq import (
    Problem,
    ProblemDocument,
    bound_probe,
    frequency_sweep,
    save_document,
)
from releq.cli import main

import oracles


@pytest.fixture(scope="module")
def two_body_problem():
    return Problem(2, [1.0, 1.0], [1.0], -1.5)


class TestBoundProbe:
    def test_two_body_exact_values(self, two_body_problem):
        report = bound_probe(two_body_problem, 30, 11)
        r = oracles.two_body_separation(1.0, 1.0, 1.0, -1.5)
        assert report.classes_found == 1
        assert report.min_pairwise_distance == pytest.approx(r, rel=1e-9)
        assert report.max_point_norm == pytest.approx(r / 2.0, rel=1e-9)
        assert report.converged + report.dropped == report.trials == 30

    def test_doubled_frequencies_scale_c_hat(self, two_body_problem):
        # A -> 2A corresponds to Q -> lam Q with lam = 2^(1/a)
        base = bound_probe(two_body_problem, 20, 11)
        doubled = bound_probe(
            two_body_problem.with_frequencies(
                two_body_problem.frequencies * 2.0),
            20, 11)
        lam = 2.0 ** (1.0 / two_body_problem.a)
        assert doubled.min_pairwise_distance == pytest.approx(
            lam * base.min_pairwise_distance, rel=1e-6)

    def test_trials_validated(self, two_body_problem):
        with pytest.raises(ValueError):
            bound_probe(two_body_problem, 0, 1)

    def test_report_reproducible(self, two_body_problem):
        r1 = bound_probe(two_body_problem, 15, 2)
        r2 = bound_probe(two_body_problem, 15, 2)
        assert (json.dumps(cli._probe_json(r1))
                == json.dumps(cli._probe_json(r2)))

    def test_no_convergence_reports_zero_classes(self, two_body_problem,
                                                 monkeypatch):
        # with no iterations allowed no random seed converges; the report
        # must degrade gracefully
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
        report = bound_probe(two_body_problem, 3, 0)
        assert report.classes_found == 0
        assert report.min_pairwise_distance is None
        assert report.max_point_norm is None
        assert report.classes == ()
        assert report.converged == 0
        assert report.dropped == 3

    def test_bounds_positive_and_finite(self, two_body_problem):
        report = bound_probe(two_body_problem, 10, 4)
        assert report.min_pairwise_distance > 0.0
        assert np.isfinite(report.max_point_norm)

    def test_global_bounds_consistent_with_classes(self):
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
        report = bound_probe(prob, 60, 9)
        assert report.classes_found >= 2
        assert report.min_pairwise_distance == min(
            cls.result.config.min_distance for cls in report.classes)
        assert report.max_point_norm == max(
            cls.result.config.max_norm for cls in report.classes)
        assert report.converged == sum(cls.hits for cls in report.classes)

    @pytest.mark.parametrize("k,n,a,rates", [
        (2, 6, -0.75, [1.0]),
        (3, 5, -1.5, [1.0]),
        (4, 6, -1.5, [1.0, 2.0]),
    ], ids=["n6-a-0.75", "odd-k", "two-rates"])
    def test_rate_scaling_law_class_by_class(self, k, n, a, rates):
        # Q balances at rates w*A exactly when w^(1/a) Q balances at A,
        # so the probe at scaled rates finds every class scaled by w^(1/a)
        problem = Problem(k, np.linspace(0.5, 2.0, n), rates, a)
        base = bound_probe(problem, 30, 3)
        assert base.classes_found >= 1
        for omega in (0.5, 2.0):
            scaled = bound_probe(
                problem.with_frequencies(problem.frequencies * omega), 30, 3)
            lam = omega ** (1.0 / a)
            assert scaled.classes_found == base.classes_found
            assert ([cls.hits for cls in scaled.classes]
                    == [cls.hits for cls in base.classes])
            for cls, ref in zip(scaled.classes, base.classes):
                assert cls.result.config.min_distance == pytest.approx(
                    lam * ref.result.config.min_distance, rel=1e-9)
                assert cls.result.config.max_norm == pytest.approx(
                    lam * ref.result.config.max_norm, rel=1e-9)


class TestFrequencySweep:
    def test_two_body_scaling_law(self, two_body_problem):
        omegas = [0.5, 1.0, 2.0]
        reports = frequency_sweep(two_body_problem, omegas, 20, 11)
        for omega, report in zip(omegas, reports):
            assert report.classes_found >= 1
            exact = 2.0 ** (1.0 / 3.0) * omega ** (-2.0 / 3.0)
            assert report.min_pairwise_distance == pytest.approx(
                exact, rel=1e-6)

    def test_empty_omega_list(self, two_body_problem):
        assert frequency_sweep(two_body_problem, [], 10, 1) == []

    def test_nonpositive_omega_rejected(self, two_body_problem):
        with pytest.raises(ValueError):
            frequency_sweep(two_body_problem, [1.0, -2.0], 10, 1)
        with pytest.raises(ValueError):
            frequency_sweep(two_body_problem, [1.0, np.inf], 10, 1)

    def test_csv_layout(self, two_body_problem, tmp_path, capsys):
        # the probe sweep CSV has one row per omega, in the library's order
        omegas = [1.0, 2.0]
        reports = frequency_sweep(two_body_problem, omegas, 10, 11)
        doc = tmp_path / "twobody.json"
        save_document(doc, ProblemDocument(two_body_problem))
        out = tmp_path / "sweep.csv"
        assert main(["probe", str(doc), "--trials", "10", "--seed", "11",
                     "--omegas", "1,2", "--format", "csv",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "omega_scale,classes_found,c_hat,C_hat,trials,converged"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert int(first[1]) == reports[0].classes_found
        for line, report in zip(lines[1:], reports):
            cells = line.split(",")
            assert float(cells[2]) == report.min_pairwise_distance
            assert float(cells[3]) == report.max_point_norm
            assert int(cells[5]) == report.converged
