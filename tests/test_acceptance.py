"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with ``pytest -v -s tests/test_acceptance.py``).

Expected values come from the closed-form oracles in ``oracles.py``; each
closed form is cross-checked against its independent bisection root
before being used.
"""

import functools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from releq import (
    Configuration,
    Problem,
    ProblemDocument,
    bound_probe,
    frequency_sweep,
    jacobian,
    lemma_identity_gap,
    lemma_identity_gaps,
    relative_equilibrium_deviation,
    residual,
    residual_scale,
    rigid_rotation_state,
    sample_seed,
    save_document,
    solve_from_seed,
    conserved_quantities,
    integrate,
)
from releq.cli import main

import oracles
from conftest import random_config

NGON_SIZES = (3, 4, 5, 6, 8, 12)
NGON_EXPONENTS = (-0.75, -1.0, -1.5, -2.0)

# first-run empirical bounds for the 3-body probe of criterion 7, pinned
# as regression baselines; both coincide with the collinear-class closed
# form, which the test re-derives by bisection before asserting
PINNED_C_HAT = 1.0772173450159418
PINNED_BIG_C_HAT = 1.0772173450159418


def criterion(number, name, limit_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"\nACCEPTANCE {number} {name}: FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
            assert elapsed < limit_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget "
                f"{limit_seconds}s")
        return run
    return wrap


def two_body_problem():
    return Problem(2, [1.0, 1.0], [1.0], -1.5)


def ngon_case(n, a):
    prob = Problem(2, [1.0] * n, [1.0], a)
    rho = oracles.ngon_circumradius(n, 1.0, 1.0, a)
    cfg = Configuration(oracles.ngon_points(n, rho))
    return prob, cfg


@criterion(1, "two-body oracle", 5.0)
def test_criterion_1_two_body_solves():
    prob = two_body_problem()
    r_exact = oracles.two_body_separation(1.0, 1.0, 1.0, -1.5)
    assert r_exact == pytest.approx(
        oracles.two_body_separation_bisect(1.0, 1.0, 1.0, -1.5), rel=1e-12)
    hits = 0
    for trial in range(50):
        seed = Configuration(
            sample_seed(prob, np.random.default_rng([101, trial])))
        result = solve_from_seed(seed, prob)
        if not result.converged:
            continue
        sep = np.linalg.norm(result.config.points[0]
                             - result.config.points[1])
        if abs(sep - r_exact) < 1e-10:
            hits += 1
    assert hits >= 45, f"only {hits}/50 trials recovered the oracle"


@criterion(2, "regular n-gon oracle", 2.0)
def test_criterion_2_ngon_residuals(tmp_path):
    for n in NGON_SIZES:
        for a in NGON_EXPONENTS:
            rho = oracles.ngon_circumradius(n, 1.0, 1.0, a)
            assert rho == pytest.approx(
                oracles.ngon_circumradius_bisect(n, 1.0, 1.0, a), rel=1e-12)
            prob, cfg = ngon_case(n, a)
            rep = residual(cfg, prob)
            assert rep.max_norm < 1e-12 * residual_scale(cfg, prob), (n, a)
            doc_path = tmp_path / f"ngon_{n}_{a}.json"
            save_document(doc_path, ProblemDocument(prob, cfg))
            code = main(["verify", str(doc_path), "--t-end", "0.25",
                         "--samples", "4",
                         "--out", str(tmp_path / "report.json")])
            assert code == 0, (n, a)


def _converged_equilibria():
    found = []
    prob2 = two_body_problem()
    for trial in range(6):
        seed = Configuration(
            sample_seed(prob2, np.random.default_rng([202, trial])))
        result = solve_from_seed(seed, prob2)
        if result.converged:
            found.append((prob2, result.config))
    for n in NGON_SIZES:
        for a in NGON_EXPONENTS:
            prob, cfg = ngon_case(n, a)
            result = solve_from_seed(cfg, prob)
            assert result.converged
            found.append((prob, result.config))
    return found


@criterion(3, "cluster identity", 5.0)
def test_criterion_3_lemma_identity():
    checked = 0
    for prob, cfg in _converged_equilibria():
        scale = residual_scale(cfg, prob)
        for l in range(2, prob.n + 1):
            assert lemma_identity_gap(cfg, prob, l).gap < 1e-10 * scale
        checked += 1
    assert checked >= 25

    # every cluster of the n = 96 equal-mass ring
    prob, cfg = ngon_case(96, -1.5)
    scale = residual_scale(cfg, prob)
    gaps = lemma_identity_gaps(cfg, prob)
    assert len(gaps) == 95
    assert all(diag.gap < 1e-10 * scale for diag in gaps)

    # 20 multistart equilibria at n = 4
    prob4 = Problem(2, [1.0] * 4, [1.0], -1.5)
    converged = 0
    trial = 0
    while converged < 20 and trial < 40:
        seed = Configuration(
            sample_seed(prob4, np.random.default_rng([303, trial])))
        result = solve_from_seed(seed, prob4)
        trial += 1
        if not result.converged:
            continue
        converged += 1
        scale = residual_scale(result.config, prob4)
        for l in range(2, 5):
            gap = lemma_identity_gap(result.config, prob4, l).gap
            assert gap < 1e-10 * scale
    assert converged == 20

    # negative control: random configurations are far from the identity
    rng = np.random.default_rng(404)
    for _ in range(20):
        cfg = random_config(rng, 4, 2, spread=1.2, min_sep=0.25)
        gaps = [lemma_identity_gap(cfg, prob4, l).gap for l in (2, 3, 4)]
        assert max(gaps) > 1e-4


@criterion(4, "dynamic verification", 30.0)
def test_criterion_4_rigid_rotation_dynamics():
    # NOTE: the 12-gon at a = -2 is known to fail the deviation bound.
    # That ring is dynamically unstable with rate 4.909 (the largest real
    # part of the rotating-frame linearization [[0, I], [J, -2 I(x)G]]),
    # so float64 initial data (defect ~1e-14, the representation limit)
    # is amplified by e^(4.909 * 2 pi) ~ 2.5e13 over one period: the
    # measured deviation 1.56e-3, 0.78x the linear response to the
    # float64 defect and the same at any sample count, is
    # tolerance-independent and no double-precision integration can
    # meet 1e-6 there. The bound is asserted as stated regardless.
    cases = [(two_body_problem(),
              Configuration(oracles.two_body_points(1.0, 1.0, 1.0, -1.5)))]
    cases += [ngon_case(n, a) for n in NGON_SIZES for a in NGON_EXPONENTS]
    tol = 1e-10
    failures = []
    for prob, cfg in cases:
        dev = relative_equilibrium_deviation(cfg, prob, 2 * np.pi,
                                             samples=16, tol=tol)
        if not dev < 1e-6:
            failures.append(f"deviation n={prob.n} a={prob.a}: {dev:.3e}")

        traj = integrate(rigid_rotation_state(cfg, prob), prob, 2 * np.pi,
                         tol, sample_times=np.linspace(0, 2 * np.pi, 17))
        q0 = conserved_quantities(traj.state(0), prob)
        e_ref = max(1.0, abs(q0.energy))
        l_ref = max(1.0, np.abs(q0.angular_momentum).max())
        e_drift = p_drift = l_drift = 0.0
        for i in range(len(traj)):
            qi = conserved_quantities(traj.state(i), prob)
            e_drift = max(e_drift, abs(qi.energy - q0.energy) / e_ref)
            p_drift = max(p_drift, np.abs(qi.linear_momentum
                                          - q0.linear_momentum).max())
            l_drift = max(l_drift, np.abs(qi.angular_momentum
                                          - q0.angular_momentum).max() / l_ref)
        for label, drift in (("energy", e_drift), ("momentum", p_drift),
                             ("angular momentum", l_drift)):
            if not drift < 1e-8:
                failures.append(
                    f"{label} drift n={prob.n} a={prob.a}: {drift:.3e}")
    assert not failures, "; ".join(failures)


@criterion(5, "analytic Jacobian", 10.0)
def test_criterion_5_jacobian_finite_differences():
    rng = np.random.default_rng(505)
    dims = (2, 3, 4, 5)
    exponents = (-0.75, -1.5)
    for case in range(20):
        k = dims[case % 4]
        a = exponents[case % 2]
        n = 4 if case % 3 else 5
        prob = Problem(k, rng.uniform(0.5, 2.0, size=n),
                       rng.uniform(0.6, 1.8, size=k // 2), a)
        cfg = random_config(rng, n, k, spread=1.4, min_sep=0.35)
        J = jacobian(cfg, prob)
        h = 1e-6 * max(1.0, np.abs(cfg.points).max())
        Jfd = np.zeros_like(J)
        pts = np.array(cfg.points)
        for col in range(n * k):
            plus = pts.copy()
            plus[col // k, col % k] += h
            minus = pts.copy()
            minus[col // k, col % k] -= h
            fp = residual(Configuration(plus), prob).per_body.ravel()
            fm = residual(Configuration(minus), prob).per_body.ravel()
            Jfd[:, col] = (fp - fm) / (2.0 * h)
        err = np.abs(J - Jfd).max() / max(1.0, np.abs(J).max())
        assert err < 1e-6, (k, a, err)


@criterion(6, "scaling covariance", 1.0)
def test_criterion_6_scaling_covariance():
    cases = [(two_body_problem(),
              Configuration(oracles.two_body_points(1.0, 1.0, 1.0, -1.5)))]
    cases += [ngon_case(n, a) for n in NGON_SIZES for a in NGON_EXPONENTS]
    for prob, cfg in cases:
        for lam in (0.5, 2.0, 10.0):
            scaled_cfg = Configuration(cfg.points * lam)
            scaled_prob = prob.with_frequencies(
                prob.frequencies * lam ** prob.a)
            rep = residual(scaled_cfg, scaled_prob)
            scale = residual_scale(scaled_cfg, scaled_prob)
            assert rep.max_norm < 1e-11 * scale, (prob.n, prob.a, lam)


@criterion(7, "empirical bound probe", 60.0)
def test_criterion_7_bound_probe_and_sweep():
    # brute-force re-derivation of the pinned values
    euler = oracles.euler_collinear_distance(1.0, 1.0, -1.5)
    assert euler == pytest.approx(
        oracles.euler_collinear_distance_bisect(1.0, 1.0, -1.5), rel=1e-12)
    assert euler == pytest.approx(PINNED_C_HAT, rel=1e-13)
    lagrange_side = 2.0 * oracles.ngon_circumradius(3, 1.0, 1.0, -1.5) \
        * np.sin(np.pi / 3.0)
    assert lagrange_side > euler  # the collinear class sets c-hat

    prob3 = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
    report = bound_probe(prob3, 500, 777)
    assert report.classes_found >= 2
    assert report.min_pairwise_distance > 0.0
    assert np.isfinite(report.max_point_norm)
    assert report.min_pairwise_distance == pytest.approx(
        PINNED_C_HAT, rel=1e-6)
    assert report.max_point_norm == pytest.approx(
        PINNED_BIG_C_HAT, rel=1e-6)

    sweep = frequency_sweep(two_body_problem(), [0.5, 1.0, 2.0], 40, 777)
    for omega, rep in zip((0.5, 1.0, 2.0), sweep):
        assert rep.classes_found >= 1
        exact = 2.0 ** (1.0 / 3.0) * omega ** (-2.0 / 3.0)
        assert rep.min_pairwise_distance == pytest.approx(exact, rel=1e-6)


@criterion(8, "deterministic output", 60.0)
def test_criterion_8_byte_identical_cli(tmp_path):
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
    doc = tmp_path / "three.json"
    save_document(doc, ProblemDocument(prob))

    def run(cmd, out, jobs):
        subprocess.run(
            [sys.executable, "-m", "releq.cli", cmd, str(doc),
             "--trials", "50", "--seed", "7", "--jobs", str(jobs),
             "--out", str(out)],
            check=True, capture_output=True,
        )
        return out.read_bytes()

    search_a = run("search", tmp_path / "sa.json", 1)
    search_b = run("search", tmp_path / "sb.json", 1)
    search_c = run("search", tmp_path / "sc.json", 4)
    assert search_a == search_b == search_c

    probe_a = run("probe", tmp_path / "pa.json", 1)
    probe_b = run("probe", tmp_path / "pb.json", 1)
    probe_c = run("probe", tmp_path / "pc.json", 4)
    assert probe_a == probe_b == probe_c
    payload = json.loads(probe_a)
    assert payload["classes_found"] >= 2
