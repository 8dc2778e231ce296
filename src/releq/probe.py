"""Empirical lower/upper bound probes over families of solved equilibria.

For fixed masses and rotation rates, every equilibrium keeps its bodies
a positive distance apart and inside a bounded ball. The probe exhibits
the checkable shadow of that: the minimum separation and maximum norm
over all equilibrium classes a multistart search can find. Both numbers
are reported, never asserted against theory; the true bounds are
existential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .solver import multistart_search


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Separation/extent summary of one equilibrium class."""

    min_pairwise_distance: float
    max_point_norm: float
    residual_max: float
    hits: int

    def to_dict(self):
        return {
            "min_pairwise_distance": self.min_pairwise_distance,
            "max_point_norm": self.max_point_norm,
            "residual_max": self.residual_max,
            "hits": self.hits,
        }


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Empirical min-separation / max-norm summary of a search.

    min_pairwise_distance and max_point_norm are None when no trial
    converged (classes_found == 0).
    """

    problem: dict
    classes_found: int
    min_pairwise_distance: float | None
    max_point_norm: float | None
    per_class: tuple
    trials: int
    converged: int
    dropped: int

    def to_dict(self):
        return {
            "problem": self.problem,
            "classes_found": self.classes_found,
            "min_pairwise_distance": self.min_pairwise_distance,
            "max_point_norm": self.max_point_norm,
            "per_class": [stats.to_dict() for stats in self.per_class],
            "trials": self.trials,
            "converged": self.converged,
            "dropped": self.dropped,
        }


def _problem_summary(problem):
    return {
        "n": problem.n,
        "k": problem.k,
        "exponent": problem.a,
        "masses": problem.masses.tolist(),
        "frequencies": problem.frequencies.tolist(),
    }


def bound_probe(problem, trials, rng_seed, opts=None):
    """Search for equilibria and report the global separation/extent bounds."""
    trials = int(trials)
    classes = multistart_search(problem, trials, rng_seed, opts=opts)

    per_class = [
        ClassStats(cls.result.config.min_distance, cls.result.config.max_norm,
                   cls.result.residual_max, cls.hits)
        for cls in classes
    ]

    converged = sum(cls.hits for cls in classes)
    if per_class:
        c_hat = min(stats.min_pairwise_distance for stats in per_class)
        big_c_hat = max(stats.max_point_norm for stats in per_class)
    else:
        c_hat = None
        big_c_hat = None

    return ProbeReport(
        problem=_problem_summary(problem),
        classes_found=len(per_class),
        min_pairwise_distance=c_hat,
        max_point_norm=big_c_hat,
        per_class=tuple(per_class),
        trials=trials,
        converged=converged,
        dropped=trials - converged,
    )


def frequency_sweep(problem_template, omega_values, trials, rng_seed,
                    opts=None):
    """One bound probe per frequency scaling, in input order.

    Each omega scales all of the template's rotation rates; the list may
    be empty, in which case no probes run. Every scaled problem is built,
    and so checked, before the first probe runs.
    """
    problems = [
        problem_template.with_frequencies(problem_template.frequencies * float(w))
        for w in omega_values
    ]
    return [bound_probe(problem, trials, rng_seed, opts=opts)
            for problem in problems]

