"""Empirical lower/upper bound probes over families of solved equilibria.

For fixed masses and rotation rates, every equilibrium keeps its bodies
a positive distance apart and inside a bounded ball. The probe exhibits
the checkable shadow of that: the minimum separation and maximum norm
over all equilibrium classes a multistart search can find. Both numbers
are reported, never asserted against theory; the true bounds are
existential. ``releq.cli`` builds the probe report from a ProbeReport.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Problem
from .solver import multistart_search


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """A search's SearchClass records and the bounds read from them.

    min_pairwise_distance and max_point_norm are None when no trial
    converged (classes_found == 0).
    """

    problem: Problem
    classes: tuple
    trials: int

    @property
    def classes_found(self):
        return len(self.classes)

    @property
    def converged(self):
        return sum(cls.hits for cls in self.classes)

    @property
    def dropped(self):
        return self.trials - self.converged

    @property
    def min_pairwise_distance(self):
        return min((cls.result.config.min_distance for cls in self.classes),
                   default=None)

    @property
    def max_point_norm(self):
        return max((cls.result.config.max_norm for cls in self.classes),
                   default=None)


def bound_probe(problem, trials, rng_seed, opts=None):
    """Search for equilibria and report the global separation/extent bounds."""
    classes = multistart_search(problem, trials, rng_seed, opts=opts)
    return ProbeReport(problem, tuple(classes), int(trials))


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
