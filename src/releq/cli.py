"""Command-line surface tying the library together.

Subcommands: verify, solve, search, continue, probe, integrate. Every
command reads a JSON problem document, prints a one-line summary to
stdout, and writes its full report to --out (atomically, as a new file
under the umask); without --out the report is printed after the summary.
A report is written in blocks as it is encoded, with the same bytes as a
whole-text write. This module alone builds every JSON and CSV report.
Exit codes: 0 success, 1 verification/runtime failure (a --samples too
large to allocate included), 2 bad input or flags, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .criterion import (
    lemma_identity_gaps,
    residual,
    weighted_centroid_residual,
)
from .documents import (
    json_chunks,
    load_document,
    write_blocks,
    write_text_atomic,
)
from .dynamics import (
    co_rotating_gap,
    co_rotating_trajectory,
    relative_equilibrium_deviation,
    to_fixed_frame,
)
from .errors import DocumentError, SingularityError
from .probe import bound_probe, frequency_sweep
from .solver import (
    SolveOptions,
    continuation_in_exponent,
    fingerprint,
    solve_from_seed,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(args, chunks):
    """Write the report's chunks to --out atomically, or print them when
    --out is unset; either way in blocks (see `documents.write_blocks`)."""
    if args.out:
        write_text_atomic(args.out, chunks)
    else:
        write_blocks(sys.stdout, chunks)


def _csv(header, rows):
    """CSV lines: a None cell is empty, an int or str cell is str(cell) and
    any other cell repr(float(cell)), so floats round-trip exactly."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(
            "" if cell is None
            else str(cell) if isinstance(cell, (int, str))
            else repr(float(cell))
            for cell in row) + "\n"


def _need_positions(doc):
    if doc.config is None:
        raise DocumentError("document has no 'positions'")
    return doc.config


def _horizon(problem, t_end):
    if t_end is not None:
        return float(t_end)
    return 2.0 * math.pi / float(problem.frequencies.max())


def _solve_options(args):
    """The SolveOptions of the four solver flags, which default to its own."""
    return SolveOptions(tol_res=args.tol, damping_init=args.damping_init,
                        damping_grow=args.damping_grow,
                        damping_shrink=args.damping_shrink)


def _result_json(result):
    """A SolveResult's record in the solve, search and continue reports."""
    return {"points": result.points.tolist(),
            "residual_max": result.residual_max,
            "iterations": result.iterations,
            "termination": result.termination.value}


def _fingerprint_json(fp):
    return {"sorted_distances": fp.sorted_distances.tolist(),
            "sorted_mass_weighted_norms":
                fp.sorted_mass_weighted_norms.tolist()}


def _probe_json(report):
    """A ProbeReport's record: the probe report, or one sweep entry."""
    problem = report.problem
    return {
        "problem": {"n": problem.n, "k": problem.k, "exponent": problem.a,
                    "masses": problem.masses.tolist(),
                    "frequencies": problem.frequencies.tolist()},
        "classes_found": report.classes_found,
        "min_pairwise_distance": report.min_pairwise_distance,
        "max_point_norm": report.max_point_norm,
        "per_class": [{"min_pairwise_distance": cls.result.config.min_distance,
                       "max_point_norm": cls.result.config.max_norm,
                       "residual_max": cls.result.residual_max,
                       "hits": cls.hits} for cls in report.classes],
        "trials": report.trials, "converged": report.converged,
        "dropped": report.dropped,
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_verify(args):
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {args.tol}")
    doc = load_document(args.input)
    problem = doc.problem
    config = _need_positions(doc)

    report = residual(config, problem)
    gaps = lemma_identity_gaps(config, problem)
    centroid = weighted_centroid_residual(config, problem)
    t_end = _horizon(problem, args.t_end)
    error = None
    try:
        deviation = relative_equilibrium_deviation(
            config, problem, t_end, samples=args.samples
        )
    except SingularityError as exc:
        # the static checks' report stands when the integration aborts
        print(f"error: {exc}", file=sys.stderr)
        deviation, error = None, str(exc)
    passed = report.max_norm <= args.tol
    payload = {
        "residual": {"per_body": report.per_body.tolist(),
                     "max_norm": report.max_norm, "rms": report.rms},
        "lemma_gaps": [{"l": diag.l, "lhs": diag.lhs.tolist(),
                        "rhs": diag.rhs.tolist(), "gap": diag.gap}
                       for diag in gaps],
        "weighted_centroid_residual": centroid.tolist(),
        "relative_equilibrium_deviation": deviation,
        **({} if error is None else {"deviation_error": error}),
        "deviation_t_end": t_end,
        "tol": args.tol,
        "passed": passed,
    }
    status = "PASS" if passed else "FAIL"
    shown = f"{deviation:.6e}" if error is None else "failed"
    print(f"verify: {status} residual_max={report.max_norm:.6e} "
          f"tol={args.tol:.1e} deviation={shown}")
    _emit(args, json_chunks(payload))
    return EXIT_OK if passed and error is None else EXIT_VERIFY_FAILED


def _cmd_solve(args):
    doc = load_document(args.input)
    problem = doc.problem
    seed = _need_positions(doc)
    result = solve_from_seed(seed, problem, _solve_options(args))
    payload = _result_json(result)
    payload["residual_history"] = list(result.residual_history)
    if result.converged:
        payload["fingerprint"] = _fingerprint_json(
            fingerprint(result.config, problem))
    print(f"solve: termination={result.termination.value} "
          f"iterations={result.iterations} "
          f"residual_max={result.residual_max:.6e}")
    _emit(args, json_chunks(payload))
    return EXIT_OK if result.converged else EXIT_VERIFY_FAILED


def _search_csv(classes):
    header = ["class", "hits", "iterations", "residual_max"]
    if classes:
        fp = classes[0].fingerprint
        header += [f"d{i}" for i in range(fp.sorted_distances.size)]
        header += [f"w{i}" for i in range(fp.sorted_mass_weighted_norms.size)]
    return _csv(header, (
        [idx, cls.hits, cls.result.iterations, cls.result.residual_max,
         *cls.fingerprint.sorted_distances,
         *cls.fingerprint.sorted_mass_weighted_norms]
        for idx, cls in enumerate(classes)))


def _cmd_search(args):
    doc = load_document(args.input)
    report = bound_probe(doc.problem, args.trials, args.seed,
                         opts=_solve_options(args))
    print(f"search: trials={args.trials} converged={report.converged} "
          f"classes={report.classes_found}")
    if args.format == "csv":
        _emit(args, _search_csv(report.classes))
    else:
        _emit(args, json_chunks({
            "trials": args.trials,
            "rng_seed": args.seed,
            "converged": report.converged,
            "dropped": report.dropped,
            "classes": [{**_result_json(cls.result),
                         "fingerprint": _fingerprint_json(cls.fingerprint),
                         "hits": cls.hits} for cls in report.classes],
        }))
    return EXIT_OK


def _cmd_continue(args):
    doc = load_document(args.input)
    problem = doc.problem
    seed = _need_positions(doc)
    opts = _solve_options(args)
    start = solve_from_seed(seed, problem, opts)
    if not start.converged:
        print(f"continue: starting solve failed "
              f"({start.termination.value})", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    steps = continuation_in_exponent(start, problem, args.a_target,
                                     args.steps, opts)
    rows = [{
        "a": a_value,
        **_result_json(result),
        "min_pairwise_distance": result.config.min_distance,
        "max_point_norm": result.config.max_norm,
    } for a_value, result in steps]
    completed = sum(1 for _, result in steps if result.converged)
    print(f"continue: steps={args.steps} completed={completed} "
          f"final_a={rows[-1]['a']:.6g}")
    if args.format == "csv":
        columns = ["a", "termination", "iterations", "residual_max",
                   "min_pairwise_distance", "max_point_norm"]
        _emit(args, _csv(["step", *columns],
                         ([idx, *(row[c] for c in columns)]
                          for idx, row in enumerate(rows))))
    else:
        _emit(args, json_chunks({"a_target": args.a_target,
                                 "steps": args.steps, "rows": rows}))
    return EXIT_OK if completed == args.steps else EXIT_VERIFY_FAILED


def _probe_csv(omegas, reports):
    return _csv(
        ["omega_scale", "classes_found", "c_hat", "C_hat", "trials",
         "converged"],
        ([omega, r.classes_found, r.min_pairwise_distance, r.max_point_norm,
          r.trials, r.converged] for omega, r in zip(omegas, reports)))


def _cmd_probe(args):
    doc = load_document(args.input)
    problem = doc.problem
    opts = _solve_options(args)
    omegas = ([float(w) for w in args.omegas.split(",") if w.strip()]
              if args.omegas is not None else [1.0])
    reports = frequency_sweep(problem, omegas, args.trials, args.seed,
                              opts=opts)
    if args.omegas is not None:
        found = sum(r.classes_found for r in reports)
        print(f"probe: sweep omegas={len(omegas)} total_classes={found}")
        payload = {"omegas": omegas,
                   "reports": [_probe_json(r) for r in reports]}
    else:
        report, = reports
        payload = _probe_json(report)
        c_hat, big_c = report.min_pairwise_distance, report.max_point_norm
        print(f"probe: classes={report.classes_found} "
              f"c_hat={'n/a' if c_hat is None else f'{c_hat:.9g}'} "
              f"C_hat={'n/a' if big_c is None else f'{big_c:.9g}'} "
              f"converged={report.converged}/{report.trials}")
    if args.format == "csv":
        _emit(args, _probe_csv(omegas, reports))
    else:
        _emit(args, json_chunks(payload))
    return EXIT_OK


def _cmd_integrate(args):
    doc = load_document(args.input)
    problem = doc.problem
    config = _need_positions(doc)
    t_end = _horizon(problem, args.t_end)
    rotating = co_rotating_trajectory(config, problem, t_end, args.samples,
                                      args.tol)
    deviation = co_rotating_gap(rotating, config)
    traj = to_fixed_frame(rotating, problem)
    print(f"integrate: t_end={t_end:.9g} samples={args.samples} "
          f"deviation={deviation:.6e}")
    if args.format == "csv":
        s, n, k = traj.positions.shape
        header = ["t", "body", *(f"q{c}" for c in range(k)),
                  *(f"v{c}" for c in range(k))]
        _emit(args, _csv(header, (
            [traj.times[idx], body, *traj.positions[idx, body],
             *traj.velocities[idx, body]]
            for idx in range(s) for body in range(n))))
    else:
        _emit(args, json_chunks({
            "t_end": t_end,
            "tol": args.tol,
            "deviation": deviation,
            "times": traj.times.tolist(),
            "positions": traj.positions.tolist(),
            "velocities": traj.velocities.tolist(),
        }))
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="releq",
        description="Find, verify and explore rigidly rotating point-mass "
                    "configurations under power-law forces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        p.add_argument("input", help="path to a JSON problem document")
        p.add_argument("--out", help="write the full report to this path")
        if with_format:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json")

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, default=SolveOptions.tol_res,
                       help="relative residual tolerance (default 1e-12)")
        p.add_argument("--damping-init", type=float,
                       default=SolveOptions.damping_init,
                       help="initial LM damping (default 1e-3)")
        p.add_argument("--damping-grow", type=float,
                       default=SolveOptions.damping_grow,
                       help="damping factor on rejected steps (default 10)")
        p.add_argument("--damping-shrink", type=float,
                       default=SolveOptions.damping_shrink,
                       help="damping factor on accepted steps (default 0.5)")

    def add_jobs_flag(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for existing command lines; has no "
                            "effect (trials run in lock-step batches)")

    p = sub.add_parser("verify", help="check a document's positions against "
                                      "the balance criterion")
    add_common(p, with_format=False)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="residual max-norm threshold for exit 0")
    p.add_argument("--t-end", dest="t_end", type=float, default=None,
                   help="horizon for the dynamic deviation check "
                        "(default one rotation period)")
    p.add_argument("--samples", type=positive_int, default=16)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="refine the document's positions to an "
                                     "equilibrium")
    add_common(p, with_format=False)
    add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("search", help="multistart search for equilibrium "
                                      "classes")
    add_common(p)
    add_solver_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_jobs_flag(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("continue", help="track the solution while the "
                                        "exponent walks to a target")
    add_common(p)
    add_solver_flags(p)
    p.add_argument("--a-target", dest="a_target", type=float, required=True)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(func=_cmd_continue)

    p = sub.add_parser("probe", help="empirical min-separation / max-norm "
                                     "bounds over found equilibria")
    add_common(p)
    add_solver_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_jobs_flag(p)
    p.add_argument("--omegas", default=None,
                   help="comma-separated frequency scalings: run one probe "
                        "per value (sweep)")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("integrate", help="integrate the motion from the "
                                         "document's positions")
    add_common(p)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=positive_int, default=64)
    p.set_defaults(func=_cmd_integrate)

    return parser


@functools.cache
def _parser():
    """The process's one parser: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on flag errors already; normalize other codes
        return EXIT_BAD_INPUT if exc.code not in (0,) else 0
    try:
        # non-finite intermediates are reported through values, exit codes
        # and the one error line, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ArithmeticError as exc:
        # Python-float arithmetic raises where numpy gives inf or NaN
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
