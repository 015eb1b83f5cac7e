"""Command-line interface.

Subcommands
-----------
sweep
    Tabulate every closed-form tradeoff quantity over a strength-ratio grid
    (CSV or JSON).
analyze
    Canonical factorization and all tradeoff quantities of one operator read
    from a JSON matrix file.
verify
    Cross-check the closed forms against the Monte Carlo and quadrature
    oracles over a grid; machine-readable JSON report on stdout (or to
    --output), human summary on stderr; exit status 1 if any check fails.
simulate-reversal
    Run the measure-then-reverse experiment and compare the empirical
    success rate with the prediction.
average
    Outcome-averaged quantities of a complete measurement set read from a
    JSON file.

Exit codes: 0 success / all checks passed; 1 verification failure;
2 usage, parse, or file errors, and counts too large to allocate.
Stochastic commands require an explicit --seed, so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import operator
import sys

import numpy as np

from . import analytics, oracle
from .errors import DomainError, FormatError, InputError, IrreversibleError
from .linalg import matrix_from_json, su2_params
from .measurement import MeasurementOperator, MeasurementSet, PureState
from .reversal import _check_reversible, simulate_reversal

#: For each quantity the verify command checks: its closed form and its
#: quadrature and Monte Carlo oracles. Looked up at call time so tests can
#: swap an entry in as a negative control.
QUANTITIES = {
    "information": (
        lambda op: analytics.information_gain(op.lam),
        oracle.quadrature_information,
        oracle.estimate_information,
    ),
    "fidelity": (
        analytics.fidelity_of_operator,
        oracle.quadrature_fidelity,
        oracle.estimate_fidelity,
    ),
    "reversibility": (
        lambda op: analytics.reversibility(op.lam),
        oracle.quadrature_reversibility,
        oracle.estimate_reversibility,
    ),
}

_SWEEP_FIELDS = tuple(f.name for f in dataclasses.fields(analytics.TradeoffRecord))
_sweep_row = operator.attrgetter(*_SWEEP_FIELDS)
#: Header of the sweep table: the record's fields, with ``lam`` spelled out.
_SWEEP_COLUMNS = ("lambda",) + _SWEEP_FIELDS[1:]

_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

#: The error verify's quadratures must meet.
_VERIFY_TOLERANCE = 1e-8


def _fmt(x: float) -> str:
    """12 significant digits."""
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _lambda_grid(args, min_points: int = 2) -> np.ndarray:
    lo, hi, n = args.lambda_min, args.lambda_max, args.points
    if not (0.0 <= lo <= hi <= 1.0):
        raise DomainError(
            f"require 0 <= lambda-min <= lambda-max <= 1, got [{lo}, {hi}]"
        )
    if n < min_points:
        raise DomainError(f"points must be >= {min_points}, got {n}")
    return np.linspace(lo, hi, n)


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """Encoder whose item separator ends a line and indents the next to ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


def _json_pieces(value, head: str = "", depth: int = 0):
    """Yield ``head`` and the text that :func:`json.dumps` makes of ``value``
    with an indent of 2, nested ``depth`` levels deep, in pieces.

    An ``indent`` makes :mod:`json` use its pure-Python encoder, which builds
    the whole text from small strings. So only a container that holds a
    non-empty container is laid out here. Every other value is encoded in
    one call of the C encoder, with an item separator that carries the
    newline and the indent; that is exact because an encoded string holds no
    raw newline. Keys must be ``str``.
    """
    inner = "\n" + "  " * (depth + 1)
    is_dict = isinstance(value, dict)
    members = value.values() if is_dict else value if isinstance(value, list) else ()
    if not any(isinstance(m, (dict, list)) and m for m in members):
        text = _flat_encoder(depth + 1).encode(value)
        if members:
            text = text[0] + inner + text[1:-1] + inner[:-2] + text[-1]
        yield head + text
        return
    keys = (json.dumps(k) + ": " if is_dict else "" for k in value)
    sep = head + ("{" if is_dict else "[") + inner
    for key, member in zip(keys, members):
        yield from _json_pieces(member, sep + key, depth + 1)
        sep = "," + inner
    yield inner[:-2] + ("}" if is_dict else "]")


def _write_output(path, pieces) -> None:
    """Write the text in ``pieces`` and a final newline to the file at
    ``path``, or to stdout if there is none."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)
        fh.write("\n")


def cmd_sweep(args) -> int:
    grid = _lambda_grid(args)
    records = [analytics.tradeoff_record(lam) for lam in grid.tolist()]

    if args.format == "csv":
        lines = [",".join(_SWEEP_COLUMNS)]
        for rec in records:
            lines.append(",".join(_fmt(x) for x in _sweep_row(rec)))
        pieces = ["\n".join(lines)]
    else:
        payload = [
            {key: _round12(x) for key, x in zip(_SWEEP_COLUMNS, _sweep_row(rec))}
            for rec in records
        ]
        pieces = _json_pieces(payload)

    _write_output(args.output, pieces)
    return 0


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge integers, deep nesting
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def cmd_analyze(args) -> int:
    op = MeasurementOperator(matrix_from_json(_load_json(args.matrix)))
    canon = op.canonical
    ang = su2_params(canon.u)
    rec = analytics.tradeoff_record(canon.lam)
    rows = [
        ("kappa", canon.kappa),
        ("lambda", canon.lam),
        ("alpha", ang.alpha),
        ("beta", ang.beta),
        ("gamma", ang.gamma),
        ("delta", ang.delta),
        ("info", rec.info),
        ("fidelity", analytics.fidelity_closed(canon.lam, ang.beta, ang.gamma)),
        ("fidelity_opt", rec.fidelity_opt),
        ("reversibility", rec.reversibility),
        ("eff_fidelity", rec.eff_fidelity),
        ("eff_reversibility", rec.eff_reversibility),
    ]
    for key, val in rows:
        print(f"{key:<17} = {_fmt(val)}")
    return 0


def cmd_verify(args) -> int:
    grid = _lambda_grid(args, min_points=1)
    rng = np.random.default_rng(args.seed)
    # One batch of states for the whole grid, shared by every Monte Carlo
    # check: each is still a 4-sigma test at its own lam, but checks at
    # different lam are correlated, so one unlucky batch fails a band of lam.
    r = oracle.sample_bloch_vectors(rng, args.samples)
    lams12, checks, failures, run = [], [], [], 0

    for lam in grid.tolist():
        lams12.append(lam12 := _round12(lam))
        op = MeasurementOperator(((1.0, 0.0), (0.0, lam)))
        ran, passed, notes = 0, 0, ""
        for quantity, (closed_form, quadrature, monte_carlo) in QUANTITIES.items():
            head = {"lambda": lam12, "quantity": quantity}
            try:  # the oracles' own guard, asked first so that a skipped row runs neither
                if quantity == "reversibility":
                    _check_reversible(op.lam)
            except IrreversibleError:
                # Nothing to reverse: the operator annihilates a state.
                checks.append(dict(head, method="skipped", note="irreversible", passed=True))
                notes += f"  ({quantity} skipped: irreversible)"
                continue
            reference = closed_form(op)
            for est in (quadrature(op), monte_carlo(op, r)):
                bound = (_VERIFY_TOLERANCE if est.method == "quadrature"
                         else max(4.0 * est.std_error, 1e-12))
                err = abs(est.value - reference)
                ok = err <= bound
                checks.append(dict(head, method=est.method, value=est.value,
                                   reference=reference, error=err, bound=bound, passed=ok))
                if est.std_error_jackknife is not None:
                    checks[-1]["std_error_jackknife"] = est.std_error_jackknife
                ran += 1
                passed += ok
                if not ok:
                    failures.append(f"verify: FAIL {quantity} ({est.method}) at lambda={lam12}: "
                                    f"error {err:.3e} > bound {bound:.3e}")
        run += ran
        print(f"lambda={lam:.12g}  {passed}/{ran} checks passed{notes}", file=sys.stderr)

    report = {"seed": args.seed, "samples": args.samples, "nodes": oracle.NODES,
              "tolerance": _VERIFY_TOLERANCE, "grid": lams12, "checks": checks,
              "failures": len(failures), "passed": not failures, "batch": "per-run"}
    _write_output(args.output, _json_pieces(report))
    summary = f"verify: {'FAIL' if failures else 'PASS'} ({run - len(failures)}/{run} checks)"
    print(*failures, summary, sep="\n", file=sys.stderr)
    return 1 if failures else 0


def cmd_simulate_reversal(args) -> int:
    # diag(1, -lam) would canonicalize silently to lam, so check the sign here.
    if not 0.0 < args.lam <= 1.0:
        raise DomainError(f"--lambda must lie in (0, 1], got {args.lam}")
    op = MeasurementOperator(np.diag([1.0, args.lam]))
    state = PureState(theta=args.theta, phi=args.phi)
    rng = np.random.default_rng(args.seed)
    stats = simulate_reversal(op, state, args.trials, rng)

    se = math.sqrt(stats.predicted_rate * (1.0 - stats.predicted_rate) / stats.trials)
    lo, hi = stats.predicted_rate - _Z_99 * se, stats.predicted_rate + _Z_99 * se
    print(f"predicted_rate    = {_fmt(stats.predicted_rate)}")
    print(f"empirical_rate    = {_fmt(stats.empirical_rate)}")
    print(f"interval_99       = [{_fmt(lo)}, {_fmt(hi)}]")
    print(f"trials            = {stats.trials}")
    print(f"successes         = {stats.successes}")
    print(f"recovered_fidelity_min = {_fmt(stats.recovered_fidelity_min)}")
    return 0


def cmd_average(args) -> int:
    mset = MeasurementSet.from_json(_load_json(args.set))
    avg = analytics.averaged_quantities(mset)
    for label, op, p in zip(mset.labels, mset.operators, avg.outcome_probabilities):
        print(
            f"outcome {label}: kappa = {_fmt(op.kappa)}, lambda = {_fmt(op.lam)}, "
            f"p = {_fmt(p)}"
        )
    print(f"info              = {_fmt(avg.info)}")
    print(f"fidelity          = {_fmt(avg.fidelity)}")
    print(f"reversibility     = {_fmt(avg.reversibility)}")
    return 0


def _natural(text: str) -> int:
    """A seed or a count: an integer from 0 to 2**53, held exactly by every JSON
    reader. A count NumPy cannot size is a usage error here, not a ValueError."""
    with contextlib.suppress(ValueError):
        if 0 <= (value := int(text)) <= 2**53:
            return value
    raise argparse.ArgumentTypeError(f"expected an integer from 0 to 2**53, got {text!r}")


def _add_grid_flags(p: argparse.ArgumentParser, lo: float, hi: float, n: int):
    p.add_argument("--lambda-min", type=float, default=lo, help="grid start")
    p.add_argument("--lambda-max", type=float, default=hi, help="grid end")
    p.add_argument("--points", type=_natural, default=n, help="number of grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmtradeoff",
        description=(
            "Information gain, fidelity, and reversibility of single-qubit "
            "measurements: closed forms, reversal simulation, and "
            "integration-oracle verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="tabulate closed forms over a strength grid")
    _add_grid_flags(p, 0.0, 1.0, 101)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="analyze one operator from a JSON matrix file")
    p.add_argument("matrix", help="path to a JSON file with [[..],[..]] [re,im] entries")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="cross-check closed forms against the oracles")
    _add_grid_flags(p, 0.05, 0.95, 19)
    p.add_argument("--samples", type=_natural, default=1_000_000, help="Monte Carlo samples")
    p.add_argument("--seed", type=_natural, required=True, help="RNG seed (mandatory)")
    p.add_argument("--output", default=None, help="write the JSON report to a file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "simulate-reversal", help="measure, then attempt to undo, many times"
    )
    p.add_argument(
        "--lambda", type=float, required=True, dest="lam", help="strength ratio in (0, 1]"
    )
    p.add_argument("--theta", type=float, required=True, help="state polar angle")
    p.add_argument("--phi", type=float, default=0.0, help="state azimuthal angle")
    p.add_argument("--trials", type=_natural, default=100_000)
    p.add_argument("--seed", type=_natural, required=True, help="RNG seed (mandatory)")
    p.set_defaults(func=cmd_simulate_reversal)

    p = sub.add_parser("average", help="outcome-averaged quantities of a complete set")
    p.add_argument("set", help='path to a JSON file {"operators": [...], "labels": [...]}')
    p.set_defaults(func=cmd_average)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
