"""The four workloads: inputs from a seed, one timed pass, and the checks of
a pass's outputs.

A pass returns ``(outputs, latencies)``. ``outputs`` is what the package
produced, compared across passes by ``digest`` and checked by ``check``;
``latencies`` holds one entry per operation, in seconds.

``check`` returns a ``Checked``: the number of records checked, each
failure with a one-line reason, and whether that failure is one of the
defects the seed commit is known to have (``KNOWN_DEFECTS``). Known defects
are counted and printed but do not make a run incorrect; any other failure
does.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import entry
import reference
from qmtradeoff import analytics, cli, measurement, reversal

#: Defects the seed commit shows on these workloads, by tag.
KNOWN_DEFECTS = {
    "quad-info-small-lam": "quadrature_information misses the 1e-8 tolerance for 0 < lambda < 0.015",
    "info-precision-near-1": "information_gain (and efficiency_reversibility) lose digits for 0.99 < lambda < 1",
    "overflow-operator-accepted": "an operator scaled past 1e154 is accepted with kappa = lambda = NaN",
}

#: Relative error the closed forms must meet against the 50-digit reference.
#: CLI output carries 12 significant digits, so 5e-12 of this is rounding.
REL_BUDGET = 1e-10

#: One-sided tail of |Z| > 4 for a normal variable.
P_4SIGMA = math.erfc(4 / math.sqrt(2))

N_OPERATORS = 5000
INVALID_SHARE = 0.01


@dataclass
class Checked:
    records: int = 0
    failures: list = field(default_factory=list)  # (reason, known tag or None)
    max_rel_err: float = 0.0
    extra: dict = field(default_factory=dict)

    def fail(self, reason, known=None):
        self.failures.append((reason, known))

    def record(self, problems):
        """Count one record; ``problems`` lists its (reason, known tag or None).
        A failed record is known only if every problem has the same tag."""
        self.records += 1
        if problems:
            tags = {tag for _, tag in problems}
            self.fail("; ".join(r for r, _ in problems), tags.pop() if len(tags) == 1 else None)

    def rel(self, value, ref):
        err = reference.rel_err(value, ref)
        self.max_rel_err = max(self.max_rel_err, err)
        return err


def _known_precision(column: str, lam: float, err: float):
    if column in ("info", "information", "eff_reversibility") and 0.99 < lam < 1.0 and err < 1e-3:
        return "info-precision-near-1"
    return None


class _Sink(io.TextIOBase):
    """Text stream that keeps what is written and when each line starts."""

    def __init__(self):
        self.parts = []
        self.stamps = []

    def write(self, s):
        if s.startswith("lambda="):
            self.stamps.append(time.perf_counter())
        self.parts.append(s)
        return len(s)

    def text(self):
        return "".join(self.parts)


class CliWorkload:
    """A workload of ``qmtradeoff`` command lines run through ``cli.main``.

    An operation is one grid point of ``verify``, timed by the progress line
    it prints to stderr, or one ``sweep`` command.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.argvs = entry.cli_argvs(name, seed)

    def warm_up(self):
        with contextlib.redirect_stdout(_Sink()), contextlib.redirect_stderr(_Sink()):
            cli.main(entry.minimal_argv(self.name))

    def run_pass(self):
        outputs, latencies = [], []
        for argv in self.argvs:
            out, err = _Sink(), _Sink()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            t1 = time.perf_counter()
            outputs.append((rc, out.text(), err.text()))
            if err.stamps:
                latencies += np.diff([t0, *err.stamps]).tolist()
            else:
                latencies.append(t1 - t0)
        return outputs, latencies

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for rc, out, _ in outputs:
            h.update(f"{rc}\n".encode())
            h.update(out.encode())
        return h.hexdigest()

    def check(self, outputs) -> Checked:
        if self.name == "sweep":
            return self._check_sweep(outputs)
        return self._check_verify(outputs[0])

    # -- verify --------------------------------------------------------

    def _check_verify(self, output) -> Checked:
        rc, text, progress = output
        argv = self.argvs[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        lo = float(opts.get("--lambda-min", 0.05))
        hi = float(opts.get("--lambda-max", 0.95))
        grid = np.linspace(lo, hi, int(opts.get("--points", 19)))
        c = Checked()
        lines = sum(line.startswith("lambda=") for line in progress.splitlines())
        if lines != len(grid):
            # The operation latencies (op_p10_us) time grid points by these lines.
            c.fail(f"{lines} progress lines on stderr for {len(grid)} grid points")
        report = json.loads(text)
        expect = {"seed": self.seed, "samples": int(opts.get("--samples", 1_000_000)),
                  "nodes": 64, "tolerance": 1e-8, "grid": [float(f"{x:.12g}") for x in grid]}
        for key, want in expect.items():
            if report.get(key) != want:
                c.fail(f"report {key} is {report.get(key)!r}, expected {want!r}")
        checks = report["checks"]
        expected_rows = [(lam, q, m) for lam in grid
                         for q in ("information", "fidelity", "reversibility")
                         for m in (("skipped",) if (q == "reversibility" and lam == 0.0)
                                   else ("quadrature", "monte-carlo"))]
        if len(checks) != len(expected_rows):
            c.fail(f"{len(checks)} checks in report, expected {len(expected_rows)}")
        mc = outliers = failed_in_report = 0
        refs = {}
        for row, (lam, quantity, method) in zip(checks, expected_rows):
            if (row["quantity"], row["method"]) != (quantity, method):
                c.fail(f"check order differs at lambda={lam}: {row['quantity']}/{row['method']}")
                continue
            if method == "skipped":
                continue
            where = f"{quantity}/{method} at lambda={lam}"
            problems = []
            if lam not in refs:
                info, fid, rev, _, _ = reference.tradeoff(float(lam))
                refs[lam] = {"information": info, "fidelity": fid, "reversibility": rev}
            err = c.rel(row["reference"], refs[lam][quantity])
            if err > REL_BUDGET:
                problems.append((f"{where}: closed form rel err {err:.2e}",
                                 _known_precision(quantity, lam, err)))
            if abs(row["value"] - row["reference"]) != row["error"]:
                problems.append((f"{where}: error field disagrees with value", None))
            if row["passed"] != (row["error"] <= row["bound"]):
                problems.append((f"{where}: passed flag disagrees with bound", None))
            failed_in_report += not row["passed"]
            if method == "monte-carlo":
                mc += 1
                outliers += not row["passed"]
            elif row["bound"] != 1e-8:
                problems.append((f"{where}: bound {row['bound']}", None))
            elif not row["passed"]:
                known = ("quad-info-small-lam" if quantity == "information" and 0 < lam < 0.015
                         and row["error"] < 1e-6 else None)
                problems.append((f"{where}: error {row['error']:.2e} > 1e-8", known))
            c.record(problems)
        if report["failures"] != failed_in_report or report["passed"] != (failed_in_report == 0):
            c.fail("report failure count disagrees with its checks")
        if rc != (0 if report["passed"] else 1):
            c.fail(f"exit code {rc} for a report with passed={report['passed']}")
        c.extra = {"mc_checks": mc, "quad_checks": c.records - mc, "outliers_4sigma": outliers,
                   "outliers_expected": mc * P_4SIGMA}
        return c

    # -- sweep ---------------------------------------------------------

    def _check_sweep(self, outputs) -> Checked:
        c = Checked()
        (rc_csv, text_csv, _), (rc_json, text_json, _) = outputs
        if rc_csv or rc_json:
            c.fail(f"sweep exit codes {rc_csv}, {rc_json}")
            return c
        rows = list(csv.reader(io.StringIO(text_csv)))
        columns = rows[0]
        payload = json.loads(text_json)
        grid = np.linspace(0.0, 1.0, 100001)
        if columns != list(cli._SWEEP_COLUMNS) or len(rows) - 1 != len(grid) or len(payload) != len(grid):
            c.fail(f"sweep shape: columns {columns}, {len(rows) - 1} CSV rows, {len(payload)} JSON rows")
            return c
        table = np.array(rows[1:], dtype=float)
        as_json = np.array([[r[k] for k in columns] for r in payload], dtype=float)
        lam_column = np.array([float(f"{x:.12g}") for x in grid])
        mismatch = set(np.flatnonzero(np.any(table != as_json, axis=1) | (table[:, 0] != lam_column)))
        # Every row past the widest series seam, every 20th row before it.
        vs_reference = set(range(0, len(grid), 20)) | set(np.flatnonzero(grid >= 0.99).tolist())
        for i, lam in enumerate(grid.tolist()):
            problems = []
            if i in mismatch:
                problems.append((f"row {i}: CSV, JSON and the grid disagree", None))
            if i in vs_reference:
                for column, value, ref in zip(columns[1:], table[i, 1:], reference.tradeoff(lam)):
                    err = c.rel(value, ref)
                    if err > REL_BUDGET:
                        problems.append((f"{column} at lambda={lam}: rel err {err:.2e}",
                                         _known_precision(column, lam, err)))
            c.record(problems)
        c.extra = {"rows_vs_reference": len(vs_reference)}
        return c


@dataclass(frozen=True)
class OperatorInput:
    m0: np.ndarray
    m1: np.ndarray
    state: object
    kind: str  # "valid", "norm" (largest singular value > 1) or "overflow"


def _haar_unitary(rng) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_operator_inputs(seed: int, n: int = N_OPERATORS) -> list:
    """Random operators with largest singular value <= 1, each with a
    completing partner and a random state; about 1 in 100 is invalid."""
    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        kappa = rng.uniform(0.2, 1.0)
        kind = "valid"
        if rng.random() < INVALID_SHARE:
            kind = "norm" if rng.random() < 0.5 else "overflow"
        if kind == "overflow":
            m0 = 10.0 ** rng.uniform(155, 300) * _haar_unitary(rng)
        else:
            m0 = g / np.linalg.norm(g, 2) * (kappa if kind == "valid" else rng.uniform(1.001, 3.0))
        m1 = np.eye(2, dtype=complex)  # never reached: m0 is rejected first
        if kind == "valid":
            # Completing partner: W sqrt(I - M0^dagger M0), W Haar-random.
            w, vecs = np.linalg.eigh(np.eye(2) - m0.conj().T @ m0)
            m1 = _haar_unitary(rng) @ (vecs * np.sqrt(np.clip(w, 0, None))) @ vecs.conj().T
        theta = math.acos(rng.uniform(-1.0, 1.0))
        state = measurement.PureState(theta=theta, phi=rng.uniform(0.0, 2 * math.pi))
        inputs.append(OperatorInput(m0=m0, m1=m1, state=state, kind=kind))
    return inputs


class OperatorsWorkload:
    """Random operators through the library path behind ``analyze``,
    ``average`` and ``simulate-reversal``; an operation is one operator."""

    name = "operators"

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = make_operator_inputs(seed)

    def warm_up(self):
        entry.minimal_operator()

    def run_pass(self):
        rng = np.random.default_rng([self.seed, 1])
        outputs, latencies = [], []
        clock = time.perf_counter
        for item in self.inputs:
            t0 = clock()
            try:
                result = ("ok", entry.process_operator(item.m0, item.m1, item.state, rng))
            except Exception as exc:  # every input must end in a result or a rejection
                result = (type(exc).__name__, str(exc))
            latencies.append(clock() - t0)
            outputs.append(result)
        return outputs, latencies

    def digest(self, outputs) -> str:
        return hashlib.sha256(repr(outputs).encode()).hexdigest()

    def check(self, outputs) -> Checked:
        c = Checked()
        trials = successes = 0
        for i, (item, (status, result)) in enumerate(zip(self.inputs, outputs)):
            if item.kind != "valid":
                c.record(_check_invalid(i, item, status))
            elif status != "ok":
                c.record([(f"valid operator {i} rejected: {status}: {result}", None)])
            else:
                c.record([(f"operator {i}: {p}", None) for p in _check_result(item, result)])
                trials += result[-5]
                successes += result[-4]
        c.extra = {"valid": sum(it.kind == "valid" for it in self.inputs),
                   "invalid": sum(it.kind != "valid" for it in self.inputs),
                   "reversal_trials": trials, "reversal_successes": successes}
        return c


def _check_invalid(i, item, status) -> list:
    with np.errstate(all="ignore"):
        try:
            op = measurement.MeasurementOperator(item.m0)
        except ValueError:
            return []  # rejected, as it must be
    finite = math.isfinite(op.kappa) and math.isfinite(op.lam)
    known = "overflow-operator-accepted" if item.kind == "overflow" and not finite else None
    return [(f"invalid ({item.kind}) operator {i} accepted with kappa={op.kappa}, "
             f"lambda={op.lam}, then {status}", known)]


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_result(item, r) -> list:
    """Independent checks of one operator's results against NumPy."""
    (kappa, lam, _alpha, beta, gamma, _delta, fid, info, fid_opt, rev, eff_f, eff_r,
     avg_info, avg_fid, avg_rev, p0, p1, r00, r01, r10, r11, eta,
     trials, successes, empirical, predicted, recovered) = r
    bad = []
    s0 = np.linalg.svd(item.m0, compute_uv=False)
    s1 = np.linalg.svd(item.m1, compute_uv=False)
    if not (_close(kappa, s0[0], 1e-12) and _close(lam, s0[1] / s0[0], 1e-10)):
        bad.append(f"singular values {kappa}, {lam} vs {s0[0]}, {s0[1] / s0[0]}")
    bracket = 1 + 2 * lam / (1 + lam * lam) * math.cos(2 * beta)
    if not _close(fid, (1 + bracket * math.cos(gamma) ** 2) / 3, 1e-12):
        bad.append(f"fidelity {fid}")
    if not (1 / 3 - 1e-12 <= fid <= fid_opt + 1e-12):
        bad.append(f"fidelity {fid} outside [1/3, {fid_opt}]")
    if not (_close(rev, 2 * lam * lam / (1 + lam * lam), 1e-12)
            and 0 <= info <= analytics.INFO_AT_ZERO + 1e-15
            and _close(eff_r * (1 - rev), info, 1e-9) and _close(eff_f * (1 - fid_opt), info, 1e-9)):
        bad.append(f"tradeoff record {info}, {rev}, {eff_f}, {eff_r}")
    probs = [0.5 * s[0] ** 2 * (1 + (s[1] / s[0]) ** 2) for s in (s0, s1)]
    if not (_close(p0, probs[0], 1e-10) and _close(p1, probs[1], 1e-10) and _close(p0 + p1, 1.0, 1e-10)):
        bad.append(f"outcome probabilities {p0}, {p1}")
    if not (_close(avg_rev, s0[1] ** 2 + s1[1] ** 2, 1e-10) and 0 <= avg_info <= analytics.INFO_AT_ZERO
            and 1 / 3 - 1e-12 <= avg_fid <= 1 + 1e-12):
        bad.append(f"averaged quantities {avg_info}, {avg_fid}, {avg_rev}")
    r0 = np.array([[r00, r01], [r10, r11]])
    if not (np.max(np.abs(r0 @ item.m0 - eta * np.eye(2))) <= 1e-10
            and np.linalg.norm(r0, 2) <= 1 + 1e-12 and _close(eta, kappa * lam, 1e-12)):
        bad.append("optimal reversing operator does not undo the outcome")
    amp = item.state.amplitudes()
    p = float(np.real(np.vdot(amp, item.m0.conj().T @ item.m0 @ amp)))
    if not (trials == entry.REVERSAL_TRIALS and 0 <= successes <= trials
            and empirical == successes / trials and _close(predicted, min((kappa * lam) ** 2 / p, 1.0), 1e-9)
            and (successes == 0 or recovered >= 1 - reversal.RECOVERY_OVERLAP_TOL)):
        bad.append(f"reversal statistics {successes}/{trials}, predicted {predicted}")
    return bad


def make(name: str, seed: int):
    if name == "operators":
        return OperatorsWorkload(seed)
    return CliWorkload(name, seed)
