"""Error budget of the closed forms and of the quadrature oracles against
high-precision references.

The closed-form references are written from the formulas in the README, not
from ``qmtradeoff.analytics``, and evaluated with ``mpmath`` at 50 digits on
the exact binary value of each float ``lam``. The quadrature references are
the defining Bloch-sphere averages, integrated by ``mpmath.quad``.
"""

import mpmath
import numpy as np

from qmtradeoff import analytics, cli, oracle
from qmtradeoff.measurement import MeasurementOperator
from qmtradeoff.reversal import REVERSIBLE_LAM_TOL
from qmtradeoff.analytics import (
    efficiency_fidelity,
    efficiency_reversibility,
    information_gain,
    optimal_fidelity,
    reversibility,
)

# The worst measured is 8.0e-15, the direct information formula just below the
# series seam; the rest is room for libm differences between platforms.
BUDGET = 2e-14

MP = mpmath.MPContext()
MP.dps = 50


def reference(lam: float) -> tuple:
    """(info, fidelity_opt, reversibility, eff_fidelity, eff_reversibility)."""
    x = MP.mpf(lam)
    x2 = x * x
    fid = MP.mpf(2) / 3 * (1 + x / (1 + x2))
    rev = 2 * x2 / (1 + x2)
    ln2 = MP.log(2)
    if x == 1:
        return (MP.mpf(0), fid, rev, 1 / ln2, MP.mpf(0))
    info = 1 - 1 / (2 * ln2) - MP.log(1 + x2) / ln2
    if x != 0:
        info -= x2 * x2 / (1 - x2 * x2) * MP.log(x2) / ln2
    return (info, fid, rev, info / (1 - fid), info / (1 - rev))


def scan_points() -> np.ndarray:
    seam = analytics.SERIES_SEAM
    ulps = [seam]
    for direction in (0.0, 1.0):
        x = seam
        for _ in range(6):
            x = np.nextafter(x, direction)
            ulps.append(x)
    return np.concatenate(
        [
            np.linspace(0.0, 1.0, 1001),
            np.random.default_rng(20261017).uniform(0.0, 1.0, 400),
            np.logspace(-12, -1, 100),
            1.0 - np.logspace(-12, -1, 400),
            seam + np.linspace(-1e-6, 1e-6, 41),
            ulps,
            [1.0 - 10.0**-k for k in range(3, 13)],
            [np.nextafter(1.0, 0.0)],
        ]
    )


def test_closed_forms_within_budget():
    forms = (
        information_gain,
        optimal_fidelity,
        reversibility,
        efficiency_fidelity,
        efficiency_reversibility,
    )
    lams = scan_points()
    assert len(lams) > 1900
    over = []
    for lam in map(float, lams):
        for form, ref in zip(forms, reference(lam)):
            value = form(lam)
            err = abs(MP.mpf(value) - ref)
            rel = float(err / abs(ref)) if ref != 0 else float(err)
            if not rel <= BUDGET:
                over.append((form.__name__, lam, value, rel))
    assert not over, over[:10]


# sweep prints 12 significant digits. A printed value may be off from the
# reference by half a unit of the 12th digit, and 0.005 more for near-ties.
PRINTED_UNITS = 0.505
SWEEP_GRIDS = [(0.6, 0.99, 2000), (0.98, 0.999, 2000)]


def test_sweep_prints_correctly_rounded_digits(capsys):
    """Near the series seam, old (0.99) and new, every printed info and
    efficiency is the 50-digit reference rounded to 12 digits, up to ties."""
    over = []
    for lo, hi, n in SWEEP_GRIDS:
        assert cli.main(["sweep", "--lambda-min", str(lo), "--lambda-max", str(hi),
                         "--points", str(n)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        columns = header.split(",")
        assert len(rows) == n
        for lam, row in zip(np.linspace(lo, hi, n).tolist(), rows):
            printed = dict(zip(columns, row.split(",")))
            info, _, _, eff_f, eff_r = reference(lam)
            for key, ref in (("info", info), ("eff_fidelity", eff_f),
                             ("eff_reversibility", eff_r)):
                unit = MP.mpf(10) ** (MP.floor(MP.log10(abs(ref))) - 11)
                units = float(abs(MP.mpf(printed[key]) - ref) / unit)
                if not units <= PRINTED_UNITS:
                    over.append((key, lam, printed[key], cli._fmt(float(ref)), units))
    assert not over, over[:10]


# The quadratures, 64 nodes as in verify. The information quadrature is
# within 3.2e-15 relative at lam <= 1e-9 and 8.8e-16 absolute everywhere; its
# relative error grows like eps / I toward lam = 1 (6.6e-12 at lam = 0.99,
# where I = 2.4e-5), so near there the bound is absolute. The fidelity and
# reversibility quadratures are within 1.5e-15 relative.
QUAD_BUDGET = 1e-14
QUAD_INFO_FLOOR = 1e-15
QUAD_LAMS = [0.0, 1e-300, 1e-9, 0.05, 0.5, 0.99, 1.0, *np.linspace(0.0, 1.0, 41).tolist()]


def diagonal(lam):
    """The operator diag(1, lam), as verify builds it."""
    return MeasurementOperator(np.diag([1.0, lam]))


def sphere_mean_of_q(lam):
    """Mean over the sphere of q = <psi|D^2|psi>, D = diag(1, lam), and q as a
    function of u = cos(theta), on which alone it depends."""
    x2 = MP.mpf(lam) ** 2

    def q(u):
        return (1 + x2) / 2 + (1 - x2) / 2 * u

    return MP.quad(q, [-1, 1]) / 2, q


def test_information_quadrature_within_budget():
    """I = <q log2 q> / <q> - log2 <q>, with q log2 q taken as 0 at q = 0."""
    over = []
    with MP.workdps(30):
        for lam in QUAD_LAMS:
            qbar, q = sphere_mean_of_q(lam)

            def qlog2q(u):
                y = q(u)
                return y * MP.log(y, 2) if y > 0 else 0

            ref = MP.quad(qlog2q, [-1, 1]) / 2 / qbar - MP.log(qbar, 2)
            value = oracle.quadrature_information(diagonal(lam)).value
            err = abs(MP.mpf(value) - ref)
            if not err <= max(QUAD_BUDGET * ref, QUAD_INFO_FLOOR):
                over.append((lam, value, float(err)))
    assert not over, over


def test_reversibility_quadrature_within_budget():
    """R = lam^2 / <q>: each outcome on psi is undone with probability lam^2 / q."""
    over = []
    with MP.workdps(30):
        for lam in QUAD_LAMS:
            if lam < REVERSIBLE_LAM_TOL:
                continue
            ref = MP.mpf(lam) ** 2 / sphere_mean_of_q(lam)[0]
            value = oracle.quadrature_reversibility(diagonal(lam)).value
            if not abs(MP.mpf(value) - ref) <= QUAD_BUDGET * ref:
                over.append((lam, value, float(ref)))
    assert not over, over


def test_fidelity_quadrature_within_budget():
    """F = <|<psi|u D|psi>|^2> / <q> for the canonical left factor u of a
    generic operator, integrated over theta and phi, where the integrand is
    a trigonometric polynomial (20 digits, a few tenths of a second each)."""
    rng = np.random.default_rng(20261017)
    over = []
    with MP.workdps(20):
        for lam in QUAD_LAMS[:7]:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            op = MeasurementOperator(np.linalg.qr(g)[0] @ np.diag([1.0, lam]))
            (a, b), (c, d) = (op.canonical.u * [1.0, op.lam]).tolist()

            def weight(theta, phi):
                p0, p1 = MP.cos(theta / 2), MP.sin(theta / 2) * MP.expj(phi)
                z = p0 * (a * p0 + b * p1) + MP.conj(p1) * (c * p0 + d * p1)
                return (z.real**2 + z.imag**2) * MP.sin(theta)

            sphere = [0, MP.pi], [0, 2 * MP.pi]
            zbar = MP.quad(weight, *sphere, method="gauss-legendre") / (4 * MP.pi)
            ref = zbar / sphere_mean_of_q(op.lam)[0]
            value = oracle.quadrature_fidelity(op).value
            if not abs(MP.mpf(value) - ref) <= QUAD_BUDGET * ref:
                over.append((lam, value, float(ref)))
    assert not over, over
