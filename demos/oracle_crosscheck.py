#!/usr/bin/env python3
"""Check every closed form against direct Bloch-sphere integration.

None of the scalar formulas in analytics are trusted on their own: each is
the value of an integral over all qubit states, and this script evaluates
those integrals two independent ways -- quadrature and seeded Monte Carlo
with delta-method error bars -- then compares. The fidelity and
reversibility integrands are polynomials of degree 2 on the sphere, so their
quadrature takes the sphere's exact moments (six points, an octahedron);
the information integrand q log q is not, so its quadrature is graded
64-node Gauss-Legendre in cos(theta). The CLI `verify` subcommand runs the same
comparison over a full grid and emits a JSON report.
"""

import numpy as np

from qmtradeoff.analytics import (
    fidelity_of_operator,
    information_gain,
    reversibility,
)
from qmtradeoff.measurement import MeasurementOperator
from qmtradeoff import oracle

SAMPLES = 400_000
rng = np.random.default_rng(20260819)

print(f"Monte Carlo: {SAMPLES} uniform Bloch-sphere states per lam, shared by its estimates.")
print("quadrature: exact sphere moments for fidelity and reversibility,")
print("graded 64-node Gauss-Legendre in cos(theta) for information.\n")

header = "lam    quantity       closed        quad diff   MC z-score"
print(header)
print("-" * len(header))

for lam in (0.1, 0.5, 0.9):
    op = MeasurementOperator(np.diag([1.0, lam]))
    r = oracle.sample_bloch_vectors(rng, SAMPLES)
    rows = [
        ("info", information_gain(lam),
         oracle.quadrature_information(op),
         oracle.estimate_information(op, r)),
        ("fidelity", fidelity_of_operator(op),
         oracle.quadrature_fidelity(op),
         oracle.estimate_fidelity(op, r)),
        ("reversibility", reversibility(lam),
         oracle.quadrature_reversibility(op),
         oracle.estimate_reversibility(op, r)),
    ]
    for name, closed, quad, mc in rows:
        z = (mc.value - closed) / mc.std_error if mc.std_error else float("nan")
        print(f"{lam:4.2f}   {name:<13} {closed:+.9f}  {abs(quad.value - closed):9.2e}"
              f"   {z:+6.2f}")
        assert abs(quad.value - closed) < 1e-8
        assert abs(z) < 4.0

print()
print("Quadrature differences sit at rounding level and every Monte Carlo")
print("z-score is of order one: both integration routes see the same values")
print("the closed forms predict.")
