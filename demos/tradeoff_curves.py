#!/usr/bin/env python3
"""Sweep the strength ratio and print the full tradeoff table.

Every scalar quantity in the package is a function of a single number: the
ratio lam of the operator's two singular values. This script walks lam from
0 (projector) to 1 (identity) and tabulates what each endpoint pins down and
how the two efficiencies pull in opposite directions in between.

Same data as `qmtradeoff sweep --points 11`; here with commentary. Then
the same curves as functions of the information I, against what they say
about a whole measurement, and fidelity against reversibility, a circle
(tests/test_relations.py checks all three relations).
"""

import math

import numpy as np

from qmtradeoff.analytics import INFO_AT_ZERO, averaged_quantities, tradeoff_record
from qmtradeoff.measurement import MeasurementSet

grid = np.linspace(0.0, 1.0, 11)

print("lam      info       fid_opt    rev        eff_fid    eff_rev")
for lam in grid:
    r = tradeoff_record(lam)
    print(
        f"{lam:4.2f}  {r.info:9.6f}  {r.fidelity_opt:9.6f}  {r.reversibility:9.6f}"
        f"  {r.eff_fidelity:9.6f}  {r.eff_reversibility:9.6f}"
    )

print()
print("Reading the ends of the table:")
print("  lam=0 is a projector: most informative (0.2787 bits), least faithful")
print("  (F_opt = 2/3), and unrecoverable (R = 0).")
print("  lam=1 is the identity: learns nothing, disturbs nothing, R = 1.")
print()

# The interesting part is that the two efficiencies rank measurements in
# opposite orders: per unit of fidelity given up, strong measurements are the
# better deal (eff_fidelity grows toward 1/ln 2), but per unit of
# reversibility given up they are the worse one (eff_reversibility falls to 0).
r25, r75 = tradeoff_record(0.25), tradeoff_record(0.75)
assert r25.eff_fidelity < r75.eff_fidelity
assert r25.eff_reversibility > r75.eff_reversibility
print("Checked: eff_fidelity rises with lam while eff_reversibility falls.")
print()

# One outcome's curves F_opt(I) and R(I) bound a whole measurement differently.
# F_opt(I) is concave, so a complete set's averages lie on or under it. R(I)
# is convex, so they need not: the bound on averaged reversibility is the
# chord from the projector (INFO_AT_ZERO, 0) to the identity (0, 1).
print("info       fid_opt    rev        chord = 1 - info / INFO_AT_ZERO")
for lam in grid:
    r = tradeoff_record(lam)
    chord = 1.0 - r.info / INFO_AT_ZERO
    assert r.reversibility <= chord  # convex under its chord, equal at both ends
    print(f"{r.info:9.6f}  {r.fidelity_opt:9.6f}  {r.reversibility:9.6f}  {chord:9.6f}")

# Mixing the identity with the two projectors meets the chord, well above
# the single-outcome curve R(I).
h = math.sqrt(0.5)
avg = averaged_quantities(
    MeasurementSet(operators=(h * np.eye(2), np.diag([h, 0.0]), np.diag([0.0, h])))
)
chord = 1.0 - avg.info / INFO_AT_ZERO
assert abs(avg.reversibility - chord) <= 1e-12
print()
print("{sqrt(1/2) I, sqrt(1/2) |0><0|, sqrt(1/2) |1><1|}:")
print(f"  I_avg {avg.info:.4f}, F_avg {avg.fidelity:.4f}, R_avg {avg.reversibility:.4f}"
      f" on the chord {chord:.4f}")
print()

# Fidelity against reversibility: 3 F_opt - 2 = 2 lam / (1 + lam^2) and
# 1 - R = (1 - lam^2) / (1 + lam^2), so each outcome lies on a circle, and
# its concave arc F = 2/3 + sqrt(R (2 - R)) / 3 bounds every complete set.
residual = max(
    abs((3.0 * r.fidelity_opt - 2.0) ** 2 + (1.0 - r.reversibility) ** 2 - 1.0)
    for r in map(tradeoff_record, grid)
)
assert residual <= 2e-15
arc = 2.0 / 3.0 + math.sqrt(avg.reversibility * (2.0 - avg.reversibility)) / 3.0
assert avg.fidelity < arc
print(f"(3 F_opt - 2)^2 + (1 - R)^2 = 1 on the grid, to {residual:.1e}.")
print(f"The set above: F_avg {avg.fidelity:.4f} under the arc's {arc:.4f} at its R_avg:")
print("the set that meets the reversibility chord is far from the fidelity bound.")
print()
print("To plot, pipe the CLI's CSV into any plotter, e.g.:")
print("  qmtradeoff sweep --points 200 --output curve.csv")
print("  python3 -c \"import pandas as p; p.read_csv('curve.csv')"
      ".plot(x='lambda'); __import__('matplotlib.pyplot').pyplot.show()\"")
