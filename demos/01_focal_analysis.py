"""Walk through the focal analysis of a 2:3 weighted system.

The degenerate origin of

    dx/dt = -2 y^3 + a22 x^2 y^2 + a50 x^5
    dy/dt =  3 x^5 + b13 x y^3 + b41 x^4 y

is a monodromic singular point whose stability is decided by the focal
values nu_2, nu_4, nu_6 of the generalized polar return map.  This script
computes them for a sample coefficient choice, classifies the point, and
compares the leading value against its closed-form prediction.
"""

import numpy as np

from qhfocus import focal_values
from qhfocus.casestudy import field23, focal_ratio_constants, predicted_V

a22, a50, b13, b41 = 0.7, 1.0, -0.3, 1.0
field = field23(a22, a50, b13, b41)

print("system:")
print("  dx/dt = -2 y^3 +", " + ".join(f"{m.c:g} x^{m.k} y^{m.j}" for m in field.x_terms))
print("  dy/dt =  3 x^5 +", " + ".join(f"{m.c:g} x^{m.k} y^{m.j}" for m in field.y_terms))
print(f"  weights p:q = {field.p}:{field.q}")
print()

report = focal_values(field)
print(f"jet order K = {report.order}, candidate indices = {report.focal_indices}")
for k in report.focal_indices:
    print(f"  nu_{k}(2*pi) = {report.nu(k): .12e}")
print(f"verdict: {report.verdict} (first nonzero index {report.first_nonzero_index})")
print(f"estimated errors: {max(report.error_estimate):.1e} at most, on {report.steps} panels")

# The values are successive quadratures of the triangular jet ODE.  The
# Taylor jet transport in extended precision, an independent method, checks
# them: they agree within the estimated errors.
check = focal_values(field, precision="extended", dps=20)
gap = max(abs(a - float(b)) for a, b in zip(report.values, check.values))
print(f"extended precision (20 digits) agrees to {gap:.1e}, "
      f"against an estimated error of {max(report.error_estimate):.1e}")
print()

# The leading focal value is a universal constant times the polynomial
# quantity V2 = 5 a50 + b41; the constant is a reference integral over the
# weighted angular variable, frozen at high accuracy inside the package.
consts = focal_ratio_constants()
V2, V4, V6 = predicted_V(field)
predicted = consts["nu2_over_V2"] * V2
print(f"V2 = 5 a50 + b41 = {V2:g}")
print(f"predicted nu_2   = {predicted: .12e}")
print(f"measured  nu_2   = {report.nu(2): .12e}")
print(f"relative error   = {abs(report.nu(2) - predicted) / abs(predicted):.2e}")
print()

# Sweep a50 through the value that kills V2: the first focal value changes
# sign there, which is the organizing event for the bifurcation study.
print("sweep a50 across the V2 = 0 line (b41 = 1, so a50* = -0.2):")
for a50_s in np.linspace(-0.3, -0.1, 5):
    rep = focal_values(field23(a22, a50_s, b13, b41))
    print(
        f"  a50 = {a50_s:+.3f}   nu_2 = {rep.nu(2):+.6e}   "
        f"first nonzero index = {rep.first_nonzero_index}"
    )
