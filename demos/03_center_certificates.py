"""Certify centers two ways: structurally and by vanishing focal values.

Hamiltonian systems and systems reversible under an axis reflection have a
center at a monodromic origin, with no integration needed.  For fields
carrying such structure, every computable focal value must vanish and the
return map must be the identity; this script checks both statements on a
Hamiltonian example and a reversible one, then perturbs the Hamiltonian
field to show how the certificate and the focal values break together.
"""

import numpy as np

from qhfocus import Monomial, PolarRHS, WeightedField, focal_values, return_map
from qhfocus.focal import structural_center

# Perturb the 2:3 leading part (itself Hamiltonian for H0 = x^6/2 + y^4/2)
# with the Hamiltonian pair of H1 = 0.5 x^3 y^3: the divergence cancels term
# by term.
hamiltonian = WeightedField(
    p=2,
    q=3,
    x_terms=(Monomial(3, 2, -1.5),),
    y_terms=(Monomial(2, 3, 1.5),),
)

# Odd powers of y in dx/dt, even in dy/dt: invariant under (y, t) -> (-y, -t).
reversible = WeightedField(
    p=2,
    q=3,
    x_terms=(Monomial(2, 3, 0.8),),
    y_terms=(Monomial(4, 2, -0.4),),
)

for name, field in [("Hamiltonian", hamiltonian), ("reversible", reversible)]:
    flags = structural_center(field)
    rep = focal_values(field)
    worst = max(abs(rep.nu(k)) for k in rep.focal_indices)
    hs = np.linspace(0.1, 0.6, 6)
    disp = np.max(np.abs(return_map(PolarRHS(field), hs, tol=1e-13) - hs))
    print(f"{name} field:")
    print(f"  structural flags: {flags}")
    print(f"  verdict: {rep.verdict}")
    print(f"  max |nu_k| over {rep.focal_indices} = {worst:.2e}")
    print(f"  max |Delta(h)| on six amplitudes  = {disp:.2e}")
    print()

# Break the Hamiltonian structure with a single monomial and watch the first
# focal value come alive.
broken = WeightedField(
    p=2,
    q=3,
    x_terms=hamiltonian.x_terms + (Monomial(5, 0, 0.01),),
    y_terms=hamiltonian.y_terms,
)
rep = focal_values(broken)
print("Hamiltonian field plus 0.01 x^5 in dx/dt:")
print(f"  structural flags: {structural_center(broken)}")
print(f"  nu_2 = {rep.nu(2):+.6e}, verdict: {rep.verdict}")
