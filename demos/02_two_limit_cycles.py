"""Unfold two small-amplitude limit cycles from a degenerate weak focus.

Inside the two-parameter family

    a22 = (5 + 7 eps2)/35,  a50 = -(1 - eps1)/5,  b13 = 5/21,  b41 = 1

the point eps1 = eps2 = 0 has nu_2 = nu_4 = 0 and nu_6 > 0.  Tuning eps1
and eps2 so that the chain (nu_2, nu_4, nu_6) alternates in sign with
well-separated magnitudes makes the displacement function vanish twice on
a small interval: two nested limit cycles.  This script runs the search,
isolates both cycles, and closes each one in Cartesian coordinates as an
independent check.
"""

from qhfocus import alternation_search, find_cycles, focal_values
from qhfocus.casestudy import eq325_field
from qhfocus.cycles import closure_error

# -- step 1: confirm the organizing point ------------------------------------

base = focal_values(eq325_field(0.0, 0.0))
print("organizing point eps = (0, 0):")
for k in base.focal_indices:
    print(f"  nu_{k} = {base.nu(k):+.3e}")
print()

# -- step 2: realize the sign chain (+, -, +) ---------------------------------


def chain(eps):
    rep = focal_values(eq325_field(eps[0], eps[1]), K=7)
    return [rep.nu(2), rep.nu(4), rep.nu(6)]


eps = alternation_search(
    chain,
    target_signs=[1, -1, 1],
    box=[(1e-10, 1e-4), (1e-6, 0.3)],
    gap=[100.0, 10.0],
)
nu = chain(eps)
print(f"found eps1 = {eps[0]:.4e}, eps2 = {eps[1]:.4e}")
print(f"chain: nu_2 = {nu[0]:+.3e}, nu_4 = {nu[1]:+.3e}, nu_6 = {nu[2]:+.3e}")
print()

# -- step 3: isolate the cycles from the displacement function ----------------

field = eq325_field(eps[0], eps[1])
cycles = find_cycles("polar", field, 0.03, 0.45, grid_n=64, tol=1e-13, noise_floor=1e-12)
print(f"{len(cycles)} limit cycles on 0.03 <= h <= 0.45:")
for c in cycles.cycles:
    print(f"  h* = {c.h_star:.6f}   bracket {c.bracket}   {c.stability}   |Delta| = {c.residual:.1e}")
print()

# -- step 4: close each cycle as a plain Cartesian orbit ----------------------

for c in cycles.cycles:
    err = closure_error(field, c.h_star, tol=1e-13)
    print(f"  cycle at h* = {c.h_star:.6f}: Cartesian closure gap = {err:.2e}")
