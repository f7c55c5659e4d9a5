"""Two structural phenomena: focal-index parity and a damped inner family.

Part one surveys random fields at several weight pairs and tallies which
focal index is the first to light up: even indices when p + q is odd, odd
indices when p + q is even.  Part two moves to an elementary (1:1) focus
with small sigma, where a linear damping delta0 moves nu_1(2*pi) off 1 and
so contributes the extra chain entry nu_1 - 1; tuning delta0, delta1, delta2
realizes the four-term alternation (-, +, -, +) and unfolds three nested
limit cycles around the origin.
"""

from qhfocus import alternation_search, find_cycles, focal_values, parity_survey
from qhfocus.casestudy import eq329_weighted

# -- part one: parity of the first nonzero focal index ------------------------

print("parity survey, 12 random fields per weight pair:")
for p, q in [(1, 1), (1, 2), (2, 3), (3, 4)]:
    res = parity_survey(p, q, n_samples=12, seed=7)
    print(
        f"  {p}:{q}  expected {res.expected_parity} indices;"
        f"  counts {dict(sorted(res.first_index_counts.items()))},"
        f"  parity respected: {res.parity_ok}"
    )
print()

# -- part two: three cycles from a damped elementary focus --------------------

SIGMA, A50, B41 = 0.1, 1.0, 1.0


def damped(deltas):
    d0, d1, d2 = deltas
    return eq329_weighted(A50, B41, sigma=SIGMA, delta0=d0, delta1=d1, delta2=d2)


def chain(deltas):
    rep = focal_values(damped(deltas), K=7)
    return [rep.nu(1) - 1, rep.nu(3), rep.nu(5), rep.nu(7)]


deltas = alternation_search(
    chain,
    target_signs=[-1, 1, -1, 1],
    box=[(1e-9, 1e-2), (1e-8, 1e-1), (1e-5, 1.0)],
    gap=[1000.0, 100.0, 10.0],
)
vals = chain(deltas)
print(f"damping parameters: delta0 = {deltas[0]:.3e}, delta1 = {deltas[1]:.3e}, delta2 = {deltas[2]:.3e}")
print("chain:", ", ".join(f"{v:+.3e}" for v in vals))
print()

cycles = find_cycles("polar", damped(deltas), 0.01, 0.45, grid_n=64, tol=1e-13, noise_floor=1e-11)
print(f"{len(cycles)} limit cycles of the damped system:")
for c in cycles.cycles:
    print(f"  h* = {c.h_star:.6f}   {c.stability}   |Delta| = {c.residual:.1e}")
