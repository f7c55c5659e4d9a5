"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.  Each
test asserts its criterion at the stated tolerance; the printed line carries
the measured numbers so failures are diagnosable from the log alone.
"""

import time

import numpy as np
import pytest

from qhfocus import (
    WeightedField,
    alternation_search,
    find_cycles,
    focal_values,
    parity_survey,
    return_map,
)
from qhfocus.casestudy import (
    EQ322_TARGET,
    eq325_field,
    eq329_weighted,
    field23,
    g2_integrand,
    verify_322,
    verify_thm34,
)
from qhfocus.cycles import closure_error
from qhfocus.flow import identity_residuals, integrate_jet, integrate_scalar, nu1_closed_form
from qhfocus.focal import random_field, structural_center
from qhfocus.polar import PolarRHS
from qhfocus.quadrature import trapezoid_periodic

RNG_SEED = 42


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- shared expensive artifacts ---------------------------------------------------


@pytest.fixture(scope="module")
def two_cycle_run():
    """Criterion 8 search, reused by criterion 10."""

    def chain(eps):
        rep = focal_values(eq325_field(eps[0], eps[1]), K=7, integ_tol=1e-13)
        return [rep.nu(2), rep.nu(4), rep.nu(6)]

    eps = alternation_search(
        chain,
        [1, -1, 1],
        box=[(1e-10, 1e-4), (1e-6, 0.3)],
        gap=[100.0, 10.0],
        scan_n=24,
    )
    field = eq325_field(eps[0], eps[1])
    cycles = find_cycles(
        "polar", field, 0.03, 0.45, grid_n=64, tol=1e-13, noise_floor=1e-12
    )
    return eps, field, cycles


def test_criterion_1_quadrature_reproduction():
    t0 = time.time()
    res = verify_322(tol=1e-12)
    elapsed = time.time() - t0
    scheme_gap = res.ib.error_estimate
    ok = (
        res.ok
        and res.relative_mismatch <= 1e-4
        and scheme_gap <= 1e-10
        and elapsed < 30.0
    )
    report(
        1,
        ok,
        f"combination={res.combination_value:.6f} target={EQ322_TARGET}"
        f" rel={res.relative_mismatch:.2e} (<=1e-4), scheme gap={scheme_gap:.2e}"
        f" (<=1e-10), reading={res.reading_used}, {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_first_focal_value_proportionality():
    i2 = trapezoid_periodic(g2_integrand).value
    rng = np.random.default_rng(RNG_SEED)
    ratios = []
    while len(ratios) < 5:
        a22, a50, b13, b41 = rng.uniform(-1.0, 1.0, size=4)
        v2 = 5 * a50 + b41
        if abs(v2) < 0.1:
            continue
        rep = focal_values(field23(a22, a50, b13, b41), K=3, integ_tol=1e-13)
        ratios.append(rep.nu(2) / v2)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    target = i2 / 60.0
    rel = abs(np.mean(ratios) / target - 1.0)
    ok = spread <= 1e-6 and rel <= 1e-8
    report(
        2,
        ok,
        f"nu2/(5a50+b41) over 5 samples: spread={spread:.2e} (<=1e-6),"
        f" vs I2/60 rel={rel:.2e} (<=1e-8)",
    )


def test_criterion_3_second_focal_value_slice():
    rng = np.random.default_rng(RNG_SEED + 1)
    ratios = []
    while len(ratios) < 5:
        a22, b13, b41 = rng.uniform(-1.0, 1.0, size=3)
        v4 = -(5 * a22 - 3 * b13) * (2 * a22 + 3 * b13) * b41
        if abs(v4) < 0.05:
            continue
        rep = focal_values(field23(a22, -b41 / 5, b13, b41), K=5, integ_tol=1e-13)
        ratios.append(rep.nu(4) / v4)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    ok = spread <= 1e-5 and min(ratios) > 0
    report(
        3,
        ok,
        f"nu4/V4 on the 5a50+b41=0 slice, 5 samples: spread={spread:.2e}"
        f" (<=1e-5), all positive={min(ratios) > 0}",
    )


def test_criterion_4_third_focal_value_slice():
    rng = np.random.default_rng(RNG_SEED + 2)
    ratios, signs_ok = [], True
    while len(ratios) < 3:
        b13, b41 = rng.uniform(-1.0, 1.0, size=2)
        a22 = 0.6 * b13  # V4 = 0
        v6 = (2 * a22 + 3 * b13) ** 2 * b41**3
        if abs(v6) < 0.05:
            continue
        rep = focal_values(field23(a22, -b41 / 5, b13, b41), K=7, integ_tol=1e-13)
        signs_ok = signs_ok and np.sign(rep.nu(6)) == np.sign(v6)
        ratios.append(rep.nu(6) / v6)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    ok = signs_ok and spread <= 1e-4
    report(
        4,
        ok,
        f"nu6/V6 on the V2=V4=0 slice, 3 samples: sign match={signs_ok},"
        f" spread={spread:.2e} (<=1e-4)",
    )


def test_criterion_5_center_families():
    rng = np.random.default_rng(RNG_SEED + 3)
    h_values = np.linspace(0.03, 0.3, 10)
    worst = 0.0
    structural_ok = True
    for kind in ("hamiltonian", "symmetric"):
        for _ in range(5):
            if kind == "hamiltonian":
                b13, b41 = rng.uniform(-0.8, 0.8, size=2)
                field = field23(a22=-1.5 * b13, a50=-b41 / 5, b13=b13, b41=b41)
                structural_ok = structural_ok and structural_center(field)["hamiltonian"]
            else:
                a22, b13 = rng.uniform(-0.8, 0.8, size=2)
                field = field23(a22=a22, a50=0.0, b13=b13, b41=0.0)
                structural_ok = structural_ok and structural_center(field)["y-axis"]
            disp = return_map(PolarRHS(field), h_values, tol=1e-13) - h_values
            worst = max(worst, float(np.max(np.abs(disp))))
    ok = worst < 1e-9 and structural_ok
    report(
        5,
        ok,
        f"10 center samples x 10 amplitudes: max |Delta(h)|={worst:.2e} (<1e-9),"
        f" structural checks={structural_ok}",
    )


def test_criterion_6_parity_surveys():
    details, ok = [], True
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        res = parity_survey(p, q, n_samples=20, seed=RNG_SEED, integ_tol=1e-12)
        ok = ok and res.parity_ok
        resolved = res.n_samples - res.n_unresolved
        details.append(f"({p}:{q}) {resolved} resolved, parity_ok={res.parity_ok}")
    report(6, ok, "20 random fields per weight pair: " + "; ".join(details))


def test_criterion_7_functional_identities():
    rng = np.random.default_rng(RNG_SEED + 4)
    worst_comp, worst_parity = 0.0, 0.0
    pairs = ((1, 1), (1, 2), (2, 3), (3, 4))
    for i in range(20):
        p, q = pairs[i % 4]
        rhs = PolarRHS(random_field(p, q, rng))
        res = identity_residuals(rhs, 0.05, theta_samples=[1.0, -1.0, 2.0, -2.0], tol=1e-12)
        worst_comp = max(worst_comp, max(res["composition"]))
        for key, vals in res.items():
            if key != "composition":
                worst_parity = max(worst_parity, max(vals))
    ok = worst_comp < 1e-8 and worst_parity < 1e-8
    report(
        7,
        ok,
        f"20 fields, h=0.05, theta in {{+-1,+-2}}: max composition residual="
        f"{worst_comp:.2e} (<1e-8), max parity-identity residual={worst_parity:.2e}",
    )


def test_criterion_8_two_limit_cycles(two_cycle_run):
    eps, field, cycles = two_cycle_run
    closures = [closure_error(field, c.h_star, field.p, tol=1e-13) for c in cycles.cycles]
    ok = (
        len(cycles.cycles) == 2
        and eps[0] > 0
        and eps[1] > 0
        and max(closures, default=np.inf) <= 1e-8
    )
    report(
        8,
        ok,
        f"eps=({eps[0]:.3e}, {eps[1]:.3e}) [derived], cycles at "
        f"{[round(c.h_star, 6) for c in cycles.cycles]} (exactly 2), "
        f"max Cartesian closure={max(closures, default=np.inf):.2e} (<=1e-8)",
    )


def test_criterion_9_elementary_focus_normalization():
    rep = verify_thm34()
    ok = (
        rep.lambda12_max < 1e-10
        and rep.ratio_spread < 1e-4
        and rep.sigma_linearity_residual < 1e-6
        and rep.matches_documented
    )
    report(
        9,
        ok,
        f"lambda1,2 residual={rep.lambda12_max:.2e} (<1e-10), ratio spread="
        f"{rep.ratio_spread:.2e} (<1e-4), sigma-linearity={rep.sigma_linearity_residual:.2e}"
        f" (<1e-6); ratio={rep.ratio_mean:.12f} vs 47/128={rep.documented_ratio:.12f}:"
        f" measured/documented={rep.ratio_over_documented:.12f} = pi, i.e. the"
        " displacement coefficient carries an extra angular factor pi",
    )


def test_criterion_10_damped_family_sign_chain(two_cycle_run):
    sigma = 0.1

    def damped(d):
        return eq329_weighted(
            a50=0.0, b41=1.0, sigma=sigma, delta0=d[0], delta1=d[1], delta2=d[2]
        )

    def chain(d):
        rep = focal_values(damped(d), K=8, integ_tol=1e-13)
        return [rep.nu(1) - 1, rep.nu(3), rep.nu(5), rep.nu(7)]

    deltas = alternation_search(
        chain,
        [-1, 1, -1, 1],
        box=[(1e-9, 1e-2), (1e-7, 1e-1), (1e-4, 1.0)],
        gap=[1000.0, 100.0, 10.0],
        scan_n=24,
    )
    field = damped(deltas)
    inner = find_cycles("polar", field, 0.01, 0.45, grid_n=64, tol=1e-13, noise_floor=1e-11)
    _, _, outer = two_cycle_run

    # extended-precision attempt at the 4th sign change of the full 2:3
    # hierarchy: stack the damped chain under the criterion-8 epsilons. The
    # required |nu_8| ordering sits below double and even below dps=30 jet
    # accuracy for any representable delta; the documented outcome is that the
    # extended run confirms nu_2, nu_4, nu_6 of the outer chain but resolves no
    # further alternation level.
    eps, outer_field, _ = two_cycle_run
    ext = focal_values(outer_field, K=7, precision="extended", dps=30)
    dbl = focal_values(outer_field, K=7, integ_tol=1e-13)
    ext_consistent = all(
        abs(ext.nu(k) - dbl.nu(k)) <= 1e-10 * max(1.0, abs(dbl.nu(k)))
        for k in (2, 4, 6)
    )
    fourth_level_resolved = abs(ext.nu(7)) > 1e-12 and abs(ext.nu(7)) < abs(ext.nu(6))

    stabilities = [c.stability for c in inner.cycles]
    closures = [closure_error(field, c.h_star, 1, tol=1e-13) for c in inner.cycles]
    ok = (
        len(inner.cycles) == 3
        and stabilities == ["unstable", "stable", "unstable"]
        and max(closures, default=np.inf) <= 1e-8
        and len(outer.cycles) == 2
        and ext_consistent
    )
    report(
        10,
        ok,
        f"deltas=({deltas[0]:.2e}, {deltas[1]:.2e}, {deltas[2]:.2e}) realize"
        f" (-,+,-,+); damped family cycles={len(inner.cycles)} (=3) at"
        f" {[round(c.h_star, 4) for c in inner.cycles]}, stability {stabilities}"
        f" (unstable, stable, unstable), max Cartesian closure={max(closures, default=np.inf):.2e}"
        f" (<=1e-8),"
        f" outer cycles={len(outer.cycles)} (=2); extended precision (dps=30)"
        f" confirms the outer chain to 1e-10 ({ext_consistent}) and a 4th"
        f" alternation level is {'resolved' if fourth_level_resolved else 'not resolvable'}"
        " at desk scale, as expected",
    )


def test_criterion_11_engine_sanity():
    core = WeightedField(p=2, q=3, x_terms=(), y_terms=())
    rhs = PolarRHS(core)

    def energy(theta, r):
        x, y = r**2 * np.cos(theta), r**3 * np.sin(theta)
        return 0.5 * x**6 + 0.5 * y**4

    h = 0.1
    e0 = energy(0.0, h)
    drift = max(
        abs(energy(th, integrate_scalar(rhs, h, th, tol=1e-13)) - e0)
        for th in np.linspace(0.4, 2 * np.pi, 16)
    ) / e0

    traj = integrate_jet(rhs, order=3, tol=1e-13)
    grid = np.linspace(0.0, 2 * np.pi, 100)
    nu1_err = max(
        abs(traj.at(th)[0] - float(nu1_closed_form(2, 3, th))) for th in grid
    )

    # remainder of the order-3 jet behaves like h**4: slope of the log-log fit
    pert = field23(0.5, 1.0, -0.3, 1.0)
    prhs = PolarRHS(pert)
    ptraj = integrate_jet(prhs, order=3, tol=1e-13)
    hs = np.geomspace(0.08, 0.2, 6)
    jet = np.r_[0.0, ptraj.final]
    rem = [
        abs(return_map(prhs, hh, tol=1e-13) - np.polynomial.polynomial.polyval(hh, jet))
        for hh in hs
    ]
    slope = np.polyfit(np.log(hs), np.log(rem), 1)[0]

    ok = drift < 1e-10 and nu1_err < 1e-10 and slope >= 3.5
    report(
        11,
        ok,
        f"energy drift={drift:.2e} (<1e-10), nu1 closed-form error={nu1_err:.2e}"
        f" (<1e-10 on 100 points), jet-vs-scalar remainder slope={slope:.2f} (>=3.5)",
    )
