import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from scipy.integrate import solve_ivp

from qhfocus import Monomial, WeightedField, jets, return_map
from qhfocus.errors import NoReturnError
from qhfocus.fields import normalize
from qhfocus.casestudy import eq325_field, eq329_weighted
from qhfocus.flow import (
    DEFAULT_TOL,
    _jet_rhs_coeffs,
    default_order,
    estimate_period,
    identity_residuals,
    integrate_jet,
    integrate_jet_extended,
    integrate_scalar,
    nu1_closed_form,
    section_return,
)
from qhfocus.focal import random_field
from qhfocus.polar import PolarRHS


def leading_field(p, q):
    return WeightedField(p=p, q=q, x_terms=(), y_terms=())


def field23(a50=1.0, a22=0.5, b41=1.0, b13=-0.3):
    return WeightedField(
        p=2, q=3,
        x_terms=(Monomial(5, 0, a50), Monomial(2, 2, a22)),
        y_terms=(Monomial(4, 1, b41), Monomial(1, 3, b13)),
    )


def test_default_order_by_parity():
    assert default_order(2, 3) == 7  # odd p+q: even focal indices up to 6
    assert default_order(1, 1) == 8  # even p+q: odd focal indices up to 7


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4)])
def test_first_jet_coefficient_is_closed_form(p, q):
    rhs = PolarRHS(leading_field(p, q))
    traj = integrate_jet(rhs, order=3, tol=1e-13)
    for theta in np.linspace(0.1, 2 * np.pi, 25):
        nu1 = traj.at(theta)[0]
        assert nu1 == pytest.approx(float(nu1_closed_form(p, q, theta)), abs=5e-12)


def test_core_system_jet_is_identity_after_full_turn():
    rhs = PolarRHS(leading_field(2, 3))
    final = integrate_jet(rhs, order=5, tol=1e-13).final
    expect = (1.0, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(final, expect, atol=1e-11)


def test_energy_conservation_on_hamiltonian_core():
    # H = x**6/2 + y**4/2 is invariant for the (2,3) leading flow
    rhs = PolarRHS(leading_field(2, 3))
    h = 0.1

    def energy(theta, r):
        x, y = r**2 * np.cos(theta), r**3 * np.sin(theta)
        return 0.5 * x**6 + 0.5 * y**4

    e0 = energy(0.0, h)
    drift = []
    for theta in np.linspace(0.5, 2 * np.pi, 12):
        r = integrate_scalar(rhs, h, theta, tol=1e-13)
        drift.append(abs(energy(theta, r) - e0))
    assert max(drift) < 1e-10 * e0


def test_jet_trajectory_reads_the_end_state_without_an_interpolant():
    rhs = PolarRHS(field23())
    traj = integrate_jet(rhs, tol=1e-12)
    K = traj.order
    assert traj.final.tobytes() == traj.at(2 * np.pi).tobytes()

    def f(theta, y):
        return _jet_rhs_coeffs(rhs, K, math.cos(theta), math.sin(theta), y.tolist())

    y0 = [1.0] + [0.0] * (K - 1)
    opts = dict(method="DOP853", rtol=1e-12, atol=1e-12)
    plain = solve_ivp(f, (0.0, 2 * np.pi), y0, **opts)
    dense = solve_ivp(f, (0.0, 2 * np.pi), y0, dense_output=True, **opts)
    assert traj.stats.n_steps > 0
    assert traj.stats.n_rhs_evals == plain.nfev
    # the interpolant would cost DOP853 three more evaluations per step
    assert dense.nfev == plain.nfev + 3 * traj.stats.n_steps


def test_jet_trajectory_reads_only_the_solved_turn():
    traj = integrate_jet(PolarRHS(field23()), order=3, tol=1e-12)
    for theta in (20.0, -1.0):
        with pytest.raises(ValueError, match="outside the solved turn"):
            traj.at(theta)
    assert traj.at(0.0).tolist() == [1.0, 0.0, 0.0]
    assert traj.at(2 * np.pi).tobytes() == traj.final.tobytes()


def _parent_jet_rhs(rhs, K, cos_t, sin_t, nu):
    """Oracle: every power r**0..r**k_max by jets.mul_trunc, skipping zero terms."""
    R, Q = rhs.components(cos_t, sin_t)
    n = K + 1
    zero = 0 * nu[0]
    r = [zero, *nu]
    num, den, rk = [zero] * n, [zero] * n, [1 + zero] + [zero] * K
    for Rk, Qk in zip(R, Q):
        for i in range(n):
            if rk[i]:
                num[i] = num[i] + Rk * rk[i]
                den[i] = den[i] + Qk * rk[i]
        rk = jets.mul_trunc(rk, r, n)
    quot = jets.div_trunc(num, den, n)
    return jets.mul_trunc(r, quot, n)[1:]


def _rounding_scale(rhs, K, c, s, nu):
    """S with |kernel in double - exact kernel| <= C u S, to first order in u.

    The kernel adds, multiplies and divides; every value it rounds is bounded
    by the same computation on absolute values, with the denominator series
    replaced by its comparison series |Q_0| - |Q_1| r - ... (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3 and 8).  The series
    division feeds the errors of earlier quotient coefficients into later ones
    through its own recurrence, hence the second division.
    """
    f = rhs.field
    p, q = f.p, f.q
    ac, as_ = abs(c), abs(s)
    X, Y = [0.0] * (rhs.k_max + 1), [0.0] * (rhs.k_max + 1)
    for t in f.x_terms:
        X[t.weight(p, q) - f.x_lead_weight] += abs(t.c) * ac**t.k * as_**t.j
    for t in f.y_terms:
        Y[t.weight(p, q) - f.y_lead_weight] += abs(t.c) * ac**t.k * as_**t.j
    R = [ac * as_ * (q * ac ** (2 * q - 2) + p * as_ ** (2 * p - 2))]
    Q = [p * q * (c ** (2 * q) + s ** (2 * p))]
    R += [ac * x + as_ * y for x, y in zip(X[1:], Y[1:])]
    Q += [q * as_ * x + p * ac * y for x, y in zip(X[1:], Y[1:])]
    n = K + 1
    r = [0.0] + [abs(v) for v in nu]
    num, den, rk = [0.0] * n, [0.0] * n, [1.0] + [0.0] * K
    for Rk, Qk in zip(R, Q):
        num = [a + Rk * x for a, x in zip(num, rk)]
        den = [a + Qk * x for a, x in zip(den, rk)]
        rk = jets.mul_trunc(rk, r, n)
    comparison = [den[0]] + [-d for d in den[1:]]
    quot = jets.div_trunc(num, comparison, n)
    quot = jets.div_trunc([den[0] * x for x in quot], comparison, n)
    return jets.mul_trunc(r, quot, n)[1:]


# at most ~60 roundings (libm pow counted twice) lie on any path from the
# inputs to an output coefficient of the kernel at K <= 8, and the division
# triples the local bound; 256 unit roundoffs covers both.  Near an axis
# (theta within ~1e-30 of 0 or pi) powers of sin underflow, which adds an
# absolute error of order 2**-1074 per operation, times factors below 1e3
KERNEL_ROUNDING = 256 * 2.0**-53
KERNEL_UNDERFLOW = 1e-300


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3), (3, 4)])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 2 * np.pi),
    nu1=st.floats(0.5, 2.0),
    tail=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
)
def test_jet_rhs_kernel_matches_oracle(p, q, seed, theta, nu1, tail):
    rhs = PolarRHS(random_field(p, q, np.random.default_rng(seed)))
    K = default_order(p, q)
    nu = [nu1, *tail[: K - 1]]
    c, s = math.cos(theta), math.sin(theta)
    fast = np.array(_jet_rhs_coeffs(rhs, K, c, s, nu))
    # the oracle runs on numpy scalars, as the solver once handed them over
    oracle = _parent_jet_rhs(rhs, K, np.cos(theta), np.sin(theta), np.array(nu))
    assert fast.tobytes() == np.array(oracle, dtype=float).tobytes()

    with mp.workdps(30):
        exact = _jet_rhs_coeffs(rhs, K, mp.mpf(c), mp.mpf(s), [mp.mpf(v) for v in nu])
        assert all(isinstance(v, mp.mpf) for v in exact)
        err = [abs(float(e - mp.mpf(v))) for e, v in zip(exact, fast)]
    scale = _rounding_scale(rhs, K, c, s, nu)
    assert all(e <= KERNEL_ROUNDING * m + KERNEL_UNDERFLOW for e, m in zip(err, scale))


def test_scalar_and_jet_return_maps_agree():
    rhs = PolarRHS(field23())
    traj = integrate_jet(rhs, order=7, tol=1e-13)
    for h in (0.02, 0.05, 0.1):
        scalar = return_map(rhs, h, tol=1e-13)
        jet = np.polynomial.polynomial.polyval(h, np.r_[0.0, traj.final])
        assert jet == pytest.approx(scalar, abs=5 * h**8)


def test_single_radius_return_map_is_the_plain_scalar_solve():
    # one radius, alone or as a batch of one, is the solve written out directly
    rhs = PolarRHS(field23())
    for h, tol in ((0.05, 1e-12), (0.2, 1e-13), (0.3, 1e-10)):
        sol = solve_ivp(
            lambda t, y: [rhs(t, float(y[0]))], (0.0, 2 * np.pi), [h],
            method="DOP853", rtol=max(tol, 1e-13), atol=tol,
        )
        assert return_map(rhs, h, tol=tol) == float(sol.y[0, -1])
        assert return_map(rhs, np.array([h]), tol=tol).tolist() == [float(sol.y[0, -1])]


def _return_map_errors(rhs, radii, tol):
    """Worst error of the one-radius solves and of the batch, against a tight reference.

    The reference runs DOP853 one radius at a time at rtol 2.3e-14 (just above
    scipy's floor of 100 eps) and atol 1e-16.
    """
    ref = np.array([
        solve_ivp(
            lambda t, y: [rhs(t, float(y[0]))], (0.0, 2 * np.pi), [h],
            method="DOP853", rtol=2.3e-14, atol=1e-16,
        ).y[0, -1]
        for h in radii
    ])
    scalar = max(abs(return_map(rhs, h, tol=tol) - r) for h, r in zip(radii, ref))
    batch = np.max(np.abs(return_map(rhs, radii, tol=tol) - ref))
    return scalar, batch


# Bound: the batch is no less accurate than the one-radius path, up to tol.
# The two paths take different steps, so their global errors differ by
# DOP853's step-to-step scatter, of the order of the tolerance: "+ tol"
# allows that once.  Locally the batch is held about as tightly: atol =
# tol / sqrt(B) undoes the RMS norm over B lanes, so the absolute part of
# each lane's error bound per step is tol, as for one radius; only the
# relative part, rtol * |r|, may grow by up to sqrt(B).
def test_batch_return_map_is_as_accurate_on_the_criterion_8_grid():
    rhs = PolarRHS(normalize(eq325_field(1.22167735e-08, 2.40634043e-04)).field)
    scalar, batch = _return_map_errors(rhs, np.geomspace(0.03, 0.45, 64), 1e-13)
    assert batch <= scalar + 1e-13


# On random fields DOP853's global error is not monotone in the tolerance and
# scatters by an order of magnitude from field to field, for one radius as for
# the batch: on 20 random 3:4 fields at tol 1e-12 the one-radius error ranges
# from 3.6e-13 to 1.7e-11.  So one field compares two draws of that scatter,
# and the bound is taken over the fields of each weight pair.  (At tol 1e-13
# the batch's median over those 20 fields is 7x below the one-radius one, but
# its worst, 9.0e-12, lies above the one-radius worst, 5.3e-12.)
@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3), (3, 4)])
def test_batch_return_map_is_as_accurate_on_random_fields(p, q):
    worst_scalar = worst_batch = 0.0
    for seed in range(3):
        rhs = PolarRHS(random_field(p, q, np.random.default_rng(seed)))
        h_max = min(0.3, rhs.safe_radius())
        scalar, batch = _return_map_errors(rhs, np.geomspace(h_max / 10, h_max, 8), DEFAULT_TOL)
        worst_scalar, worst_batch = max(worst_scalar, scalar), max(worst_batch, batch)
    assert worst_batch <= worst_scalar + DEFAULT_TOL


def test_composition_identity_residuals():
    rhs = PolarRHS(field23())
    res = identity_residuals(rhs, 0.05, theta_samples=[1.0, -1.0, 2.0, -2.0], tol=1e-12)
    assert max(res["composition"]) < 1e-10


# the four pairs reach every parity branch: half-turn (1:1), oddness (2:2),
# reflection-pi (1:2) and reflection-2pi (2:3).  Each residual compares two
# solves of one orbit at local tolerance 1e-12 over at most 4*pi, so it is of
# the order of their accumulated error (measured worst 8.5e-13 on 40 fields);
# 1e-10 leaves that a hundredfold margin
@pytest.mark.parametrize("p, q", [(1, 1), (2, 2), (1, 2), (2, 3)])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flow_identities_on_random_fields(p, q, seed):
    rhs = PolarRHS(random_field(p, q, np.random.default_rng(seed)))
    h = min(0.05, rhs.safe_radius() / 2)
    res = identity_residuals(rhs, h, theta_samples=[1.0, -2.0], tol=1e-12)
    assert len(res) == 2  # composition plus the identity of this parity class
    assert max(max(r) for r in res.values()) < 1e-10


def test_parity_identities_mixed_weights():
    rhs = PolarRHS(field23())
    res = identity_residuals(rhs, 0.05, theta_samples=[0.7, 1.9], tol=1e-12)
    assert "reflection-pi" in res or "reflection-2pi" in res


def test_section_return_linear_center():
    crossing = section_return(lambda x, y: (-y, x), 0.5, tol=1e-12)
    assert crossing.x == pytest.approx(0.5, abs=1e-10)
    assert crossing.time == pytest.approx(2 * np.pi, abs=1e-9)
    assert crossing.direction == 1


def test_section_return_contracts_for_stable_focus():
    mu = 0.05
    crossing = section_return(lambda x, y: (-y - mu * x, x - mu * y), 0.4, tol=1e-12)
    assert crossing.x == pytest.approx(0.4 * np.exp(-2 * np.pi * mu), rel=1e-8)


def test_section_return_rejects_equilibrium_start():
    with pytest.raises((NoReturnError, ValueError)):
        section_return(lambda x, y: (0.0, 0.0), 0.3)


def test_section_return_weighted_field():
    f = field23()
    h = 0.25
    crossing = section_return(f, h**2, tol=1e-12)
    assert crossing.x > 0
    # the polar return radius and the Cartesian section point agree via x = r**p
    r_back = return_map(PolarRHS(f), h, tol=1e-12)
    assert crossing.x == pytest.approx(r_back**2, rel=1e-9)


def test_estimate_period_scales_with_amplitude():
    f = field23()
    t1 = estimate_period(f, 0.1)
    t2 = estimate_period(f, 0.2)
    # dtheta/dt ~ r**(2pq - p - q) so halving h multiplies the period by 2**7
    assert t1 / t2 == pytest.approx(2.0**7, rel=0.05)


def period_by_angle(field, h):
    """estimate_period's quadrature written as a loop over the angles, one at a time."""
    rhs = PolarRHS(field)
    p, q = field.p, field.q
    n = 256
    acc = 0.0
    for theta in np.linspace(0.0, 2 * np.pi, n, endpoint=False):
        r = h * float(nu1_closed_form(p, q, theta))
        _, Q = rhs.components(np.cos(theta), np.sin(theta))
        den = sum(Qk * r**k for k, Qk in enumerate(Q))
        c, s = np.cos(theta), np.sin(theta)
        acc += (p * c**2 + q * s**2) / (r ** (2 * p * q - p - q) * den)
    return float(acc * 2 * np.pi / n)


@pytest.mark.parametrize(
    "field",
    [
        *(random_field(p, q, np.random.default_rng(1)) for p, q in ((1, 1), (1, 2), (2, 3), (3, 4))),
        eq329_weighted(a50=0.0, b41=1.0, sigma=0.1, delta0=0.01, delta1=2.46e-4, delta2=2.72e-2),
    ],
    ids=["1:1", "1:2", "2:3", "3:4", "damped 1:1"],
)
def test_estimate_period_is_the_per_angle_quadrature(field):
    # one vector pass sums in another order than the loop: 256 terms of one
    # sign agree to a few ulps times log2(256)
    for h in (0.02, 0.05):
        assert estimate_period(field, h) == pytest.approx(period_by_angle(field, h), rel=1e-13)


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), float("inf")])
def test_nonpositive_tolerance_rejected(tol):
    # tol=0 used to hang the scalar and jet solves instead of failing
    rhs = PolarRHS(field23())
    with pytest.raises(ValueError, match="tolerance"):
        return_map(rhs, 0.1, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        integrate_jet(rhs, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        section_return(field23(), 0.01, tol=tol)


def test_section_return_unnormalized_field(unnormalized):
    f = unnormalized(field23(), 0.788, 13.92)
    n = normalize(f)
    x0 = 0.3**2 * n.scale_x
    crossing = section_return(f, x0, tol=1e-12)
    # the same orbit in normalized coordinates, mapped back through scale_x
    ref = section_return(n.field, x0 / n.scale_x, tol=1e-12)
    assert crossing.x == pytest.approx(ref.x * n.scale_x, rel=1e-10)


def test_extended_jet_ends_at_the_true_two_pi():
    # oracle: mpmath's Taylor solver at the same 20 digits, read at 2*pi to
    # working precision.  Against a dps-60 solve, the oracle is off by at most
    # 8e-21 and the extended path by at most 1.4e-21, so they agree to about
    # 1e-20; the bound leaves a factor 10 of that.  Ending at the double
    # 2*pi, 2.45e-16 short of the true one, moves nu_2 and nu_3 by 4e-17.
    rhs = PolarRHS(field23())
    with mp.workdps(20):
        sol = mp.odefun(
            lambda theta, nu: _jet_rhs_coeffs(rhs, 3, *mp.cos_sin(theta), nu),
            0, [mp.mpf(1), mp.mpf(0), mp.mpf(0)], tol=mp.mpf(10) ** -15, degree=20,
        )
        ref = sol(2 * mp.pi)
    nu, stats = integrate_jet_extended(rhs, order=3, dps=20)
    assert stats.n_steps > 0
    for k in (2, 3):
        assert abs(nu[k - 1] - ref[k - 1]) <= 1e-19
