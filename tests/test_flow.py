import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from qhfocus import Monomial, WeightedField, flow, jets, return_map
from qhfocus.errors import NoReturnError, PolarChartError, SingularDivisionError, StiffnessError
from qhfocus.fields import normalize
from qhfocus.casestudy import eq325_field, eq329_weighted
from qhfocus.flow import (
    DEFAULT_TOL,
    _compile_jet_rhs,
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
from qhfocus.focal import focal_values, random_field
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
    compiled = np.array(_compile_jet_rhs(rhs, K)(theta, np.array(nu)))
    assert compiled.tobytes() == fast.tobytes()

    with mp.workdps(30):
        exact = _jet_rhs_coeffs(rhs, K, mp.mpf(c), mp.mpf(s), [mp.mpf(v) for v in nu])
        assert all(isinstance(v, mp.mpf) for v in exact)
        err = [abs(float(e - mp.mpf(v))) for e, v in zip(exact, fast)]
    scale = _rounding_scale(rhs, K, c, s, nu)
    assert all(e <= KERNEL_ROUNDING * m + KERNEL_UNDERFLOW for e, m in zip(err, scale))


def _kernel_cases():
    """The corners the random kernel test rarely reaches."""
    identity = lambda K: [1.0] + [0.0] * (K - 1)
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        K = default_order(p, q)
        for seed in range(3):
            # the oracle skips the float zeros of the initial state in mul_trunc
            field = random_field(p, q, np.random.default_rng(seed))
            yield pytest.param(field, K, identity(K), id=f"{p}:{q}-{seed}-identity")
    damped = normalize(eq329_weighted(a50=-0.2, b41=1.0, a22=0.3, b13=0.1, delta0=0.02)).field
    yield pytest.param(damped, 8, identity(8), id="damped-identity")
    yield pytest.param(damped, 8, [0.9, 0.2, -0.1, 0.0, 0.3, 0.0, -0.2, 0.1], id="damped")
    # the levels above K = 3 are truncated away
    field34 = random_field(3, 4, np.random.default_rng(5))
    assert PolarRHS(field34).k_max > 3
    yield pytest.param(field34, 3, [1.2, -0.4, 0.7], id="3:4-K3")
    eq325 = normalize(eq325_field(1.22e-8, 2.41e-4)).field
    yield pytest.param(eq325, 7, [1.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0], id="eq325-shifted")
    # a high order, whose emitted expressions nest deepest
    nu17 = np.random.default_rng(17).uniform(-0.5, 0.5, 17)
    nu17[0] = 1.1
    field23_k17 = random_field(2, 3, np.random.default_rng(3))
    yield pytest.param(field23_k17, 17, nu17.tolist(), id="2:3-K17")


@pytest.mark.parametrize("field, K, nu", _kernel_cases())
def test_compiled_jet_rhs_is_bitwise_the_oracle(field, K, nu):
    rhs = PolarRHS(field)
    kernel = _compile_jet_rhs(rhs, K)
    for theta in (0.0, np.pi / 2, np.pi, 1.5 * np.pi, 2 * np.pi, 0.3, 4.0):
        oracle = _parent_jet_rhs(rhs, K, np.cos(theta), np.sin(theta), np.array(nu))
        compiled = kernel(theta, np.array(nu, dtype=float))
        assert np.array(compiled).tobytes() == np.array(oracle, dtype=float).tobytes()


class _VanishingDenominator:
    """A stand-in right-hand side whose Q_0 is zero, though not structurally so."""

    def components(self, c, s):
        return [c * s, c], [c - c, s]


def test_compiled_jet_rhs_keeps_the_division_check():
    kernel = _compile_jet_rhs(_VanishingDenominator(), 3)
    with pytest.raises(SingularDivisionError, match="vanishing constant term") as compiled:
        kernel(0.4, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(SingularDivisionError) as direct:
        _jet_rhs_coeffs(_VanishingDenominator(), 3, math.cos(0.4), math.sin(0.4), [1.0, 0.0, 0.0])
    assert str(compiled.value) == str(direct.value)



def test_extended_jet_keeps_the_division_check():
    # the guard is checked on coefficient 0 before the division that follows
    # it: checked after the first sweep, the division would raise ZeroDivisionError
    with pytest.raises(SingularDivisionError) as extended:
        integrate_jet_extended(_VanishingDenominator(), order=3, dps=20)
    with pytest.raises(SingularDivisionError) as double:
        _compile_jet_rhs(_VanishingDenominator(), 3)(0.0, np.array([1.0, 0.0, 0.0]))
    assert str(extended.value) == str(double.value)

def _plain_jet_solve(rhs, K, y0, tol):
    """The double-precision jet solve written out: scipy's DOP853 on _jet_rhs_coeffs over floats."""
    return solve_ivp(
        _jet_fun(rhs, K), (0.0, 2 * np.pi), y0, method="DOP853", rtol=max(tol, 1e-13), atol=tol,
    )


def _jet_fun(rhs, K):
    return lambda t, y: _jet_rhs_coeffs(rhs, K, math.cos(t), math.sin(t), np.asarray(y).tolist())


def _written_out_dop853(fun, t1, y, tol, atol, t0=0.0, event=None):
    """DOP853 from t0 to t1 with scipy's tableau and step control, in plain loops.

    A stage sum adds the nonzero terms in stage order.  scipy adds them with
    numpy's dot, whose rounding order plain Python cannot repeat, so this
    solve and scipy's agree to rounding, and this one is the bitwise oracle.
    With ``event`` = (g, direction), the solve stops at the first step over
    which g changes sign in that direction, as ``solve_ivp``'s test has it,
    at the root ``brentq`` finds at xtol = rtol = 4 eps on the step's
    interpolant (3 more evaluations, which nfev counts).
    Returns the end time, the end state, nfev as scipy counts it, the
    accepted steps, and theta -> state: a step's end state at its end, else
    DOP853's interpolant in scipy's ``Dop853DenseOutput`` order.
    """
    A, B, C = DOP853.A.tolist(), DOP853.B.tolist(), DOP853.C.tolist()
    E3, E5, D = DOP853.E3.tolist(), DOP853.E5.tolist(), DOP853.D.tolist()
    A_EXTRA, C_EXTRA = DOP853.A_EXTRA.tolist(), DOP853.C_EXTRA.tolist()
    rtol, n = max(tol, 1e-13), len(y)
    direction = 1.0 if t1 > t0 else -1.0

    def comb(coefs, stages, i):
        total = None
        for a, k in zip(coefs, stages):
            if a:
                total = a * k[i] if total is None else total + a * k[i]
        return total

    def rms(x, w):
        return math.sqrt(sum((v / s) * (v / s) for v, s in zip(x, w))) / n**0.5

    def interpolate(j, theta):
        x = (theta - ts[j]) / (ts[j + 1] - ts[j])
        out = []
        for i in range(n):
            acc = 0.0
            for m, row in enumerate(reversed(Fs[j])):
                acc += row[i]
                acc *= x if m % 2 == 0 else 1 - x
            out.append(acc + ys[j][i])
        return out

    def at(theta):
        j = next(j for j in range(len(Fs)) if theta <= ts[j + 1])
        return ys[j + 1] if theta == ts[j + 1] else interpolate(j, theta)

    f = list(fun(t0, y))
    w = [atol + abs(v) * rtol for v in y]
    d0, d1 = rms(y, w), rms(f, w)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t1 - t0))
    f1 = fun(t0 + h0 * direction, [v + h0 * direction * g for v, g in zip(y, f)])
    d2 = rms([b - a for a, b in zip(f, f1)], w) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, abs(t1 - t0))
    t, nfev, ts, ys, Fs = t0, 2, [t0], [y], []
    if event is not None:
        g_old = event[0](t0, y)
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            assert h_abs >= min_step
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for s in range(1, 12):
                K.append(fun(t + C[s] * h, [y[i] + comb(A[s][:s], K, i) * h for i in range(n)]))
            y_new = [y[i] + h * comb(B, K, i) for i in range(n)]
            K.append(list(fun(t + h, y_new)))
            nfev += 12
            w = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            e5 = [comb(E5, K, i) / w[i] for i in range(n)]
            e3 = [comb(E3, K, i) / w[i] for i in range(n)]
            s5, s3 = sum(e * e for e in e5), sum(e * e for e in e3)
            err = 0.0 if s5 == 0 and s3 == 0 else h_abs * s5 / math.sqrt((s5 + 0.01 * s3) * n)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** (-1 / 8))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** (-1 / 8))
            rejected = True
        for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=13):
            K.append(fun(t + c * h, [y[i] + comb(a[:s], K, i) * h for i in range(n)]))
        dy = [b - a for a, b in zip(y, y_new)]
        F = [dy, [h * K[0][i] - dy[i] for i in range(n)],
             [2 * dy[i] - h * (K[12][i] + K[0][i]) for i in range(n)]]
        Fs.append(F + [[h * comb(d, K, i) for i in range(n)] for d in D])
        t, y, f = t_new, y_new, K[12]
        ts.append(t)
        ys.append(y)
        if event is not None:
            g_new = event[0](t, y)
            if g_old <= 0 <= g_new and event[1] >= 0 or g_new <= 0 <= g_old and event[1] <= 0:
                step = len(Fs) - 1
                t = brentq(lambda s: event[0](s, interpolate(step, s)), ts[-2], ts[-1],
                           xtol=4 * np.finfo(float).eps, rtol=4 * np.finfo(float).eps)
                y, nfev = interpolate(step, t), nfev + 3
                break
            g_old = g_new

    return t, y, nfev, len(Fs), at


def _within_tol(a, b, tol):
    return all(abs(u - v) <= tol * max(1.0, abs(v)) for u, v in zip(a, b))


def _focal_fields():
    yield pytest.param(eq325_field(1.22e-8, 2.41e-4), id="eq325")
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        for seed in range(2):
            yield pytest.param(random_field(p, q, np.random.default_rng(seed)), id=f"{p}:{q}-{seed}")
    yield pytest.param(eq329_weighted(-0.2, 1.0, 0.3, 0.1, delta0=0.02), id="damped")
    for p, q in ((2, 5), (3, 5)):
        yield pytest.param(random_field(p, q, np.random.default_rng(0)), id=f"{p}:{q}-0")


# scipy's solve is the reference for the method: same steps, same evaluations,
# end states within tol of each other (its stage sums round in another order).
# The written-out solve is the bitwise oracle.
@pytest.mark.parametrize("field", _focal_fields())
def test_focal_values_are_the_plain_solve_on_the_jet_rhs(field):
    K, tol = default_order(field.p, field.q), 1e-13
    rhs, y0 = PolarRHS(normalize(field).field), [1.0] + [0.0] * (K - 1)
    sol = _plain_jet_solve(rhs, K, y0, tol)
    _, final, nfev, steps, _ = _written_out_dop853(_jet_fun(rhs, K), 2 * np.pi, y0, tol, tol)
    rep = focal_values(field, integ_tol=tol)
    assert (rep.rhs_evals, rep.steps) == (sol.nfev, len(sol.t) - 1) == (nfev, steps)
    assert _within_tol([rep.nu1, *rep.values], sol.y[:, -1], tol)
    assert np.array([rep.nu1, *rep.values]).tobytes() == np.array(final).tobytes()


def test_shifted_jet_transport_is_the_plain_solve():
    rhs = PolarRHS(normalize(eq325_field(1.22e-8, 2.41e-4)).field)
    g = [1.0, 0.3, 0.0, -0.1, 0.0, 0.0, 0.0]
    sol = _plain_jet_solve(rhs, 7, g, 1e-12)
    _, final, nfev, steps, at = _written_out_dop853(_jet_fun(rhs, 7), 2 * np.pi, g, 1e-12, 1e-12)
    traj = integrate_jet(rhs, init=g, tol=1e-12, order=7)
    assert (traj.stats.n_rhs_evals, traj.stats.n_steps) == (sol.nfev, len(sol.t) - 1)
    assert (traj.stats.n_rhs_evals, traj.stats.n_steps) == (nfev, steps)
    assert _within_tol(traj.final, sol.y[:, -1], 1e-12)
    assert traj.final.tobytes() == np.array(final).tobytes()
    assert traj.at(2 * np.pi).tobytes() == traj.final.tobytes()
    assert traj.at(0.0).tolist() == g
    dense = solve_ivp(_jet_fun(rhs, 7), (0.0, 2 * np.pi), g, method="DOP853",
                      rtol=1e-12, atol=1e-12, dense_output=True)
    for theta in (0.1, 1.0, np.pi, 5.5, *sol.t[3:5]):
        assert traj.at(theta).tobytes() == np.array(at(theta)).tobytes()
        assert _within_tol(traj.at(theta), dense.sol(theta), 1e-12)


def test_scalar_and_jet_return_maps_agree():
    rhs = PolarRHS(field23())
    traj = integrate_jet(rhs, order=7, tol=1e-13)
    for h in (0.02, 0.05, 0.1):
        scalar = return_map(rhs, h, tol=1e-13)
        jet = np.polynomial.polynomial.polyval(h, np.r_[0.0, traj.final])
        assert jet == pytest.approx(scalar, abs=5 * h**8)


def test_single_radius_return_map_is_the_plain_scalar_solve():
    # one radius, alone or as a batch of one, is the solve written out
    # directly; the negative spans are those of identity_residuals
    rhs = PolarRHS(field23())
    fun = lambda t, y: [rhs(t, float(y[0]))]
    for h, tol, theta1 in ((0.05, 1e-12, 2 * np.pi), (0.2, 1e-13, 2 * np.pi),
                           (0.3, 1e-10, 2 * np.pi), (0.05, 1e-12, -1.0), (0.2, 1e-13, -2.0),
                           (0.1, 1e-12, np.pi - 2.0)):
        sol = solve_ivp(fun, (0.0, theta1), [h], method="DOP853", rtol=max(tol, 1e-13), atol=tol)
        _, (r,), nfev, steps, _ = _written_out_dop853(fun, theta1, [h], tol, tol)
        assert (nfev, steps) == (sol.nfev, len(sol.t) - 1)
        stepper = flow._dop853_floats(fun, theta1, [h], tol, tol, "scalar integration")
        assert stepper[2:] == (nfev, steps)
        assert _within_tol([r], sol.y[:, -1], tol)
        assert integrate_scalar(rhs, h, theta1, tol=tol) == r
        assert integrate_scalar(rhs, np.array([h]), theta1, tol=tol).tolist() == [r]


class _Blowup:
    """dr/dtheta = r**2, whose solution from r = 1 leaves every bound at theta = 1."""

    def check_radius(self, r):
        pass

    def __call__(self, theta, r):
        return r * r


def test_step_underflow_names_the_solve():
    scipy_sol = solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2 * np.pi), [1.0],
                          method="DOP853", rtol=1e-12, atol=1e-12)
    assert not scipy_sol.success
    with pytest.raises(StiffnessError) as err:
        integrate_scalar(_Blowup(), 1.0, tol=1e-12)
    assert str(err.value) == f"scalar integration failed: {scipy_sol.message}"


class _ChartEdge:
    """A scalar right-hand side whose chart breaks down beyond theta = 1."""

    def check_radius(self, r):
        pass

    def __call__(self, theta, r):
        if theta > 1.0:
            self.raised = PolarChartError(f"polar chart breakdown at theta={theta!r}")
            raise self.raised
        return -r


class _VanishingLater:
    """A jet right-hand side whose Q_0 = cos**700 underflows to zero for 1.19 < theta < 1.95."""

    def components(self, c, s):
        return [c - c], [c**700]


def test_a_stage_error_propagates_unchanged():
    edge = _ChartEdge()
    with pytest.raises(PolarChartError) as err:
        integrate_scalar(edge, 0.1, tol=1e-12)
    assert err.value is edge.raised
    with pytest.raises(SingularDivisionError) as err:
        integrate_jet(_VanishingLater(), order=3)
    assert type(err.value) is SingularDivisionError and str(err.value) == jets.VANISHING


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


def _section_oracle(solve, field, x0, tol):
    """section_return written out on ``solve(fun, t0, t1, y, atol, event)``.

    Returns the same-direction crossings met, the last on the positive
    half-axis, and nfev and steps summed over every solve."""
    if isinstance(field, WeightedField):
        n = normalize(field)
        h = (x0 / n.scale_x) ** (1.0 / field.p)
        t_max = 20.0 * n.time_scale * estimate_period(n.field, h)
    else:
        t_max = 1e6
    v0 = field(x0, 0.0)[1]
    event = (lambda t, z: z[1], 1.0 if v0 > 0 else -1.0)
    fun, atol = (lambda t, z: field(*z)), tol * min(1.0, x0)
    t, state, nfev, steps, crossings = 0.0, [x0, 0.0], 0, 0, []
    while not crossings or crossings[-1][0] <= 0:
        t, state, n_pre, s_pre = solve(fun, t, t + 1e-6 * abs(x0 / v0), state, atol, None)
        t, state, n_run, s_run = solve(fun, t, t_max, state, atol, event)
        assert t < t_max
        nfev, steps = nfev + n_pre + n_run, steps + s_pre + s_run
        crossings.append((state[0], t))
    return crossings, nfev, steps


def _scipy_section_return(field, x0, tol):
    """The oracle on scipy's solve_ivp and its event location."""

    def solve(fun, t0, t1, y, atol, event):
        ev = None
        if event is not None:
            ev = lambda t, z: event[0](t, z)
            ev.direction, ev.terminal = event[1], True
        sol = solve_ivp(lambda t, z: fun(t, z.tolist()), (t0, t1), y, method="DOP853",
                        rtol=max(tol, 1e-13), atol=atol, events=ev)
        if ev is not None and len(sol.t_events[0]):
            return sol.t_events[0][0], sol.y_events[0][0].tolist(), sol.nfev, len(sol.t) - 1
        return sol.t[-1], sol.y[:, -1].tolist(), sol.nfev, len(sol.t) - 1

    return _section_oracle(solve, field, x0, tol)


def _written_out_section_return(field, x0, tol):
    """The oracle on the written-out DOP853, the bitwise reference."""

    def solve(fun, t0, t1, y, atol, event):
        return _written_out_dop853(fun, t1, y, tol, atol, t0, event)[:4]

    return _section_oracle(solve, field, x0, tol)


def _hopf(eps):
    return lambda x, y: (-y + eps * x - x * (x * x + y * y), x + eps * y - y * (x * x + y * y))


def _bean(x, y):
    """The Hamiltonian flow of H = x**2 + v**2, v = y - 2 x**2 + 1.5, counter-clockwise.

    Its orbit through (0.95, 0) is a bean crossing the x-axis at +-0.95 and
    +-0.5895, upwards at 0.95 and at -0.5895, with period pi."""
    v = y - 2.0 * x * x + 1.5
    return -2.0 * v, 2.0 * x - 8.0 * x * v


def _section_cases():
    yield pytest.param(lambda x, y: (-y, x), 0.5, id="linear-center")
    yield pytest.param(lambda x, y: (-y - 0.05 * x, x - 0.05 * y), 0.4, id="stable-focus")
    yield pytest.param(_hopf(0.04), 0.3, id="hopf")
    damped = eq329_weighted(a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4,
                            delta2=2.72e-2)
    for x0 in (0.024, 0.3):
        yield pytest.param(damped, x0, id=f"damped-{x0}")
    yield pytest.param(field23(), 0.0625, id="2:3")
    yield pytest.param(eq329_weighted(-0.2, 1.0, 0.3, 0.1, delta0=0.02), 0.2, id="damped-1:1")
    yield pytest.param(_bean, 0.95, id="bean")


# scipy's solve is the reference for the method: the crossing agrees to
# tol, and at tol 1e-12 the steps and evaluations agree on each of these
# cases.  They need not everywhere: where y is near 0 its error scale is
# atol = tol * x0, and the error estimate of the first step off the section
# is then rounding noise of the stage sums, which numpy's dot rounds in
# another order.  On the 2:3 case at tol 1e-13 the next step size differs in
# the fourth digit and the solve makes 3 more rejected attempts (1879 against
# 1843 evaluations, both in 133 steps).  The written-out solve, whose stage
# sums round as the stepper's do, is the bitwise oracle.
@pytest.mark.parametrize("field, x0", _section_cases())
def test_section_return_is_solve_ivp_with_its_event(field, x0):
    crossing = _check_section_return(field, x0, 1e-12)
    _, nfev, steps = _scipy_section_return(field, x0, 1e-12)
    assert (crossing.stats.n_rhs_evals, crossing.stats.n_steps) == (nfev, steps)


def test_unnormalized_section_return_is_solve_ivp_with_its_event(unnormalized):
    # here the first step off the section is the noisy one at tol 1e-12:
    # 1615 evaluations in 106 steps against scipy's 1567 in 105
    f = unnormalized(field23(), 0.788, 13.92)
    _check_section_return(f, 0.3**2 * normalize(f).scale_x, 1e-12)


def _check_section_return(field, x0, tol):
    crossing = section_return(field, x0, tol=tol)
    crossings, nfev, steps = _written_out_section_return(field, x0, tol)
    x, t = crossings[-1]
    assert (crossing.x, crossing.time, crossing.stats.n_rhs_evals, crossing.stats.n_steps) == (
        x, t, nfev, steps)
    assert crossing.stats.tol == tol
    scipy_crossings, _, _ = _scipy_section_return(field, x0, tol)
    assert len(scipy_crossings) == len(crossings)
    x, t = scipy_crossings[-1]
    assert abs(crossing.x - x) <= tol * max(1.0, abs(x))
    assert abs(crossing.time - t) <= tol * max(1.0, abs(t))
    return crossing


def test_section_return_resumes_past_the_wrong_half_axis():
    crossings, _, _ = _scipy_section_return(_bean, 0.95, 1e-12)
    assert [round(x, 4) for x, _ in crossings] == [-0.5895, 0.95]
    crossing = section_return(_bean, 0.95, tol=1e-12)
    assert crossing.x == pytest.approx(0.95, abs=1e-10)
    assert crossing.time == pytest.approx(np.pi, abs=1e-10)


def test_section_return_without_a_crossing_raises():
    with pytest.raises(NoReturnError, match="within t_max=1000000.0"):
        section_return(lambda x, y: (0.0, 1.0), 0.5)


def test_section_return_names_a_failed_solve():
    # y' = 1 + y**2 leaves every bound at t = pi/2 before crossing the section again
    blowup = lambda t, z: [0.0, 1.0 + z[1] * z[1]]
    scipy_sol = solve_ivp(blowup, (0.0, 10.0), [0.5, 1e-6], method="DOP853", rtol=1e-12,
                          atol=1e-12)
    assert not scipy_sol.success
    with pytest.raises(StiffnessError) as err:
        section_return(lambda x, y: (0.0, 1.0 + y * y), 0.5)
    assert str(err.value) == f"Cartesian integration failed: {scipy_sol.message}"


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


NONFINITE_STATE = "All components of the initial state `y0` must be finite."


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_initial_state_is_rejected(bad, deadline):
    # the float stepper used to loop forever on a NaN state (its step size became NaN)
    deadline(20)
    rhs = PolarRHS(field23())
    with pytest.raises(ValueError, match=re.escape(NONFINITE_STATE)):
        integrate_jet(rhs, init=[bad] + [0.0] * 6)
    # an infinite radius is outside the chart, which the radius check says first
    with pytest.raises(ValueError if math.isnan(bad) else PolarChartError):
        return_map(rhs, bad)
    with pytest.raises(ValueError if math.isnan(bad) else PolarChartError):
        return_map(rhs, np.array([0.1, bad]))
    with pytest.raises(ValueError, match=re.escape(NONFINITE_STATE)):
        return_map(PolarRHS(leading_field(2, 3)), bad)
    with pytest.raises(ValueError, match="positive x-axis"):
        section_return(lambda x, y: (-y, x), bad)
    with pytest.raises(ValueError, match="positive x-axis"):
        section_return(field23(), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_span_is_rejected(bad, deadline):
    # integrate_scalar used to return h unchanged for theta1 = NaN
    deadline(20)
    rhs = PolarRHS(field23())
    with pytest.raises(ValueError, match="theta span"):
        integrate_scalar(rhs, 0.2, theta1=bad)
    with pytest.raises(ValueError, match="theta span"):
        integrate_scalar(rhs, np.array([0.1, 0.2]), theta1=bad)
    with pytest.raises(ValueError, match="span"):
        flow._dop853_floats(lambda t, y: [-y[0]], bad, [1.0], 1e-12, 1e-12, "scalar integration")
    with pytest.raises(ValueError, match="span"):
        flow._dop853_floats(lambda t, y: [-y[0]], 1.0, [1.0], 1e-12, 1e-12, "scalar integration",
                            t0=bad)


# builders, given the ``unnormalized`` fixture, of the fields whose compiled
# Cartesian right-hand side must be the field itself
WEIGHTED_FIELDS = {
    **{f"{p}:{q}": lambda u, p=p, q=q: random_field(p, q, np.random.default_rng(11))
       for p, q in ((1, 1), (1, 2), (2, 3), (3, 4))},
    "eq325": lambda u: eq325_field(1.22e-8, 2.41e-4),
    "damped-eq329": lambda u: eq329_weighted(a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8,
                                             delta1=2.46e-4, delta2=2.72e-2),
    "unnormalized": lambda u: u(field23(), 0.788, 13.92),
}


@pytest.mark.parametrize("name", WEIGHTED_FIELDS)
def test_compiled_cartesian_field_is_bitwise_the_field(name, unnormalized):
    field = WEIGHTED_FIELDS[name](unnormalized)
    fun = flow._cartesian_rhs(field)
    zeros = [(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    axes = [(0.3, 0.0), (0.3, -0.0), (-0.0, 0.3), (0.0, -0.3), (1e-200, -1e-200), (-2.5, 1.5)]
    points = zeros + axes + np.random.default_rng(2).uniform(-1.5, 1.5, (64, 2)).tolist()
    for x, y in points:
        assert [v.hex() for v in fun(0.0, [x, y])] == [v.hex() for v in field(x, y)], (x, y)


@pytest.mark.parametrize("name, x0", [("eq325", 0.0625), ("damped-eq329", 0.024),
                                      ("unnormalized", 0.05)])
def test_section_return_on_a_weighted_field_is_the_plain_callable(name, x0, unnormalized):
    field = WEIGHTED_FIELDS[name](unnormalized)
    assert section_return(field, x0) == section_return(lambda x, y: field(x, y), x0)


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


def _pinned_extended_cases():
    # the values of the lazy-series Taylor integrator this one replaced, read
    # to the last bit at dps 20
    yield pytest.param(
        field23(), 3, 1825, 73,
        ["0.99999999999999999999915", "0.65702928855007091051142", "0.43168748601261234166846"],
        id="field23",
    )
    damped = normalize(eq329_weighted(-0.2, 1.0, 0.3, 0.1, delta0=0.02)).field
    yield pytest.param(
        damped, 8, 975, 39,
        ["0.98751225652365601427798", "0.0", "0.004595527608596279305264",
         "7.98873549279055188333e-7", "0.021401642956214345758346",
         "-0.0000019626703962908853433814", "0.0086964091555108694469343",
         "-0.0000027350008111134886349751"],
        id="damped",
    )


@pytest.mark.parametrize("field, K, n_rhs_evals, n_steps, expect", _pinned_extended_cases())
def test_extended_jet_values_are_pinned(field, K, n_rhs_evals, n_steps, expect):
    nu, stats = integrate_jet_extended(PolarRHS(field), order=K, dps=20)
    assert (stats.n_rhs_evals, stats.n_steps) == (n_rhs_evals, n_steps)
    with mp.workdps(20):
        assert nu == [mp.mpf(v) for v in expect]


def test_extended_jet_records_the_right_hand_side_once(monkeypatch):
    calls = []
    components = PolarRHS.components

    def counted(self, c, s):
        calls.append(1)
        return components(self, c, s)

    rhs = PolarRHS(field23())
    monkeypatch.setattr(PolarRHS, "components", counted)
    _, stats = integrate_jet_extended(rhs, order=3, dps=20)
    assert stats.n_steps > 1
    assert len(calls) == 1
