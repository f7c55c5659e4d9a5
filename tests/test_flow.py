import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from qhfocus import Monomial, WeightedField, dop853, flow, jets, return_map, spectral
from qhfocus.errors import (NoReturnError, PolarChartError, QhfocusError, QuadratureError,
                            SingularDivisionError, StiffnessError)
from qhfocus.fields import normalize
from qhfocus.casestudy import eq325_field, eq329_cartesian, eq329_weighted, field23
from qhfocus.flow import (
    DEFAULT_TOL,
    default_order,
    estimate_period,
    integrate_jet,
    integrate_jet_extended,
    nu1_closed_form,
    section_return,
)
from qhfocus.focal import focal_values, random_field
from qhfocus.polar import PolarRHS

from flow_identities import identity_residuals, jet_rhs_coeffs, partial_turn


def leading_field(p, q):
    return WeightedField(p=p, q=q, x_terms=(), y_terms=())


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
        r = partial_turn(rhs, h, theta, 1e-13)
        drift.append(abs(energy(theta, r) - e0))
    assert max(drift) < 1e-10 * e0


def test_jet_trajectory_reads_only_the_solved_turn():
    traj = integrate_jet(PolarRHS(field23(0.5, 1.0, -0.3, 1.0)), order=3, tol=1e-12)
    for theta in (20.0, -1.0, [0.5, 7.0]):
        with pytest.raises(ValueError, match="outside the turn"):
            traj.at(theta)
    # the ends are no nodes: the interpolants meet the start and the end state
    # within the estimates of the levels
    bound = np.r_[spectral.ROUNDING, traj.error]
    assert np.all(np.abs(traj.at(0.0) - [1.0, 0.0, 0.0]) <= bound)
    assert np.all(np.abs(traj.at(2 * np.pi) - traj.final) <= bound)


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
    fast = np.array(jet_rhs_coeffs(rhs, K, c, s, nu))
    # the oracle runs on numpy scalars, as the solver once handed them over
    oracle = _parent_jet_rhs(rhs, K, np.cos(theta), np.sin(theta), np.array(nu))
    assert fast.tobytes() == np.array(oracle, dtype=float).tobytes()

    with mp.workdps(30):
        exact = jet_rhs_coeffs(rhs, K, mp.mpf(c), mp.mpf(s), [mp.mpf(v) for v in nu])
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
    # the compiled jet right-hand side is the staged program of the successive
    # quadrature, run on arrays of angles: its P_k is the oracle's level k on
    # the same components with nu_k..nu_K at 0, bitwise, also the sign of a
    # zero.  (numpy's power on an array may round a component otherwise than
    # on one angle.)
    rhs = PolarRHS(field)
    theta = np.array([0.0, np.pi / 2, np.pi, 1.5 * np.pi, 2 * np.pi, 0.3, 4.0])
    R, Q = rhs.components(np.cos(theta), np.sin(theta))
    zero = tuple(v == "z" for v in rhs.recording()[1])
    lanes = [np.full(theta.size, v) for v in nu]
    program = flow._staged_levels(K, zero)(*(x for x, zr in zip(R + Q, zero) if not zr), lanes[0])
    staged = [next(program)] + [program.send(lanes[k]) for k in range(1, K - 1)]
    for i, t in enumerate(theta):
        for k in range(2, K + 1):
            levels = np.array(nu[: k - 1] + [0.0] * (K - k + 1))
            at_angle = _Components([x[i] for x in R], [x[i] for x in Q])
            oracle = _parent_jet_rhs(at_angle, K, np.cos(t), np.sin(t), levels)[k - 1]
            assert float(staged[k - 2][i]).hex() == float(oracle).hex()


class _Components:
    """A stand-in right-hand side whose components are given values R_0.., Q_0..."""

    def __init__(self, R, Q):
        self.R, self.Q = R, Q

    def components(self, c, s):
        return self.R, self.Q


class _VanishingDenominator:
    """A stand-in right-hand side whose Q_0 is zero, though not structurally so; its
    components have degree 2 in cos and sin at most, as those of a 1:1 field."""

    degree = 2

    def components(self, c, s):
        return [c * s, c], [c - c, s]


def test_compiled_jet_rhs_keeps_the_division_check():
    with pytest.raises(SingularDivisionError, match="vanishing constant term") as compiled:
        integrate_jet(_VanishingDenominator(), order=3)
    with pytest.raises(SingularDivisionError) as direct:
        jet_rhs_coeffs(_VanishingDenominator(), 3, math.cos(0.4), math.sin(0.4), [1.0, 0.0, 0.0])
    assert str(compiled.value) == str(direct.value)


def test_extended_jet_keeps_the_division_check():
    # the guard is checked on coefficient 0 before the division that follows
    # it: checked after the first sweep, the division would raise ZeroDivisionError
    with pytest.raises(SingularDivisionError) as extended:
        integrate_jet_extended(_VanishingDenominator(), order=3, dps=20)
    with pytest.raises(SingularDivisionError) as double:
        integrate_jet(_VanishingDenominator(), order=3)
    assert str(extended.value) == str(double.value)


def _counted_exec(monkeypatch) -> list:
    """The parameter lists of the functions ``jets.function`` compiles from now on."""
    built, function = [], jets.function

    def counted(params, lines, **scope):
        built.append(params)
        return function(params, lines, **scope)

    monkeypatch.setattr(jets, "function", counted)
    return built


def test_fields_of_one_support_share_their_compiled_code(fresh_caches, monkeypatch):
    # eq325 at two parameter points: one monomial support, other coefficients
    first, second = (PolarRHS(normalize(eq325_field(*eps)).field)
                     for eps in ((1.22e-8, 2.41e-4), (-3.0e-3, 0.05)))
    built = _counted_exec(monkeypatch)
    trajs = [integrate_jet(first, order=7)]
    assert len(built) == 1  # the staged program
    trajs.append(integrate_jet(second, order=7))
    assert len(built) == 1  # the second field of the support compiles nothing
    # the shared staged program runs on each field's own components, as a fresh compile does
    flow._staged_levels.cache_clear()
    assert trajs[1].final.tobytes() == integrate_jet(second, order=7).final.tobytes()
    assert trajs[1].final.tolist() != trajs[0].final.tolist()


def test_scalar_rhs_is_bitwise_the_component_sum():
    # one field per weight pair, the 2:3 one with numpy parameters, as a
    # search passes them, which still compile to float code
    fields = [random_field(p, q, np.random.default_rng(0)) for p, q in ((1, 1), (1, 2), (3, 4))]
    fields.append(normalize(eq325_field(*np.array([1.22e-8, 2.41e-4]))).field)
    for rhs in map(PolarRHS, fields):
        for theta in (0.0, np.pi / 2, np.pi, 0.3, 4.0):
            num = den = 0.0
            rk = 1.0
            for Rk, Qk in zip(*rhs.components(math.cos(theta), math.sin(theta))):
                num, den, rk = num + Rk * rk, den + Qk * rk, rk * 0.1
            assert rhs(theta, 0.1).hex() == (0.1 * num / den).hex()
        assert type(rhs(0.3, 0.1)) is float


def _unfolded(monkeypatch):
    """The recorder as it was before it folded x**0, x**1 and 1 * x."""
    def mul(self, k):
        return self._op(k, "*", self) if self and k else jets._Var(self.code, "z")

    monkeypatch.setattr(jets._Var, "__pow__", lambda self, n: self._op(self, "**", n))
    monkeypatch.setattr(jets._Var, "__rmul__", mul)
    monkeypatch.setattr(jets._Var, "__mul__", mul)


def test_recorder_folds_exact_identities(monkeypatch):
    rhs = PolarRHS(random_field(2, 3, np.random.default_rng(0)))

    def identities():
        program, _ = jets.record(lambda c, s, *nu: jet_rhs_coeffs(rhs, 7, c, s, nu),
                                 "c", "s", *(f"y{i}" for i in range(7)))
        return program, [line for line in program if line[1] == "**" and line[3] in (0.0, 1.0)
                         or line[1] == "*" and line[2] == 1.0]

    program, kept = identities()
    assert kept == []
    text = "\n".join(jets.source(program) + rhs.recording()[0])
    for pattern in ("** 0.0", "** 1.0", "1.0 *"):
        assert pattern not in text
    # the Taylor sweep gives bitwise the values of the unfolded recording, on
    # 1:1 (where R_0 folds to zero), 1:2 and 2:1 (a constant in a sum) and 2:3
    fields = [random_field(p, q, np.random.default_rng(1)) for p, q in ((1, 1), (1, 2), (2, 3))]
    fields.append(WeightedField(p=2, q=1, x_terms=(Monomial(2, 1, 0.3),),
                                y_terms=(Monomial(4, 0, 0.2),)))

    def sweep():
        return [integrate_jet_extended(PolarRHS(f), theta1=1.0, order=4, dps=20) for f in fields]

    folded = sweep()
    _unfolded(monkeypatch)
    assert identities()[1]
    assert sweep() == folded


def test_recorder_folds_a_division_of_the_zero(monkeypatch, fresh_caches):
    # z / x is z: the R_0 of a 1:1 field is structurally zero, and
    # jets.div_trunc divides it by Q_0.  Fields as the survey draws them
    fields = [random_field(p, q, np.random.default_rng(seed))
              for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)) for seed in range(3)]
    fields.append(field23(0.5, 1.0, -0.3, 1.0))

    def programs(field, K):
        """The staged program at order K and the Taylor sweep's recording."""
        rhs = PolarRHS(field)
        zero = tuple(v == "z" for v in rhs.recording()[1])
        taylor, _ = jets.record(lambda c, s, *nu: jet_rhs_coeffs(rhs, K, c, s, nu),
                                "c", "s", *(f"y{i}" for i in range(K)))
        return flow._staged_recording(K, zero)[1], taylor

    def divides_zero(field):
        return [line for program in programs(field, default_order(field.p, field.q))
                for line in program if line[1] == "/" and line[2] == "z"]

    def values():
        """Bitwise: the double values with nu_1, and the extended ones to theta = 1."""
        out = []
        for field in fields:
            report = focal_values(field)
            out.append((np.array([report.nu1, *report.values]).tobytes(),
                        integrate_jet_extended(PolarRHS(field), theta1=1.0, order=5, dps=20)[0]))
        return out

    assert [divides_zero(f) for f in fields] == [[]] * len(fields)
    lines = len(programs(fields[0], 8)[0])
    folded = values()
    monkeypatch.setattr(jets._Var, "__truediv__", lambda self, other: self._op(self, "/", other))
    flow._staged_levels.cache_clear()
    assert divides_zero(fields[0])
    assert lines < len(programs(fields[0], 8)[0])
    assert values() == folded


def test_jet_programs_hold_only_lines_an_output_or_a_guard_reads(monkeypatch, fresh_caches):
    # random fields at four weights, one 1:1 and one 3:4 with an empty middle
    # weight level, the criterion-8 field and the damped 1:1 field
    rng = np.random.default_rng(3)
    fields = [random_field(p, q, rng) for p, q in ((1, 1), (1, 2), (2, 3), (3, 4))]
    assert [bool(xs or ys) for xs, ys in PolarRHS(fields[0])._levels] == [True, False, True]
    assert not all(xs or ys for xs, ys in PolarRHS(fields[3])._levels[:-1])
    fields += [normalize(eq325_field(1.22e-8, 2.41e-4)).field,
               eq329_weighted(a50=-0.2, b41=1.0, a22=0.3, b13=0.1, delta0=0.02, delta1=0.1)]
    cases = [(f, K) for i, f in enumerate(fields) for K in (3 + i % 4, 9 - i % 3)]
    recorded = []

    def logged(record):
        def recording(fn, *inputs):
            recorded.append(record(fn, *inputs))
            return recorded[-1]
        return recording

    def unpruned(fn, *inputs):
        """The recorder as it was before it pruned: every recorded line."""
        code = {}
        out = fn(*(jets._Var(code, name) for name in inputs))
        return [(dest, *line) for line, dest in code.items()], out

    def solves():
        return [(integrate_jet(PolarRHS(f), 1e-12, K), integrate_jet_extended(
                 PolarRHS(f), theta1=0.5, order=K, dps=20)) for f, K in cases]

    monkeypatch.setattr(jets, "record", logged(jets.record))
    pruned = solves()
    # the staged levels of _jet_coeffs per shape, and the components and the jet
    # lines of _jet_coeffs per extended solve
    assert len(recorded) == 3 * len(cases)
    for program, out in recorded:
        reads = {x for _, _, a, b in program for x in (a, b)} | set(_output_names(out))
        assert [line for line in program if line[0] is not None and line[0] not in reads] == []
    # pruning off: every recorded line runs, and the solves give bitwise the same results
    monkeypatch.setattr(jets, "record", logged(unpruned))
    flow._staged_levels.cache_clear()
    for (jet, ext), (plain_jet, plain_ext) in zip(pruned, solves()):
        assert (jet.final.tobytes(), jet.stats) == (plain_jet.final.tobytes(), plain_jet.stats)
        assert ext == plain_ext
    lines = [len(program) for program, _ in recorded]
    assert sum(lines[3 * len(cases):]) > sum(lines[: 3 * len(cases)])


def _output_names(out):
    """The names of the recording variables in a recorded function's result, also nested."""
    if isinstance(out, (list, tuple)):
        return [name for x in out for name in _output_names(x)]
    return [out.name] if isinstance(out, jets._Var) else []


def _plain_jet_solve(rhs, K, y0, tol):
    """The double-precision jet solve written out: scipy's DOP853 on jet_rhs_coeffs over floats."""
    return solve_ivp(
        _jet_fun(rhs, K), (0.0, 2 * np.pi), y0, method="DOP853", rtol=max(tol, 1e-13), atol=tol,
    )


def _jet_fun(rhs, K):
    return lambda t, y: jet_rhs_coeffs(rhs, K, math.cos(t), math.sin(t), np.asarray(y).tolist())


def _written_out_dop853(fun, t1, y, tol, atol, t0=0.0, event=None):
    """DOP853 from t0 to t1 with scipy's tableau and step control, in plain loops.

    A stage sum adds the nonzero terms in stage order.  scipy adds them with
    numpy's dot, whose rounding order plain Python cannot repeat, so this
    solve and scipy's agree to rounding, and this one is the bitwise oracle.
    With ``event`` = (g, direction), the solve stops at the first step over
    which g changes sign in that direction, as ``solve_ivp``'s test has it,
    at the root ``brentq`` finds at xtol = rtol = 4 eps on the step's
    interpolant (3 more evaluations, which nfev counts).
    Returns the end time, the end state, nfev as scipy counts it and the
    accepted steps.
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

    return t, y, nfev, len(Fs)


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


# The focal values against the jet ODE solved as one system: ``dop853.solve``
# on the uncompiled jet right-hand side, which transports the shifted series of
# test_focal, takes scipy's steps and evaluations and ends within tol of scipy's
# end state (its stage sums round in another order); the written-out solve is
# its bitwise oracle.  DOP853 holds each step's local error to tol, so the
# quadrature lies within steps * tol of its end state.
@pytest.mark.parametrize("field", _focal_fields())
def test_focal_values_are_the_plain_solve_on_the_jet_rhs(field):
    K, tol = default_order(field.p, field.q), 1e-13
    rhs, y0 = PolarRHS(normalize(field).field), [1.0] + [0.0] * (K - 1)
    sol = _plain_jet_solve(rhs, K, y0, tol)
    _, final, nfev, steps = _written_out_dop853(_jet_fun(rhs, K), 2 * np.pi, y0, tol, tol)
    _, plain, n_rhs, n_steps = dop853.solve(_jet_fun(rhs, K), 2 * np.pi, y0, tol, tol,
                                            "jet integration")
    assert (n_rhs, n_steps) == (sol.nfev, len(sol.t) - 1) == (nfev, steps)
    assert _within_tol(plain, sol.y[:, -1], tol)
    assert np.array(plain).tobytes() == np.array(final).tobytes()
    assert _within_tol(integrate_jet(PolarRHS(field), tol=tol, order=K).final, plain, steps * tol)


def test_shifted_jet_transport_is_the_plain_solve():
    # a shifted series g(h) starts the solve of the jet right-hand side, as
    # test_focal's shifted check runs it
    rhs = PolarRHS(normalize(eq325_field(1.22e-8, 2.41e-4)).field)
    g = [1.0, 0.3, 0.0, -0.1, 0.0, 0.0, 0.0]
    sol = _plain_jet_solve(rhs, 7, g, 1e-12)
    _, final, nfev, steps = _written_out_dop853(_jet_fun(rhs, 7), 2 * np.pi, g, 1e-12, 1e-12)
    _, shifted, n_rhs, n_steps = dop853.solve(_jet_fun(rhs, 7), 2 * np.pi, g, 1e-12, 1e-12,
                                              "jet integration")
    assert (n_rhs, n_steps) == (sol.nfev, len(sol.t) - 1) == (nfev, steps)
    assert _within_tol(shifted, sol.y[:, -1], 1e-12)
    assert np.array(shifted).tobytes() == np.array(final).tobytes()


def test_scalar_and_jet_return_maps_agree():
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    traj = integrate_jet(rhs, order=7, tol=1e-13)
    for h in (0.02, 0.05, 0.1):
        scalar = return_map(rhs, h, tol=1e-13)
        jet = np.polynomial.polynomial.polyval(h, np.r_[0.0, traj.final])
        assert jet == pytest.approx(scalar, abs=5 * h**8)


def test_return_map_rejects_a_2d_array_of_radii():
    # a 2x2 array gave 4 radii back, flattened, where one radius or a 1-D array is promised
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    with pytest.raises(ValueError, match=r"1-D array of radii, got shape \(2, 2\)"):
        return_map(rhs, np.full((2, 2), 0.05))


def test_single_radius_return_map_is_the_plain_scalar_solve():
    # DOP853 on the scalar dr/dtheta is the solve written out directly, and
    # the partial turns, of either sign, are those of the identity tests; the
    # return map, alone or as a batch of one, agrees with it to its tolerance
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    fun = lambda t, y: [rhs(t, float(y[0]))]
    for h, tol, theta1 in ((0.05, 1e-12, 2 * np.pi), (0.2, 1e-13, 2 * np.pi),
                           (0.3, 1e-10, 2 * np.pi), (0.05, 1e-12, -1.0), (0.2, 1e-13, -2.0),
                           (0.1, 1e-12, np.pi - 2.0)):
        sol = solve_ivp(fun, (0.0, theta1), [h], method="DOP853", rtol=max(tol, 1e-13), atol=tol)
        _, (r,), nfev, steps = _written_out_dop853(fun, theta1, [h], tol, tol)
        assert (nfev, steps) == (sol.nfev, len(sol.t) - 1)
        stepper = dop853.solve(fun, theta1, [h], tol, tol, "scalar integration")
        assert stepper[2:] == (nfev, steps)
        assert _within_tol([r], sol.y[:, -1], tol)
        assert partial_turn(rhs, h, theta1, tol) == r
        if theta1 == 2 * np.pi:
            assert _within_tol([return_map(rhs, h, tol)], [r], tol)
            assert return_map(rhs, np.array([h]), tol).tolist() == [return_map(rhs, h, tol)]


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
        partial_turn(_Blowup(), 1.0, 2 * np.pi, 1e-12)
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
        partial_turn(edge, 0.1, 2 * np.pi, 1e-12)
    assert err.value is edge.raised
    with pytest.raises(SingularDivisionError) as err:
        integrate_jet(_VanishingLater(), order=3)
    assert type(err.value) is SingularDivisionError and str(err.value) == jets.VANISHING


def _worst_gap_over_tolerance(rhs, radii, tol):
    """max over the radii of |batch - one radius| / (effective_rtol(tol) max(1, |r|))."""
    batch = return_map(rhs, radii, tol)
    alone = np.array([return_map(rhs, h, tol) for h in radii.tolist()])
    return float(np.max(np.abs(batch - alone) / (dop853.effective_rtol(tol) * np.maximum(1.0, alone))))


# A radius's panel count depends on the radii swept with it, so a lane and
# the radius alone may differ in their last digits, but both settle to the
# map's tolerance (the lanes against solve_ivp: tests/test_dop853.py).
# Measured: no gap at all, as every sweep here settles on 16 panels.
def test_batch_return_map_is_as_accurate_on_the_criterion_8_grid():
    rhs = PolarRHS(normalize(eq325_field(1.22167735e-08, 2.40634043e-04)).field)
    assert _worst_gap_over_tolerance(rhs, np.geomspace(0.03, 0.45, 64), 1e-13) <= 1.0


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3), (3, 4)])
def test_batch_return_map_is_as_accurate_on_random_fields(p, q):
    for seed in range(3):
        rhs = PolarRHS(random_field(p, q, np.random.default_rng(seed)))
        h_max = min(0.3, rhs.safe_radius())
        radii = np.geomspace(h_max / 10, h_max, 8)
        assert _worst_gap_over_tolerance(rhs, radii, DEFAULT_TOL) <= 1.0


def test_an_orbit_leaving_the_chart_raises_naming_its_radius():
    # near the safe radius of two random 1:1 fields the orbit leaves the chart
    # on the turn (a DOP853 solve's step size underflows there too), so Newton's
    # method fails down to one panel; no overflow leaks as a warning
    rng = np.random.default_rng(0)
    for rhs, share in ((PolarRHS(random_field(1, 1, rng)), 0.9),
                       (PolarRHS(random_field(1, 1, rng)), 0.999)):
        h = share * rhs.safe_radius()
        with pytest.raises(QhfocusError, match=re.escape(repr(h))):
            return_map(rhs, h)


def test_composition_identity_residuals():
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
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
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
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
    f = field23(0.5, 1.0, -0.3, 1.0)
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
        return _written_out_dop853(fun, t1, y, tol, atol, t0, event)

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
    yield pytest.param(field23(0.5, 1.0, -0.3, 1.0), 0.0625, id="2:3")
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
    f = unnormalized(field23(0.5, 1.0, -0.3, 1.0), 0.788, 13.92)
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


def _section_parity_digest() -> str:
    """SHA-256 of (x, y, time, nfev, steps) of the bench's damped grid, the criterion-8
    closures and a 7-state ``dop853.solve``, each float by its hex."""
    damped = eq329_cartesian(a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4,
                             delta2=2.72e-2)
    criterion_8 = eq325_field(eps1=1.22167735e-08, eps2=2.40634043e-04)
    scale_x = normalize(criterion_8).scale_x
    starts = [(damped, x0) for x0 in np.geomspace(0.0115, 0.43, 64).tolist()]
    starts += [(criterion_8, h**2 * scale_x) for h in (0.0894151025039942, 0.29020388959866583)]
    rows = []
    for field, x0 in starts:
        c = section_return(field, x0, tol=1e-13)
        rows.append((c.x.hex(), c.y.hex(), c.time.hex(), c.stats.n_rhs_evals, c.stats.n_steps))
    rhs = PolarRHS(normalize(criterion_8).field)
    g = [1.0, 0.3, 0.0, -0.1, 0.0, 0.0, 0.0]
    t, y, nfev, steps = dop853.solve(_jet_fun(rhs, 7), 2 * np.pi, g, 1e-12, 1e-12, "jet")
    rows.append((t.hex(), [v.hex() for v in y], nfev, steps))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_section_returns_are_pinned():
    # frozen from the stepper that called a generated step per attempt from a Python loop
    assert _section_parity_digest() == (
        "7ee0f407cbe60deee6600f1f78ab46168030ce03fa84ec1b2ce41323480cf562")


def test_section_return_resumes_past_the_wrong_half_axis():
    crossings, _, _ = _scipy_section_return(_bean, 0.95, 1e-12)
    assert [round(x, 4) for x, _ in crossings] == [-0.5895, 0.95]
    crossing = section_return(_bean, 0.95, tol=1e-12)
    assert crossing.x == pytest.approx(0.95, abs=1e-10)
    assert crossing.time == pytest.approx(np.pi, abs=1e-10)


def test_section_return_without_a_crossing_raises():
    with pytest.raises(NoReturnError, match="within t_max=1000000.0"):
        section_return(lambda x, y: (0.0, 1.0), 0.5)


@pytest.mark.parametrize("x0, t", [(5e-324, 0.0), (1e-10, 2 * np.pi)])
def test_a_pre_step_that_rounds_away_raises(x0, t):
    # x' = -1, y' = cos x: from (x0, 0) the orbit next crosses upward at x0 - 2*pi, on the
    # wrong half-axis, where t + 1e-16 == t; a pre-step of 5e-330 underflows to 0 at t = 0
    with pytest.raises(NoReturnError, match="rounds away at t=") as err:
        section_return(lambda x, y: (-1.0, math.cos(x)), x0)
    assert float(str(err.value).rsplit("=", 1)[1]) == pytest.approx(t, abs=1e-9)


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
    f = field23(0.5, 1.0, -0.3, 1.0)
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
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    with pytest.raises(ValueError, match="tolerance"):
        return_map(rhs, 0.1, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        integrate_jet(rhs, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        section_return(field23(0.5, 1.0, -0.3, 1.0), 0.01, tol=tol)


NONFINITE_STATE = "All components of the initial state `y0` must be finite."


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_initial_state_is_rejected(bad, deadline):
    # the float stepper used to loop forever on a NaN state (its step size became NaN)
    deadline(20)
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    with pytest.raises(ValueError, match=re.escape(NONFINITE_STATE)):
        dop853.solve(_jet_fun(rhs, 7), 2 * np.pi, [bad] + [0.0] * 6, DEFAULT_TOL,
                     DEFAULT_TOL, "jet integration")
    # a non-finite radius is refused before the radius check, on a chart with a limit or
    # without one (the check used to say PolarChartError for an infinite radius on the first)
    for chart in (rhs, PolarRHS(leading_field(2, 3))):
        with pytest.raises(ValueError, match="h must hold one or more radii, all finite"):
            return_map(chart, bad)
        with pytest.raises(ValueError, match="h must hold one or more radii, all finite"):
            return_map(chart, np.array([0.1, bad]))
    with pytest.raises(ValueError, match="positive x-axis"):
        section_return(lambda x, y: (-y, x), bad)
    with pytest.raises(ValueError, match="positive x-axis"):
        section_return(field23(0.5, 1.0, -0.3, 1.0), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_span_is_rejected(bad, deadline):
    # a solve used to return its start unchanged for a span of NaN
    deadline(20)
    with pytest.raises(ValueError, match="span"):
        dop853.solve(lambda t, y: [-y[0]], bad, [1.0], 1e-12, 1e-12, "scalar integration")
    with pytest.raises(ValueError, match="span"):
        dop853.solve(lambda t, y: [-y[0]], 1.0, [1.0], 1e-12, 1e-12, "scalar integration", t0=bad)


def test_an_empty_span_takes_no_step_as_solve_ivp_takes_none():
    # the first step's estimate divided by the empty span's h0 = 0 (ZeroDivisionError);
    # solve_ivp records the start twice, once as the end of its finishing call
    fun = lambda t, y: [-y[0]]
    for t0 in (0.0, 2.5, -1.0):
        sol = solve_ivp(fun, (t0, t0), [1.0], method="DOP853", rtol=1e-12, atol=1e-12)
        assert sol.success and sol.t.tolist() == [t0, t0]
        end = dop853.solve(fun, t0, [1.0], 1e-12, 1e-12, "scalar integration", t0=t0)
        assert end == (t0, sol.y[:, -1].tolist(), sol.nfev, 0)


@pytest.mark.parametrize("index, direction", [(0, -1), (2, 1), (2, -1), (2, 0)])
def test_an_event_on_any_component_is_the_written_out_solve(index, direction):
    # the kernel's sign test reads state component ``index`` of a 3-state flow
    fun = lambda t, z: [-z[1] - 0.1 * z[0], z[0] - 0.1 * z[1], math.cos(t + z[0])]
    y0, g = [1.0, 0.0, -0.3], (lambda t, z: z[index], direction)
    end = dop853.solve(fun, 20.0, y0, 1e-12, 1e-12, "event", event=(index, direction))
    assert end == _written_out_dop853(fun, 20.0, y0, 1e-12, 1e-12, event=g) and end[0] < 20.0


def test_a_section_return_calls_the_compiled_field_eight_times(fresh_caches, monkeypatch):
    # the solver's stages run the field's recorded lines: fun is called once at the start,
    # twice per solve for its first step and three times for the crossing's interpolant
    calls, function = [], jets.function

    def counted(params, lines, **scope):
        compiled = function(params, lines, **scope)
        if params != "t, z":
            return compiled

        def fun(t, z):
            calls.append(t)
            return compiled(t, z)

        return fun

    monkeypatch.setattr(jets, "function", counted)
    damped = eq329_cartesian(a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4,
                             delta2=2.72e-2)
    for x0 in (0.0115, 0.1, 0.43):
        calls.clear()
        crossing = section_return(damped, x0, tol=1e-13)
        assert len(calls) == 8 and crossing.stats.n_rhs_evals > 500


# builders, given the ``unnormalized`` fixture, of the fields whose compiled
# Cartesian right-hand side must be the field itself
WEIGHTED_FIELDS = {
    **{f"{p}:{q}": lambda u, p=p, q=q: random_field(p, q, np.random.default_rng(11))
       for p, q in ((1, 1), (1, 2), (2, 3), (3, 4))},
    "eq325": lambda u: eq325_field(1.22e-8, 2.41e-4),
    "damped-eq329": lambda u: eq329_weighted(a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8,
                                             delta1=2.46e-4, delta2=2.72e-2),
    "unnormalized": lambda u: u(field23(0.5, 1.0, -0.3, 1.0), 0.788, 13.92),
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
    f = unnormalized(field23(0.5, 1.0, -0.3, 1.0), 0.788, 13.92)
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
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    with mp.workdps(20):
        sol = mp.odefun(
            lambda theta, nu: jet_rhs_coeffs(rhs, 3, *mp.cos_sin(theta), nu),
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
        field23(0.5, 1.0, -0.3, 1.0), 3, 20, 1825, 73,
        ["0.99999999999999999999915", "0.65702928855007091051142", "0.43168748601261234166846"],
        id="field23",
    )
    damped = normalize(eq329_weighted(-0.2, 1.0, 0.3, 0.1, delta0=0.02)).field
    yield pytest.param(
        damped, 8, 20, 975, 39,
        ["0.98751225652365601427798", "0.0", "0.004595527608596279305264",
         "7.98873549279055188333e-7", "0.021401642956214345758346",
         "-0.0000019626703962908853433814", "0.0086964091555108694469343",
         "-0.0000027350008111134886349751"],
        id="damped",
    )
    # the values of the sweep that Taylor-expanded the components by products
    # of the cosine and sine series, one random field per weight pair at the
    # default order, a second quintic 2:3 field and the criterion-8 field
    random = {
        (1, 1): (1150, 46, ["1.0", "-5.6797985175912849989644e-29", "0.49614160261921578740333",
                            "0.028858897573206017542211", "0.3069075014208014558693",
                            "0.031323918577529318396481", "-0.086673373213311977091416",
                            "0.018169085454838874742926"]),
        (1, 2): (1600, 64, ["1.0", "0.90082002703461482817374", "0.81147672110664418990171",
                            "0.42275595965002521812429", "-0.060779849697675688383444",
                            "-0.7820522427910313152245", "-1.6287930492385063617628"]),
        (2, 3): (1950, 78, ["1.0", "0.52116251745658605556148", "0.27161036960168636509598",
                            "0.17665772097950424044699", "0.12865776203113541680114",
                            "0.10196817548284085437601", "0.085352463692449216272982"]),
        (3, 4): (2200, 88, ["1.0", "0.0", "0.0", "-0.037070219046092291134501",
                            "-1.0014833502003091817058e-21", "0.0",
                            "0.0027484022802505273078538"]),
    }
    for (p, q), (evals, steps, expect) in random.items():
        yield pytest.param(random_field(p, q, np.random.default_rng(0)), default_order(p, q), 20,
                           evals, steps, expect, id=f"random-{p}:{q}")
    yield pytest.param(
        field23(1, 0.5, 1, -0.3), 5, 20, 1850, 74,
        ["0.99999999999999999999915", "0.24091073913502600173636", "0.058037984230584548742051",
         "0.021726667403293077554191", "0.008965747282105472623881"],
        id="field23-K5",
    )
    yield pytest.param(
        normalize(eq325_field(1.22e-8, 2.41e-4)).field, 7, 30, 3060, 85,
        ["1.0", "0.00000000133595955146620565469629623337475",
         "1.78478792315386964751062143219855e-18", "-0.000000183309982981740216362851043342577",
         "-7.34684167930690140734785110378698e-16", "0.00000196203162233429365106960293927048",
         "7.76898792660767150396348745631735e-14"],
        id="criterion-8",
    )


@pytest.mark.parametrize("field, K, dps, n_rhs_evals, n_steps, expect", _pinned_extended_cases())
def test_extended_jet_values_are_pinned(field, K, dps, n_rhs_evals, n_steps, expect):
    nu, stats = integrate_jet_extended(PolarRHS(field), order=K, dps=dps)
    assert (stats.n_rhs_evals, stats.n_steps) == (n_rhs_evals, n_steps)
    with mp.workdps(dps):
        assert nu == [mp.mpf(v) for v in expect]


def test_extended_jet_runs_on_a_scale_beyond_the_float_range():
    # at dps 300 the fixed-point scale 2**bits passes 2**1024: the division guard, the step
    # and the messages keep to integers, where a float of one overflows
    rhs = PolarRHS(field23(1, 0.5, 1, -0.3))
    nu, stats = integrate_jet_extended(rhs, theta1=0.001, order=3, dps=300)
    coarse, _ = integrate_jet_extended(rhs, theta1=0.001, order=3, dps=290)
    assert stats.n_steps == 1
    with mp.workdps(300):
        assert max(abs(a - b) for a, b in zip(nu, coarse)) <= mp.mpf(10) ** -289
    rhs.degree -= 1
    with pytest.raises(QuadratureError, match="degree bound is too low"):
        integrate_jet_extended(rhs, theta1=0.001, order=3, dps=300)


@pytest.mark.parametrize("field", [
    pytest.param(WeightedField(p=1, q=1, x_terms=(Monomial(2, 0, 0.3),)), id="bounded-chart"),
    pytest.param(WeightedField(p=1, q=1), id="unbounded-chart"),
])
def test_return_map_refuses_no_radius_and_nonfinite_ones_before_the_chart_check(field):
    # no radius raised "max() arg is an empty sequence", and an infinite one PolarChartError
    # where the chart has a finite safe radius
    rhs = PolarRHS(field)
    for bad in (np.array([]), math.inf, -math.inf, math.nan, np.array([0.1, math.inf])):
        with pytest.raises(ValueError, match="h must hold one or more radii, all finite"):
            return_map(rhs, bad)


def test_jet_of_order_one_is_nu_1_alone():
    # order 1 raised IndexError, building a staged program for no level
    rhs = PolarRHS(field23(1, 0.5, 1, -0.3))
    jet, third = integrate_jet(rhs, order=1), integrate_jet(rhs, order=3)
    assert jet.final.shape == (1,) and jet.error.shape == (0,)
    assert abs(jet.final[0] - third.final[0]) <= 1e-14


@pytest.mark.parametrize("theta1", [math.nan, math.inf, -math.inf])
def test_extended_jet_refuses_a_nonfinite_end(monkeypatch, theta1):
    # mpmath raised "cannot convert inf or nan to int"; the refusal comes before the recording
    monkeypatch.setattr(jets, "record", lambda *a: pytest.fail("recorded"))
    with pytest.raises(ValueError, match=re.escape(f"theta1={theta1!r} must be finite")):
        integrate_jet_extended(PolarRHS(field23(0.5, 1.0, -0.3, 1.0)), theta1=theta1, order=3)


def _field_with_23_monomials() -> WeightedField:
    """A 2:3 field with 23 of the 25 monomials of extra weight 1 to 5 (X: 2k + 3j = 10..14,
    Y: 2k + 3j = 11..15), coefficients uniform in [-0.5, 0.5]."""
    rng = np.random.default_rng(23)
    pool = [(side, k, j) for side, lead in ((0, 9), (1, 10)) for k in range(8) for j in range(6)
            if lead < 2 * k + 3 * j <= lead + 5]
    terms = ([], [])
    for i in sorted(rng.choice(len(pool), size=23, replace=False)):
        side, k, j = pool[i]
        terms[side].append(Monomial(k, j, rng.uniform(-0.5, 0.5)))
    assert len(pool) == 25
    return WeightedField(p=2, q=3, x_terms=tuple(terms[0]), y_terms=tuple(terms[1]))


def _fourier_fields():
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        yield pytest.param(random_field(p, q, np.random.default_rng(0)), id=f"{p}:{q}")
    yield pytest.param(normalize(eq325_field(1.22e-8, 2.41e-4)).field, id="eq325")
    yield pytest.param(eq329_weighted(-0.2, 1.0, 0.3, 0.1, delta0=0.02), id="damped-eq329")
    # terms at the leading weight make Q_0 = 1 + sin(2 theta) / 2
    leading = WeightedField(p=1, q=1, x_terms=(
        Monomial(1, 0, -0.5), Monomial(3, 0, 0.4), Monomial(1, 2, -0.3),
    ), y_terms=(Monomial(0, 1, 0.5), Monomial(2, 1, 0.2), Monomial(0, 3, 0.7)))
    yield pytest.param(leading, id="leading-weight")
    yield pytest.param(_field_with_23_monomials(), id="23-monomials")


@pytest.mark.parametrize("field", _fourier_fields())
def test_components_taylor_series_come_from_their_fourier_series(field):
    # the solve's own check passes: the series meet the components at the
    # angle 1, off the grid, so the degree bound does not alias
    rhs, bits = PolarRHS(field), 99
    fine = bits + flow._GUARD_BITS
    program, (R, Q) = jets.record(rhs.components, "c", "s")
    out = [v.name for v in R + Q]
    fourier = flow._fourier_series(program, out, rhs.degree, bits)
    # the structural zeros have no series
    assert [f is None for f in fourier] == [x == "z" for x in out]
    # the Taylor series at theta0, summed at theta0 + 0.1 in mpf, is the component
    # there to 1e-25 (its rounding is 2**-99 times a few, its truncation
    # negligible), and so is the fixed-point value at theta0 that the solve takes
    # for coefficient 0
    named = [x for x in out if x != "z"]
    nonzero = [f for f in fourier if f is not None]
    for theta0 in (0.0, 2.0, 5.5):
        with mp.workprec(fine):
            c0, s0 = (flow._fixed(x, fine) for x in mp.cos_sin(theta0))
            series = flow._taylor_series(nonzero, c0, s0, 25, fine, bits)
            values = flow._fixed_components(
                program, named, *(flow._fixed(x, bits) for x in mp.cos_sin(theta0)), bits)
            at = [[F for F, x in zip(R + Q, out) if x != "z"]
                  for R, Q in (rhs.components(*mp.cos_sin(theta0 + t)) for t in (0, mp.mpf("0.1")))]
            for F0, F, value, coefs in zip(*at, values, series):
                assert abs(mp.ldexp(value, -bits) - F0) <= 1e-25 * max(1, abs(F0))
                taylor = sum(mp.ldexp(c, -bits) * mp.mpf("0.1") ** j for j, c in enumerate(coefs))
                assert abs(taylor - F) <= 1e-25 * max(1, abs(F))


@pytest.mark.parametrize("field", _fourier_fields())
def test_an_understated_degree_bound_is_refused(field):
    # each field's bound is tight: one lower, its top frequency aliases onto the
    # grid, and the check off the grid sees it before the first step
    rhs = PolarRHS(field)
    rhs.degree -= 1
    with pytest.raises(QuadratureError, match="degree bound is too low"):
        integrate_jet_extended(rhs, order=3, dps=20)


@pytest.mark.parametrize("A", [1.0, 1e3, 1e6])
def test_a_component_zero_but_not_structurally_passes_the_aliasing_check(A):
    # x' = -y (1 - A r**2), y' = x (1 - A r**2) only turns faster or slower with r:
    # R_2 = 0 though its terms of size A do not cancel structurally, and every
    # nu_k, k > 1, is zero, but for the rounding of terms of size A at 2**-99.  R_2's
    # Fourier series meet its rounding noise off the grid to far below a unit of
    # the solve's scale
    field = WeightedField(p=1, q=1, x_terms=(Monomial(2, 1, A), Monomial(0, 3, A)),
                          y_terms=(Monomial(3, 0, -A), Monomial(1, 2, -A)))
    nu, _ = integrate_jet_extended(PolarRHS(field), order=4, dps=20)
    assert abs(nu[0] - 1) < 1e-24
    assert all(abs(v) < 1e-27 * A for v in nu[1:])


def test_extended_jet_records_the_right_hand_side_once(monkeypatch):
    calls = []
    components = PolarRHS.components

    def counted(self, c, s):
        calls.append(1)
        return components(self, c, s)

    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    monkeypatch.setattr(PolarRHS, "components", counted)
    _, stats = integrate_jet_extended(rhs, order=3, dps=20)
    assert stats.n_steps > 1
    assert len(calls) == 1


def test_loaded_tableau_is_scipys_dop853():
    # the step code reads scipy's coefficient file by its path: a change in
    # scipy's file layout fails here
    table = dop853._tableau()
    ours = {"A": table.A[:12, :12], "B": table.B, "C": table.C[:12], "E3": table.E3,
            "E5": table.E5, "D": table.D, "A_EXTRA": table.A[13:], "C_EXTRA": table.C[13:]}
    for name, value in ours.items():
        np.testing.assert_array_equal(value, getattr(DOP853, name), err_msg=name)


@pytest.mark.parametrize("order", [0, -2, 5.5])
def test_both_jet_solves_reject_an_order_that_is_not_a_positive_integer(order):
    # integrate_jet raised IndexError at order 0, and focal_values(K=5.5) a
    # TypeError from inside the solve; both solves now run one check
    message = re.escape(f"order must be a positive integer, got {order!r}")
    rhs = PolarRHS(field23(0.5, 1.0, -0.3, 1.0))
    for solve in (integrate_jet, integrate_jet_extended):
        with pytest.raises(ValueError, match=message):
            solve(rhs, order=order)
    if order >= 3:
        for precision in ("double", "extended"):
            with pytest.raises(ValueError, match=message):
                focal_values(field23(0.5, 1.0, -0.3, 1.0), K=order, precision=precision)


@pytest.mark.parametrize("kwargs", [{"dps": 0}, {"dps": -3}, {"dps": 2.5}, {"order": 0}])
def test_extended_jet_rejects_bad_dps_and_order(kwargs):
    # these used to raise ZeroDivisionError (dps 0) or IndexError (dps -3,
    # order 0), or run silently at tol 3.2e-3 (dps 2.5)
    (name, value), = kwargs.items()
    message = f"{name} must be a positive integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_jet_extended(PolarRHS(field23(0.5, 1.0, -0.3, 1.0)), **kwargs)
    if name == "dps":
        with pytest.raises(ValueError, match=re.escape(message)):
            focal_values(field23(0.5, 1.0, -0.3, 1.0), precision="extended", dps=value)
