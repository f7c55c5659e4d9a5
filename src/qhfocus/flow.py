"""Integration of the polar ODE and of Cartesian flows.

Three backends:

* jet transport: the radius ODE is integrated with the radius replaced by a
  truncated series in the initial radius h, carrying nu_1..nu_K in one
  error-controlled pass;
* scalar: plain adaptive integration of dr/dtheta for the return map, of
  one radius or of an array of them as one vector solve;
* Cartesian: orbit integration with event-located crossings of the positive
  x-axis section.  It takes any callable (x, y) -> velocities, and serves as
  the independent reference for the polar return map of weighted fields.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from . import jets
from .errors import NoReturnError, StiffnessError, check_tol
from .fields import WeightedField, normalize
from .polar import PolarRHS

DEFAULT_TOL = 1e-12
# DOP853's rtol floor: scipy rewrites any rtol below 100 * eps, with a warning
RTOL_FLOOR = 1e-13


def default_order(p: int, q: int) -> int:
    """Jet order reaching three focal values in either parity class."""
    return 8 if (p + q) % 2 == 0 else 7


def nu1_closed_form(p: int, q: int, theta):
    """nu_1(theta) = (cos**(2q) + sin**(2p))**(-1/(2pq))."""
    c, s = np.cos(theta), np.sin(theta)
    return (c ** (2 * q) + s ** (2 * p)) ** (-1.0 / (2 * p * q))


def _jet_rhs_coeffs(rhs: PolarRHS, K: int, cos_t, sin_t, nu: Sequence) -> list:
    """d(nu)/dtheta for the c_1..c_K radius-jet coefficients, generic over the number type.

    Extended precision runs it on Taylor series; double precision compiles it.

    The radius jet r = nu_1 h + ... + nu_K h**K has valuation 1, so r**k
    starts at h**k: each power is summed from there, in the term order of
    ``jets.mul_trunc``, and powers above the last one used are never formed.
    Zero terms are added where ``jets.mul_trunc`` skips them, which leaves
    every nonzero sum bit for bit as it was.
    """
    R, Q = rhs.components(cos_t, sin_t)
    n = K + 1
    zero = 0 * nu[0]
    r = [zero, *nu]
    num = [R[0]] + [zero] * K
    den = [Q[0]] + [zero] * K
    top = min(len(R), n)  # levels k > K multiply r**k, which starts beyond h**K
    rk = r
    for k in range(1, top):
        Rk, Qk = R[k], Q[k]
        for i in range(k, n):
            num[i] = num[i] + Rk * rk[i]
            den[i] = den[i] + Qk * rk[i]
        if k + 1 < top:
            nxt = [zero] * n
            for m in range(k + 1, n):
                acc = rk[k] * r[m - k]
                for i in range(k + 1, m):
                    acc = acc + rk[i] * r[m - i]
                nxt[m] = acc
            rk = nxt
    quot = jets.div_trunc(num, den, n)
    return jets.mul_trunc(r, quot, n)[1:]


class _Var:
    """A float of the jet right-hand side, named in a straight-line kernel being recorded.

    Arithmetic adds the line ``v<i> = a op b`` to the ordered ``code``, or
    reuses the line with the same text.  ``z``, the structural zero ``0 * x``,
    is the only variable ``bool`` reports as false, so ``jets.mul_trunc``
    skips the terms it skips on floats and ``x + z`` folds to x.  A
    comparison records a guard and is assumed false."""

    __slots__ = ("code", "name")

    def __init__(self, code: dict, name: str):
        self.code, self.name = code, name

    def __bool__(self) -> bool:
        return self.name != "z"

    def _line(self, text: str) -> _Var:
        return self.code.setdefault(text, _Var(self.code, f"v{len(self.code)}"))

    def _op(self, a, op: str, b) -> _Var:
        return self._line(f"{_atom(a)} {op} {_atom(b)}")

    def __add__(self, other) -> _Var:
        return self if not other else other if not self else self._op(self, "+", other)

    def __sub__(self, other) -> _Var:
        return self._op(self, "-", other) if other else self

    def __mul__(self, other) -> _Var:
        return self._op(self, "*", other) if self and other else _Var(self.code, "z")

    def __rmul__(self, k) -> _Var:
        return self._op(k, "*", self) if self and k else _Var(self.code, "z")

    def __truediv__(self, other) -> _Var:
        return self._op(self, "/", other)

    def __pow__(self, n: int) -> _Var:
        return self._op(self, "**", n)

    def __abs__(self) -> _Var:
        return self._line(f"abs({self.name})")

    def __lt__(self, bound) -> bool:
        self.code[f"if {self.name} < {_atom(bound)}: return ref(theta, y)"] = None
        return False


def _atom(x) -> str:
    """A variable's name, or a number's exact text (ints act as floats in float arithmetic)."""
    return x.name if isinstance(x, _Var) else repr(float(x))


def _compile_jet_rhs(rhs: PolarRHS, K: int) -> Callable:
    """``_jet_rhs_coeffs`` on floats at order K, as one straight-line function f(theta, y).

    ``_jet_rhs_coeffs`` runs once on recording variables, so f does the same
    float operations in the same order and returns bitwise equal values.
    ``jets.mul_trunc`` starts each output at 0 * nu_1, an add the zero fold
    drops: f adds it last, which gives a zero output its sign on floats.  A
    guard that holds (a vanishing denominator) hands the state back to
    ``_jet_rhs_coeffs``, which raises as it always has.
    """
    code: dict[str, _Var | None] = {}
    nu = [_Var(code, f"y{i}") for i in range(K)]
    out = _jet_rhs_coeffs(rhs, K, _Var(code, "c"), _Var(code, "s"), nu)
    lines = [f"{', '.join(map(_atom, nu))}, = y.tolist()", "c, s, z = cos(theta), sin(theta), 0 * y0"]
    lines += [text if v is None else f"{v.name} = {text}" for text, v in code.items()]
    lines.append(f"return [{', '.join(_atom(v) + ' + z' for v in out)}]")
    code.clear()  # the variables refer to code: free them now, not at a GC pass
    ref = lambda theta, y: _jet_rhs_coeffs(rhs, K, math.cos(theta), math.sin(theta), y.tolist())
    scope = {"cos": math.cos, "sin": math.sin, "ref": ref}
    exec("def f(theta, y):\n    " + "\n    ".join(lines), scope)
    return scope.pop("f")  # f's globals are scope: popping f breaks the reference cycle


@dataclass
class IntegratorStats:
    n_rhs_evals: int
    n_steps: int
    tol: float  # the tolerance the solver ran at


@dataclass
class JetTrajectory:
    """Jet solution nu_1(theta)..nu_K(theta) over one turn [0, 2*pi].

    ``final`` is the solver's end state.  The dense interpolant behind ``at``
    is built on first use by repeating the solve with dense output, which
    takes the same steps and so reproduces ``final`` at 2*pi.
    """

    order: int
    stats: IntegratorStats
    final: np.ndarray
    _dense_solve: Callable[[], object]
    _sol: object = None

    def at(self, theta: float) -> np.ndarray:
        """The radius-jet coefficients [nu_1(theta), ..., nu_K(theta)], 0 <= theta <= 2*pi."""
        if not 0.0 <= theta <= 2 * np.pi:
            raise ValueError(f"theta={theta!r} lies outside the solved turn [0, 2*pi]")
        if self._sol is None:
            self._sol = self._dense_solve().sol
        return self._sol(theta)


def _dop853(fun, span, y0, tol: float, atol: float, what: str, **options):
    """One DOP853 solve at rtol = max(tol, RTOL_FLOOR); a failed solve raises StiffnessError."""
    rtol = max(tol, RTOL_FLOOR)
    sol = solve_ivp(fun, span, y0, method="DOP853", rtol=rtol, atol=atol, **options)
    if not sol.success:
        raise StiffnessError(f"{what} failed: {sol.message}")
    return sol


def integrate_jet(
    rhs: PolarRHS,
    init: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
    order: int | None = None,
) -> JetTrajectory:
    """Transport the radius jet over one turn, theta from 0 to 2*pi.

    ``init`` holds the initial coefficients c_1..c_K and defaults to the
    identity jet (nu_1 = 1, nu_k = 0), matching the standard initial
    condition; a shifted series g(h) may be supplied instead.
    """
    check_tol(tol)
    K = order if order is not None else default_order(rhs.field.p, rhs.field.q)
    y0 = np.asarray(init if init is not None else [1.0] + [0.0] * (K - 1), dtype=float)
    if y0.size != K:
        raise ValueError(f"initial jet order {y0.size} != requested order {K}")

    f = _compile_jet_rhs(rhs, K)

    def solve(**options):
        return _dop853(f, (0.0, 2 * np.pi), y0, tol, tol, "jet integration", **options)

    sol = solve()
    stats = IntegratorStats(sol.nfev, len(sol.t) - 1, max(tol, RTOL_FLOOR))
    return JetTrajectory(K, stats, sol.y[:, -1], lambda: solve(dense_output=True))


def integrate_scalar(
    rhs: PolarRHS,
    h,
    theta1: float = 2 * np.pi,
    tol: float = DEFAULT_TOL,
):
    """r at theta1 for the scalar radius ODE started at (0, h).

    ``h`` is one radius, giving a float, or a 1-D array of radii, giving an
    array: one DOP853 solve with a lane per radius, which any lane leaving
    the chart stops.
    """
    if abs(theta1) >= 4 * np.pi:
        raise ValueError("theta span must stay below 4*pi")
    check_tol(tol)
    lanes = np.ravel(h)
    rhs.check_radius(max(lanes.tolist(), key=abs))
    if theta1 == 0:
        return h
    # scipy's error norm is the RMS over the B lanes, so one lane may carry
    # sqrt(B) times the error accepted: atol = tol / sqrt(B) keeps each lane's
    # absolute bound at tol, and leaves one radius as it was.  rtol stays
    # max(tol, RTOL_FLOOR), the floor at the scans' usual tol 1e-13.  One lane
    # runs the right-hand side on floats, with no numpy call.
    atol = tol / math.sqrt(lanes.size)
    fun = (lambda t, y: [rhs(t, float(y[0]))]) if lanes.size == 1 else rhs
    sol = _dop853(fun, (0.0, theta1), lanes, tol, atol, "scalar integration")
    return float(sol.y[0, -1]) if np.ndim(h) == 0 else sol.y[:, -1]


def return_map(rhs: PolarRHS, h, tol: float = DEFAULT_TOL):
    """r~(2*pi, h): one full turn of the polar flow, for one radius or a 1-D array of them."""
    return integrate_scalar(rhs, h, tol=tol)


# -- functional identities of the flow ----------------------------------------


def identity_residuals(
    rhs: PolarRHS,
    h: float,
    theta_samples: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> dict[str, list[float]]:
    """Residuals of the flow identities applicable to the parity of (p, q).

    Always includes the 2*pi composition identity; adds the half-turn identity
    for odd/odd weights, the oddness-in-h residual for even/even, the
    pi-reflection for odd p / even q, and the 2*pi-reflection for even p /
    odd q.  Each reflection holds only for its own parity signature: the
    chart identification (r, theta) ~ (-r, reflected theta) needs (-1)**p and
    (-1)**q to land on the matching trigonometric signs.
    """
    p, q = rhs.field.p, rhs.field.q

    def r(h0: float, theta: float) -> float:
        return integrate_scalar(rhs, h0, theta, tol)

    r2pi, rpi = r(h, 2 * np.pi), r(h, np.pi)
    out = {"composition": [abs(r(h, th + 2 * np.pi) - r(r2pi, th)) for th in theta_samples]}
    if p % 2 == 1 and q % 2 == 1:
        out["half-turn"] = [abs(-r(h, th + np.pi) - r(-rpi, th)) for th in theta_samples]
    if p % 2 == 0 and q % 2 == 0:
        out["oddness"] = [abs(r(h, th) + r(-h, th)) for th in theta_samples]
    if p % 2 == 1 and q % 2 == 0:
        out["reflection-pi"] = [abs(-r(h, np.pi - th) - r(-rpi, th)) for th in theta_samples]
    if p % 2 == 0 and q % 2 == 1:
        out["reflection-2pi"] = [
            abs(-r(h, 2 * np.pi - th) - r(-r2pi, th)) for th in theta_samples
        ]
    return out


# -- Cartesian flows and the positive x-axis section ---------------------------


@dataclass(frozen=True)
class SectionCrossing:
    x: float
    y: float
    time: float
    direction: int


def estimate_period(field: WeightedField, h: float) -> float:
    """Cartesian period of one polar revolution at radius ~ h via quadrature.

    Uses dtheta/dt = r**(2pq-p-q) * sum Q_k r**k / (p cos^2 + q sin^2) along
    the orbit r = h * nu_1(theta) of the leading part, on 256 angles.
    """
    p, q = field.p, field.q
    n = 256
    thetas = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    c, s = np.cos(thetas), np.sin(thetas)
    r = h * nu1_closed_form(p, q, thetas)
    _, Q = PolarRHS(field).components(c, s)
    den = sum(Qk * r**k for k, Qk in enumerate(Q))
    acc = np.sum((p * c**2 + q * s**2) / (r ** (2 * p * q - p - q) * den))
    return float(acc * 2 * np.pi / n)


def section_return(
    cartesian_field: Callable[[float, float], tuple[float, float]],
    x0: float,
    tol: float = DEFAULT_TOL,
) -> SectionCrossing:
    """Next same-direction crossing of {y = 0, x > 0} starting from (x0, 0).

    The time cap is 20 estimated periods for a weighted field, else 1e6.
    """
    if x0 <= 0:
        raise ValueError("section_return starts on the positive x-axis")
    check_tol(tol)
    if isinstance(cartesian_field, WeightedField):
        # the period is estimated in normalized coordinates and mapped back
        n = normalize(cartesian_field)
        h = (x0 / n.scale_x) ** (1.0 / cartesian_field.p)
        t_max = 20.0 * n.time_scale * estimate_period(n.field, h)
    else:
        t_max = 1e6
    _, v0 = cartesian_field(x0, 0.0)
    if v0 == 0.0:
        raise NoReturnError("orbit starts at an equilibrium of the section")
    direction = 1 if v0 > 0 else -1

    def event(t, z):
        return z[1]

    event.direction = float(direction)
    event.terminal = True
    fun = lambda t, z: cartesian_field(*z.tolist())
    atol = tol * min(1.0, x0)
    # a start (or restart) point lies exactly on the section and would fire
    # the terminal event at time zero; a short event-free pre-step moves off
    # the section first, then the solver stops at the next true crossing
    dt_pre = 1e-6 * abs(x0 / v0)
    t_start, state = 0.0, [x0, 0.0]
    while t_start < t_max:
        pre = _dop853(fun, (t_start, t_start + dt_pre), state, tol, atol, "Cartesian integration")
        sol = _dop853(
            fun, (pre.t[-1], t_max), pre.y[:, -1], tol, atol, "Cartesian integration",
            events=event,
        )
        if len(sol.t_events[0]) == 0:
            break
        t_ev, z_ev = sol.t_events[0][0], sol.y_events[0][0]
        if z_ev[0] > 0:
            return SectionCrossing(float(z_ev[0]), float(z_ev[1]), float(t_ev), direction)
        # same-direction crossing on the wrong half-axis; resume past it
        t_start, state = t_ev, [z_ev[0], z_ev[1]]
    raise NoReturnError(
        f"no same-direction section crossing within t_max={t_max!r}"
    )


# -- extended precision --------------------------------------------------------

_GUARD_BITS = 32


class _Tape:
    """The nodes of one Taylor step, in creation order, which is dependency order.

    Coefficients are fixed-point integers: c stands for c / 2**bits.
    """

    def __init__(self, bits: int):
        self.bits = bits
        self.nodes: list[_Series] = []
        self.zero = _Series(self, 0, lambda m: 0)
        self.one = _Series(self, 1 << bits, lambda m: 0)


class _Series:
    """A Taylor series in theta - theta0, computed lazily on a ``_Tape``.

    Arithmetic builds a node that computes its coefficient m from
    coefficients 0..m of its operands; one sweep over the tape in creation
    order then yields coefficient m of every node.  Coefficient 0 is computed
    at once, so ``abs`` gives the value at theta0, as ``jets.div_trunc``
    needs.  ``0 * x`` is the structural zero, the only series ``bool``
    reports as false, so ``jets.mul_trunc`` skips the terms that are zero by
    construction.
    """

    __slots__ = ("tape", "c", "next", "pows")

    def __init__(self, tape: _Tape, c0: int, next_coef: Callable[[int], int]):
        self.tape, self.c, self.next, self.pows = tape, [c0], next_coef, {}
        tape.nodes.append(self)

    def _node(self, next_coef: Callable[[int], int]) -> _Series:
        return _Series(self.tape, next_coef(0), next_coef)

    def __bool__(self) -> bool:
        return self is not self.tape.zero

    def __abs__(self) -> float:
        return math.ldexp(abs(self.c[0]), -self.tape.bits)

    def __add__(self, other: _Series) -> _Series:
        if not other:
            return self
        if not self:
            return other
        a, b = self.c, other.c
        return self._node(lambda m: a[m] + b[m])

    def __sub__(self, other: _Series) -> _Series:
        if not other:
            return self
        a, b = self.c, other.c
        return self._node(lambda m: a[m] - b[m])

    def __rmul__(self, k) -> _Series:
        """Multiplication by an int or a float, exact but for one rounding."""
        if k == 0 or not self:
            return self.tape.zero
        if k == 1:
            return self
        num, den = float(k).as_integer_ratio()
        shift, a = den.bit_length() - 1, self.c
        return self._node(lambda m: (num * a[m]) >> shift)

    def __mul__(self, other) -> _Series:
        if not isinstance(other, _Series):
            return self.__rmul__(other)
        if not self or not other:
            return self.tape.zero
        if other is self.tape.one:
            return self
        if self is self.tape.one:
            return other
        a, b, bits = self.c, other.c, self.tape.bits
        return self._node(lambda m: sum(map(operator.mul, a, reversed(b))) >> bits)

    def __truediv__(self, other: _Series) -> _Series:
        if not self:
            return self
        a, b, bits = self.c, other.c, self.tape.bits
        q: list[int] = []

        def coef(m: int) -> int:
            return ((a[m] << bits) - sum(map(operator.mul, b[1:], reversed(q)))) // b[0]

        node = self._node(coef)
        q = node.c
        return node

    def __pow__(self, n: int) -> _Series:
        if n == 0:
            return self.tape.one
        if n == 1:
            return self
        if n not in self.pows:
            self.pows[n] = self ** (n - 1) * self
        return self.pows[n]


def integrate_jet_extended(
    rhs: PolarRHS,
    theta1: float | None = None,
    order: int | None = None,
    dps: int = 30,
) -> tuple[list, IntegratorStats]:
    """Jet transport in arbitrary precision by the automatic Taylor method.

    Starts from the identity jet at theta = 0 and returns the list
    [nu_1(theta1), ..., nu_K(theta1)] as mpf numbers at ``dps`` digits,
    with the integrator work.  ``theta1`` defaults to 2*pi at working
    precision, and the last step lands on it exactly.

    Each step expands the solution in theta to order M (Jorba & Zou,
    Experimental Math. 14, 2005).  The jet right-hand side is built once on
    lazy Taylor series (``_Series``) of cos, sin and nu at the start of the
    step, and coefficient m + 1 of nu is coefficient m of the right-hand
    side divided by m + 1.  With the local tolerance tol = 10**-dps,
    M = ceil(-ln(tol) / 2 + 1), and the step h is the largest at which the
    last two terms, max_i |coefficient j of nu_i| * h**j for j = M - 1 and
    M, stay below tol.  All sums and products are exact on integer
    mantissas at one binary scale of ceil(dps * log2(10)) + 32 bits, with
    one rounding per coefficient.  That rounding is absolute, so h is also
    capped at 1, where h**j cannot magnify it.  ``n_rhs_evals`` counts the
    Taylor coefficients of the right-hand side: M per step.

    About 50 times slower than the double-precision path (eq325 field,
    K=7: 1.8 s at dps=30 against 34 ms at tol 1e-13 on a 2-core Xeon);
    meant for hierarchies that collapse below machine epsilon.
    """
    from mpmath import mp

    K = order if order is not None else default_order(rhs.field.p, rhs.field.q)
    with mp.workdps(dps):
        tol = mp.mpf(10) ** -dps
    log_tol = float(mp.log(tol))
    M = math.ceil(-log_tol / 2 + 1)
    bits = math.ceil(dps * math.log2(10)) + _GUARD_BITS

    def fixed(x) -> int:
        return int(mp.nint(mp.ldexp(x, bits)))

    with mp.workprec(bits + _GUARD_BITS):
        end = fixed(2 * mp.pi if theta1 is None else theta1)
    if end <= 0:
        raise ValueError(f"theta1={theta1!r} must be positive")
    state = [1 << bits] + [0] * (K - 1)
    theta = steps = 0
    while theta < end:
        tape = _Tape(bits)
        with mp.workprec(bits + _GUARD_BITS):
            c0, s0 = map(fixed, mp.cos_sin(mp.ldexp(theta, -bits)))
        cos_t = _Series(tape, c0, lambda m: -sin_t.c[m - 1] // m)
        sin_t = _Series(tape, s0, lambda m: cos_t.c[m - 1] // m)
        nu = [_Series(tape, y, None) for y in state]
        for n, f in zip(nu, _jet_rhs_coeffs(rhs, K, cos_t, sin_t, nu)):
            n.next = lambda m, f=f.c: f[m - 1] // m
        for m in range(1, M):
            for node in tape.nodes:
                node.c.append(node.next(m))
        for n in nu:
            n.c.append(n.next(M))
        log_h = 0.0
        for j in (M - 1, M):
            top = max(abs(n.c[j]) for n in nu)
            if top:
                log_h = min(log_h, (log_tol - math.log(top) + bits * math.log(2)) / j)
        step = min(int(math.ldexp(math.exp(log_h), bits)), end - theta)
        if step < 1:
            raise StiffnessError(f"Taylor step underflow at theta={math.ldexp(theta, -bits)!r}")
        state = [_horner(n.c, step, bits) for n in nu]
        tape.nodes.clear()  # nodes refer to their tape: free them now, not at a GC pass
        theta += step
        steps += 1
    with mp.workdps(dps):
        final = [mp.ldexp(mp.mpf(y), -bits) for y in state]
    return final, IntegratorStats(M * steps, steps, float(tol))


def _horner(c: Sequence[int], step: int, bits: int) -> int:
    """Fixed-point value of the polynomial with coefficients c at step."""
    acc = c[-1]
    for cj in reversed(c[:-1]):
        acc = ((acc * step) >> bits) + cj
    return acc
