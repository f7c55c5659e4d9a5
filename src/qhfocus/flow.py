"""Integration of the polar ODE and of Cartesian flows.

Three backends:

* jet transport: the radius ODE is integrated with the radius replaced by a
  truncated series in the initial radius h, carrying nu_1..nu_K in one
  error-controlled pass.  Its right-hand side is recorded once per solve as
  a straight-line program with two evaluators: a Python function of floats
  for DOP853, and a sweep in fixed-point Taylor coefficients for the
  extended-precision Taylor method;
* scalar: plain adaptive integration of dr/dtheta for the return map, of
  one radius or of an array of them as one vector solve;
* Cartesian: orbit integration with event-located crossings of the positive
  x-axis section.  It takes any callable (x, y) -> velocities, and serves as
  the independent reference for the polar return map of weighted fields.
  A weighted field's velocities are recorded once per field.

``jets.source`` writes every recorded program run on floats (the jet
right-hand side, the scalar polar one and a weighted field's Cartesian
one) as a Python function whose expressions nest each value read only
once into its reader: the same float operations, bitwise the same values.

The jet, one radius and the Cartesian section run DOP853 on lists of
floats, a step generated per state size under scipy's step control, the
section with ``solve_ivp``'s location of a terminal event.  Only the scalar
solve of several radii at once runs scipy's ``solve_ivp``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from . import jets
from .errors import NoReturnError, SingularDivisionError, StiffnessError, check_tol
from .fields import WeightedField, normalize
from .polar import PolarRHS

DEFAULT_TOL = 1e-12
# every DOP853 solve's rtol floor, which keeps the two drivers comparable
RTOL_FLOOR = 1e-13
_EVENT_XTOL = 4 * np.finfo(float).eps  # solve_ivp's event root tolerance


def default_order(p: int, q: int) -> int:
    """Jet order reaching three focal values in either parity class."""
    return 8 if (p + q) % 2 == 0 else 7


def nu1_closed_form(p: int, q: int, theta):
    """nu_1(theta) = (cos**(2q) + sin**(2p))**(-1/(2pq))."""
    c, s = np.cos(theta), np.sin(theta)
    return (c ** (2 * q) + s ** (2 * p)) ** (-1.0 / (2 * p * q))


def _jet_rhs_coeffs(rhs: PolarRHS, K: int, cos_t, sin_t, nu: Sequence) -> list:
    """d(nu)/dtheta for the c_1..c_K radius-jet coefficients, generic over the number type.

    Both precisions run it once per solve, on recording variables.  The
    radius jet r = nu_1 h + ... + nu_K h**K has valuation 1, so r**k starts
    at h**k: each power is summed from there, in the term order of
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


def _record_jet_rhs(rhs: PolarRHS, K: int) -> tuple[list[tuple], list[str]]:
    """``_jet_rhs_coeffs`` at order K as lines ``(dest, op, a, b)``, and its output names.

    Inputs are c, s (cos and sin of theta), y0..y<K-1> (nu) and z."""
    program, out = jets.record(lambda c, s, *nu: _jet_rhs_coeffs(rhs, K, c, s, nu),
                               "c", "s", *(f"y{i}" for i in range(K)))
    return program, [v.name for v in out]


def _compile_jet_rhs(rhs: PolarRHS, K: int) -> Callable:
    """``_jet_rhs_coeffs`` on floats at order K, as one straight-line function f(theta, y).

    f runs the recorded program as ``jets.source`` writes it, so it does the
    same float operations on the same operands (a product's factors may be
    swapped, which floats do not notice) and returns bitwise equal values.
    ``jets.mul_trunc`` starts each output at 0 * nu_1, an add the zero fold
    drops: f adds it last, which gives a zero output its sign on floats.  A
    guard that holds raises as ``jets.div_trunc`` does.
    """
    program, out = _record_jet_rhs(rhs, K)
    lines = [f"{', '.join(f'y{i}' for i in range(K))}, = y",
             "c, s, z = cos(theta), sin(theta), 0 * y0", *jets.source(program, out),
             f"return [{', '.join(v + ' + z' for v in out)}]"]
    return jets.function("theta, y", lines, cos=math.cos, sin=math.sin)


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
    takes the same steps; a step's end reads its end state, ``final`` at 2*pi.
    """

    order: int
    stats: IntegratorStats
    final: np.ndarray
    _dense_solve: Callable[[], list]
    _steps: list | None = None  # (theta, theta_new, y, y_new, interpolant rows) per step

    def at(self, theta: float) -> np.ndarray:
        """The radius-jet coefficients [nu_1(theta), ..., nu_K(theta)], 0 <= theta <= 2*pi."""
        if not 0.0 <= theta <= 2 * np.pi:
            raise ValueError(f"theta={theta!r} lies outside the solved turn [0, 2*pi]")
        self._steps = self._steps or self._dense_solve()
        t, t_new, y, y_new, F = next(st for st in self._steps if theta <= st[1])
        return np.array(y_new if theta == t_new else _interpolate(t, t_new, y, F, theta))


# -- DOP853 on lists of floats --------------------------------------------------


@lru_cache
def _dop853_code(n: int, dense: bool = False) -> Callable:
    """scipy's DOP853 pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as code for n states.

    ``step(fun, t, h, y, f, rtol, atol)`` returns y_new, fun(t + h, y_new), the
    sums of squared E5 and E3 errors over atol + max(|y|, |y_new|) * rtol and
    the 13 stages; ``dense(fun, t, h, y, y_new, stages)`` the interpolant's rows,
    compiled only when asked for.  A sum runs in stage order, skipping zeros."""
    lin = lambda coefs, i: " + ".join(f"{float(a)!r} * k{s}_{i}" for s, a in enumerate(coefs) if a)
    vec = lambda term: ", ".join(map(term, range(n)))
    ks = lambda s: vec(lambda i: f"k{s}_{i}") + f", = k{s}"

    def stage(s: int, a, c) -> str:
        args = vec(lambda i: f"y{i} + ({lin(a[:s], i)}) * h")
        return f"{ks(s)} = fun(t + {float(c)!r} * h, [{args}])"

    D, ys, ns = DOP853, vec(lambda i: f"y{i}"), vec(lambda i: f"n{i}")
    step = [f"{ys}, = y", f"{ks(0)} = f", *(stage(s, D.A[s], D.C[s]) for s in range(1, 12))]
    step += [f"n{i} = y{i} + h * ({lin(D.B, i)})" for i in range(n)]
    step += [f"{ks(12)} = fun(t + h, [{ns}])"]
    step += [f"w = atol + max(abs(y{i}), abs(n{i})) * rtol; e{i} = ({lin(D.E5, i)}) / w; "
             f"g{i} = ({lin(D.E3, i)}) / w" for i in range(n)]
    sq = lambda v: " + ".join(f"{v}{i} * {v}{i}" for i in range(n))
    step += [f"return [{ns}], k12, {sq('e')}, {sq('g')}, ({', '.join(f'k{s}' for s in range(13))})"]
    extra = [f"{ys}, = y", f"{ns}, = y_new", *(f"{ks(s)} = k[{s}]" for s in range(13))]
    extra += [stage(s, a, c) for s, a, c in zip(range(13, 16), D.A_EXTRA, D.C_EXTRA)]
    rows = [vec(lambda i: f"n{i} - y{i}"), vec(lambda i: f"h * k0_{i} - (n{i} - y{i})"),
            vec(lambda i: f"2 * (n{i} - y{i}) - h * (k12_{i} + k0_{i})"),
            *(vec(lambda i: f"h * ({lin(d, i)})") for d in D.D)]
    extra += [f"return [{', '.join(f'[{r}]' for r in rows)}]"]
    head = "dense(fun, t, h, y, y_new, k)" if dense else "step(fun, t, h, y, f, rtol, atol)"
    scope: dict = {}
    exec(f"def {head}:\n    " + "\n    ".join(extra if dense else step), scope)
    return scope["dense" if dense else "step"]


def _interpolate(t: float, t_new: float, y: list, F: list, at: float) -> list:
    """DOP853's interpolant with rows F on the step [t, t_new], at ``at``, in scipy's order."""
    x, out = (at - t) / (t_new - t), []
    for i, yi in enumerate(y):  # as scipy's Dop853DenseOutput, one component at a time
        acc = 0.0
        for j, row in enumerate(reversed(F)):
            acc = (acc + row[i]) * (1 - x if j % 2 else x)
        out.append(acc + yi)
    return out


def _dop853_floats(fun, t1: float, y: list, tol: float, atol: float, what: str, dense=False,
                   t0: float = 0.0, event=None):
    """DOP853 on a list of floats from t0 to t1 of either direction, at rtol max(tol, RTOL_FLOOR).

    scipy's step control, hence scipy's steps and nfev (2 + 12 per attempted
    step).  ``event`` = (g, direction) is a terminal event located as
    ``solve_ivp`` locates one: after each step, the sign test of
    ``find_active_events`` on g(t, y); on a hit, ``brentq`` at xtol = rtol =
    4 eps on g along the step's dense interpolant (3 more evaluations), whose
    value at the root is the end state.  Returns the end time (t1 or the
    event's root), the end state, nfev and the steps: their number, or with
    ``dense`` the steps for ``JetTrajectory``."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"{what}: the span ({t0!r}, {t1!r}) must be finite")
    if not all(map(math.isfinite, y)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    rtol, n = max(tol, RTOL_FLOOR), len(y)
    step, extra = _dop853_code(n), (_dop853_code(n, True) if dense or event else None)
    direction = 1.0 if t1 > t0 else -1.0
    # scipy's select_initial_step, for the error estimator of order 7
    scale = [atol + abs(v) * rtol for v in y]
    rms = lambda x: math.sqrt(sum((v / w) * (v / w) for v, w in zip(x, scale))) / n**0.5
    f = fun(t0, y)
    d0, d1 = rms(y), rms(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t1 - t0))
    f1 = fun(t0 + h0 * direction, [v + h0 * direction * g for v, g in zip(y, f)])
    d2 = rms([b - a for a, b in zip(f, f1)]) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs, t, nfev, steps = min(100 * h0, h1, abs(t1 - t0)), t0, 2, []
    if event is not None:
        g, g_dir = event
        g_old = g(t0, y)
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:  # scipy's RungeKutta._step_impl, with its SAFETY, MIN_ and MAX_FACTOR
            if h_abs < min_step:
                raise StiffnessError(
                    f"{what} failed: Required step size is less than spacing between numbers.")
            t_new = t1 if direction * (t + h_abs * direction - t1) > 0 else t + h_abs * direction
            h_abs = abs(h := t_new - t)
            y_new, f_new, s5, s3, k = step(fun, t, h, y, f, rtol, atol)
            nfev += 12
            err = h_abs * s5 / math.sqrt((s5 + 0.01 * s3) * n) if s5 or s3 else 0.0
            if err < 1:
                factor = min(10.0, 0.9 * err ** -0.125) if err else 10.0
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * err ** -0.125), True
        steps.append((t, t_new, y, y_new, extra(fun, t, h, y, y_new, k)) if dense else None)
        if event is not None:
            g_new = g(t_new, y_new)
            up, down = g_old <= 0 <= g_new, g_new <= 0 <= g_old
            if up and g_dir >= 0 or down and g_dir <= 0:
                sol = partial(_interpolate, t, t_new, y, extra(fun, t, h, y, y_new, k))
                t = brentq(lambda s: g(s, sol(s)), t, t_new, xtol=_EVENT_XTOL, rtol=_EVENT_XTOL)
                y, nfev = sol(t), nfev + 3
                break
            g_old = g_new
        t, y, f = t_new, y_new, f_new
    return t, y, nfev, steps if dense else len(steps)


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

    solve = partial(_dop853_floats, _compile_jet_rhs(rhs, K), 2 * np.pi, y0.tolist(), tol, tol,
                    "jet integration")
    _, final, nfev, steps = solve()
    stats = IntegratorStats(nfev, steps, max(tol, RTOL_FLOOR))
    return JetTrajectory(K, stats, np.array(final), lambda: solve(dense=True)[3])


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
    if not abs(theta1) < 4 * np.pi:
        raise ValueError(f"theta span must be finite and below 4*pi, got {theta1!r}")
    check_tol(tol)
    lanes = np.ravel(h)
    rhs.check_radius(max(lanes.tolist(), key=abs))
    if theta1 == 0:
        return h
    if lanes.size == 1:
        _, (r,), *_ = _dop853_floats(lambda t, y: [rhs(t, y[0])], theta1, [float(lanes[0])],
                                     tol, tol, "scalar integration")
        return r if np.ndim(h) == 0 else np.array([r])
    # scipy's error norm is the RMS over the B lanes, so one lane may carry
    # sqrt(B) times the error accepted: atol = tol / sqrt(B) keeps each lane's
    # absolute bound at tol, as for one radius.  rtol stays max(tol,
    # RTOL_FLOOR), the floor at the scans' usual tol 1e-13
    sol = solve_ivp(rhs, (0.0, theta1), lanes, method="DOP853", rtol=max(tol, RTOL_FLOOR),
                    atol=tol / math.sqrt(lanes.size))
    if not sol.success:
        raise StiffnessError(f"scalar integration failed: {sol.message}")
    return sol.y[:, -1]


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
    stats: IntegratorStats  # summed over the solves that reached the crossing


_period_rhs = lru_cache(maxsize=64)(PolarRHS)  # once per field: a damped one checks 720 angles


@lru_cache(maxsize=64)
def _cartesian_rhs(field: WeightedField) -> Callable:
    """``field(x, y)`` recorded once per field as f(t, [x, y]) -> (dx/dt, dy/dt), bitwise equal.

    The recorder may swap a product's factors, which floats do not notice."""
    program, (u, v) = jets.record(field, "x", "y")
    lines = ["x, y = z", *jets.source(program, (u.name, v.name)), f"return {u.name}, {v.name}"]
    return jets.function("t, z", lines)


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
    _, Q = _period_rhs(field).components(c, s)
    den = sum(Qk * r**k for k, Qk in enumerate(Q))
    acc = np.sum((p * c**2 + q * s**2) / (r ** (2 * p * q - p - q) * den))
    return float(acc * 2 * np.pi / n)


def section_return(
    cartesian_field: Callable[[float, float], tuple[float, float]],
    x0: float,
    tol: float = DEFAULT_TOL,
) -> SectionCrossing:
    """Next same-direction crossing of {y = 0, x > 0} starting from (x0, 0).

    The time cap is 20 estimated periods for a weighted field, else 1e6.  A
    weighted field runs as its velocities recorded once per field, which
    gives bitwise the values of calling it.
    """
    if not 0 < x0 < math.inf:
        raise ValueError(f"section_return starts on the positive x-axis, got x0={x0!r}")
    check_tol(tol)
    if isinstance(cartesian_field, WeightedField):
        # the period is estimated in normalized coordinates and mapped back
        n = normalize(cartesian_field)
        h = (x0 / n.scale_x) ** (1.0 / cartesian_field.p)
        t_max = 20.0 * n.time_scale * estimate_period(n.field, h)
        fun = _cartesian_rhs(cartesian_field)
    else:
        t_max, fun = 1e6, lambda t, z: cartesian_field(*z)
    _, v0 = fun(0.0, [x0, 0.0])
    if v0 == 0.0:
        raise NoReturnError("orbit starts at an equilibrium of the section")
    direction = 1 if v0 > 0 else -1
    solve = partial(_dop853_floats, fun, tol=tol,
                    atol=tol * min(1.0, x0), what="Cartesian integration")
    # a start (or restart) point lies exactly on the section and would fire
    # the terminal event at time zero; a short event-free pre-step moves off
    # the section first, then the solver stops at the next true crossing
    dt_pre = 1e-6 * abs(x0 / v0)
    t, state, nfev, steps = 0.0, [x0, 0.0], 0, 0
    while t < t_max:
        t, state, n_pre, s_pre = solve(t + dt_pre, state, t0=t)
        t, state, n_run, s_run = solve(t_max, state, t0=t, event=(lambda t, z: z[1], direction))
        nfev, steps = nfev + n_pre + n_run, steps + s_pre + s_run
        if t < t_max and state[0] > 0:
            stats = IntegratorStats(nfev, steps, max(tol, RTOL_FLOOR))
            return SectionCrossing(state[0], state[1], t, direction, stats)
        # no crossing by t_max, or a same-direction one on the wrong half-axis: resume past it
    raise NoReturnError(
        f"no same-direction section crossing within t_max={t_max!r}"
    )


# -- extended precision --------------------------------------------------------

_GUARD_BITS = 32


def _taylor_rule(op: str, d: list, a, b, bits: int) -> Callable[[int], None]:
    """The rule appending coefficient m of d = a op b, on fixed-point Taylor coefficients.

    a and b are lists holding coefficients 0..m, but a product's a may be a
    float factor and a guard |a| < b has a float bound b: a guard appends
    nothing and is checked on coefficient 0."""
    app = d.append
    if op == "+":
        return lambda m: app(a[m] + b[m])
    if op == "-":
        return lambda m: app(a[m] - b[m])
    if op == "/":
        return lambda m: app(((a[m] << bits) - sum(map(operator.mul, b[1:], reversed(d)))) // b[0])
    if op == "abs<":
        def guard(m):
            if m == 0 and math.ldexp(abs(a[0]), -bits) < b:
                raise SingularDivisionError(jets.VANISHING)
        return guard
    if isinstance(a, float):  # a constant factor, exact but for one rounding
        num, den = a.as_integer_ratio()
        shift = den.bit_length() - 1
        return lambda m: app((num * b[m]) >> shift)
    return lambda m: app(sum(map(operator.mul, a, reversed(b))) >> bits)


def _taylor_program(rhs: PolarRHS, K: int, bits: int) -> tuple[list[list], list[Callable]]:
    """The recorded jet right-hand side as rules on Taylor series in theta - theta0.

    Coefficients are fixed-point integers: c stands for c / 2**bits.  Returns
    the coefficient lists, led by those of c, s, z, one and nu that a step
    seeds with coefficient 0, and the rules.  Calling each rule in order with
    m = 0, 1, ... appends coefficient m of every line, then coefficient m + 1
    of c, s, z, one and nu: c' = -s, s' = c, and nu_i' is output i."""
    program, out = _record_jet_rhs(rhs, K)
    coef = {name: [] for name in ["c", "s", "z", "one", *(f"y{i}" for i in range(K))]}
    lists, rules = list(coef.values()), []
    pows: dict[str, list[list]] = {}  # x**0, x**1, ... per base, each power x**(n-1) * x

    def line(op: str, a, b) -> list:
        d = []
        lists.append(d)
        rules.append(_taylor_rule(op, d, a, b, bits))
        return d

    for dest, op, a, b in program:
        if op == "**":
            chain = pows.setdefault(a, [coef["one"], coef[a]])
            while len(chain) <= b:
                chain.append(line("*", chain[-1], chain[1]))
            coef[dest] = chain[int(b)]
        else:  # a guard's dest is None, and its list stays empty
            coef[dest] = line(op, *(x if isinstance(x, float) else coef[x] for x in (a, b)))
    c, s, z, one, *nu = lists[: K + 4]
    rules += [lambda m: c.append(-s[m] // (m + 1)), lambda m: s.append(c[m] // (m + 1))]
    rules += [lambda m, k=k: k.append(0) for k in (z, one)]
    rules += [lambda m, n=n, f=coef[o]: n.append(f[m] // (m + 1)) for n, o in zip(nu, out)]
    return lists, rules


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
    Experimental Math. 14, 2005) by sweeping the recorded jet right-hand
    side in Taylor coefficients (``_taylor_program``).  With the local
    tolerance tol = 10**-dps, M = ceil(-ln(tol) / 2 + 1), and the step h is
    the largest at which the last two terms, max_i |coefficient j of nu_i|
    * h**j for j = M - 1 and M, stay below tol.  All sums and products are
    exact on integer mantissas at one binary scale of ceil(dps * log2(10))
    + 32 bits, with one rounding per coefficient.  That rounding is
    absolute, so h is also capped at 1, where h**j cannot magnify it.
    ``n_rhs_evals`` counts the Taylor coefficients of the right-hand side:
    M per step.

    About 110 times slower than the double-precision path (eq325 field, K=7:
    1.7 s at dps=30 against 15 ms at tol 1e-13 on a 2-core Xeon); meant for
    hierarchies that collapse below machine epsilon.
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
    lists, rules = _taylor_program(rhs, K, bits)
    nu = lists[4 : K + 4]
    state = [1 << bits] + [0] * (K - 1)
    theta = steps = 0
    while theta < end:
        with mp.workprec(bits + _GUARD_BITS):
            c0, s0 = map(fixed, mp.cos_sin(mp.ldexp(theta, -bits)))
        for coefs in lists:
            coefs.clear()
        for coefs, x0 in zip(lists, (c0, s0, 0, 1 << bits, *state)):
            coefs.append(x0)
        for m in range(M):
            for rule in rules:
                rule(m)
        log_h = 0.0
        for j in (M - 1, M):
            top = max(abs(n[j]) for n in nu)
            if top:
                log_h = min(log_h, (log_tol - math.log(top) + bits * math.log(2)) / j)
        step = min(int(math.ldexp(math.exp(log_h), bits)), end - theta)
        if step < 1:
            raise StiffnessError(f"Taylor step underflow at theta={math.ldexp(theta, -bits)!r}")
        state = [_horner(n, step, bits) for n in nu]
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
