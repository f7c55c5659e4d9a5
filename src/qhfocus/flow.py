"""Integration of the polar ODE and of Cartesian flows.

Three backends:

* jet transport: the radius ODE with the radius replaced by a truncated
  series in the initial radius h, whose coefficients nu_1..nu_K give the
  focal values.  The jet ODE is triangular, so in double precision
  ``integrate_jet`` takes the levels as K - 1 successive spectral
  quadratures on Chebyshev panels (``spectral``), each to its own relative
  accuracy; the integrands come from one staged program per order and
  pattern of zero components (``_staged_levels``), run on arrays of
  nodes.  The extended-precision Taylor method records the components
  once per solve, takes their Taylor series from their Fourier
  coefficients and their values from the recording in fixed point, and
  sweeps only the jet lines of ``_jet_coeffs``, recorded once per solve,
  in fixed-point Taylor coefficients;
* return map: ``return_map``, r~(2*pi, h) over a full turn, by Newton's
  method for log(r/h) on the same Chebyshev panels, with radii as lanes
  (the tests check the flow identities on partial turns);
* Cartesian: orbit integration with event-located crossings of the positive
  x-axis section.  It takes any callable (x, y) -> velocities, and serves as
  the independent reference for the polar return map of weighted fields.
  A weighted field's velocities are recorded once per field, and
  ``dop853.solve`` runs those lines in the stages of its kernel.

The polar chart runs on panels only, and the Cartesian section on
``dop853.solve``'s generated kernel on floats, bitwise as ``solve_ivp``
takes its steps.
So no path imports ``scipy.integrate`` or ``scipy.optimize``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from . import dop853, jets, spectral
from .errors import (NoReturnError, PolarChartError, QuadratureError, SingularDivisionError,
                     StiffnessError, check_tol)
from .fields import WeightedField, normalize
from .polar import DENOM_FLOOR, PolarRHS

DEFAULT_TOL = 1e-12


def default_order(p: int, q: int) -> int:
    """Jet order reaching three focal values in either parity class."""
    return 8 if (p + q) % 2 == 0 else 7


def nu1_closed_form(p: int, q: int, theta):
    """nu_1(theta) = (cos**(2q) + sin**(2p))**(-1/(2pq))."""
    c, s = np.cos(theta), np.sin(theta)
    return (c ** (2 * q) + s ** (2 * p)) ** (-1.0 / (2 * p * q))


def _jet_coeffs(R: Sequence, Q: Sequence, K: int, nu: Sequence) -> list:
    """d(nu)/dtheta for the c_1..c_K radius-jet coefficients, from the components R_0..R_k,
    Q_0..Q_k at the angle, generic over the number type.

    The radius jet r = nu_1 h + ... + nu_K h**K has valuation 1, so r**k
    starts at h**k.  Level k reads r**k = ``jets.mul_trunc(r**(k-1), r)``,
    formed there, so no power above the last level is formed.
    """
    n = K + 1
    zero = 0 * nu[0]
    r = rk = [zero, *nu]
    num, den = [R[0]] + [zero] * K, [Q[0]] + [zero] * K
    for k in range(1, min(len(R), n)):  # levels k > K multiply r**k, which starts beyond h**K
        rk = rk if k == 1 else jets.mul_trunc(rk, r, n)
        for i in range(k, n):
            num[i] = num[i] + R[k] * rk[i]
            den[i] = den[i] + Q[k] * rk[i]
    quot = jets.div_trunc(num, den, n)
    return jets.mul_trunc(r, quot, n)[1:]


def _component_names(zero: tuple[bool, ...]) -> list[str]:
    """R0..R<k>, Q0..Q<k> as recording inputs, with z for each entry ``zero`` flags."""
    n = len(zero) // 2
    return ["z" if zr else f"{'RQ'[i // n]}{i % n}" for i, zr in enumerate(zero)]


def _staged_recording(K: int, zero: tuple[bool, ...]) -> tuple[list[str], list[tuple], list[str]]:
    """The recording behind ``_staged_levels``: its inputs, its lines and the names of P_2..P_K.

    Level k of the jet ODE is nu_k' = (R_0/Q_0) nu_k + P_k(theta; nu_1..nu_(k-1)).
    One recording holds K - 1 calls of ``_jet_coeffs``: call k runs at order
    k with nu_k the structural zero z, so its output k is P_k (the zero fold
    drops the nu_k term), and the calls share their common lines.  The
    inputs are R_0..R_k, Q_0..Q_k, z where ``zero`` flags one as zero, and
    y0..y<K-2> (nu_1..nu_(K-1)).
    """
    n, inputs = len(zero) // 2, _component_names(zero)

    def levels(*x):
        R, Q, nu = x[:n], x[n : 2 * n], x[2 * n :]
        z = 0 * nu[0]
        return [_jet_coeffs(R, Q, k, [*nu[: k - 1], z])[k - 1] for k in range(2, K + 1)]

    program, out = jets.record(levels, *inputs, *(f"y{i}" for i in range(K - 1)))
    return inputs, program, [v.name for v in out]


@lru_cache(maxsize=64)
def _staged_levels(K: int, zero: tuple[bool, ...]) -> Callable:
    """P_2..P_K of ``_staged_recording`` as one generator, compiled once per shape.

    The generator f(<the components that ``zero`` does not flag>, y0) runs
    on arrays of nodes: it yields P_2 and is sent nu_2, ..., and yields P_K.
    A line runs once, right after the last nu it reads is sent, and each
    array is dropped after its last read, so a sweep holds only the live
    ones.  The recorded guards, |Q_0| < tiny (every division of
    ``jets.div_trunc`` is by Q_0), are left to the caller, which checks Q_0
    on all nodes at once.
    """
    inputs, program, out = _staged_recording(K, zero)
    stage, stages = {f"y{s}": s for s in range(K - 1)}, [[] for _ in out]
    for line in program:
        if line[0] is not None:
            reads = [x for x in line[2:] if isinstance(x, str)]
            stage[line[0]] = max((stage.get(x, 0) for x in reads), default=0)
            stages[stage[line[0]]].append((line, reads))
    # one statement per line, as every name is kept, and the names each one reads
    body = []
    for s, part in enumerate(stages):
        lines = [line for line, _ in part]
        body += zip(jets.source(lines, [line[0] for line in lines]), (reads for _, reads in part))
        # + z, +0.0 as nu_1 > 0: _jet_coeffs's float sums start at 0.0, the recorded ones not
        body.append((f"y{s + 1} = " * (s + 2 < K) + f"yield {out[s]} + z", [out[s], "z"]))
    dead = [[] for _ in body]
    for name, i in {x: i for i, (_, reads) in enumerate(body) for x in reads}.items():
        dead[i].append(name)
    lines = ["z = 0 * y0"]
    for (statement, _), names in zip(body, dead):
        lines += [statement] + [f"del {', '.join(names)}"] * bool(names)
    return jets.function(", ".join([x for x in inputs if x != "z"] + ["y0"]), lines)


@dataclass
class IntegratorStats:
    n_rhs_evals: int
    n_steps: int
    tol: float  # the tolerance the solver ran at


def _check_positive_ints(**values) -> None:
    """The one rule for the jet order and the digits of both jet solves."""
    for name, value in values.items():
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class JetTrajectory:
    """nu_1..nu_K over one turn by successive quadrature, on the accepted panels.

    ``error`` holds the estimate of each of nu_2(2*pi)..nu_K(2*pi), and
    ``stats`` the nodes of the staged program evaluated over every panel set
    tried, the accepted panels and the relative tolerance."""

    order: int
    stats: IntegratorStats
    final: np.ndarray
    error: np.ndarray
    panels: spectral.Panels
    on_nodes: np.ndarray  # nu_1..nu_K on the accepted panels' nodes, one row per level

    def at(self, theta) -> np.ndarray:
        """[nu_1(theta), ..., nu_K(theta)], 0 <= theta <= 2*pi, from the panel interpolants."""
        return self.panels.interpolate(self.on_nodes, theta)


def integrate_jet(rhs: PolarRHS, tol: float = DEFAULT_TOL,
                  order: int | None = None) -> JetTrajectory:
    """The radius jet over one turn as K - 1 successive quadratures, from the identity jet.

    nu_1 = exp(int R_0/Q_0), and level k, nu_k' = (R_0/Q_0) nu_k + P_k, is
    nu_k = nu_1 int P_k/nu_1 by variation of constants: every integrand is
    analytic and periodic, since Q_0 > 0 on the circle.  Each sweep of
    ``spectral.refine`` evaluates ``rhs.components`` once on the nodes of its
    panel sets, as arrays, and the staged program of ``_staged_levels`` once,
    sending each nu_k as it is integrated, set by set; the first sweep takes
    8 and 16 panels together, so a field that settles at 16 panels is one
    sweep.  ``refine`` doubles the panels until every level settles to
    ``dop853.effective_rtol(tol)`` times max(1, max_k |nu_k(2*pi)|).  Q_0
    at or below tiny on a node raises as ``jets.div_trunc`` does.
    """
    check_tol(tol)
    K = order if order is not None else default_order(rhs.field.p, rhs.field.q)
    _check_positive_ints(order=K)

    def sweep(sets: spectral.PanelSets) -> list[tuple[np.ndarray, np.ndarray]]:
        R, Q = rhs.components(*sets.nodes[1:])
        if not Q[0].min() > jets.TINY:
            raise SingularDivisionError(jets.VANISHING)
        # the shape: the components that vanish on every node, as the structurally zero ones do
        zero = tuple(not x.any() for x in R + Q)
        log_nu1, total = sets.integrate(R[0] / Q[0])
        nu = [np.exp(log_nu1)]
        final = [np.array([math.exp(t) for t in total])]
        if K > 1:  # P_2..P_K; nu_1 alone needs none
            program = _staged_levels(K, zero)(*(x for x, zr in zip(R + Q, zero) if not zr), nu[0])
        for k in range(2, K + 1):
            P = next(program) if k == 2 else program.send(nu[-1])
            lift, total = sets.integrate(P / nu[0])
            nu.append(nu[0] * lift)
            final.append(final[0] * total)
        return list(zip(np.stack(final, axis=1), sets.split(np.array(nu))))

    panels, final, error, on_nodes, evals = spectral.refine(
        sweep, dop853.effective_rtol(tol), [f"nu_{k}" for k in range(1, K + 1)])
    stats = IntegratorStats(evals, panels.count, dop853.effective_rtol(tol))
    return JetTrajectory(K, stats, final, error[1:], panels, on_nodes)


_LANES = 8  # radii per sweep: a sweep holds a few arrays of _LANES x nodes at once


def return_map(rhs: PolarRHS, h, tol: float = DEFAULT_TOL):
    """r~(2*pi, h): one full turn of the polar flow started at (0, h).

    The successive function is Delta(h) = return_map(rhs, h) - h.  ``h`` is
    one radius, giving a float, or a 1-D array of radii, giving an array.
    w = log(r/h) solves w = int g, g = num/den, num = sum R_k r**k, den =
    sum Q_k r**k at r = h e**w, on Chebyshev panels with up to _LANES radii
    as lanes.  A sweep of ``spectral.refine`` evaluates ``rhs.components``
    once on its nodes, and Newton's method runs from w = 0 over the turn of
    each panel set (``run``).  Delta = h expm1(int_0^2pi g) settles, as
    ``refine`` doubles the panels, to ``dop853.effective_rtol(tol)``
    max(1, |Delta|).
    """
    check_tol(tol)
    if np.ndim(h) > 1:
        raise ValueError(f"h must be one radius or a 1-D array of radii, got shape {np.shape(h)}")
    radii = np.ravel(h).astype(float)
    if not (radii.size and np.isfinite(radii).all()):
        raise ValueError(f"h must hold one or more radii, all finite, got {h!r}")
    rhs.check_radius(max(radii.tolist(), key=abs))

    def run(panels: spectral.Panels, RQ: tuple, h: np.ndarray, w0: np.ndarray, lo: int, hi: int):
        """w at the end of panels lo..hi-1 from w0 at their start: RQ, the lists R_0..R_k and
        Q_0..Q_k on the nodes of ``panels``, sliced to those panels, then Newton steps gap + E
        int a gap/E from w = w0, with a = dg/dw = r (num' - g den')/den, gap = w0 + int g - w
        and E = exp(int a), until none exceeds 1e-15 max(1, |w|).  Where they leave the chart
        (non-finite, or den <= DENOM_FLOOR) or do not settle in 32 steps, the halves run in
        turn; on one panel PolarChartError."""
        R, Q = ([x[lo * spectral.N : hi * spectral.N] for x in part] for part in RQ)
        w = w0 + 0 * R[0]
        with np.errstate(all="ignore"):  # a non-finite iterate is off the chart
            for _ in range(32):  # Newton steps: 3 to 5 on most turns tried, 23 at most
                r = h * np.exp(w)
                num, den, dnum, dden = R[-1] + 0 * r, Q[-1] + 0 * r, 0 * r, 0 * r
                for Rk, Qk in zip(R[-2::-1], Q[-2::-1]):  # Horner, with the r-derivatives
                    dnum, dden = dnum * r + num, dden * r + den
                    num, den = num * r + Rk, den * r + Qk
                if (off := ~(np.isfinite(r) & (den > DENOM_FLOOR)).all(axis=1)).any():
                    break
                g = num / den
                W, total = panels.integrate(g)
                gap, a = w0 + W - w, r * (dnum - g * dden) / den
                E = np.exp(panels.integrate(a)[0])
                w = w + (step := gap + E * panels.integrate(a * gap / E)[0])
                if not (off := ~(abs(step).max(axis=1) <= 1e-15 * max(1.0, abs(w).max()))).any():
                    return w0 + total[:, None]
        if hi - lo > 1:
            mid = (lo + hi) // 2
            return run(panels, RQ, h, run(panels, RQ, h, w0, lo, mid), mid, hi)
        raise PolarChartError(f"polar chart breakdown: Newton's method on the turn from "
                              f"r={h[off, 0].tolist()} left the chart or did not settle")

    def sweep(sets: spectral.PanelSets, h: np.ndarray):
        R, Q = (zip(*map(sets.split, x)) for x in rhs.components(*sets.nodes[1:]))
        for panels, RQ in zip(sets, zip(R, Q)):
            yield h[:, 0] * np.expm1(run(panels, RQ, h, 0 * h, 0, panels.count)[:, 0]), None

    rtol, delta = dop853.effective_rtol(tol), []
    for chunk in np.split(radii, range(_LANES, radii.size, _LANES)):
        delta += spectral.refine(partial(sweep, h=chunk[:, None]), rtol,
                                 [f"Delta({x!r})" for x in chunk.tolist()])[1].tolist()
    r = radii + delta
    return float(r[0]) if np.ndim(h) == 0 else r


# -- Cartesian flows and the positive x-axis section ---------------------------


@dataclass(frozen=True)
class SectionCrossing:
    x: float
    y: float
    time: float
    direction: int
    stats: IntegratorStats  # summed over the solves that reached the crossing


@lru_cache(maxsize=64)
def _cartesian_rhs(field: WeightedField) -> Callable:
    """``field(x, y)`` recorded once per field as f(t, [x, y]) -> (dx/dt, dy/dt), bitwise equal.

    Its ``velocities``, the recorded lines, are what ``dop853.solve``'s stages
    run.  The recorder may swap a product's factors, which floats do not notice."""
    program, (u, v) = jets.record(field, "x", "y")
    outputs = u.name, v.name
    lines = tuple(jets.source(program, outputs))
    fun = jets.function("t, z", ["x, y = z", *lines, f"return {u.name}, {v.name}"])
    fun.velocities = ("x", "y"), lines, outputs
    return fun


_PERIOD_ANGLES = 256


@lru_cache(maxsize=64)
def _period_model(field: WeightedField) -> tuple[np.ndarray, list, np.ndarray, float, float]:
    """The parts of ``estimate_period`` that do not depend on h, once per field.

    nu_1 of the leading part, Q_0..Q_k of the normalized field and
    p cos^2 + q sin^2 on the angles, then the normalization's scale_x and
    time_scale; a damped field's ``PolarRHS`` checks Q_0 on 720 angles when
    it is built."""
    p, q = field.p, field.q
    thetas = np.linspace(0.0, 2 * np.pi, _PERIOD_ANGLES, endpoint=False)
    c, s = np.cos(thetas), np.sin(thetas)
    n = normalize(field)
    _, Q = PolarRHS(n.field).components(c, s)
    return nu1_closed_form(p, q, thetas), Q, p * c**2 + q * s**2, n.scale_x, n.time_scale


def estimate_period(field: WeightedField, h: float) -> float:
    """Cartesian period of one polar revolution at radius ~ h via quadrature, in normalized time.

    Uses dtheta/dt = r**(2pq-p-q) * sum Q_k r**k / (p cos^2 + q sin^2) along
    the orbit r = h * nu_1(theta) of the leading part, on 256 angles.
    """
    p, q = field.p, field.q
    nu1, Q, weight, *_ = _period_model(field)
    r = h * nu1
    den = sum(Qk * r**k for k, Qk in enumerate(Q))
    acc = np.sum(weight / (r ** (2 * p * q - p - q) * den))
    return float(acc * 2 * np.pi / _PERIOD_ANGLES)


def section_return(
    cartesian_field: Callable[[float, float], tuple[float, float]],
    x0: float,
    tol: float = DEFAULT_TOL,
) -> SectionCrossing:
    """Next same-direction crossing of {y = 0, x > 0} starting from (x0, 0).

    The time cap is 20 estimated periods for a weighted field, else 1e6.  A
    weighted field runs as its velocities recorded once per field, which
    gives bitwise the values of calling it; ``dop853.solve``'s kernel runs the
    recorded lines in its stages, and calls the compiled field only outside
    its step loop.  That kernel is compiled once per field, which pays where
    one field makes many section returns, as a scan does.  NoReturnError
    where the pre-step off the section rounds away, t + dt == t.
    """
    if not 0 < x0 < math.inf:
        raise ValueError(f"section_return starts on the positive x-axis, got x0={x0!r}")
    check_tol(tol)
    if isinstance(cartesian_field, WeightedField):
        # the period is estimated in normalized coordinates and mapped back
        *_, scale_x, time_scale = _period_model(cartesian_field)
        h = (x0 / scale_x) ** (1.0 / cartesian_field.p)
        t_max = 20.0 * time_scale * estimate_period(cartesian_field, h)
        fun = _cartesian_rhs(cartesian_field)
    else:
        t_max, fun = 1e6, lambda t, z: cartesian_field(*z)
    _, v0 = fun(0.0, [x0, 0.0])
    if v0 == 0.0:
        raise NoReturnError("orbit starts at an equilibrium of the section")
    direction = 1 if v0 > 0 else -1
    solve = partial(dop853.solve, fun, tol=tol,
                    atol=tol * min(1.0, x0), what="Cartesian integration")
    # a start (or restart) point lies exactly on the section and would fire
    # the terminal event at time zero; a short event-free pre-step moves off
    # the section first, then the solver stops at the next true crossing
    dt_pre = 1e-6 * abs(x0 / v0)
    t, state, nfev, steps = 0.0, [x0, 0.0], 0, 0
    while t < t_max:
        if t + dt_pre == t:  # a pre-step that rounds away would leave the orbit on the section
            raise NoReturnError(f"the pre-step {dt_pre!r} off the section rounds away at t={t!r}")
        t, state, n_pre, s_pre = solve(t + dt_pre, state, t0=t)
        t, state, n_run, s_run = solve(t_max, state, t0=t, event=(1, direction))
        nfev, steps = nfev + n_pre + n_run, steps + s_pre + s_run
        if t < t_max and state[0] > 0:
            stats = IntegratorStats(nfev, steps, dop853.effective_rtol(tol))
            return SectionCrossing(state[0], state[1], t, direction, stats)
        # no crossing by t_max, or a same-direction one on the wrong half-axis: resume past it
    raise NoReturnError(
        f"no same-direction section crossing within t_max={t_max!r}"
    )


# -- extended precision --------------------------------------------------------

_GUARD_BITS = 32
_OFF_GRID = 1  # the aliasing check's angle, in radians: n of it is no multiple of pi/2 for n > 0


def _fixed(x, bits: int) -> int:
    """x * 2**bits rounded to an integer, at a working precision above ``bits``."""
    from mpmath import mp

    return int(mp.nint(mp.ldexp(x, bits)))


def _fixed_components(program: list[tuple], out: Sequence[str], c, s, bits: int) -> list:
    """The components named ``out`` in the recording ``program`` of ``components`` on c, s,
    at the cosines c and sines s, fixed-point integers at 2**-bits or object arrays of them.

    The lines round as a sweep of the lines' Taylor series rounds coefficient 0: a product
    of two values, and each product of the power x**n = x**(n-1) * x from x**0 = 1, rounds
    down to 2**-bits, and a float constant, exact, rounds down once as a factor and once as
    a term.
    """
    val = {"c": c, "s": s, "z": 0 * c}

    def operand(x):  # a name's value, or a constant term at 2**-bits
        if isinstance(x, str):
            return val[x]
        num, den = x.as_integer_ratio()
        return (num << bits) >> (den.bit_length() - 1)

    for dest, op, a, b in program:
        if op == "**":
            y = 1 << bits
            for _ in range(int(b)):
                y = (y * val[a]) >> bits
        elif op == "*" and isinstance(a, float):  # the recorder puts a constant factor first
            num, den = a.as_integer_ratio()
            y = (num * val[b]) >> (den.bit_length() - 1)
        elif op == "*":
            y = (val[a] * val[b]) >> bits
        elif op == "+":
            y = operand(a) + operand(b)
        elif op == "-":
            y = operand(a) - operand(b)
        else:
            raise ValueError(f"no fixed-point rule for the recorded line {op!r}")
        val[dest] = y
    return [val[x] for x in out]


def _fourier_series(program: list[tuple], out: Sequence[str], D: int, bits: int) -> list:
    """The Fourier coefficients of the components named ``out`` in the recording ``program``,
    fixed-point at 2**-(bits + _GUARD_BITS): per component None for the structural zero z,
    else the lists of Re f_n and Im f_n, n = 0..D.

    A component F is a trigonometric polynomial of degree D or less, D a bound such as
    ``PolarRHS.degree``, F(theta) = sum_n Re(f_n e**(i n theta)) over n = 0..D, so its
    values on the 2D + 2 angles theta_j = 2 pi j / (2D + 2) give its f_n by a discrete
    Fourier transform, exact but for rounding; the cosines and sines of the n theta_j are
    those of the angles again.  The values come from ``_fixed_components`` at
    2**-(bits + _GUARD_BITS), on object arrays of all the angles at once.

    An understated D would alias silently, so the values are also taken at the angle
    ``_OFF_GRID``, off the grid.  There the series must give each component to less than
    one unit of 2**-bits, the solve's own scale, which leaves the 2**_GUARD_BITS between
    the two scales to the rounding of the values and of the series; otherwise
    QuadratureError.
    """
    from mpmath import mp

    fine, N = bits + _GUARD_BITS, 2 * D + 2
    with mp.workprec(fine):
        angles = [mp.cos_sin(2 * mp.pi * j / N) for j in range(N)] + [mp.cos_sin(_OFF_GRID)]
        cos, sin = ([_fixed(x, fine) for x in xs] for xs in zip(*angles))
    named = [x for x in out if x != "z"]
    values = dict(zip(named, _fixed_components(
        program, named, *(np.array(x, dtype=object) for x in (cos, sin)), fine)))
    # f_n = (1/N) sum_j F(theta_j) e**(-i n theta_j), doubled for n > 0: its real parts, then
    # its imaginary ones
    rows = [[(2 - (n == 0)) * sign * x[j * n % N] for j in range(N)]
            for sign, x in ((1, cos), (-1, sin)) for n in range(D + 1)]
    fourier = []
    for i, x in enumerate(out):
        if x == "z":
            fourier.append(None)
            continue
        F = values[x]
        f = [sum(map(operator.mul, F, row)) // (N << fine) for row in rows]
        fourier.append((f[: D + 1], f[D + 1 :]))
        (value,), = _taylor_series(fourier[-1:], cos[N], sin[N], 1, fine, fine)
        if abs(value - F[N]) >> _GUARD_BITS:
            name = _component_names((False,) * len(out))[i]
            raise QuadratureError(
                f"the Fourier series of {name} to degree {D} misses its value at theta="
                f"{_OFF_GRID} by {abs(value - F[N]) / (1 << fine):.3g}: the degree "
                f"bound is too low")
    return fourier


@lru_cache(maxsize=16)
def _taylor_weights(D: int, M: int, shift: int) -> list[tuple[list[int], int]]:
    """Per j < M, the n**j of n = 0..D, signed as Re(i**j g) = (Re g, -Im g, -Re g, Im g)[j % 4]
    takes its part of g, and its divisor j! * 2**shift."""
    return [([(1, -1, -1, 1)[j % 4] * n**j for n in range(D + 1)], math.factorial(j) << shift)
            for j in range(M)]


def _taylor_series(fourier: list, c0: int, s0: int, M: int, scale: int, bits: int,
                   first: int = 0) -> list[list[int]]:
    """Coefficients first..M-1 of each component's Taylor series in theta - theta0,
    fixed-point at 2**-bits, from its Fourier coefficients and c0, s0, the cosine and sine
    of theta0, all three at 2**-scale.

    With g_n = f_n e**(i n theta0), coefficient j is sum_n n**j / j! Re(i**j g_n).  The
    e**(i n theta0) come by n complex products at 2**-scale, and the sums of products over
    n are exact before the one rounding of each coefficient."""
    D = len(fourier[0][0]) - 1
    C, S, cn, sn = [], [], 1 << scale, 0
    for _ in range(D + 1):
        C.append(cn)
        S.append(sn)
        cn, sn = (cn * c0 - sn * s0) >> scale, (cn * s0 + sn * c0) >> scale
    weights = _taylor_weights(D, M, 2 * scale - bits)[first:]
    out = []
    for a, b in fourier:
        re = [x * c - y * s for x, y, c, s in zip(a, b, C, S)]
        im = [x * s + y * c for x, y, c, s in zip(a, b, C, S)]
        out.append([sum(map(operator.mul, w, im if j % 2 else re)) // f
                    for j, (w, f) in enumerate(weights, first)])
    return out


def _taylor_rule(op: str, d: list, a, b, bits: int) -> Callable[[int], None]:
    """The rule appending coefficient m of d = a op b, on fixed-point Taylor coefficients.

    a and b are lists holding coefficients 0..m or more, but a product's b holds exactly
    0..m, and a guard |a| < b has a float bound b: a guard appends nothing and is checked
    on coefficient 0."""
    app = d.append
    if op == "+":
        return lambda m: app(a[m] + b[m])
    if op == "-":
        return lambda m: app(a[m] - b[m])
    if op == "/":
        return lambda m: app(((a[m] << bits) - sum(map(operator.mul, b[1:], reversed(d)))) // b[0])
    if op == "abs<":
        num, den = b.as_integer_ratio()  # exact at any scale, where a float of a[0] overflows
        bound = num << bits

        def guard(m):
            if m == 0 and abs(a[0]) * den < bound:
                raise SingularDivisionError(jets.VANISHING)
        return guard
    return lambda m: app(sum(map(operator.mul, a, reversed(b))) >> bits)


def _taylor_program(K: int, zero: tuple[bool, ...], M: int, bits: int
                    ) -> tuple[list[tuple[int, list]], list[list], list[list], list[Callable]]:
    """The jet lines of ``_jet_coeffs`` as rules on Taylor series in theta - theta0.

    Coefficients are fixed-point integers: c stands for c / 2**bits.  The recording's
    inputs are R_0..R_k, Q_0..Q_k, named and zero-folded by ``zero`` as in
    ``_staged_recording``, and nu; a structural zero's series is M zeros.  Returns the
    components the lines read, as (index in R + Q, list), whose lists a step fills whole
    with coefficients 0..M-1, the lists of nu, which it seeds with coefficient 0, the lists
    of the lines, which it empties, and the rules.  Calling each rule in order with
    m = 0, 1, ... appends coefficient m of every line, then coefficient m + 1 of nu:
    nu_i' is output i."""
    n, names = len(zero) // 2, _component_names(zero)
    program, out = jets.record(lambda *x: _jet_coeffs(x[:n], x[n : 2 * n], K, x[2 * n :]),
                               *names, *(f"y{i}" for i in range(K)))
    coef = {name: [] for name in [*names, *(f"y{i}" for i in range(K))]}
    coef["z"] = [0] * M
    reads = {x for line in program for x in line[2:]}
    series = [(i, coef[x]) for i, x in enumerate(names) if x in reads and x != "z"]
    full = {id(d) for _, d in series}
    lines, rules = [], []
    for dest, op, a, b in program:
        a, b = (coef[x] if isinstance(x, str) else x for x in (a, b))
        if op == "*" and id(b) in full:  # map(mul, a, reversed(b)) stops where the line does
            a, b = b, a
        coef[dest] = d = []  # a guard's dest is None, and its list stays empty
        lines.append(d)
        rules.append(_taylor_rule(op, d, a, b, bits))
    nu = [coef[f"y{i}"] for i in range(K)]
    rules += [lambda m, n=n, f=coef[o.name]: n.append(f[m] // (m + 1)) for n, o in zip(nu, out)]
    return series, nu, lines, rules


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
    Experimental Math. 14, 2005) by sweeping the jet lines of
    ``_jet_coeffs``, recorded once per solve, in Taylor coefficients
    (``_taylor_program``).  The components they read are trigonometric
    polynomials of degree ``rhs.degree`` at most, recorded once per solve
    (one ``components`` call).  ``_fourier_series`` takes their Fourier
    coefficients once per solve, from the recording run in fixed point on
    2 * degree + 2 angles, and checks them off that grid.  At each step,
    coefficients 1..M-1 of their Taylor series come in closed form from
    those (``_taylor_series``), and coefficient 0, their value, from the
    recording run in fixed point (``_fixed_components``).  That value
    carries most of the rounding that reaches nu, and it rounds as the
    earlier sweep of the cosine and sine series did, so the pinned values
    hold to the bit.  With the local
    tolerance tol = 10**-dps, M = ceil(-ln(tol) / 2 + 1), and the step h is
    the largest at which the last two terms, max_i |coefficient j of nu_i|
    * h**j for j = M - 1 and M, stay below tol.  All sums and products are
    exact on integer mantissas at one binary scale of ceil(dps * log2(10))
    + 32 bits, with one rounding per coefficient.  That rounding is
    absolute, so h is also capped at 1, where h**j cannot magnify it.
    ``n_rhs_evals`` counts the Taylor coefficients of the right-hand side:
    M per step.

    About 1,600 times slower than the double-precision path, the
    successive quadrature (criterion-8 eq325 field, K=7: 0.75-0.86 s at
    dps=30 against 0.47-0.53 ms for ``integrate_jet`` at tol 1e-13, the
    medians of 15 extended calls, each followed by 13 double ones, in one
    process, in each of three processes, on a shared 2-core Xeon); meant
    for hierarchies that collapse below machine epsilon.
    """
    from mpmath import mp

    K = order if order is not None else default_order(rhs.field.p, rhs.field.q)
    _check_positive_ints(dps=dps, order=K)
    if theta1 is not None and not mp.isfinite(theta1):
        raise ValueError(f"theta1={theta1!r} must be finite")
    with mp.workdps(dps):
        tol = mp.mpf(10) ** -dps
    log_tol = float(mp.log(tol))
    M = math.ceil(-log_tol / 2 + 1)
    bits = math.ceil(dps * math.log2(10)) + _GUARD_BITS
    fine = bits + _GUARD_BITS  # the scale of the components' Fourier coefficients
    with mp.workprec(fine):
        end = _fixed(2 * mp.pi if theta1 is None else theta1, bits)
    if end <= 0:
        raise ValueError(f"theta1={theta1!r} must be positive")
    program, (R, Q) = jets.record(rhs.components, "c", "s")
    out = [v.name for v in R + Q]
    series, nu, lines, rules = _taylor_program(K, tuple(x == "z" for x in out), M, bits)
    fourier = _fourier_series(program, out, rhs.degree, bits)
    read, named = [fourier[i] for i, _ in series], [out[i] for i, _ in series]
    state = [1 << bits] + [0] * (K - 1)
    theta = steps = 0
    while theta < end:
        with mp.workprec(fine):
            cs = mp.cos_sin(mp.ldexp(theta, -bits))
            c0, s0 = (_fixed(x, fine) for x in cs)
            values = _fixed_components(program, named, *(_fixed(x, bits) for x in cs), bits)
        for (_, coefs), value, taylor in zip(series, values,
                                             _taylor_series(read, c0, s0, M, fine, bits, 1)):
            coefs[:] = [value, *taylor]
        for coefs in lines:
            coefs.clear()
        for coefs, x0 in zip(nu, state):
            coefs[:] = [x0]
        for m in range(M):
            for rule in rules:
                rule(m)
        log_h = 0.0
        for j in (M - 1, M):
            top = max(abs(n[j]) for n in nu)
            if top:
                log_h = min(log_h, (log_tol - math.log(top) + bits * math.log(2)) / j)
        num, den = math.exp(log_h).as_integer_ratio()
        step = min((num << bits) // den, end - theta)
        if step < 1:
            raise StiffnessError(f"Taylor step underflow at theta={theta / (1 << bits)!r}")
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
