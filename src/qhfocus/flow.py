"""Integration of the polar ODE and of Cartesian flows.

Three backends:

* jet transport: the radius ODE is integrated with the radius replaced by a
  truncated series in the initial radius h, carrying nu_1..nu_K in one
  error-controlled pass;
* scalar: plain adaptive integration of dr/dtheta for the return map;
* Cartesian: orbit integration with event-located crossings of the positive
  x-axis section, for systems outside the weighted-homogeneous form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from . import jets
from .errors import NoReturnError, StiffnessError
from .fields import WeightedField, normalize
from .jets import Jet
from .polar import PolarRHS

DEFAULT_TOL = 1e-12


def default_order(p: int, q: int) -> int:
    """Jet order reaching three focal values in either parity class."""
    return 8 if (p + q) % 2 == 0 else 7


def nu1_closed_form(p: int, q: int, theta):
    """nu_1(theta) = (cos**(2q) + sin**(2p))**(-1/(2pq))."""
    c, s = np.cos(theta), np.sin(theta)
    return (c ** (2 * q) + s ** (2 * p)) ** (-1.0 / (2 * p * q))


def _jet_rhs_coeffs(rhs: PolarRHS, K: int, cos_t, sin_t, nu: Sequence) -> list:
    """d(nu)/dtheta for the c_1..c_K radius-jet coefficients; float or mpf."""
    R, Q = rhs.components(cos_t, sin_t)
    n = K + 1
    zero = 0 * nu[0]
    r = [zero, *nu]
    num = [zero] * n
    den = [zero] * n
    rk = [zero] * n
    rk[0] = 1 + zero
    for Rk, Qk in zip(R, Q):
        for i in range(n):
            if rk[i]:
                num[i] = num[i] + Rk * rk[i]
                den[i] = den[i] + Qk * rk[i]
        rk = jets.mul_trunc(rk, r, n)
    quot = jets.div_trunc(num, den, n)
    return jets.mul_trunc(r, quot, n)[1:]


@dataclass
class IntegratorStats:
    n_rhs_evals: int
    n_steps: int
    tol: float


@dataclass
class JetTrajectory:
    """Dense jet solution nu_1(theta)..nu_K(theta) over one turn [0, 2*pi]."""

    order: int
    stats: IntegratorStats
    _sol: object

    def at(self, theta: float) -> Jet:
        return Jet.radius(self._sol(theta))

    @property
    def final(self) -> Jet:
        return self.at(2 * np.pi)

    def nu(self, k: int, theta: float) -> float:
        return float(self._sol(theta)[k - 1])


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"integrator tolerance must be positive and finite, got {tol!r}")


def integrate_jet(
    rhs: PolarRHS,
    init: Jet | None = None,
    tol: float = DEFAULT_TOL,
    order: int | None = None,
) -> JetTrajectory:
    """Transport the radius jet over one turn, theta from 0 to 2*pi.

    ``init`` defaults to the identity jet (nu_1 = 1, nu_k = 0), matching the
    standard initial condition; a shifted series g(h) may be supplied instead.
    """
    _check_tol(tol)
    K = order if order is not None else default_order(rhs.field.p, rhs.field.q)
    if init is None:
        init = Jet.identity(K)
    y0 = np.asarray(init.radius_coeffs, dtype=float)
    if y0.size != K:
        raise ValueError(f"initial jet order {y0.size} != requested order {K}")

    def f(theta, y):
        return _jet_rhs_coeffs(rhs, K, np.cos(theta), np.sin(theta), y)

    sol = solve_ivp(
        f,
        (0.0, 2 * np.pi),
        y0,
        method="DOP853",
        rtol=max(tol, 1e-13),
        atol=tol,
        dense_output=True,
    )
    if not sol.success:
        raise StiffnessError(f"jet integration failed: {sol.message}")
    stats = IntegratorStats(sol.nfev, len(sol.t) - 1, tol)
    return JetTrajectory(K, stats, sol.sol)


def integrate_scalar(
    rhs: PolarRHS,
    h: float,
    theta0: float = 0.0,
    theta1: float = 2 * np.pi,
    tol: float = DEFAULT_TOL,
) -> float:
    """r at theta1 for the scalar radius ODE started at (theta0, h)."""
    if abs(theta1 - theta0) >= 4 * np.pi:
        raise ValueError("theta span must stay below 4*pi")
    _check_tol(tol)
    rhs.check_radius(h)
    if theta0 == theta1:
        return h
    sol = solve_ivp(
        lambda t, y: [rhs(t, y[0])],
        (theta0, theta1),
        [h],
        method="DOP853",
        rtol=max(tol, 1e-13),
        atol=tol,
    )
    if not sol.success:
        raise StiffnessError(f"scalar integration failed: {sol.message}")
    return float(sol.y[0, -1])


def return_map(rhs: PolarRHS, h: float, tol: float = DEFAULT_TOL) -> float:
    """r~(2*pi, h): one full turn of the polar flow."""
    return integrate_scalar(rhs, h, 0.0, 2 * np.pi, tol)


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
        return integrate_scalar(rhs, h0, 0.0, theta, tol)

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
    the leading-order orbit r = h * nu_1(theta), on 256 angles.
    """
    rhs = PolarRHS(field)
    p, q = field.p, field.q
    n = 256
    thetas = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    acc = 0.0
    for theta in thetas:
        r = h * float(nu1_closed_form(p, q, theta))
        R, Q = rhs.components(np.cos(theta), np.sin(theta))
        den = sum(Qk * r**k for k, Qk in enumerate(Q))
        c, s = np.cos(theta), np.sin(theta)
        acc += (p * c**2 + q * s**2) / (r ** (2 * p * q - p - q) * den)
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
    _check_tol(tol)
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
    fun = lambda t, z: cartesian_field(z[0], z[1])
    rtol, atol = max(tol, 1e-13), tol * min(1.0, x0)
    # a start (or restart) point lies exactly on the section and would fire
    # the terminal event at time zero; a short event-free pre-step moves off
    # the section first, then the solver stops at the next true crossing
    dt_pre = 1e-6 * abs(x0 / v0)
    t_start, state = 0.0, [x0, 0.0]
    while t_start < t_max:
        pre = solve_ivp(
            fun, (t_start, t_start + dt_pre), state,
            method="DOP853", rtol=rtol, atol=atol,
        )
        if not pre.success:
            raise StiffnessError(f"Cartesian integration failed: {pre.message}")
        sol = solve_ivp(
            fun, (pre.t[-1], t_max), pre.y[:, -1],
            method="DOP853", rtol=rtol, atol=atol, events=event,
        )
        if not sol.success:
            raise StiffnessError(f"Cartesian integration failed: {sol.message}")
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


def integrate_jet_extended(
    rhs: PolarRHS,
    theta1: float = 2 * np.pi,
    order: int | None = None,
    dps: int = 30,
):
    """Jet transport in arbitrary precision (mpmath Taylor method).

    Starts from the identity jet and returns the list
    [nu_1(theta1), ..., nu_K(theta1)] as mpf numbers.
    Roughly three orders of magnitude slower than the double-precision path;
    meant for hierarchies that collapse below machine epsilon.
    """
    from mpmath import mp

    K = order if order is not None else default_order(rhs.field.p, rhs.field.q)
    with mp.workdps(dps):
        y0 = [mp.mpf(1)] + [mp.mpf(0)] * (K - 1)

        def f(theta, nu):
            return _jet_rhs_coeffs(rhs, K, mp.cos(theta), mp.sin(theta), nu)

        sol = mp.odefun(f, 0, y0, tol=mp.mpf(10) ** (-(dps - 5)), degree=20)
        return sol(mp.mpf(theta1))
