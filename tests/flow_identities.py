"""The polar flow on partial turns, and the functional identities it satisfies.

The package solves the polar ODE over full turns only (``flow.return_map``,
on Chebyshev panels).  The identities compare solves over partial turns of
either direction, so the tests solve them here, by DOP853 on the scalar
dr/dtheta: an independent integrator, which the tests also hold
``return_map`` against.

It also holds the jet right-hand side on one angle, ``jet_rhs_coeffs``,
which the tests solve by DOP853 and by mpmath as references.
"""
import numpy as np

from qhfocus import dop853, flow


def jet_rhs_coeffs(rhs, K: int, cos_t, sin_t, nu) -> list:
    """d(nu)/dtheta for the c_1..c_K radius-jet coefficients at the angle with cosine cos_t
    and sine sin_t, generic over the number type: ``flow._jet_coeffs`` on ``rhs``'s
    components there."""
    return flow._jet_coeffs(*rhs.components(cos_t, sin_t), K, nu)


def partial_turn(rhs, h: float, theta1: float, tol: float) -> float:
    """r at theta1 for the scalar radius ODE started at (0, h), theta1 of either sign.

    One DOP853 solve of ``rhs``'s dr/dtheta, at rtol and atol tol."""
    rhs.check_radius(h)
    _, (r,), *_ = dop853.solve(lambda t, y: [rhs(t, y[0])], theta1, [float(h)], tol, tol,
                               "scalar integration")
    return r


def identity_residuals(rhs, h: float, theta_samples, tol: float) -> dict[str, list[float]]:
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
        return partial_turn(rhs, h0, theta, tol)

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
