"""DOP853 and Brent's method, for the Cartesian solves and every root search.

scipy's DOP853 pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10) under
scipy's step control.  ``solve`` is the driver: a list of floats runs a
step generated as code per state size, so it takes ``solve_ivp``'s steps
to the bit, and locates an event on a step's dense interpolant; the polar
chart runs on Chebyshev panels instead.  ``brentq`` is scipy's.  The
package reads two files from scipy, the tableau and the compiled Brent
routine, each loaded alone by its file path, so it imports neither
``scipy.integrate`` nor ``scipy.optimize``.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

from .errors import StiffnessError

# the rtol floor of every DOP853 solve and panel quadrature
RTOL_FLOOR = 1e-13
_FOUR_EPS = 4 * math.ulp(1.0)  # scipy's event root tolerance, and brentq's default rtol


def effective_rtol(tol: float) -> float:
    """The rtol a solve at tolerance tol runs at, and reports: tol, floored at RTOL_FLOOR."""
    return max(tol, RTOL_FLOOR)


@lru_cache
def _from_scipy(stem: str):
    """The module ``scipy/<stem>``, source or compiled, loaded alone by its file path.

    Loaded alone, it skips its package's imports.  A compiled module registers
    itself in ``sys.modules``: it is one object whichever of it and its
    package is imported first."""
    base = Path(importlib.util.find_spec("scipy").submodule_search_locations[0], stem)
    paths = [p for x in importlib.machinery.all_suffixes() if (p := Path(f"{base}{x}")).is_file()]
    if not paths:
        raise ImportError(f"the installed scipy has no module file {base}.*, source or compiled")
    spec = importlib.util.spec_from_file_location("scipy." + stem.replace("/", "."), paths[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Rows 0-11 of the tableau's A and C are the stages of a step, row 12 the
# evaluation at the step's end (A[12] is B) and rows 13-15 the extra stages of
# the interpolant: ``scipy.integrate.DOP853``'s A_EXTRA, C_EXTRA are A[13:], C[13:].
_tableau = partial(_from_scipy, "integrate/_ivp/dop853_coefficients")


@lru_cache
def _code(n: int, dense: bool = False) -> Callable:
    """scipy's DOP853 pair as code for n states.

    ``step(fun, t, h, y, f, rtol, atol)`` returns y_new, fun(t + h, y_new), the
    sums of squared E5 and E3 errors over atol + max(|y|, |y_new|) * rtol and
    the 13 stages; ``dense(fun, t, h, y, y_new, stages)`` the interpolant's rows,
    which an event is located on.  A sum runs in stage order, skipping zeros."""
    lin = lambda coefs, i: " + ".join(f"{float(a)!r} * k{s}_{i}" for s, a in enumerate(coefs) if a)
    vec = lambda term: ", ".join(map(term, range(n)))
    ks = lambda s: vec(lambda i: f"k{s}_{i}") + f", = k{s}"

    def stage(s: int, a, c) -> str:
        args = vec(lambda i: f"y{i} + ({lin(a[:s], i)}) * h")
        return f"{ks(s)} = fun(t + {float(c)!r} * h, [{args}])"

    D, ys, ns = _tableau(), vec(lambda i: f"y{i}"), vec(lambda i: f"n{i}")
    step = [f"{ys}, = y", f"{ks(0)} = f", *(stage(s, D.A[s], D.C[s]) for s in range(1, 12))]
    step += [f"n{i} = y{i} + h * ({lin(D.B, i)})" for i in range(n)]
    step += [f"{ks(12)} = fun(t + h, [{ns}])"]
    step += [f"w = atol + max(abs(y{i}), abs(n{i})) * rtol; e{i} = ({lin(D.E5, i)}) / w; "
             f"g{i} = ({lin(D.E3, i)}) / w" for i in range(n)]
    sq = lambda v: " + ".join(f"{v}{i} * {v}{i}" for i in range(n))
    step += [f"return [{ns}], k12, {sq('e')}, {sq('g')}, ({', '.join(f'k{s}' for s in range(13))})"]
    extra = [f"{ys}, = y", f"{ns}, = y_new", *(f"{ks(s)} = k[{s}]" for s in range(13))]
    extra += [stage(s, D.A[s], D.C[s]) for s in range(13, 16)]
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


def _first_step(fun, t0: float, t1: float, y: list, f: list, rtol: float, atol: float,
                direction: float):
    """scipy's ``select_initial_step`` for the error estimator of order 7, in plain float loops."""
    scale = [atol + abs(v) * rtol for v in y]
    rms = lambda x: math.sqrt(sum((v / w) * (v / w) for v, w in zip(x, scale))) / len(x)**0.5
    d0, d1 = rms(y), rms(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t1 - t0))
    f1 = fun(t0 + h0 * direction, [v + h0 * direction * g for v, g in zip(y, f)])
    d2 = rms([b - a for a, b in zip(f, f1)]) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, abs(t1 - t0)))


def solve(fun, t1: float, y, tol: float, atol: float, what: str, t0: float = 0.0,
          event=None):
    """DOP853 from t0 to t1 of either direction, at rtol ``effective_rtol(tol)``.

    scipy's step control, hence scipy's steps and nfev (2 + 12 per attempted
    step).  ``y`` and ``fun``'s values are lists of floats.
    ``event`` = (g, direction) is a terminal event located as scipy's ODE
    solvers locate one: after each step, the sign test of
    ``find_active_events`` on g(t, y); on a hit, ``brentq`` at xtol = rtol =
    4 eps on g along the step's dense interpolant (3 more evaluations), whose
    value at the root is the end state.  Returns the end time (t1 or the
    event's root), the end state, nfev and the number of steps."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"{what}: the span ({t0!r}, {t1!r}) must be finite")
    if not all(map(math.isfinite, y)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    rtol, n = effective_rtol(tol), len(y)
    step, extra = _code(n), (_code(n, True) if event else None)
    direction = 1.0 if t1 > t0 else -1.0
    f = fun(t0, y)
    h_abs, t, nfev, steps = _first_step(fun, t0, t1, y, f, rtol, atol, direction), t0, 2, 0
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
        steps += 1
        if event is not None:
            g_new = g(t_new, y_new)
            up, down = g_old <= 0 <= g_new, g_new <= 0 <= g_old
            if up and g_dir >= 0 or down and g_dir <= 0:
                sol = partial(_interpolate, t, t_new, y, extra(fun, t, h, y, y_new, k))
                t = brentq(lambda s: g(s, sol(s)), t, t_new, xtol=_FOUR_EPS)
                y, nfev = sol(t), nfev + 3
                break
            g_old = g_new
        t, y, f = t_new, y_new, f_new
    return t, y, nfev, steps


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b] by Brent's method: scipy's ``optimize.brentq`` at its defaults.

    scipy's compiled routine (Brent, Algorithms for Minimization Without
    Derivatives, 1973, ch. 4) at rtol 4 eps and maxiter 100, behind the checks
    of scipy's wrapper: its points, root and errors are scipy's.  ValueError:
    xtol <= 0, f NaN at a point, or f(a) and f(b) of one sign.  RuntimeError:
    no convergence."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def fx(x: float):
        value = f(x)
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    return _from_scipy("optimize/_zeros")._brentq(fx, a, b, xtol, _FOUR_EPS, 100, (), False, True)
