"""DOP853 and Brent's method, for the Cartesian solves and every root search.

scipy's DOP853 pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10) under
scipy's step control.  ``solve`` is the driver: on a list of floats it runs
one kernel generated as code per state size, and per field whose velocities
come as recorded lines, holding scipy's whole step loop in locals, so it
takes ``solve_ivp``'s steps to the bit; it locates a crossing on the last
step's dense interpolant.  A field's own kernel costs one compile per
field, which pays back over many solves of that field.  The polar chart
runs on Chebyshev panels instead.  ``brentq`` is scipy's.  The package
reads two files from scipy, the tableau and the compiled Brent routine,
each loaded alone by its file path, so it imports neither
``scipy.integrate`` nor ``scipy.optimize``.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

from . import jets
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


@lru_cache(maxsize=64)
def _code(n: int, velocities: tuple | None = None, dense: bool = False) -> Callable:
    """scipy's DOP853 pair as code for n states: the kernel of ``solve``, or ``dense``.

    ``kernel(fun, t, t1, h_abs, start, f, rtol, atol, what, event)`` runs
    ``solve``'s whole step loop in locals from (t, start) with f = fun(t, start)
    and the first step h_abs: the steps, their retries and the crossing test.
    It returns the end time and state, the evaluations it made, the steps, and
    on a crossing (t, h, y, stages) of its step, else None.  A stage calls
    ``fun(t, y)``, or with ``velocities`` = (inputs, lines, outputs) of an
    autonomous field runs ``lines``, which compute ``outputs`` from the states
    named ``inputs`` and assign no name of the kernel's own (``t``, ``h``,
    ``y<i>``, ``n<i>``, ``k<s>_<i>``, ...).
    ``dense(fun, t, h, y, y_new, stages)`` gives the interpolant's rows, which
    a crossing is located on.  A sum runs in stage order, skipping zeros."""
    lin = lambda coefs, i: " + ".join(f"{float(a)!r} * k{s}_{i}" for s, a in enumerate(coefs) if a)
    vec = lambda term: ", ".join(map(term, range(n))) + ","
    ks = lambda s: vec(lambda i: f"k{s}_{i}")

    def stage(s: int, c, args: str) -> list[str]:
        if velocities is None:
            return [f"{ks(s)} = fun(t + {float(c)!r} * h, [{args}])"]
        inputs, lines, outputs = velocities
        return [f"{', '.join(inputs)}, = {args}", *lines, f"{ks(s)} = {', '.join(outputs)},"]

    D, ys, ns = _tableau(), vec(lambda i: f"y{i}"), vec(lambda i: f"n{i}")
    stages = lambda rows: [line for s in rows for line in stage(
        s, D.C[s], vec(lambda i: f"y{i} + ({lin(D.A[s][:s], i)}) * h"))]
    if dense:
        body = [f"{ys} = y", f"{ns} = y_new", *(f"{ks(s)} = k[{s}]" for s in range(13))]
        rows = [vec(lambda i: f"n{i} - y{i}"), vec(lambda i: f"h * k0_{i} - (n{i} - y{i})"),
                vec(lambda i: f"2 * (n{i} - y{i}) - h * (k12_{i} + k0_{i})"),
                *(vec(lambda i: f"h * ({lin(d, i)})") for d in D.D)]
        body += [*stages(range(13, 16)), f"return [{', '.join(f'[{r}]' for r in rows)}]"]
        return jets.function("fun, t, h, y, y_new, k", body)
    sq = lambda v: " + ".join(f"{v}{i} * {v}{i}" for i in range(n))
    attempt = [  # scipy's RungeKutta._step_impl, with its SAFETY, MIN_ and MAX_FACTOR
        "if h_abs < min_step:",
        "    raise StiffnessError(f'{what} failed: Required step size is less than spacing "
        "between numbers.')",
        "t_new = t1 if direction * (t + h_abs * direction - t1) > 0 else t + h_abs * direction",
        "h = t_new - t",
        "h_abs = abs(h)",
        *stages(range(1, 12)),
        *(f"n{i} = y{i} + h * ({lin(D.B, i)})" for i in range(n)),
        *stage(12, 1.0, ns),
        "nfev += 12",
        *(f"w = atol + max(abs(y{i}), abs(n{i})) * rtol; e{i} = ({lin(D.E5, i)}) / w; "
          f"g{i} = ({lin(D.E3, i)}) / w" for i in range(n)),
        f"s5, s3 = {sq('e')}, {sq('g')}",
        f"err = h_abs * s5 / sqrt((s5 + 0.01 * s3) * {n}) if s5 or s3 else 0.0",
        "if err < 1:",
        "    factor = min(10.0, 0.9 * err ** -0.125) if err else 10.0",
        "    h_abs *= min(1.0, factor) if rejected else factor",
        "    break",
        "h_abs, rejected = h_abs * max(0.2, 0.9 * err ** -0.125), True",
    ]
    crossed = [  # the sign test of scipy's find_active_events on state component ``index``
        "if index is not None:",
        f"    g_old, g_new = ({ys})[index], ({ns})[index]",
        "    if g_old <= 0 <= g_new and sense >= 0 or g_new <= 0 <= g_old and sense <= 0:",
        f"        return t_new, [{ns}], nfev, steps, "
        f"(t, h, [{ys}], ({', '.join(f'({ks(s)})' for s in range(13))}))",
    ]
    body = [
        f"{ys} = start", f"{ks(0)} = f", "index, sense = event or (None, None)",
        "direction, nfev, steps = 1.0 if t1 > t else -1.0, 0, 0",
        "while direction * (t - t1) < 0:",
        "    min_step = 10 * abs(nextafter(t, direction * inf) - t)",
        "    h_abs, rejected = max(h_abs, min_step), False",
        "    while True:", *(" " * 8 + line for line in attempt),
        "    steps += 1", *(" " * 4 + line for line in crossed),
        "    t = t_new", *(f"    y{i} = n{i}; k0_{i} = k12_{i}" for i in range(n)),
        f"return t, [{ys}], nfev, steps, None",
    ]
    return jets.function("fun, t, t1, h_abs, start, f, rtol, atol, what, event", body,
                         sqrt=math.sqrt, nextafter=math.nextafter, inf=math.inf,
                         StiffnessError=StiffnessError)


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
    step).  ``y`` and ``fun``'s values are lists of floats.  The steps run in
    one kernel per state size (``_code``), and where ``fun`` carries its
    velocities as code, ``fun.velocities`` = (inputs, lines, outputs), one per
    field, whose stages run those lines in place of calling fun.
    ``event`` = (index, direction) is a terminal event, state component
    ``index`` changing sign, located as scipy's ODE solvers locate one: after
    each step, the sign test of ``find_active_events``; on a hit, ``brentq``
    at xtol = rtol = 4 eps along component ``index`` of the step's dense
    interpolant (3 more evaluations), whose full value at the root is the end
    state.  Returns the end time (t1 or the event's root), the end state,
    nfev and the number of steps.  An empty span, t1 = t0, takes no step, as
    ``solve_ivp`` takes none: the start state, after one evaluation."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"{what}: the span ({t0!r}, {t1!r}) must be finite")
    if not all(map(math.isfinite, y)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    rtol, n, f = effective_rtol(tol), len(y), fun(t0, y)
    if t1 == t0:  # scipy's select_initial_step gives 0, and no step is taken
        return t0, list(y), 1, 0
    h_abs = _first_step(fun, t0, t1, y, f, rtol, atol, 1.0 if t1 > t0 else -1.0)
    kernel = _code(n, getattr(fun, "velocities", None))
    t, y, nfev, steps, crossed = kernel(fun, t0, t1, h_abs, y, f, rtol, atol, what, event)
    if crossed is not None:
        t_old, h, y_old, k = crossed
        rows, i = _code(n, dense=True)(fun, t_old, h, y_old, y, k), event[0]
        sol, rows_i = partial(_interpolate, t_old, t), [[row[i]] for row in rows]
        t = brentq(lambda s: sol([y_old[i]], rows_i, s)[0], t_old, t, xtol=_FOUR_EPS)
        y, nfev = sol(y_old, rows, t), nfev + 3
    return t, y, nfev + 2, steps


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
