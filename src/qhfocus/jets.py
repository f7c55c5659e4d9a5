"""Truncated power-series products and quotients on coefficient lists.

A series c_0 + c_1 h + ... + c_{n-1} h**(n-1) is the list of its
coefficients.  Both operations are exact truncated-ring arithmetic, generic
over the coefficient type.  The jet transports run them once per solve, on
the recording variables ``_Var``; the recorded program is then evaluated on
floats or on fixed-point Taylor series in theta.  ``polar.PolarRHS`` records
its components on the same variables.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .errors import SingularDivisionError

_TINY = 1e-300
VANISHING = "division by a jet with vanishing constant term"


def mul_trunc(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n-1 of the product of two coefficient lists."""
    out = [0 * a[0]] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return out


def div_trunc(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n-1 of a/b; requires b[0] != 0."""
    if abs(b[0]) < _TINY:
        raise SingularDivisionError(VANISHING)
    out = [0 * a[0]] * n
    for m in range(n):
        s = a[m] if m < len(a) else 0 * a[0]
        for i in range(m):
            s = s - out[i] * b[m - i]
        out[m] = s / b[0]
    return out


# -- straight-line programs ------------------------------------------------------


class _Var:
    """A value named in a straight-line program being recorded.

    Arithmetic adds the line ``(op, a, b)`` to the ordered ``code``, mapped to
    the name of its value, or reuses the same line; operands are names or
    floats.  ``z``, the structural zero ``0 * x``, is the only variable
    ``bool`` reports as false, so ``mul_trunc`` skips the terms it skips on
    floats and ``x + z`` folds to x."""

    __slots__ = ("code", "name")

    def __init__(self, code: dict, name: str):
        self.code, self.name = code, name

    def __bool__(self) -> bool:
        return self.name != "z"

    def _op(self, a, op: str, b) -> _Var:
        key = (op, _atom(a), _atom(b))
        return _Var(self.code, self.code.setdefault(key, f"v{len(self.code)}"))

    def __add__(self, other) -> _Var:
        return self if not other else other if not self else self._op(self, "+", other)

    def __sub__(self, other) -> _Var:
        return self._op(self, "-", other) if other else self

    def __rmul__(self, k) -> _Var:
        return self._op(k, "*", self) if self and k else _Var(self.code, "z")

    __mul__ = __rmul__  # products commute on floats: a constant factor records on the left

    def __truediv__(self, other) -> _Var:
        return self._op(self, "/", other)

    def __pow__(self, n: int) -> _Var:
        return self._op(self, "**", n)

    def __abs__(self) -> _Abs:
        return _Abs(self.code, self.name)


def _atom(x) -> str | float:
    return x.name if isinstance(x, _Var) else float(x)


class _Abs(_Var):
    """|x|, which only the division check compares: |x| < bound records a guard, assumed false."""

    def __lt__(self, bound) -> bool:
        self.code[("abs<", self.name, float(bound))] = None
        return False


def record(fn: Callable, *inputs: str):
    """fn called on recording variables named ``inputs``: its lines ``(dest, op, a, b)``, and its result.

    A guard ``|a| < b`` is a line with dest None."""
    code: dict[tuple, str | None] = {}
    out = fn(*(_Var(code, name) for name in inputs))
    return [(dest, *line) for line, dest in code.items()], out


def source(program: list[tuple]) -> list[str]:
    """The recorded lines as Python statements on floats; a guard that holds raises."""
    # a float formats as its repr, the shortest text that reads back to it
    return [f"if abs({a}) < {b}: raise SingularDivisionError(VANISHING)" if dest is None
            else f"{dest} = {a} {op} {b}" for dest, op, a, b in program]
