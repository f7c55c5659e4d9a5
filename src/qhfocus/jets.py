"""Truncated power-series products and quotients on coefficient lists.

A series c_0 + c_1 h + ... + c_{n-1} h**(n-1) is the list of its
coefficients.  Both operations are exact truncated-ring arithmetic, generic
over the coefficient type.  The jet transports run them on the recording
variables ``_Var``: the staged program of the successive quadrature once
per order and pattern of zero components, and the extended solve's jet
lines, on the components as inputs, once per solve.  A recorded program
keeps only the lines that an output or a division guard reads, and is
evaluated on floats, on arrays of nodes or on fixed-point Taylor series in
theta, where the components' series come from their Fourier coefficients
and their values from the components' recording run in fixed point.
``polar.PolarRHS`` records its components, and ``flow.section_return`` a
weighted field's velocities, on the same variables, with the coefficients
as float literals; ``source`` writes each program as Python code on floats
or arrays.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Sequence

from .errors import SingularDivisionError

TINY = 1e-300
VANISHING = "division by a jet with vanishing constant term"
# parentheses nested in one emitted statement; Python's parser refuses about 200
_MAX_DEPTH = 50


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
    if abs(b[0]) < TINY:
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
    floats, ``x + z`` folds to x and ``z / x`` to z.  The exact identities
    fold as well: ``x**0`` is the float 1.0, and ``x**1`` and ``1 * x`` are
    x."""

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

    def __rsub__(self, k) -> _Var:
        return self._op(k, "-", self)

    def __rmul__(self, k) -> _Var:
        if not (self and k):
            return _Var(self.code, "z")
        return self if k == 1 else self._op(k, "*", self)

    __mul__ = __rmul__  # products commute on floats: a constant factor records on the left

    def __truediv__(self, other) -> _Var:
        return self._op(self, "/", other) if self else self

    def __pow__(self, n: int) -> _Var | float:
        return 1.0 if n == 0 else self if n == 1 else self._op(self, "**", n)

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

    A guard ``|a| < b`` is a line with dest None.  Only the lines that the
    result (variables, also in nested lists and tuples) or a guard reads are
    kept, in recorded order, so a dead line costs no evaluator anything."""
    code: dict[tuple, str | None] = {}
    out = fn(*(_Var(code, name) for name in inputs))
    live, program = set(_names(out)), []
    for line, dest in reversed(code.items()):
        if dest is None or dest in live:
            live.update(x for x in line[1:] if isinstance(x, str))
            program.append((dest, *line))
    return program[::-1], out


def _names(out) -> list[str]:
    """The names of the variables in ``out``, a variable or lists and tuples nesting them."""
    if isinstance(out, (list, tuple)):
        return [name for x in out for name in _names(x)]
    return [out.name] if isinstance(out, _Var) else []


def source(program: list[tuple], keep: Iterable[str] = ()) -> list[str]:
    """The recorded lines as Python statements on floats; a guard that holds raises.

    A value that exactly one later line reads, and that is not named in
    ``keep`` (the values the caller reads), is written into that line as a
    parenthesized operand instead of being assigned, while the nesting stays
    within ``_MAX_DEPTH``.  Every operation keeps its operands on their sides,
    so every float rounds as line by line.  A written-in value is computed
    where it is read, later than recorded: it may pass a guard, but a
    division never moves ahead of the guard recorded before it."""
    reads = Counter(x for _, _, a, b in program for x in (a, b) if isinstance(x, str))
    keep, fused, lines = set(keep), {}, []  # fused: name -> (operand text, nesting depth)
    for dest, op, a, b in program:
        # a float formats as its repr, the shortest text that reads back to it
        (ta, da), (tb, db) = (fused.pop(x) if x in fused else (str(x), 0) for x in (a, b))
        if dest is None:
            lines.append(f"if abs({ta}) < {tb}: raise SingularDivisionError(VANISHING)")
        elif reads[dest] == 1 and dest not in keep and max(da, db) < _MAX_DEPTH:
            fused[dest] = f"({ta} {op} {tb})", max(da, db) + 1
        else:
            lines.append(f"{dest} = {ta} {op} {tb}")
    return lines


def function(params: str, lines: list[str], **scope) -> Callable:
    """``def f(params)`` with the body ``lines``, compiled in ``scope`` plus what a guard raises."""
    scope.update(SingularDivisionError=SingularDivisionError, VANISHING=VANISHING)
    exec(f"def f({params}):\n    " + "\n    ".join(lines), scope)
    return scope.pop("f")  # f's globals are scope: popping f breaks the reference cycle
