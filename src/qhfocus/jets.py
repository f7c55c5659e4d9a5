"""Truncated univariate power-series (jet) arithmetic.

A ``Jet`` holds the coefficients c_0..c_K of a series truncated at order K.
Radius series (no constant term) are jets with c_0 = 0; ``Jet.radius`` builds
them from the c_1..c_K list used by the flow engine.  Arithmetic is exact
truncated-ring arithmetic and is generic over the coefficient type (floats by
default, ``mpmath.mpf`` in the extended-precision path).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SingularDivisionError

_TINY = 1e-300


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
        raise SingularDivisionError("division by a jet with vanishing constant term")
    out = [0 * a[0]] * n
    for m in range(n):
        s = a[m] if m < len(a) else 0 * a[0]
        for i in range(m):
            s = s - out[i] * b[m - i]
        out[m] = s / b[0]
    return out


@dataclass(frozen=True)
class Jet:
    """Series c_0 + c_1 h + ... + c_K h**K, truncated at order K."""

    coeffs: tuple

    @classmethod
    def radius(cls, radius_coeffs) -> "Jet":
        """Jet with zero constant term from the c_1..c_K list."""
        return cls((0.0,) + tuple(radius_coeffs))

    @classmethod
    def identity(cls, order: int) -> "Jet":
        """The series h, truncated at the given order."""
        return cls((0.0, 1.0) + (0.0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def radius_coeffs(self) -> tuple:
        """c_1..c_K of a constant-free jet."""
        if self.coeffs[0] != 0:
            raise ValueError("not a radius jet: nonzero constant term")
        return self.coeffs[1:]

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet((other,) + (0.0,) * self.order)

    def __add__(self, other) -> "Jet":
        o = self._coerce(other)
        n = min(self.order, o.order) + 1
        return Jet(tuple(a + b for a, b in zip(self.coeffs[:n], o.coeffs[:n])))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        o = self._coerce(other)
        n = min(self.order, o.order) + 1
        return Jet(tuple(a - b for a, b in zip(self.coeffs[:n], o.coeffs[:n])))

    def __rsub__(self, other) -> "Jet":
        return self._coerce(other) - self

    def __neg__(self) -> "Jet":
        return Jet(tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(tuple(other * a for a in self.coeffs))
        n = min(self.order, other.order) + 1
        return Jet(tuple(mul_trunc(self.coeffs, other.coeffs, n)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(tuple(a / other for a in self.coeffs))
        n = min(self.order, other.order) + 1
        a, b = list(self.coeffs[:n]), list(other.coeffs[:n])
        if abs(b[0]) >= _TINY:
            return Jet(tuple(div_trunc(a, b, n)))
        # matched leading zeros: shift both down by the valuation of b
        v = next((i for i, bi in enumerate(b) if abs(bi) >= _TINY), None)
        if v is None:
            raise SingularDivisionError("division by a numerically zero jet")
        if any(ai != 0 for ai in a[:v]):
            raise SingularDivisionError(
                "dividend valuation below divisor valuation"
            )
        return Jet(tuple(div_trunc(a[v:], b[v:], n - v)))

    def compose(self, inner: "Jet") -> "Jet":
        """self(inner(h)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("compose requires the inner jet to be constant-free")
        n = min(self.order, inner.order) + 1
        acc = [0.0] * n
        acc[0] = self.coeffs[min(n, len(self.coeffs)) - 1]
        for c in reversed(self.coeffs[: n - 1]):
            acc = mul_trunc(acc, inner.coeffs, n)
            acc[0] = acc[0] + c
        return Jet(tuple(acc))

    def __call__(self, h):
        """Evaluate the truncated series at a number h by Horner's rule."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * h + c
        return acc

