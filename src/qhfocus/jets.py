"""Truncated power-series products and quotients on coefficient lists.

A series c_0 + c_1 h + ... + c_{n-1} h**(n-1) is the list of its
coefficients.  Both operations are exact truncated-ring arithmetic, generic
over the coefficient type.  The jet transports run them once per solve, on
the recording variables of ``flow._record_jet_rhs``; the recorded program is
then evaluated on floats or on fixed-point Taylor series in theta.
"""
from __future__ import annotations

from typing import Sequence

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
