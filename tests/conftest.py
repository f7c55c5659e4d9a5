from dataclasses import replace

import pytest

from qhfocus import Monomial


@pytest.fixture(scope="session")
def unnormalized():
    """Builder of a field with leading coefficients (lam1, lam2) whose
    ``normalize`` gives back the given normalized field, up to rounding."""

    def build(field, lam1, lam2):
        p, q = field.p, field.q
        sx, sy = (q / lam2) ** (1 / (2 * q)), (p / lam1) ** (1 / (2 * p))

        def scaled(terms, own):
            return tuple(
                Monomial(t.k, t.j, t.c * own / (sx**t.k * sy**t.j * sx * sy)) for t in terms
            )

        return replace(
            field,
            lambda1=lam1,
            lambda2=lam2,
            x_terms=scaled(field.x_terms, sx),
            y_terms=scaled(field.y_terms, sy),
        )

    return build
