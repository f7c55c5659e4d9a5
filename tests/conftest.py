import signal
from dataclasses import replace

import pytest

from qhfocus import Monomial, casestudy, dop853, flow, spectral


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


@pytest.fixture
def deadline():
    """``deadline(seconds)`` fails the test once it has run that many more seconds.

    It uses SIGALRM, so a solve that loops forever fails the test instead of
    stalling the run."""

    def expire(signum, frame):
        pytest.fail("the test outran its deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fresh_caches():
    """Empties the caches of compiled programs and solver kernels, of period models, of
    reference integrals and of the panels' power tables.

    A test that counts recordings, compilations, builds or quadratures starts
    from empty caches, so the tests run before it cannot change its counts;
    they are emptied again after it, so no test reads what one patched in."""
    caches = (flow._staged_levels, flow._period_model, flow._cartesian_rhs,
              casestudy._reference_quadrature, spectral._power, dop853._code)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
