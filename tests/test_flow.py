import numpy as np
import pytest

from qhfocus import Monomial, WeightedField, return_map
from qhfocus.errors import NoReturnError
from qhfocus.fields import normalize
from qhfocus.flow import (
    default_order,
    estimate_period,
    identity_residuals,
    integrate_jet,
    integrate_scalar,
    nu1_closed_form,
    section_return,
)
from qhfocus.polar import PolarRHS


def leading_field(p, q):
    return WeightedField(p=p, q=q, x_terms=(), y_terms=())


def field23(a50=1.0, a22=0.5, b41=1.0, b13=-0.3):
    return WeightedField(
        p=2, q=3,
        x_terms=(Monomial(5, 0, a50), Monomial(2, 2, a22)),
        y_terms=(Monomial(4, 1, b41), Monomial(1, 3, b13)),
    )


def test_default_order_by_parity():
    assert default_order(2, 3) == 7  # odd p+q: even focal indices up to 6
    assert default_order(1, 1) == 8  # even p+q: odd focal indices up to 7


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4)])
def test_first_jet_coefficient_is_closed_form(p, q):
    rhs = PolarRHS(leading_field(p, q))
    traj = integrate_jet(rhs, order=3, tol=1e-13)
    for theta in np.linspace(0.1, 2 * np.pi, 25):
        nu1 = traj.nu(1, theta)
        assert nu1 == pytest.approx(float(nu1_closed_form(p, q, theta)), abs=5e-12)


def test_core_system_jet_is_identity_after_full_turn():
    rhs = PolarRHS(leading_field(2, 3))
    final = integrate_jet(rhs, order=5, tol=1e-13).final
    expect = (1.0, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(final.radius_coeffs, expect, atol=1e-11)


def test_energy_conservation_on_hamiltonian_core():
    # H = x**6/2 + y**4/2 is invariant for the (2,3) leading flow
    rhs = PolarRHS(leading_field(2, 3))
    h = 0.1

    def energy(theta, r):
        x, y = r**2 * np.cos(theta), r**3 * np.sin(theta)
        return 0.5 * x**6 + 0.5 * y**4

    e0 = energy(0.0, h)
    drift = []
    for theta in np.linspace(0.5, 2 * np.pi, 12):
        r = integrate_scalar(rhs, h, 0.0, theta, tol=1e-13)
        drift.append(abs(energy(theta, r) - e0))
    assert max(drift) < 1e-10 * e0


def test_scalar_and_jet_return_maps_agree():
    rhs = PolarRHS(field23())
    traj = integrate_jet(rhs, order=7, tol=1e-13)
    for h in (0.02, 0.05, 0.1):
        scalar = return_map(rhs, h, tol=1e-13)
        jet = traj.final(h)
        assert jet == pytest.approx(scalar, abs=5 * h**8)


def test_composition_identity_residuals():
    rhs = PolarRHS(field23())
    res = identity_residuals(rhs, 0.05, theta_samples=[1.0, -1.0, 2.0, -2.0], tol=1e-12)
    assert max(res["composition"]) < 1e-10


def test_parity_identities_mixed_weights():
    rhs = PolarRHS(field23())
    res = identity_residuals(rhs, 0.05, theta_samples=[0.7, 1.9], tol=1e-12)
    assert "reflection-pi" in res or "reflection-2pi" in res


def test_section_return_linear_center():
    crossing = section_return(lambda x, y: (-y, x), 0.5, tol=1e-12)
    assert crossing.x == pytest.approx(0.5, abs=1e-10)
    assert crossing.time == pytest.approx(2 * np.pi, abs=1e-9)
    assert crossing.direction == 1


def test_section_return_contracts_for_stable_focus():
    mu = 0.05
    crossing = section_return(lambda x, y: (-y - mu * x, x - mu * y), 0.4, tol=1e-12)
    assert crossing.x == pytest.approx(0.4 * np.exp(-2 * np.pi * mu), rel=1e-8)


def test_section_return_rejects_equilibrium_start():
    with pytest.raises((NoReturnError, ValueError)):
        section_return(lambda x, y: (0.0, 0.0), 0.3)


def test_section_return_weighted_field():
    f = field23()
    h = 0.25
    crossing = section_return(f, h**2, tol=1e-12)
    assert crossing.x > 0
    # the polar return radius and the Cartesian section point agree via x = r**p
    r_back = return_map(PolarRHS(f), h, tol=1e-12)
    assert crossing.x == pytest.approx(r_back**2, rel=1e-9)


def test_estimate_period_scales_with_amplitude():
    f = field23()
    t1 = estimate_period(f, 0.1)
    t2 = estimate_period(f, 0.2)
    # dtheta/dt ~ r**(2pq - p - q) so halving h multiplies the period by 2**7
    assert t1 / t2 == pytest.approx(2.0**7, rel=0.05)


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), float("inf")])
def test_nonpositive_tolerance_rejected(tol):
    # tol=0 used to hang the scalar and jet solves instead of failing
    rhs = PolarRHS(field23())
    with pytest.raises(ValueError, match="tolerance"):
        return_map(rhs, 0.1, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        integrate_jet(rhs, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        section_return(field23(), 0.01, tol=tol)


def test_section_return_unnormalized_field(unnormalized):
    f = unnormalized(field23(), 0.788, 13.92)
    n = normalize(f)
    x0 = 0.3**2 * n.scale_x
    crossing = section_return(f, x0, tol=1e-12)
    # the same orbit in normalized coordinates, mapped back through scale_x
    ref = section_return(n.field, x0 / n.scale_x, tol=1e-12)
    assert crossing.x == pytest.approx(ref.x * n.scale_x, rel=1e-10)
