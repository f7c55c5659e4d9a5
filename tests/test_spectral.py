"""Chebyshev panels, and the focal values as successive quadratures on them."""
import hashlib

import numpy as np
import pytest

from qhfocus import Monomial, WeightedField, flow, focal_values, jets, polar, spectral
from qhfocus.casestudy import eq325_field, eq329_weighted, f2_integrand, field23
from qhfocus.errors import PolarChartError, QuadratureError
from qhfocus.fields import normalize
from qhfocus.flow import (
    DEFAULT_TOL, _jet_coeffs, _staged_levels, _staged_recording, default_order, integrate_jet,
    return_map,
)
from qhfocus.focal import random_field
from qhfocus.polar import PolarRHS
from qhfocus.quadrature import PanelAntiderivative
from qhfocus.spectral import N, Panels, PanelSets


def test_panels_integrate_and_interpolate_to_rounding():
    # exp(sin) is entire: 8 panels of 32 points resolve it to rounding
    panels = Panels(8)
    theta, cos, sin = PanelSets([panels]).nodes
    assert np.array_equal(cos, np.cos(theta)) and np.array_equal(sin, np.sin(theta))
    assert theta.shape == (8 * N,) and np.all(np.diff(theta) > 0)
    assert 0 < theta[0] and theta[-1] < 2 * np.pi
    cumulative, total = panels.integrate(np.cos(theta) * np.exp(np.sin(theta)))
    assert np.max(np.abs(cumulative - np.expm1(np.sin(theta)))) <= 1e-14
    assert abs(total) <= 1e-14
    at = np.array([0.0, 0.3, theta[5], np.pi, 2 * np.pi])
    values = np.stack([np.exp(np.sin(theta)), np.cos(3 * theta)])
    assert np.max(np.abs(panels.interpolate(values, at) - [np.exp(np.sin(at)), np.cos(3 * at)])) <= 1e-14
    assert panels.interpolate(values, theta[5])[0] == values[0, 5]  # a node gives its own value
    with pytest.raises(ValueError, match="outside the turn"):
        panels.interpolate(values, 7.0)


def test_panel_sets_integrate_each_set_as_alone():
    # each set runs on the finest set's matrix times a power of two: bitwise its own integral
    rng = np.random.default_rng(0)
    for counts in (spectral.PAIR, (8, 32), (16, 8, 64), (32,)):
        sets = PanelSets(map(Panels, counts))
        f = rng.standard_normal(sum(counts) * N)
        f[:N] = -0.0  # a first panel of zeros keeps its signs
        values, totals = sets.integrate(f)
        alone = [panels.integrate(part) for panels, part in zip(sets, sets.split(f))]
        assert values.tobytes() == np.concatenate([c for c, _ in alone]).tobytes()
        assert np.array(totals).tobytes() == np.array([total for _, total in alone]).tobytes()
    with pytest.raises(ValueError, match="not a power of two apart"):
        PanelSets(map(Panels, (8, 24))).integrate(np.zeros(32 * N))


@pytest.mark.parametrize("count", [8, 16, 32, 1024])
def test_the_chain_with_lanes_and_without_agrees_bitwise(count):
    # lanes chain by np.cumsum, a lone row and every PanelSets by float sums: the same
    # sequential IEEE sums, so each lane is bitwise its row alone
    rng = np.random.default_rng(count)
    f = rng.standard_normal((3, count * N)) * [[1.0], [1e-300], [1e300]]
    f[0, :N] = -0.0  # a first panel of zeros keeps its signs
    panels = Panels(count)
    values, totals = panels.integrate(f)
    for row, lane, total in zip(f, values, totals):
        alone, alone_total = panels.integrate(row)
        assert type(alone_total) is float
        assert lane.tobytes() == alone.tobytes()
        assert total.tobytes() == np.float64(alone_total).tobytes()


def test_panel_sets_chain_as_lanes_do():
    sets = PanelSets(map(Panels, spectral.PAIR))
    f = np.random.default_rng(1).standard_normal(sum(spectral.PAIR) * N)
    values, totals = sets.integrate(f)
    lanes = [panels.integrate(part[None]) for panels, part in zip(sets, sets.split(f))]
    assert values.tobytes() == np.concatenate([v[0] for v, _ in lanes]).tobytes()
    assert [type(t) for t in totals] == [float, float]
    assert np.array(totals).tobytes() == np.concatenate([t for _, t in lanes]).tobytes()


@pytest.fixture(scope="module")
def criterion_8():
    """The criterion-8 field, its double report and its dps-30 solve at K = 7."""
    field = eq325_field(1.221677348996793e-08, 2.4063404265252253e-04)
    return field, focal_values(field, K=7, integ_tol=1e-13), focal_values(field, K=7, precision="extended")


def _oracle_fields():
    damped = eq329_weighted(0.0, 1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4, delta2=2.72e-2)
    yield pytest.param(damped, 8, 30, id="criterion-10")
    yield pytest.param(field23(0.5, 1.0, -0.3, 1.0), 5, 20, id="field23")
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        for seed in range(5):
            yield pytest.param(random_field(p, q, np.random.default_rng(seed)), 5, 20,
                               id=f"{p}:{q}-{seed}")


def _within_estimate(dbl, ext):
    err = np.abs(np.array(dbl.values) - np.array(ext.values, dtype=float))
    assert len(dbl.error_estimate) == dbl.order - 1
    assert np.all(err <= dbl.error_estimate), (err, dbl.error_estimate)
    assert abs(dbl.nu1 - float(ext.nu1)) <= max(dbl.error_estimate)


def test_criterion_8_values_lie_within_their_estimates_of_dps_30(criterion_8):
    _, dbl, ext = criterion_8
    _within_estimate(dbl, ext)
    # nu_2 = 1.34e-9 is right to 1e-6 relative; DOP853 at tol 1e-13 was 1.4e-4 off
    assert abs(dbl.nu(2) / float(ext.nu(2)) - 1) <= 1e-6
    assert (dbl.steps, dbl.rhs_evals) == (16, (8 + 16) * N)


@pytest.mark.parametrize("field, K, dps", _oracle_fields())
def test_values_lie_within_their_estimates_of_the_extended_solve(field, K, dps):
    _within_estimate(focal_values(field, K=K, integ_tol=1e-13),
                     focal_values(field, K=K, precision="extended", dps=dps))


@pytest.mark.parametrize("field", [
    eq325_field(1.22e-8, 2.41e-4),
    eq329_weighted(-0.2, 1.0, 0.3, 0.1, delta0=0.02),
    *(random_field(p, q, np.random.default_rng(3)) for p, q in ((1, 1), (1, 2), (2, 3), (3, 4))),
])
def test_staged_program_yields_the_jet_coefficients_with_the_upper_levels_zero(field):
    # level k of the jet ODE is (R_0/Q_0) nu_k + P_k: the generator's P_k is
    # output k of _jet_coeffs on floats with nu_k..nu_K at 0, bitwise
    K = 7
    rhs = PolarRHS(field)
    zero = tuple(v == "z" for v in rhs.recording()[1])
    theta = np.array([0.1, 1.7, 2.9, 5.3])
    R, Q = rhs.components(np.cos(theta), np.sin(theta))
    parts = [x for x, zr in zip(R + Q, zero) if not zr]
    nu = np.random.default_rng(0).uniform(-1, 1, (K, theta.size))
    program = _staged_levels(K, zero)(*parts, nu[0])
    staged = [next(program)] + [program.send(nu[k]) for k in range(1, K - 1)]
    for i in range(theta.size):
        flat = iter(float(p[i]) for p in parts)
        comps = [0.0 if z else next(flat) for z in zero]
        R, Q = comps[: len(zero) // 2], comps[len(zero) // 2 :]
        for k in range(2, K + 1):
            levels = [float(v) for v in nu[: k - 1, i]] + [0.0] * (K - k + 1)
            assert staged[k - 2][i] == _jet_coeffs(R, Q, K, levels)[k - 1]
    # the levels share their lines: no more than one recording of _jet_coeffs at order K
    n = len(zero) // 2
    inputs, staged_lines, _ = _staged_recording(K, zero)
    kernel, _ = jets.record(lambda *x: _jet_coeffs(x[:n], x[n : 2 * n], K, x[2 * n :]),
                            *inputs, *(f"y{i}" for i in range(K)))
    assert len(staged_lines) <= len(kernel)


def _near_monodromy_limit(beta: float) -> WeightedField:
    """A 1:1 field whose terms at the leading weight make Q_0 = 1 + beta sin(2 theta)."""
    return WeightedField(p=1, q=1, x_terms=(
        Monomial(1, 0, -beta), Monomial(3, 0, 0.4), Monomial(1, 2, -0.3), Monomial(2, 1, 0.5),
    ), y_terms=(
        Monomial(0, 1, beta), Monomial(2, 1, 0.2), Monomial(0, 3, 0.7), Monomial(3, 0, -0.6),
    ))


def test_fields_near_the_monodromy_limit_need_more_panels_or_are_refused():
    # min Q_0 = 0.01: the strip of analyticity narrows, and the estimate takes
    # the panels from 16 to 64, where it holds against dps 30
    field = _near_monodromy_limit(0.99)
    dbl = focal_values(field, K=4, integ_tol=1e-13)
    assert dbl.steps == 64
    _within_estimate(dbl, focal_values(field, K=4, precision="extended"))
    # min Q_0 = 1e-5: no level settles within the panel cap, and the refusal names one
    with pytest.raises(QuadratureError, match=r"nu_\d did not settle .* within 1024 panels"):
        integrate_jet(PolarRHS(_near_monodromy_limit(0.99999)), tol=1e-13, order=4)


def test_a_pass_compiles_one_staged_program_per_shape(fresh_caches):
    fields = [random_field(p, q, np.random.default_rng(seed))
              for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)) for seed in range(3)]
    # levels 1 and 3 are empty: R_1, Q_1, R_3 and Q_3 are structurally zero
    fields.append(WeightedField(p=1, q=1, x_terms=(Monomial(3, 0, -0.4),),
                                y_terms=(Monomial(0, 5, 0.3),)))
    zeros = [tuple(v == "z" for v in PolarRHS(f).recording()[1]) for f in fields]
    # R_0 of a 1:1 field is c s (c**0 - s**0), which folds to the structural
    # zero, while Q_0 is never zero
    assert all(zero[0] == (f.p == f.q == 1) and not zero[len(zero) // 2]
               for f, zero in zip(fields, zeros))
    assert zeros[-1] == (True, True, False, True, False, False, True, False, True, False)
    shapes = {(default_order(f.p, f.q), zero) for f, zero in zip(fields, zeros)}
    for field in fields:
        focal_values(field)
    assert _staged_levels.cache_info().misses == len(shapes) < len(fields)
    for field in fields:  # a second pass compiles nothing
        focal_values(field)
    assert _staged_levels.cache_info().misses == len(shapes)


def _table_fields():
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        yield pytest.param(random_field(p, q, np.random.default_rng(0)), id=f"{p}:{q}")
    yield pytest.param(eq325_field(1.22e-08, 2.41e-04), id="eq325")
    # terms at the leading weight: R_0 and Q_0 take level 0, apart from the table's
    yield pytest.param(_near_monodromy_limit(0.5), id="leading-weight")


@pytest.mark.parametrize("field", _table_fields())
def test_components_on_panels_read_the_power_tables_bitwise(field):
    rhs = PolarRHS(field)
    for counts in (spectral.PAIR, (32,), (64,), (128,)):
        sets = PanelSets(map(Panels, counts))
        _, cos, sin = sets.nodes
        # a set's nodes are those of its own sweep alone, bitwise
        for panels, part in zip(sets, sets.split(cos)):
            assert part.tobytes() == PanelSets([panels]).nodes[1].tobytes()
        copies = np.array(cos), np.array(sin)  # writable copies: plain ** powers
        assert spectral.powers(cos) and spectral.powers(sin)
        assert spectral.powers(copies[0]) is spectral.powers(copies[1]) is None
        assert spectral.powers(cos[N:]) is spectral.powers(sin[: 2 * N]) is None  # slices too
        R, Q = rhs.components(cos, sin)
        plain = rhs.components(*copies)
        assert [x.tobytes() for x in R + Q] == [x.tobytes() for x in plain[0] + plain[1]]
        # the tables are still the powers: nothing wrote into one
        for k in range(2 * max(field.p, field.q) + 1):
            assert spectral.powers(cos)(k).tobytes() == (cos**k).tobytes()
            assert spectral.powers(sin)(k).tobytes() == (sin**k).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        spectral.powers(PanelSets([Panels(8)]).nodes[1])(3)[0] = 0.0


def test_a_second_field_of_a_support_builds_no_power(fresh_caches):
    focal_values(eq325_field(1.22e-08, 2.41e-04))
    built = spectral._power.cache_info().misses
    assert built > 0
    read = spectral._power.cache_info().hits
    focal_values(eq325_field(-3.0e-08, 1.0e-04))
    assert spectral._power.cache_info().misses == built
    assert spectral._power.cache_info().hits > read


def test_components_never_write_the_weight_only_tables(fresh_caches):
    # the damped field's terms at the leading weight add to R_0 and Q_0: were that in place,
    # the plain field of the same weights, evaluated after it, would read the sums
    damped = PolarRHS(eq329_weighted(0.0, 1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4,
                                     delta2=2.72e-2))
    plain = PolarRHS(eq329_weighted(0.0, 1.0, sigma=0.1, delta1=2.46e-4, delta2=2.72e-2))
    assert damped._level0 and not plain._level0
    for counts in (spectral.PAIR, (32,)):
        _, cos, sin = PanelSets(map(Panels, counts)).nodes
        for rhs in (damped, plain, damped):
            R, Q = rhs.components(cos, sin)
            uncached = rhs.components(np.array(cos), np.array(sin))
            assert [x.tobytes() for x in R + Q] == [x.tobytes() for x in uncached[0] + uncached[1]]
        table = polar._weight_only_table(1, 1, spectral.powers(cos), spectral.powers(sin))
        assert all(not a.flags.writeable for a in table)
        with pytest.raises(ValueError, match="read-only"):
            table[1][0] = 0.0
    assert polar._weight_only_table.cache_info().misses == 2


def _counted_components(monkeypatch) -> list[int]:
    """The sizes of the cosine arrays of the ``components`` calls made from here on."""
    calls, components = [], PolarRHS.components
    monkeypatch.setattr(PolarRHS, "components",
                        lambda self, c, s: calls.append(c.size) or components(self, c, s))
    return calls


def test_return_map_evaluates_the_components_once_per_sweep(monkeypatch):
    # the criterion-8 grid: 8 chunks of 8 radii, each settled by the first sweep (16 calls
    # when each panel set of the pair had its own)
    rhs = PolarRHS(normalize(eq325_field(1.22167735e-08, 2.40634043e-04)).field)
    rhs.safe_radius()
    calls = _counted_components(monkeypatch)
    return_map(rhs, np.geomspace(0.03, 0.45, 64), 1e-13)
    assert calls == [sum(spectral.PAIR) * N] * 8


def test_a_turn_off_the_chart_evaluates_the_components_once_per_sweep(monkeypatch):
    # return_map halves the panels of a turn that leaves the chart down to single ones, at
    # every count up to MAX_PANELS, on slices of each sweep's components (23 calls on
    # 118,496 nodes when each half had its own)
    rhs = PolarRHS(random_field(1, 1, np.random.default_rng(0)))
    h = 0.9 * rhs.safe_radius()
    calls = _counted_components(monkeypatch)
    with pytest.raises(PolarChartError):
        return_map(rhs, h)
    assert calls == [sum(spectral.PAIR) * N] + [count * N for count in (32, 64, 128, 256, 512, 1024)]
    assert sum(calls) == 65_280
    # every array listed for ``powers`` is one of a sweep's node arrays, kept by ``_nodes``,
    # with the power function of its own tables
    for key, (array, power) in spectral._REGISTRY.items():
        counts, which = power.args
        assert key == id(array) and array is spectral._nodes(counts)[which]
        assert spectral.powers(array) is power


# -- the first two panel sets swept as one, every float as two separate sweeps gave it --

_ANGLES = np.array([0.0, 0.7, 2.0, np.pi, 4.4, 2 * np.pi])


def _digest(*arrays) -> str:
    """The first 16 hex digits of the SHA-256 of the arrays' float64 bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _jet_cases():
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        for seed in range(3):
            field = random_field(p, q, np.random.default_rng(seed))
            yield pytest.param(field, None, DEFAULT_TOL, id=f"{p}:{q}-{seed}")
    yield pytest.param(eq325_field(1.221677348996793e-08, 2.4063404265252253e-04), 7, 1e-13,
                       id="criterion-8")
    yield pytest.param(eq329_weighted(0.0, 1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4,
                                      delta2=2.72e-2), 8, 1e-13, id="damped")
    # settled only past 16 panels: refinement goes on one set at a time
    yield pytest.param(_near_monodromy_limit(0.95), 4, 1e-13, id="32-panels")
    yield pytest.param(_near_monodromy_limit(0.99), 4, 1e-13, id="64-panels")


# frozen from 8 and 16 panels swept one after the other: the report's rhs_evals and steps,
# and the digest of its values and error_estimate, then of the jet's final, error and
# at(_ANGLES).  The digests are of numpy 2.4's exp, cos and sin on an x86-64 Xeon; where
# those round otherwise, they are refrozen from the commit before the joint sweep.
_JET_PINS = {
    "1:1-0": (768, 16, '93f9f2169bb7f141', '7b0080b85ac1c6ef'),
    "1:1-1": (768, 16, '782f2fd3189e7d22', 'b8d26ce87f098be9'),
    "1:1-2": (768, 16, '93408a6690cb043d', '2231650a307516df'),
    "1:2-0": (768, 16, 'b64ad5de08a4d743', 'edb5f859fe19d5ea'),
    "1:2-1": (768, 16, '244a38a45797c1d5', 'faaccde4073ed1c3'),
    "1:2-2": (768, 16, '7bd074c99868ee30', '58b4e99ab15cd143'),
    "2:3-0": (768, 16, 'db2f0e721ca9d8ef', '012788d4287879cb'),
    "2:3-1": (768, 16, 'eaff4c213b9d9c0d', 'c131e4139144fa92'),
    "2:3-2": (768, 16, 'c5add07ffe38a587', 'b99a3c4775531a97'),
    "3:4-0": (768, 16, '8d32c5646a6e3713', '72baa507461a0d4e'),
    "3:4-1": (768, 16, 'd2a668ae9fcb7965', 'f7ec1dea56457af9'),
    "3:4-2": (768, 16, '5ba7127b8a20cd2d', 'fb110135d2a2a204'),
    "criterion-8": (768, 16, '22c1a8288d211461', '037b4b58082cabe8'),
    "damped": (768, 16, '38778493c62ca3af', '3f2775d3c57186c2'),
    "32-panels": (1792, 32, '6d25561f1652a39e', '2d9db5a8dc3c92c0'),
    "64-panels": (3840, 64, 'eebd99816a975ac5', '788c4b336d9f62af'),
}


@pytest.mark.parametrize("field, K, tol", _jet_cases())
def test_focal_values_are_those_of_separate_sweeps(request, field, K, tol):
    report = focal_values(field, K=K, integ_tol=tol)
    jet = integrate_jet(PolarRHS(field), tol=tol, order=K)
    assert (report.rhs_evals, report.steps, _digest(report.values, report.error_estimate),
            _digest(jet.final, jet.error, jet.at(_ANGLES))) == _JET_PINS[request.node.callspec.id]


def _return_map_cases():
    rhs = PolarRHS(normalize(eq325_field(1.22167735e-08, 2.40634043e-04)).field)
    yield pytest.param(rhs, np.geomspace(0.03, 0.45, 64), 1e-13, id="criterion-8-grid")
    yield pytest.param(rhs, 0.2, 1e-13, id="criterion-8-one")
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        rhs = PolarRHS(random_field(p, q, np.random.default_rng(0)))
        h_max = min(0.3, rhs.safe_radius())
        yield pytest.param(rhs, np.geomspace(h_max / 10, h_max, 8), DEFAULT_TOL, id=f"{p}:{q}")


# frozen from 8 and 16 panels swept one after the other: the digest of the returned radii
_RETURN_MAP_PINS = {
    "criterion-8-grid": "f3cb34cca47ec558",
    "criterion-8-one": "d41e46d25babc246",
    "1:1": "af8b52b99d1cee47",
    "1:2": "0a75292c462536df",
    "2:3": "470605fd9979594c",
    "3:4": "208423082a86fff8",
}


@pytest.mark.parametrize("rhs, h, tol", _return_map_cases())
def test_return_maps_are_those_of_separate_sweeps(request, rhs, h, tol):
    assert _digest(return_map(rhs, h, tol)) == _RETURN_MAP_PINS[request.node.callspec.id]


# frozen likewise: the digest of F on the angles of _ANGLES and on 0.1, 0.2, ..., 6.2
_ANTIDERIVATIVE_PINS = {
    "f2": "7dd887b223e5560b",
    "cos": "4e44e24105499681",
    "exp-cos": "2f9b081a373b2a66",
}


@pytest.mark.parametrize("name, g", [
    ("f2", f2_integrand), ("cos", np.cos), ("exp-cos", lambda t: np.exp(np.cos(t)) * np.sin(2 * t)),
])
def test_panel_antiderivatives_are_those_of_separate_sweeps(name, g):
    F = PanelAntiderivative(g)
    thetas = np.concatenate([_ANGLES, np.arange(1, 63) / 10])
    assert _digest(F(thetas), [F(t) for t in thetas]) == _ANTIDERIVATIVE_PINS[name]


@pytest.mark.parametrize("field, steps, sizes", [
    pytest.param(eq325_field(1.22e-08, 2.41e-04), 16, [(8 + 16) * N], id="16-panels"),
    pytest.param(_near_monodromy_limit(0.95), 32, [(8 + 16) * N, 32 * N], id="32-panels"),
])
def test_the_first_two_panel_sets_are_one_sweep(monkeypatch, field, steps, sizes):
    # 8 and 16 panels: one components call on their nodes, one run of the staged program;
    # each later doubling is a sweep of its own
    rhs = PolarRHS(field)
    calls, runs = [], []
    components, staged = PolarRHS.components, flow._staged_levels
    monkeypatch.setattr(PolarRHS, "components",
                        lambda self, c, s: calls.append(c.size) or components(self, c, s))
    monkeypatch.setattr(flow, "_staged_levels",
                        lambda K, zero: lambda *x: runs.append(K) or staged(K, zero)(*x))
    jet = integrate_jet(rhs, tol=1e-13, order=4)
    assert (jet.stats.n_steps, jet.stats.n_rhs_evals) == (steps, sum(sizes))
    assert calls == sizes and runs == [4] * len(sizes)


def test_a_second_pass_builds_no_power(fresh_caches):
    # a pass over survey-like fields and a return map: the map's sweeps read the tables of
    # the pair as the focal values do
    fields = [random_field(p, q, np.random.default_rng(seed))
              for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)) for seed in range(3)]
    fields += [field23(*c) for c in ((0.5, 1.0, -0.3, 1.0), (0.0, -0.6, 0.2, 0.0),
                                     (0.4, 0.0, 0.0, 0.7), (0.0, 0.8, -0.5, 0.3))]
    rhs = PolarRHS(normalize(eq325_field(1.22167735e-08, 2.40634043e-04)).field)

    def one_pass():
        for field in fields:
            focal_values(field)
        return_map(rhs, np.geomspace(0.03, 0.45, 16), 1e-13)

    one_pass()
    built = spectral._power.cache_info().misses, polar._weight_only_table.cache_info().misses
    assert built[1] > 0
    one_pass()
    assert (spectral._power.cache_info().misses,
            polar._weight_only_table.cache_info().misses) == built
