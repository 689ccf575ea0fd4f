"""Energy functional tests: weight, density, Kato margin, classification."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqharmonic import energy, geometry, sections
from pqharmonic.energy import (
    MetricParams,
    QRiemannianClass,
    classify_q_riemannian,
    conformal_energy_polar,
    density_from_jets,
    kato_margin_from_jets,
    weight,
)
from pqharmonic.sections import (
    ConformalGradient,
    Constant,
    ConstantTorus,
    Hopf,
    LinearAmbient,
    Rescaled,
    Zero,
)

S2 = geometry.sphere(2)
S3 = geometry.sphere(3)
S5 = geometry.sphere(5)
T2 = geometry.torus(2)


def mc(m, n, seed):
    return geometry.make_quadrature(m, geometry.MONTE_CARLO, n, seed)


def jets(s, m, X):
    return sections.jet_batch(s, m, np.atleast_2d(X), order=1)


# --- weight -------------------------------------------------------------------


@pytest.mark.parametrize("arg,expected", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.25)])
def test_weight_values(arg, expected):
    assert weight(arg) == expected


def test_weight_rejects_negative():
    with pytest.raises(ValueError):
        weight(-0.1)


@given(st.floats(min_value=0, max_value=1e12))
def test_weight_in_unit_interval_and_decreasing(t):
    w = weight(t)
    assert 0.0 < w <= 1.0
    assert weight(t + 1.0) < w


# --- density ---------------------------------------------------------------------


def test_hopf_density_is_two_at_any_point_for_sasaki_params():
    dens = density_from_jets(jets(Hopf(), S3, mc(S3, 20, 0).points), MetricParams(0.0, 0.0))
    assert np.max(np.abs(dens - 2.0)) < 1e-14


@pytest.mark.parametrize("m,two_m", [(S3, 2.0), (S5, 4.0)])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [-1.0, 0.0, 2.0])
def test_scaled_hopf_density_closed_form(m, two_m, k, q):
    # constant-length field: grad F = 0, so q drops out
    p = 1.7
    expected = (1.0 + k * k) ** (-p) * two_m * k * k
    s = Rescaled(Hopf(), Constant(k))
    got = density_from_jets(jets(s, m, mc(m, 1, 1).points), MetricParams(p, q))
    assert abs(got[0] - expected) < 1e-14


def test_zero_section_density_vanishes():
    dens = density_from_jets(jets(Zero(), S3, mc(S3, 1, 2).points), MetricParams(3.0, -2.0))
    assert dens[0] == 0.0


# --- Kato margin -----------------------------------------------------------------


def test_kato_margin_formula_for_exact_conformal_solution():
    """Margin reduces to (n-1)*h^2 + (n-2)*h^4 in the height h at the solution."""
    n = 5
    c = 1.0 / math.sqrt(n - 2)
    q = float(2 - n)
    axis = np.zeros(6)
    axis[0] = c
    s = ConformalGradient(axis)
    X = mc(S5, 50, 3).points
    lam = X @ axis
    expected = (n - 1) * lam**2 + (n - 2) * lam**4
    assert np.max(np.abs(kato_margin_from_jets(jets(s, S5, X), q) - expected)) < 1e-12


def test_kato_margin_nonnegative_at_q_zero():
    rng = np.random.Generator(np.random.Philox(4))
    a_mat = rng.standard_normal((4, 4))
    for s in (Hopf(), LinearAmbient(a_mat, rng.standard_normal(4))):
        assert np.all(kato_margin_from_jets(jets(s, S3, mc(S3, 20, 5).points), 0.0) >= 0.0)


def test_kato_margin_zero_for_parallel_field():
    s = ConstantTorus(np.array([0.4, -0.2]))
    assert kato_margin_from_jets(jets(s, T2, np.array([0.3, 0.9])), -5.0)[0] == 0.0


# --- classification ----------------------------------------------------------------


@pytest.mark.parametrize(
    "q,expected",
    [
        (-1.0, QRiemannianClass.BOUNDARY),
        (-0.5, QRiemannianClass.STRICT),
        (-2.0, QRiemannianClass.NOT),
    ],
)
def test_classify_unit_hopf(q, expected):
    quad = mc(S3, 500, 6)
    result = classify_q_riemannian(Hopf(), S3, q, quad)
    assert result.verdict is expected
    assert result.n_samples == 500


def test_classify_empty_quadrature():
    empty = geometry.QuadratureSet(np.zeros((0, 4)), np.zeros(0), 0, geometry.MONTE_CARLO)
    with pytest.raises(ValueError):
        classify_q_riemannian(Hopf(), S3, -1.0, empty)


# --- energy -------------------------------------------------------------------------


def test_hopf_energy_exact_constant_density():
    quad = mc(S3, 100000, 7)
    report = energy.energy(Hopf(), S3, MetricParams(0.0, 0.0), quad)
    assert abs(report.total - 2.0 * math.pi**2) < 1e-12
    assert report.density_min == report.density_max == 2.0
    assert report.n_samples == 100000 and report.seed == 7


def test_conformal_energy_monte_carlo_and_polar_oracle():
    quad = mc(S2, 100000, 8)
    report = energy.energy(ConformalGradient(np.array([1.0, 0.0, 0.0])), S2,
                           MetricParams(0.0, 0.0), quad)
    exact = 4.0 * math.pi / 3.0
    assert abs(report.total - exact) / exact < 0.02
    assert abs(conformal_energy_polar(2, 1.0, 0.0, 0.0) - exact) < 1e-6


def test_polar_oracle_matches_monte_carlo_at_nontrivial_params():
    p, q, c = 4.0, -1.0, 1.0
    quad = mc(S3, 200000, 9)
    axis = np.array([c, 0.0, 0.0, 0.0])
    report = energy.energy(ConformalGradient(axis), S3, MetricParams(p, q), quad)
    oracle = conformal_energy_polar(3, c, p, q)
    assert abs(report.total - oracle) / abs(oracle) < 0.02


def test_zero_energy():
    report = energy.energy(Zero(), S3, MetricParams(2.0, 5.0), mc(S3, 100, 10))
    assert report.total == 0.0


def test_energy_report_json_keys():
    report = energy.energy(Hopf(), S3, MetricParams(1.0, -1.0), mc(S3, 50, 11))
    payload = report.to_json_dict()
    assert set(payload) == {"total", "density_min", "density_max", "N", "seed", "p", "q"}


def test_energy_empty_quadrature():
    empty = geometry.QuadratureSet(np.zeros((0, 4)), np.zeros(0), 0, geometry.MONTE_CARLO)
    with pytest.raises(ValueError):
        energy.energy(Hopf(), S3, MetricParams(0.0, 0.0), empty)


# --- invariants -----------------------------------------------------------------------


def test_nonnegative_density_and_energy_for_nonnegative_q():
    rng = np.random.Generator(np.random.Philox(12))
    quad = mc(S3, 400, 12)
    fams = [
        Hopf(),
        ConformalGradient(np.array([0.4, 1.0, -0.3, 0.2])),
        LinearAmbient(rng.standard_normal((4, 4)), rng.standard_normal(4)),
    ]
    for s in fams:
        for q in (0.0, 0.5, 4.0):
            mp = MetricParams(rng.uniform(-3, 3), q)
            report = energy.energy(s, S3, mp, quad)
            assert report.total >= 0.0
            assert report.density_min >= 0.0


def test_q_positive_sections_have_nonnegative_energy():
    """Sampled Kato margin >= -1e-9 everywhere forces energy >= -1e-6."""
    quad = mc(S5, 2000, 13)
    n = 5
    c = 1.0 / math.sqrt(n - 2)
    axis = np.zeros(6)
    axis[0] = c
    s = ConformalGradient(axis)
    q = float(2 - n)
    margins = kato_margin_from_jets(jets(s, S5, quad.points), q)
    assert np.min(margins) >= -1e-9
    report = energy.energy(s, S5, MetricParams(3.0, q), quad)
    assert report.total >= -1e-6


def test_zero_energy_only_for_parallel_among_q_positive():
    quad = geometry.make_quadrature(T2, geometry.TORUS_GRID, 100, 0)
    s = ConstantTorus(np.array([2.0, 1.0]))
    report = energy.energy(s, T2, MetricParams(1.0, 1.0), quad)
    assert report.total == 0.0
    margins = kato_margin_from_jets(jets(s, T2, quad.points), 1.0)
    assert np.max(margins) <= 1e-9  # zero energy comes with zero margin


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_constant_length_scaling_law(k):
    """E_{p,q} = (1+k^2)^(-p) * E_{0,0} for constant-length fields, any q."""
    quad = mc(S3, 3000, 14)
    s = Rescaled(Hopf(), Constant(k))
    base = energy.energy(s, S3, MetricParams(0.0, 0.0), quad).total
    for p in (-1.0, 0.0, 2.0, 4.0):
        for q in (-1.0, 0.0, 3.0):
            total = energy.energy(s, S3, MetricParams(p, q), quad).total
            expected = (1.0 + k * k) ** (-p) * base
            assert abs(total - expected) <= 1e-12 * max(1.0, abs(expected))
