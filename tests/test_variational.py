"""Criticality operator tests: tension, multiplier, residuals, first variation."""

import math

import numpy as np
import pytest

from pqharmonic import geometry, sections
from pqharmonic.energy import MetricParams
from pqharmonic.sections import (
    AxisLinear,
    ConformalGradient,
    Constant,
    ConstantTorus,
    Hopf,
    Rescaled,
    Zero,
)
from pqharmonic.variational import (
    VariationSpec,
    first_variation,
    first_variation_fd,
    multiplier_from_jets,
    residual,
    sphere_bundle_residual,
    tension_from_jets,
)

S3 = geometry.sphere(3)
S5 = geometry.sphere(5)
T2 = geometry.torus(2)

E1 = np.array([1.0, 0.0, 0.0, 0.0])


def mc(m, n, seed):
    return geometry.make_quadrature(m, geometry.MONTE_CARLO, n, seed)


def conformal_residual_poly(n, c, p, q):
    """Coefficients (h^0, h^2, h^4) of the residual polynomial in the height,
    assembled directly from the closed-form jet data; independent oracle."""
    c2 = c * c
    a0 = (1.0 + c2) * (1.0 + q * c2)
    a2 = (2.0 * p - 1.0) - p * (n + q) - q * (1.0 + c2) * (n - p + 1.0) - q * c2
    a4 = q * (n - p + 1.0)
    return a0, a2, a4


# --- tension and multiplier -------------------------------------------------


def test_tension_of_constant_length_field():
    """(1 + k^2) times the rough Laplacian, nothing else."""
    k = 0.5
    s = Rescaled(Hopf(), Constant(k))
    X = mc(S3, 10, 0).points
    t_vec = tension_from_jets(sections.jet_batch(s, S3, X), p=7.3)  # p drops out when grad F = 0
    expected = (1.0 + k * k) * 2.0 * k * sections.evaluate_batch(Hopf(), S3, X)
    assert np.max(np.abs(t_vec - expected)) < 1e-12


def test_tension_of_conformal_family():
    c = 1.4
    axis = np.array([c, 0.0, 0.0, 0.0])
    s = ConformalGradient(axis)
    p = 2.5
    X = mc(S3, 20, 1).points
    lam = X @ axis
    coeff = 1.0 + c * c + (2.0 * p - 1.0) * lam * lam
    expected = coeff[:, None] * sections.evaluate_batch(s, S3, X)
    assert np.max(np.abs(tension_from_jets(sections.jet_batch(s, S3, X), p) - expected)) < 1e-12


def test_tension_zero_section():
    t_vec = tension_from_jets(sections.jet_batch(Zero(), S3, E1[None, :]), 4.0)
    assert np.array_equal(t_vec, np.zeros((1, 4)))


def test_multiplier_constant_length_is_p_times_gradient_energy():
    k = 2.0
    s = Rescaled(Hopf(), Constant(k))
    jets = sections.jet_batch(s, S3, mc(S3, 1, 2).points)
    for q in (-2.0, 0.0, 5.0):
        got = multiplier_from_jets(jets, MetricParams(3.0, q))
        assert abs(got[0] - 3.0 * (2.0 * k * k)) < 1e-12


def test_multiplier_conformal_closed_form():
    n, c, p, q = 3, 0.8, 1.5, -0.7
    axis = np.array([c, 0.0, 0.0, 0.0])
    s = ConformalGradient(axis)
    X = mc(S3, 20, 3).points
    lam2 = (X @ axis) ** 2
    expected = p * (n + q) * lam2 - q * (1.0 + c * c - lam2) * (c * c - (n - p + 1.0) * lam2)
    got = multiplier_from_jets(sections.jet_batch(s, S3, X), MetricParams(p, q))
    assert np.max(np.abs(got - expected)) < 1e-12


# --- residual reports ----------------------------------------------------------


def test_conformal_residual_vanishes_at_exact_parameters():
    rep = residual(ConformalGradient(E1), S3, MetricParams(4.0, -1.0), mc(S3, 1000, 4))
    assert rep.sup_residual < 1e-10


@pytest.mark.parametrize("q", [-1.0, 0.0, 1.0, 2.0])
def test_unit_hopf_residual_vanishes_for_p_two(q):
    rep = residual(Hopf(), S3, MetricParams(2.0, q), mc(S3, 500, 5))
    assert rep.sup_residual < 1e-10


def test_perturbed_conformal_residual_matches_polynomial_oracle():
    quad = mc(S3, 1000, 6)
    p, q, c = 4.01, -1.0, 1.0
    rep = residual(ConformalGradient(E1), S3, MetricParams(p, q), quad, with_per_point=True)
    assert rep.sup_residual > 1e-4
    a0, a2, a4 = conformal_residual_poly(3, c, p, q)
    lam = quad.points @ E1
    pointwise = np.abs(a0 + a2 * lam**2 + a4 * lam**4) * np.sqrt(np.maximum(c * c - lam**2, 0.0))
    assert abs(rep.sup_residual - float(np.max(pointwise))) < 1e-12
    # per-point rows agree with the polynomial too
    worst = max(
        abs(row.residual_norm - float(val)) for row, val in zip(rep.per_point, pointwise)
    )
    assert worst < 1e-12


def test_residual_l2_bounded_by_sup_times_sqrt_volume():
    quad = mc(S3, 2000, 7)
    rep = residual(ConformalGradient(np.array([0.5, 0.5, 0.0, 0.0])), S3,
                   MetricParams(1.0, 3.0), quad)
    vol = geometry.manifold_volume(S3)
    assert rep.l2_residual <= rep.sup_residual * math.sqrt(vol) * (1.0 + 1e-12)


def test_residual_expansion_identity():
    """<tension - multiplier*sigma, sigma> = C1|grad sigma|^2 + C2 lapF + C3|gradF|^2
    with C1 = 1+2(1-p)F, C2 = (1+2qF)(1+2F), C3 = 2p(1+qF)."""
    quad = mc(S3, 300, 8)
    p, q = 2.7, -1.3
    for s in (ConformalGradient(np.array([0.9, -0.4, 0.2, 0.0])),
              Rescaled(Hopf(), AxisLinear(np.array([0.0, 1.0, 0.0, 0.0])))):
        jets = sections.jet_batch(s, S3, quad.points)
        t_vec = tension_from_jets(jets, p)
        mult = multiplier_from_jets(jets, MetricParams(p, q))
        lhs = np.sum((t_vec - mult[:, None] * jets.value) * jets.value, axis=1)
        f_half = jets.half_len2
        grad_sq = np.sum(jets.grad_half_len2**2, axis=1)
        c1 = 1.0 + 2.0 * (1.0 - p) * f_half
        c2 = (1.0 + 2.0 * q * f_half) * (1.0 + 2.0 * f_half)
        c3 = 2.0 * p * (1.0 + q * f_half)
        rhs = c1 * jets.deriv_norm2 + c2 * jets.lap_half_len2 + c3 * grad_sq
        assert float(np.max(np.abs(lhs - rhs))) < 1e-8


def test_harmonicity_transfer_between_residual_and_bundle_equation():
    """Constant-length fields: criticality at p = 1+1/k^2 for every q is
    equivalent to solving the constrained bundle equation; off that p the
    residual is bounded away from zero."""
    quad = mc(S5, 400, 9)
    for k in (0.5, 1.0, 2.0):
        s = Rescaled(Hopf(), Constant(k))
        p_star = 1.0 + 1.0 / (k * k)
        bundle = sphere_bundle_residual(s, S5, k, quad)
        assert bundle.sup_residual < 1e-10
        for q in (-1.0, 0.0, 1.0, 2.0):
            assert residual(s, S5, MetricParams(p_star, q), quad).sup_residual < 1e-10
        assert residual(s, S5, MetricParams(p_star + 0.3, 0.0), quad).sup_residual > 1e-4


def test_sphere_bundle_residual_examples():
    quad = mc(S3, 500, 10)
    assert sphere_bundle_residual(Hopf(), S3, 1.0, quad).sup_residual < 1e-10
    scaled = Rescaled(Hopf(), Constant(0.5))
    assert sphere_bundle_residual(scaled, S3, 0.5, quad).sup_residual < 1e-10
    with pytest.raises(ValueError):
        sphere_bundle_residual(ConformalGradient(E1), S3, 1.0, quad)


# --- first variation -------------------------------------------------------------


def test_first_variation_vanishes_for_parallel_section():
    quad = geometry.make_quadrature(T2, geometry.TORUS_GRID, 100, 0)
    s = ConstantTorus(np.array([0.8, -0.1]))
    rho = VariationSpec(ConstantTorus(np.array([0.3, 0.4])))
    for p, q in ((0.0, 0.0), (2.0, -3.0), (-1.0, 1.0)):
        assert first_variation(s, rho, T2, MetricParams(p, q), quad) == 0.0


def test_first_variation_zero_direction():
    quad = mc(S3, 200, 11)
    s = ConformalGradient(E1)
    assert first_variation(s, VariationSpec(Zero()), S3, MetricParams(2.0, 1.0), quad) == 0.0


def test_first_variation_matches_energy_difference_oracle():
    quad = mc(S3, 20000, 12)
    s = ConformalGradient(E1)
    rho = VariationSpec(ConformalGradient(np.array([0.0, 1.0, 0.0, 0.0])))
    for p, q in ((4.0, -1.0), (0.0, 0.0), (1.5, 2.0)):
        mp = MetricParams(p, q)
        lhs = first_variation(s, rho, S3, mp, quad)
        rhs = first_variation_fd(s, rho, S3, mp, quad, t=1e-4)
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_first_variation_fd_rejects_unrepresentable_combination():
    quad = mc(S3, 100, 13)
    s = Rescaled(Hopf(), AxisLinear(E1))
    with pytest.raises(ValueError):
        first_variation_fd(s, VariationSpec(Hopf()), S3, MetricParams(0.0, 0.0), quad)


# --- multiplier differences --------------------------------------------------------


def multiplier_difference(jets, p, q, r):
    """multiplier(p,r) - multiplier(p,q) from the jets."""
    return multiplier_from_jets(jets, MetricParams(p, r)) - multiplier_from_jets(jets, MetricParams(p, q))


def test_multiplier_difference_constant_length_and_equal_params():
    X = mc(S3, 1, 14).points
    s = Rescaled(Hopf(), Constant(1.3))
    assert multiplier_difference(sections.jet_batch(s, S3, X), 2.0, -1.0, 5.0)[0] == 0.0
    s2 = ConformalGradient(E1)
    assert multiplier_difference(sections.jet_batch(s2, S3, X), 2.0, 0.7, 0.7)[0] == 0.0


def test_multiplier_difference_value_at_axis_point():
    """At the axis point the height is 1, grad F vanishes, lap F = -3."""
    jets = sections.jet_batch(ConformalGradient(E1), S3, E1[None, :])
    out = multiplier_difference(jets, 6.0, 0.0, 1.0)
    assert abs(out[0] - 3.0) < 1e-12


def test_multiplier_difference_factored_equals_direct():
    """multiplier(p,r) - multiplier(p,q) = (q - r) * (p*|grad F|^2 + (1+2F)*lap F)."""
    rng = np.random.Generator(np.random.Philox(15))
    quad = mc(S3, 30, 16)
    s = ConformalGradient(np.array([0.7, 0.2, -0.5, 0.1]))
    jets = sections.jet_batch(s, S3, quad.points)
    grad_f_sq = np.sum(jets.grad_half_len2**2, axis=1)
    for i in range(quad.n_points):
        p, q, r = rng.uniform(-4, 6, size=3)
        direct = multiplier_difference(jets, p, q, r)[i]
        factored = (q - r) * (p * grad_f_sq[i] + (1.0 + 2.0 * jets.half_len2[i]) * jets.lap_half_len2[i])
        assert abs(direct - factored) < 1e-10


# --- product rule for the scalar Laplacian -------------------------------------------


def test_product_laplacian_identity_by_finite_differences():
    """lap(f1*f2) = f1*lap(f2) + f2*lap(f1) - 2<grad f1, grad f2> on height
    functions, everything second-order differenced along geodesic frames."""
    from pqharmonic.sections import _scalar_laplacian_fd_batch

    a = np.array([1.0, 0.5, 0.0, -0.3])
    b = np.array([0.2, -1.0, 0.7, 0.0])
    X = mc(S3, 100, 17).points

    def f1(Y):
        return Y @ a

    def f2(Y):
        return (Y @ b) ** 2

    def f12(Y):
        return f1(Y) * f2(Y)

    lap1 = _scalar_laplacian_fd_batch(f1, S3, X, 1e-3)
    lap2 = _scalar_laplacian_fd_batch(f2, S3, X, 1e-3)
    lap12 = _scalar_laplacian_fd_batch(f12, S3, X, 1e-3)
    lam_a = X @ a
    lam_b = X @ b
    grad1 = a[None, :] - lam_a[:, None] * X
    grad2 = 2.0 * lam_b[:, None] * (b[None, :] - lam_b[:, None] * X)
    rhs = f1(X) * lap2 + f2(X) * lap1 - 2.0 * np.sum(grad1 * grad2, axis=1)
    assert float(np.max(np.abs(lap12 - rhs))) < 1e-5


# --- report serialization --------------------------------------------------------------


def test_residual_report_json_and_csv(tmp_path):
    quad = mc(S3, 50, 18)
    s = ConformalGradient(E1)
    rep = residual(s, S3, MetricParams(4.0, -1.0), quad, with_per_point=True)
    payload = rep.to_json_dict()
    assert set(payload) == {"sup_residual", "l2_residual", "N", "seed", "p", "q"}
    path = tmp_path / "per_point.csv"
    with open(path, "w", newline="") as fh:
        rep.per_point_to_csv(fh, sections.section_axis(s))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,x2,x3,lambda,tension,multiplier,residual"
    assert len(lines) == 51


def test_residual_empty_quadrature():
    empty = geometry.QuadratureSet(np.zeros((0, 4)), np.zeros(0), 0, geometry.MONTE_CARLO)
    with pytest.raises(ValueError):
        residual(Hopf(), S3, MetricParams(0.0, 0.0), empty)
