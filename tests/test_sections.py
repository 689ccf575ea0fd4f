"""Section family tests: closed forms against finite-difference oracles."""

import numpy as np
import pytest

from pqharmonic import geometry, sections
from pqharmonic.sections import (
    AxisLinear,
    ConformalGradient,
    Constant,
    ConstantTorus,
    Hopf,
    LinearAmbient,
    Rescaled,
    Zero,
    covariant_derivative,
    covariant_derivative_fd,
    evaluate,
    hopf_matrix,
    parse_section,
    format_section,
    rough_laplacian_fd,
    sup_norm,
)

S2 = geometry.sphere(2)
S3 = geometry.sphere(3)
S5 = geometry.sphere(5)
T2 = geometry.torus(2)

E1_4 = np.array([1.0, 0.0, 0.0, 0.0])


def random_points(m, n, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((n, m.ambient_dim))
    return z / np.linalg.norm(z, axis=1)[:, None]


def all_sphere_families(seed=17):
    rng = np.random.Generator(np.random.Philox(seed))
    a_mat = rng.standard_normal((4, 4))
    a_mat /= np.linalg.norm(a_mat)
    off = rng.standard_normal(4)
    off /= np.linalg.norm(off)
    return [
        ConformalGradient(np.array([0.3, -1.2, 0.4, 2.0])),
        Hopf(),
        LinearAmbient(a_mat, off),
        Rescaled(Hopf(), Constant(0.7)),
        Rescaled(Hopf(), AxisLinear(np.array([0.5, 1.0, 0.0, -0.25]))),
        Rescaled(ConformalGradient(E1_4), Constant(-1.4)),
        Zero(),
    ]


# --- evaluation -------------------------------------------------------------


def test_conformal_value_at_equator_and_pole():
    s = ConformalGradient(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(evaluate(s, S2, np.array([0.0, 0.0, 1.0])), [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(evaluate(s, S2, np.array([1.0, 0.0, 0.0])), 0.0, atol=1e-15)


def test_hopf_value_is_j_of_x():
    assert np.allclose(evaluate(Hopf(), S3, E1_4), [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_hopf_matrix_is_orthogonal_complex_structure():
    j = hopf_matrix(6)
    assert np.allclose(j @ j, -np.eye(6), atol=1e-15)
    assert np.allclose(j.T, -j, atol=1e-15)


def test_family_compatibility_errors():
    with pytest.raises(ValueError):
        evaluate(Hopf(), S2, np.array([0.0, 0.0, 1.0]))  # even sphere
    with pytest.raises(ValueError):
        ConformalGradient(np.zeros(3))  # zero axis
    with pytest.raises(ValueError):
        evaluate(ConstantTorus(np.array([1.0, 0.0, 0.0])), S2, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        evaluate(Rescaled(ConstantTorus(np.array([1.0, 0.0])), AxisLinear(np.array([1.0, 0.0]))),
                 T2, np.array([0.1, 0.2]))


def test_tangency_at_many_points():
    X = random_points(S3, 10000, seed=1)
    for s in all_sphere_families():
        vals = sections.evaluate_batch(s, S3, X)
        assert np.max(np.abs(np.sum(vals * X, axis=1))) < 1e-10


# --- first derivatives -------------------------------------------------------


def test_conformal_derivative_is_minus_height_times_direction():
    s = ConformalGradient(np.array([0.0, 0.0, 1.0]))
    x = np.array([0.0, 0.0, 1.0])  # height = 1
    out = covariant_derivative(s, S2, x, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [-1.0, 0.0, 0.0], atol=1e-15)


def test_hopf_derivative_rotates_orthogonal_directions():
    x = E1_4
    out = covariant_derivative(Hopf(), S3, x, np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    xi = evaluate(Hopf(), S3, x)
    assert np.allclose(covariant_derivative(Hopf(), S3, x, xi), 0.0, atol=1e-15)


def test_derivative_additive_in_direction():
    rng = np.random.Generator(np.random.Philox(2))
    s = all_sphere_families()[2]
    for _ in range(20):
        x = random_points(S3, 1, seed=int(rng.integers(1 << 30)))[0]
        v = geometry.tangent_project(S3, x, rng.standard_normal(4))
        w = geometry.tangent_project(S3, x, rng.standard_normal(4))
        lhs = covariant_derivative(s, S3, x, v + 0.5 * w)
        rhs = covariant_derivative(s, S3, x, v) + 0.5 * covariant_derivative(s, S3, x, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_linear_ambient_combination_is_linear():
    rng = np.random.Generator(np.random.Philox(8))
    a1, a2 = rng.standard_normal((2, 4, 4))
    b1, b2 = rng.standard_normal((2, 4))
    s1, s2 = LinearAmbient(a1, b1), LinearAmbient(a2, b2)
    s12 = LinearAmbient(a1 + a2, b1 + b2)
    x = random_points(S3, 1, seed=5)[0]
    v = geometry.tangent_project(S3, x, rng.standard_normal(4))
    combined = covariant_derivative(s12, S3, x, v)
    split = covariant_derivative(s1, S3, x, v) + covariant_derivative(s2, S3, x, v)
    assert np.max(np.abs(combined - split)) < 1e-12


def test_fd_oracle_matches_closed_forms_on_random_triples():
    """1000 random (family, point, direction) triples, plain step 1e-5."""
    rng = np.random.Generator(np.random.Philox(7))
    fams = all_sphere_families()
    worst = 0.0
    for i in range(1000):
        s = fams[i % len(fams)]
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        v = geometry.tangent_project(S3, x, rng.standard_normal(4))
        exact = covariant_derivative(s, S3, x, v)
        approx = covariant_derivative_fd(s, S3, x, v, step=1e-5)
        worst = max(worst, float(np.max(np.abs(exact - approx))))
    assert worst < 1e-7


def test_fd_oracle_richardson_tightens():
    rng = np.random.Generator(np.random.Philox(12))
    s = ConformalGradient(np.array([0.2, 0.4, -1.0, 0.8]))
    x = random_points(S3, 1, seed=3)[0]
    v = geometry.tangent_project(S3, x, rng.standard_normal(4))
    exact = covariant_derivative(s, S3, x, v)
    rich = covariant_derivative_fd(s, S3, x, v, step=1e-5, richardson=True)
    assert np.max(np.abs(exact - rich)) < 1e-6


def test_fd_oracle_zero_and_constant_fields():
    x = np.array([0.25, 0.75])
    assert np.array_equal(
        covariant_derivative_fd(Zero(), T2, x, np.array([1.0, 0.0])), [0.0, 0.0]
    )
    out = covariant_derivative_fd(ConstantTorus(np.array([0.3, 0.4])), T2, x, np.array([1.0, 2.0]))
    assert np.max(np.abs(out)) < 1e-12


def test_fd_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        covariant_derivative_fd(Hopf(), S3, E1_4, np.array([0.0, 0.0, 1.0, 0.0]), step=0.0)


# --- jets ---------------------------------------------------------------------


def test_conformal_jet_rough_laplacian_equals_value():
    s = ConformalGradient(np.array([0.3, -0.1, 0.7, 1.1]))
    jets = sections.jet_batch(s, S3, random_points(S3, 25, seed=4))
    assert np.allclose(jets.rough_laplacian, jets.value, atol=1e-14)


def test_conformal_jet_half_len2_on_equator():
    c = 1.7
    s = ConformalGradient(np.array([c, 0.0, 0.0, 0.0]))
    x = np.array([[0.0, 1.0, 0.0, 0.0]])  # height 0
    jets = sections.jet_batch(s, S3, x)
    assert abs(jets.half_len2[0] - c * c / 2.0) < 1e-14
    # invariant: half_len2 is |value|^2/2 as computed
    assert jets.half_len2[0] == pytest.approx(0.5 * float(jets.value[0] @ jets.value[0]), abs=0)


def test_hopf_jet_gradient_energy_is_two_on_s3():
    """Sum of squared frame derivatives; cross-checked against the FD oracle."""
    X = random_points(S3, 10, seed=6)
    jets = sections.jet_batch(Hopf(), S3, X)
    assert np.max(np.abs(jets.deriv_norm2 - 2.0)) < 1e-12
    for x in X:
        frame = geometry.orthonormal_frame(S3, x)
        fd_sum = sum(
            float(np.sum(covariant_derivative_fd(Hopf(), S3, x, e) ** 2)) for e in frame
        )
        assert abs(fd_sum - 2.0) < 1e-8


def test_hopf_jet_constant_length_data():
    jets = sections.jet_batch(Hopf(), S5, random_points(S5, 1, seed=8))
    assert jets.half_len2[0] == 0.5
    assert np.array_equal(jets.grad_half_len2[0], np.zeros(6))
    assert jets.lap_half_len2[0] == 0.0
    assert abs(jets.deriv_norm2[0] - 4.0) < 1e-12  # 2m on S^(2m+1)


def _frame_oracle_families():
    """Every family with a closed-form |grad sigma|^2, on S^3, S^5 and T^2."""
    cases = []
    for m in (S3, S5):
        d = m.ambient_dim
        rng = np.random.Generator(np.random.Philox(40 + d))
        axis, scalar_axis = rng.standard_normal(d), rng.standard_normal(d)
        lin = LinearAmbient(rng.standard_normal((d, d)), rng.standard_normal(d))
        fams = {
            "conformal": ConformalGradient(axis),
            "hopf": Hopf(),
            "linear": lin,
            "scaled-linear-k": Rescaled(lin, Constant(-0.8)),
            "scaled-hopf-k": Rescaled(Hopf(), Constant(1.3)),
            "scaled-linear-axis": Rescaled(lin, AxisLinear(scalar_axis)),
            "scaled-hopf-axis": Rescaled(Hopf(), AxisLinear(scalar_axis)),
            "scaled-conformal-axis": Rescaled(ConformalGradient(axis), AxisLinear(scalar_axis)),
        }
        cases += [pytest.param(m, s, id=f"{m}-{name}") for name, s in fams.items()]
    cases.append(pytest.param(T2, ConstantTorus(np.array([0.4, -1.1])), id="torus:2-constant"))
    return cases


@pytest.mark.parametrize("m,s", _frame_oracle_families())
def test_deriv_norm2_matches_frame_derivatives(m, s):
    """|grad sigma|^2 from jet_batch equals sum_i |derivative_batch(E_i)|^2 over the frame."""
    if m.is_sphere:
        X = random_points(m, 200, seed=41)
    else:
        X = np.random.Generator(np.random.Philox(41)).random((200, m.dim))
    jets = sections.jet_batch(s, m, X, order=1)
    frames = geometry.frame_batch(m, X)
    oracle = sum(
        np.sum(sections.derivative_batch(s, m, X, frames[:, i, :]) ** 2, axis=1)
        for i in range(m.dim)
    )
    scale = max(float(np.max(np.abs(oracle))), 1.0)
    assert np.max(np.abs(jets.deriv_norm2 - oracle)) <= 1e-12 * scale


def test_rough_laplacian_fd_conformal():
    s = ConformalGradient(np.array([1.0, 0.0, 0.0, 0.0]))
    for x in random_points(S3, 10, seed=9):
        approx = rough_laplacian_fd(s, S3, x, step=1e-3)
        assert np.max(np.abs(approx - evaluate(s, S3, x))) < 1e-5


def test_rough_laplacian_fd_hopf():
    for m, two_m in ((S3, 2.0), (S5, 4.0)):
        for x in random_points(m, 5, seed=10):
            approx = rough_laplacian_fd(Hopf(), m, x, step=1e-3)
            assert np.max(np.abs(approx - two_m * evaluate(Hopf(), m, x))) < 1e-5


def test_rough_laplacian_fd_zero_section():
    out = rough_laplacian_fd(Zero(), S3, E1_4)
    assert np.array_equal(out, np.zeros(4))


def test_linear_ambient_second_order_against_ambient_trace_formula():
    """Independent oracle: for sigma = P(Ax+b) on S^n the rough Laplacian is
    n*P(Ax) + 2*P(A^T x) + sigma, derived from the ambient second derivative."""
    rng = np.random.Generator(np.random.Philox(13))
    a_mat = rng.standard_normal((4, 4)) * 0.6
    off = rng.standard_normal(4) * 0.6
    s = LinearAmbient(a_mat, off)
    X = random_points(S3, 40, seed=14)
    jets = sections.jet_batch(s, S3, X)

    def proj(V):
        return V - np.sum(V * X, axis=1)[:, None] * X

    oracle = 3.0 * proj(X @ a_mat.T) + 2.0 * proj(X @ a_mat) + jets.value
    assert np.max(np.linalg.norm(jets.rough_laplacian - oracle, axis=1)) < 1e-5


def test_trace_identity_for_analytic_families():
    """<rough_laplacian, sigma> = |grad sigma|^2 + lap F, tight for closed forms."""
    X = random_points(S3, 300, seed=15)
    for s in all_sphere_families():
        if isinstance(s, LinearAmbient):
            continue
        jets = sections.jet_batch(s, S3, X)
        gap = np.abs(
            np.sum(jets.rough_laplacian * jets.value, axis=1)
            - jets.deriv_norm2
            - jets.lap_half_len2
        )
        assert np.max(gap) < 1e-8, type(s).__name__


def test_trace_identity_for_fd_backed_family():
    X = random_points(S3, 300, seed=16)
    s = all_sphere_families()[2]
    jets = sections.jet_batch(s, S3, X)
    gap = np.abs(
        np.sum(jets.rough_laplacian * jets.value, axis=1) - jets.deriv_norm2 - jets.lap_half_len2
    )
    assert np.max(gap) < 1e-5


def test_divergence_identity_by_geodesic_frame_differences():
    from pqharmonic.verify import _divergence_identity_gap

    X = random_points(S3, 200, seed=18)
    for s in all_sphere_families()[:3]:
        assert _divergence_identity_gap(s, S3, X) < 1e-5, type(s).__name__


# --- sup norm -----------------------------------------------------------------


def test_sup_norm_values():
    quad = geometry.make_quadrature(S3, geometry.MONTE_CARLO, 100000, seed=20)
    assert abs(sup_norm(Hopf(), S3, quad) - 1.0) < 1e-12
    c = 1.3
    s = ConformalGradient(np.array([c, 0.0, 0.0, 0.0]))
    assert abs(sup_norm(s, S3, quad) - c) < 1e-3  # max of c*|cos| over samples
    assert sup_norm(Zero(), S3, quad) == 0.0


def test_sup_norm_empty_quadrature():
    empty = geometry.QuadratureSet(np.zeros((0, 4)), np.zeros(0), 0, geometry.MONTE_CARLO)
    with pytest.raises(ValueError):
        sup_norm(Hopf(), S3, empty)


# --- algebra and text forms ----------------------------------------------------


def test_add_scaled_matches_pointwise_sum():
    s = ConformalGradient(np.array([1.0, 0.0, 0.0, 0.0]))
    rho = ConformalGradient(np.array([0.0, 1.0, 0.0, 0.0]))
    combined = sections.add_scaled(s, rho, 0.25, S3)
    X = random_points(S3, 50, seed=21)
    direct = sections.evaluate_batch(s, S3, X) + 0.25 * sections.evaluate_batch(rho, S3, X)
    assert np.max(np.abs(sections.evaluate_batch(combined, S3, X) - direct)) < 1e-14


def test_add_scaled_torus_constants():
    s = ConstantTorus(np.array([0.5, 0.5]))
    rho = ConstantTorus(np.array([1.0, -1.0]))
    out = sections.add_scaled(s, rho, 0.1, T2)
    assert isinstance(out, ConstantTorus)
    assert np.allclose(out.vector, [0.6, 0.4], atol=1e-15)


def test_add_scaled_rejects_functional_rescalings():
    s = Rescaled(Hopf(), AxisLinear(E1_4))
    with pytest.raises(ValueError):
        sections.add_scaled(s, Hopf(), 0.1, S3)


@pytest.mark.parametrize(
    "text",
    [
        "zero",
        "hopf",
        "conformal:a=1,0,0,0",
        "constant:c=0.25,-0.5",
        "linear:A=0,-1|1,0;b=0.5,0",
        "scaled:hopf:k=0.5",
        "scaled:hopf:axis=1,0,0,0",
        "scaled:conformal:a=1,0,0:k=-2",
    ],
)
def test_section_text_round_trip(text):
    parsed = parse_section(text)
    canonical = format_section(parsed)
    assert format_section(parse_section(canonical)) == canonical


def test_section_parse_errors():
    for bad in ("conformal:a=", "spiral", "scaled:hopf", "linear:A=1", "scaled:hopf:z=2"):
        with pytest.raises(ValueError):
            parse_section(bad)
