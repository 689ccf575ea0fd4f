"""Acceptance checks, shared by the test suite and the ``verify`` CLI command.

Each criterion is a function returning (passed, details); ``run_all`` wraps
them with timings.  Details hold only numbers and strings so reports
serialize canonically; timings are kept out of the serialized payload so
repeated runs with one seed emit identical bytes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import energy, geometry, regions, sections, solver, variational
from .energy import MetricParams
from .geometry import MONTE_CARLO, TORUS_GRID
from .sections import (
    AxisLinear,
    ConformalGradient,
    Constant,
    ConstantTorus,
    Hopf,
    LinearAmbient,
    Rescaled,
)
from .variational import VariationSpec


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict
    seconds: float

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _unit_axis(d: int, index: int = 0, length: float = 1.0) -> np.ndarray:
    a = np.zeros(d)
    a[index] = length
    return a


# ---------------------------------------------------------------------------
# criteria


def criterion_conformal_solutions(seed: int, fast: bool) -> tuple[bool, dict]:
    """Exact conformal-gradient criticality on S^3/S^5/S^7, off by 1e-2 elsewhere."""
    n_pts = 1000
    details: dict = {}
    ok = True
    worst_exact = 0.0
    best_perturbed = math.inf
    for n in (3, 5, 7):
        sol = solver.solve_conformal_parameters(n)
        m = geometry.sphere(n)
        quad = geometry.make_quadrature(m, MONTE_CARLO, n_pts, seed)
        axis = _unit_axis(m.ambient_dim, 0, sol.c)
        rep = variational.residual(ConformalGradient(axis), m, MetricParams(sol.p, sol.q), quad)
        worst_exact = max(worst_exact, rep.sup_residual)
        ok &= rep.sup_residual < 1e-10
        for dp, dq, dc in (
            (1e-2, 0, 0), (-1e-2, 0, 0),
            (0, 1e-2, 0), (0, -1e-2, 0),
            (0, 0, 1e-2), (0, 0, -1e-2),
        ):
            pert = variational.residual(
                ConformalGradient(_unit_axis(m.ambient_dim, 0, sol.c + dc)),
                m, MetricParams(sol.p + dp, sol.q + dq), quad,
            )
            best_perturbed = min(best_perturbed, pert.sup_residual)
            ok &= pert.sup_residual > 1e-4
    details["max_sup_at_solutions"] = worst_exact
    details["min_sup_perturbed"] = best_perturbed
    return ok, details


def criterion_scaled_hopf(seed: int, fast: bool) -> tuple[bool, dict]:
    """Rescaled Hopf fields critical exactly at p = 1 + 1/k^2, for every q."""
    ok = True
    worst_exact = 0.0
    best_off = math.inf
    for n in (3, 5):
        m = geometry.sphere(n)
        quad = geometry.make_quadrature(m, MONTE_CARLO, 1000, seed)
        for k in (0.5, 1.0, 2.0):
            s = Rescaled(Hopf(), Constant(k))
            p = 1.0 + 1.0 / (k * k)
            for q in (-1.0, 0.0, 1.0, 2.0):
                rep = variational.residual(s, m, MetricParams(p, q), quad)
                worst_exact = max(worst_exact, rep.sup_residual)
                ok &= rep.sup_residual < 1e-10
            off = variational.residual(s, m, MetricParams(p + 0.1, 0.0), quad)
            best_off = min(best_off, off.sup_residual)
            ok &= off.sup_residual > 1e-4
    return ok, {"max_sup_at_solutions": worst_exact, "min_sup_p_off": best_off}


def _divergence_identity_gap(s, m, X, h: float = 5e-4) -> float:
    """Max gap in the divergence identity for the grad-F-weighted 1-form:

        -sum_i d_i(<grad F, E_i> sigma)  =  (lap F) sigma - d_sigma(grad F)

    with the left side built from transported central differences along
    geodesic frame directions."""
    jets = sections.jet_batch(s, m, X)
    frames = geometry.frame_batch(m, X)
    lhs = np.zeros_like(X)
    for i in range(m.dim):
        e = frames[:, i, :]
        vals = []
        for sign in (1.0, -1.0):
            y = geometry.geodesic_batch(m, X, e, sign * h)
            vel = geometry.geodesic_velocity_batch(m, X, e, sign * h)
            jy = sections.jet_batch(s, m, y, order=1)
            field = np.sum(jy.grad_half_len2 * vel, axis=1)[:, None] * jy.value
            vals.append(geometry.transport_batch(m, y, -sign * vel, h, field))
        lhs -= (vals[0] - vals[1]) / (2.0 * h)
    rhs = jets.lap_half_len2[:, None] * jets.value - jets.deriv_along_grad
    return float(np.max(np.linalg.norm(lhs - rhs, axis=1)))


def criterion_jet_identities(seed: int, fast: bool) -> tuple[bool, dict]:
    """Trace and divergence identities at random points, three families."""
    m = geometry.sphere(3)
    n_pts = 1000
    quad = geometry.make_quadrature(m, MONTE_CARLO, n_pts, seed)
    X = quad.points
    rng = np.random.Generator(np.random.Philox(seed + 1))
    d = m.ambient_dim
    # unit-scale random member: keeps the FD truncation bound seed-independent
    raw_mat = rng.standard_normal((d, d))
    raw_off = rng.standard_normal(d)
    lin = LinearAmbient(raw_mat / np.linalg.norm(raw_mat), raw_off / np.linalg.norm(raw_off))
    fams = {
        "conformal": (ConformalGradient(np.array([0.6, -0.2, 1.1, 0.4])), 1e-8),
        "hopf": (Hopf(), 1e-8),
        "linear": (lin, 1e-5),
    }
    ok = True
    details: dict = {}
    for name, (s, tol) in fams.items():
        jets = sections.jet_batch(s, m, X)
        gap_trace = float(
            np.max(np.abs(
                np.sum(jets.rough_laplacian * jets.value, axis=1)
                - jets.deriv_norm2 - jets.lap_half_len2
            ))
        )
        gap_div = _divergence_identity_gap(s, m, X)
        details[f"{name}_trace_gap"] = gap_trace
        details[f"{name}_divergence_gap"] = gap_div
        ok &= gap_trace <= tol and gap_div <= 1e-5
    return ok, details


def criterion_first_variation(seed: int, fast: bool) -> tuple[bool, dict]:
    """Analytic first variation against the centered FD of the energy."""
    m = geometry.sphere(3)
    n_pts = 30000 if fast else 100000
    quad = geometry.make_quadrature(m, MONTE_CARLO, n_pts, seed)
    sigma = ConformalGradient(np.array([1.0, 0.0, 0.0, 0.0]))
    rho = VariationSpec(ConformalGradient(np.array([0.0, 1.0, 0.0, 0.0])))
    ok = True
    details: dict = {}
    for p, q in ((4.0, -1.0), (0.0, 0.0)):
        mp = MetricParams(p, q)
        analytic = variational.first_variation(sigma, rho, m, mp, quad)
        fd = variational.first_variation_fd(sigma, rho, m, mp, quad, t=1e-4)
        rel = abs(analytic - fd) / abs(fd)
        details[f"rel_gap_p{p}_q{q}"] = rel
        ok &= rel <= 1e-6
    return ok, details


def criterion_kato_margin(seed: int, fast: bool) -> tuple[bool, dict]:
    """Margin nonnegative for the exact conformal solution, zero only on the equator."""
    n = 5
    sol = solver.solve_conformal_parameters(n)
    m = geometry.sphere(n)
    quad = geometry.make_quadrature(m, MONTE_CARLO, 10000, seed)
    axis = _unit_axis(m.ambient_dim, 0, sol.c)
    s = ConformalGradient(axis)
    margins = energy.kato_margin_from_jets(sections.jet_batch(s, m, quad.points, order=1), sol.q)
    lam = quad.points @ axis
    min_margin = float(np.min(margins))
    positive_off_equator = bool(np.all(margins[lam != 0.0] > 0.0))
    equator = np.eye(m.ambient_dim)[1:]  # basis points orthogonal to the axis
    eq_margins = energy.kato_margin_from_jets(sections.jet_batch(s, m, equator, order=1), sol.q)
    zero_on_equator = bool(np.all(eq_margins == 0.0))
    cls_at = energy.classify_q_riemannian(s, m, sol.q, quad)
    cls_off = energy.classify_q_riemannian(s, m, sol.q - 0.01, quad)
    ok = (
        min_margin >= -1e-12
        and positive_off_equator
        and zero_on_equator
        and cls_at.verdict in (energy.QRiemannianClass.STRICT, energy.QRiemannianClass.BOUNDARY)
        and cls_off.verdict is energy.QRiemannianClass.NOT
    )
    return ok, {
        "min_margin": min_margin,
        "zero_on_equator": zero_on_equator,
        "class_at_solution": cls_at.verdict.value,
        "class_below": cls_off.verdict.value,
    }


def criterion_energy_closed_forms(seed: int, fast: bool) -> tuple[bool, dict]:
    """Hopf energy equals the exact volume value; conformal energy matches
    Monte Carlo at 2% and the polar-angle quadrature oracle at 1e-6."""
    m3 = geometry.sphere(3)
    quad3 = geometry.make_quadrature(m3, MONTE_CARLO, 30000 if fast else 100000, seed)
    hopf_total = energy.energy(Hopf(), m3, MetricParams(0.0, 0.0), quad3).total
    gap_hopf = abs(hopf_total - 2.0 * math.pi**2)

    m2 = geometry.sphere(2)
    quad2 = geometry.make_quadrature(m2, MONTE_CARLO, 30000 if fast else 100000, seed + 1)
    conf_total = energy.energy(
        ConformalGradient(np.array([1.0, 0.0, 0.0])), m2, MetricParams(0.0, 0.0), quad2
    ).total
    exact = 4.0 * math.pi / 3.0
    rel_mc = abs(conf_total - exact) / exact
    oracle = energy.conformal_energy_polar(2, 1.0, 0.0, 0.0)
    gap_oracle = abs(oracle - exact)
    ok = gap_hopf < 1e-12 and rel_mc < 0.02 and gap_oracle < 1e-6
    return ok, {"hopf_gap": gap_hopf, "conformal_mc_rel": rel_mc, "oracle_gap": gap_oracle}


def criterion_constant_length_scaling(seed: int, fast: bool) -> tuple[bool, dict]:
    """E_{p,q}(k*hopf) equals (1+k^2)^(-p) * E_{0,0}(k*hopf) on shared quadrature."""
    m = geometry.sphere(3)
    quad = geometry.make_quadrature(m, MONTE_CARLO, 2000, seed)
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        s = Rescaled(Hopf(), Constant(k))
        base = energy.energy(s, m, MetricParams(0.0, 0.0), quad).total
        for p in (-1.0, 0.0, 2.0, 4.0):
            for q in (-1.0, 0.0, 3.0):
                total = energy.energy(s, m, MetricParams(p, q), quad).total
                expect = (1.0 + k * k) ** (-p) * base
                worst = max(worst, abs(total - expect) / max(1.0, abs(expect)))
    return worst <= 1e-12, {"max_gap": worst}


def criterion_unique_q(seed: int, fast: bool) -> tuple[bool, dict]:
    """One residual zero along a 400-point q-grid, and the factored
    multiplier difference matches the direct one."""
    n = 5
    m = geometry.sphere(n)
    p = 6.0
    c = 1.0 / math.sqrt(3.0)
    quad = geometry.make_quadrature(m, MONTE_CARLO, 1500, seed)
    s = ConformalGradient(_unit_axis(m.ambient_dim, 0, c))
    jets = sections.jet_batch(s, m, quad.points)
    q_grid = np.linspace(-10.0, 10.0, 400)
    spacing = float(q_grid[1] - q_grid[0])

    def res_at(q: float) -> float:
        return variational.residual_from_jets(jets, MetricParams(p, float(q)), quad).l2_residual

    roots = solver.grid_roots(res_at, q_grid, np.array([res_at(q) for q in q_grid]))

    # factored vs direct multiplier difference across the grid, at sample points
    sample = quad.points[:50]
    jets_s = sections.jet_batch(s, m, sample)
    grad_sq = np.sum(jets_s.grad_half_len2**2, axis=1)
    worst_gap = 0.0
    base_mult = variational.multiplier_from_jets(jets_s, MetricParams(p, 0.0))
    for q in q_grid:
        direct = variational.multiplier_from_jets(jets_s, MetricParams(p, float(q))) - base_mult
        factored = (0.0 - float(q)) * (p * grad_sq + (1.0 + 2.0 * jets_s.half_len2) * jets_s.lap_half_len2)
        worst_gap = max(worst_gap, float(np.max(np.abs(direct - factored))))

    ok = len(roots) == 1 and abs(roots[0] + 3.0) <= spacing and worst_gap <= 1e-10
    details = {
        "n_roots": len(roots),
        "root": roots[0] if roots else None,
        "grid_spacing": spacing,
        "max_multiplier_diff_gap": worst_gap,
    }
    return ok, details


def criterion_regions(seed: int, fast: bool) -> tuple[bool, dict]:
    """Cut-off values, membership boundary cases, and the exact partition of
    {p > 1} by the open and closed families at (mu, nu) = (1/2, 1)."""
    ok = True
    # cut-off values and shape
    ok &= regions.cutoff_rho(1.0, -2.0) == 1.0
    ok &= regions.cutoff_rho(1.0, 0.0) == 0.0
    ok &= regions.cutoff_rho(2.0, 4.0) == -2.0
    ps = np.linspace(-4.0, 8.0, 1000)
    for nu in (0.5, 1.0, 2.0):
        vals = np.array([regions.cutoff_rho(nu, float(p)) for p in ps])
        ok &= bool(np.all(np.diff(vals) <= 1e-12))
        ok &= abs(regions.cutoff_rho(nu, -1.0)) < 1e-15
        ok &= abs(regions.cutoff_rho(nu, 2.0)) < 1e-15

    # boundary cases from the membership definitions
    ok &= regions.in_F(0.5, 0.5, 7.0).region_name == regions.F_0
    ok &= regions.in_F(0.5, -1.0, -4.0).region_name == regions.F_MINUS
    ok &= not regions.in_F(0.5, 2.0, -1.9).member
    ok &= regions.in_F(0.5, 2.0, -2.1).member
    ok &= regions.in_G1(1.0, 2.0, -2.0).member
    ok &= not regions.in_G1(1.0, 2.0, -2.01).member
    ok &= not regions.in_G1(1.0, 1.0, 123.0).member
    ok &= regions.in_W(1.0, 1.0, 3.0, -3.0).member
    ok &= not regions.in_W(1.0, 1.0, 3.0, -1.0).member

    # 200 x 200 grid: partition of {p>1}, F_0 labels, and the exact-boundary cell
    grid_rows = regions.export_region_grid(0.5, 1.0, (-5.0, 5.0), (-8.0, 4.0), 200)
    for row in grid_rows:
        in_f1 = regions.in_F(0.5, row.p, row.q).region_name == regions.F_1
        in_g1 = regions.in_G1(1.0, row.p, row.q).member
        if row.p > 1.0:
            ok &= in_f1 != in_g1  # exactly one
        else:
            ok &= not in_f1 and not in_g1
        if 0.0 <= row.p <= 1.0:
            ok &= regions.F_0 in row.labels
    corner = regions.export_region_grid(0.5, 1.0, (4.0, 5.0), (-1.0, 0.0), 2)
    cell = [r for r in corner if r.p == 4.0 and r.q == -1.0][0]
    ok &= regions.RHO_BELOW not in cell.labels

    # consistency of the exact conformal solutions with the allowed-q bounds
    for n in (3, 5, 7, 9):
        sol = solver.solve_conformal_parameters(n)
        allowed = regions.theoremB_allowed_q(sol.p, sol.c)
        ok &= allowed.allows(sol.q)
    return bool(ok), {"grid_cells": len(grid_rows)}


def criterion_hopf_rescaling(seed: int, fast: bool) -> tuple[bool, dict]:
    """Functional rescalings of the Hopf field: critical only at the
    constant amplitudes 1/sqrt(p-1)."""
    m = geometry.sphere(3)
    quad = geometry.make_quadrature(m, MONTE_CARLO, 2000, seed)
    ok = True
    details: dict = {}
    for p in (2.0, 5.0):
        rep = solver.functional_rescale_check(
            m, MetricParams(p, 0.0), Constant(1.0 / math.sqrt(p - 1.0)), quad
        )
        details[f"sup_const_p{p}"] = rep.sup_residual
        ok &= rep.sup_residual < 1e-10
    rep_off = solver.functional_rescale_check(m, MetricParams(3.0, 0.0), Constant(1.0), quad)
    details["sup_const_off"] = rep_off.sup_residual
    ok &= rep_off.sup_residual > 1e-4

    axis = np.array([1.0, 0.0, 0.0, 0.0])
    rep_lam = solver.functional_rescale_check(
        m, MetricParams(3.0, 0.0), AxisLinear(axis), quad, with_per_point=True
    )
    lam = np.abs(quad.points @ axis)
    floors = [pp.residual_norm for pp, h in zip(rep_lam.per_point, lam) if h > 0.1]
    floor = min(floors)
    details["height_factor_floor"] = floor
    ok &= floor > 1e-6
    return ok, details


def criterion_parallel_criticality(seed: int, fast: bool) -> tuple[bool, dict]:
    """Constant torus fields: zero energy, residual and first variation."""
    m = geometry.torus(2)
    quad = geometry.make_quadrature(m, TORUS_GRID, 400, seed)
    s = ConstantTorus(np.array([0.3, -0.7]))
    rho = VariationSpec(ConstantTorus(np.array([0.11, 0.27])))
    worst = 0.0
    for p, q in ((0.0, 0.0), (1.0, 1.0), (4.0, -1.0), (-3.0, 2.0)):
        mp = MetricParams(p, q)
        worst = max(worst, abs(energy.energy(s, m, mp, quad).total))
        worst = max(worst, variational.residual(s, m, mp, quad).sup_residual)
        worst = max(worst, abs(variational.first_variation(s, rho, m, mp, quad)))
    return worst <= 1e-12, {"max_defect": worst}


def criterion_determinism(seed: int, fast: bool) -> tuple[bool, dict]:
    """Fresh quadratures with one seed reproduce reports byte-for-byte."""
    from . import serialize

    m = geometry.sphere(3)
    texts = []
    for _ in range(2):
        quad = geometry.make_quadrature(m, MONTE_CARLO, 5000, seed)
        rep_e = energy.energy(Hopf(), m, MetricParams(1.5, -0.5), quad)
        rep_r = variational.residual(
            ConformalGradient(np.array([1.0, 0.0, 0.0, 0.0])), m, MetricParams(4.0, -1.0), quad
        )
        texts.append(serialize.dumps({"energy": rep_e.to_json_dict(), "residual": rep_r.to_json_dict()}))
    same = texts[0] == texts[1]
    return same, {"identical": same}


ALL_CRITERIA = (
    ("conformal-solutions", criterion_conformal_solutions),
    ("scaled-hopf", criterion_scaled_hopf),
    ("jet-identities", criterion_jet_identities),
    ("first-variation", criterion_first_variation),
    ("kato-margin", criterion_kato_margin),
    ("energy-closed-forms", criterion_energy_closed_forms),
    ("constant-length-scaling", criterion_constant_length_scaling),
    ("unique-q", criterion_unique_q),
    ("regions", criterion_regions),
    ("hopf-rescaling", criterion_hopf_rescaling),
    ("parallel-criticality", criterion_parallel_criticality),
    ("determinism", criterion_determinism),
)


def run_all(seed: int = 42, fast: bool = False) -> list[CriterionResult]:
    results = []
    for name, fn in ALL_CRITERIA:
        start = time.perf_counter()
        passed, details = fn(seed, fast)
        results.append(CriterionResult(name, bool(passed), details, time.perf_counter() - start))
    return results
