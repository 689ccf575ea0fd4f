"""Rescaling searches for critical sections, and the exact conformal solver.

The search procedures sweep a one-parameter rescaling of a trial section
(linear scale k, or axial length c of a conformal gradient), locate residual
roots by bracketing grid minima and bisecting on the slope sign
(``grid_roots``, the one root scan of the package), and report energy
critical points alongside.  The jets of each grid point are built once and
feed both the residual and the energy; a range may be given in either order.
One quadrature set is reused across the whole grid so the curves are smooth
in the sweep parameter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import sections, variational
from .energy import MetricParams, density_from_jets
from .geometry import ManifoldSpec, QuadratureSet
from .sections import AxisLinear, Constant, ConformalGradient, Hopf, Rescaled, ScalarFieldSpec, SectionSpec

ROOT_TOL = 1e-8
BISECT_K_TOL = 1e-10


@dataclass(frozen=True)
class SweepPoint:
    param: float
    l2_residual: float
    energy: float


@dataclass(frozen=True)
class ScaleSweepResult:
    grid: list[SweepPoint]
    roots: list[float]
    critical_points: list[float]

    def to_json_dict(self) -> dict:
        return {"roots": list(self.roots), "critical_points": list(self.critical_points)}

    def to_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["k", "residual", "energy"])
        for pt in self.grid:
            writer.writerow([format(pt.param, ".17g"), format(pt.l2_residual, ".17g"),
                             format(pt.energy, ".17g")])


@dataclass(frozen=True)
class ConformalSolution:
    """The unique parameter triple making a conformal gradient field critical."""

    n: int
    p: float
    q: float
    c: float


def solve_conformal_parameters(n: int) -> ConformalSolution:
    """Solve the coefficient system of the conformal-gradient criticality
    polynomial in the height function.

    The quartic coefficient forces p = n+1, the constant one q = -1/c^2, and
    the quadratic one then pins q = 2-n, c = 1/sqrt(n-2); that needs n >= 3.
    The quadratic relation is re-checked after substitution.
    """
    if n < 3:
        raise ValueError(f"no conformal-gradient solution on a sphere of dimension {n} (< 3)")
    p = float(n + 1)
    q = float(2 - n)
    c = 1.0 / math.sqrt(n - 2)
    c2 = c * c
    lhs = 2.0 * p - 1.0
    rhs = p * (n + q) + q * c2 + q * (1.0 + c2) * (n - p + 1.0)
    if abs(lhs - rhs) > 1e-12:
        raise AssertionError(f"coefficient system inconsistent: {lhs} vs {rhs}")
    return ConformalSolution(n, p, q, c)


def _refine_root(f, a: float, b: float, tol: float = BISECT_K_TOL) -> float:
    """Locate the minimum of a V-shaped scalar function by bisection on the
    sign of its centered-difference slope."""
    lo, hi = a, b
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        h = max(1e-7 * abs(mid), 1e-9)
        if f(mid + h) - f(mid - h) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def grid_roots(f, grid: np.ndarray, values: np.ndarray, root_tol: float = ROOT_TOL) -> list[float]:
    """Zeros of a nonnegative V-shaped function ``f`` sampled as ``values`` on an
    increasing ``grid``.

    Every grid minimum is refined by bisection inside the bracket of its two
    neighbours (an edge minimum is kept as is) and accepted when ``f`` there is
    at most ``root_tol``; accepted roots closer than 10*BISECT_K_TOL merge.
    """
    roots: list[float] = []
    for i in range(len(grid)):
        left = values[i - 1] if i > 0 else np.inf
        right = values[i + 1] if i + 1 < len(grid) else np.inf
        if values[i] <= left and values[i] <= right:
            if i == 0 or i + 1 == len(grid):
                x_star = float(grid[i])  # edge minimum: no bracket to refine
            else:
                x_star = _refine_root(f, float(grid[i - 1]), float(grid[i + 1]))
            if f(x_star) <= root_tol and not any(
                abs(x_star - r) <= 10 * BISECT_K_TOL for r in roots
            ):
                roots.append(x_star)
    return roots


def _sweep(
    jets_at, mp: MetricParams, quad: QuadratureSet, param_range: tuple[float, float],
    steps: int, root_tol: float,
) -> ScaleSweepResult:
    """Residual and energy of ``jets_at(k)`` on a grid over the range (in either
    order), with residual roots and energy critical points."""
    if steps < 3:
        raise ValueError(f"need at least 3 sweep steps, got {steps}")

    def residual_of(jets: sections.JetArrays) -> float:
        return variational.residual_from_jets(jets, mp, quad).l2_residual

    def residual_and_energy(k: float) -> tuple[float, float]:
        jets = jets_at(k)
        return residual_of(jets), 0.5 * float(np.sum(quad.weights * density_from_jets(jets, mp)))

    grid = np.linspace(*sorted(param_range), steps)
    res, ene = np.array([residual_and_energy(k) for k in grid]).T
    pts = [SweepPoint(float(k), float(r), float(e)) for k, r, e in zip(grid, res, ene)]
    roots = grid_roots(lambda k: residual_of(jets_at(k)), grid, res, root_tol)

    critical: list[float] = []
    slopes = np.diff(ene)
    for i in range(len(slopes) - 1):
        if slopes[i] == 0.0 or slopes[i + 1] == 0.0:
            continue
        if (slopes[i] > 0) != (slopes[i + 1] > 0):
            critical.append(float(grid[i + 1]))
    return ScaleSweepResult(pts, roots, critical)


def scale_sweep(
    base: SectionSpec,
    m: ManifoldSpec,
    mp: MetricParams,
    k_range: tuple[float, float],
    steps: int,
    quad: QuadratureSet,
    root_tol: float = ROOT_TOL,
) -> ScaleSweepResult:
    """Sweep the linear rescaling k*base of a unit-length trial section.

    Residual roots are refined by bisection to 1e-10 in k; energy critical
    points are sign changes of the grid slope of the energy.
    """
    sections.check_compatible(base, m)
    lengths = np.linalg.norm(sections.evaluate_batch(base, m, quad.points), axis=1)
    if np.max(np.abs(lengths - 1.0)) > 1e-8:
        raise ValueError("scale sweep needs a unit-length base section")
    base_jets = sections.jet_batch(base, m, quad.points)

    def jets_at(k: float) -> sections.JetArrays:
        # constant rescaling of a constant-length section: grad F stays zero
        return sections.JetArrays(
            value=k * base_jets.value,
            deriv_norm2=k * k * base_jets.deriv_norm2,
            rough_laplacian=k * base_jets.rough_laplacian,
            half_len2=k * k * base_jets.half_len2,
            grad_half_len2=k * k * base_jets.grad_half_len2,
            lap_half_len2=k * k * base_jets.lap_half_len2,
            deriv_along_grad=k * k * k * base_jets.deriv_along_grad,
        )

    return _sweep(jets_at, mp, quad, k_range, steps, root_tol)


def conformal_axis_sweep(
    m: ManifoldSpec,
    mp: MetricParams,
    c_range: tuple[float, float],
    steps: int,
    quad: QuadratureSet,
    axis_direction: np.ndarray | None = None,
    root_tol: float = ROOT_TOL,
) -> ScaleSweepResult:
    """Sweep the axial length c of a conformal gradient field."""
    if not m.is_sphere:
        raise ValueError("conformal gradient sweeps need a sphere")
    if axis_direction is None:
        direction = np.zeros(m.ambient_dim)
        direction[0] = 1.0
    else:
        direction = np.asarray(axis_direction, dtype=float)
        direction = direction / np.linalg.norm(direction)

    def jets_at(c: float) -> sections.JetArrays:
        return sections.jet_batch(ConformalGradient(c * direction), m, quad.points)

    return _sweep(jets_at, mp, quad, c_range, steps, root_tol)


def functional_rescale_check(
    m: ManifoldSpec,
    mp: MetricParams,
    f: ScalarFieldSpec,
    quad: QuadratureSet,
    with_per_point: bool = False,
) -> variational.ResidualReport:
    """Residual of the Hopf field rescaled by a scalar function.

    For constant f the residual vanishes exactly when f = 0 or p > 1 with
    f^2 = 1/(p-1); a non-constant height-function factor leaves a strictly
    positive residual floor away from its zero level."""
    if not (m.is_sphere and m.dim % 2 == 1):
        raise ValueError("Hopf rescaling checks need an odd-dimensional sphere")
    if not isinstance(f, (Constant, AxisLinear)):
        raise ValueError("the scalar factor must be constant or axis-linear")
    section = Rescaled(Hopf(), f)
    return variational.residual(section, m, mp, quad, with_per_point)
