"""Euler-Lagrange operators of the vertical (p,q)-energy.

A section is critical exactly when tension(sigma) = multiplier(sigma)*sigma,
where

    tension    = (1 + 2F) * rough_laplacian + 2p * deriv_along_grad_F
    multiplier = p*|grad sigma|^2 - p*q*|grad F|^2 - q*(1 + 2F)*lap F

Both are pointwise functions of the section's jets (``tension_from_jets``,
``multiplier_from_jets``).  The residual field tension - multiplier*sigma is
aggregated over quadrature sets into sup and (weighted) L2 norms.  The first
variation is evaluated in the pre-divergence form, i.e. as the pointwise
t-derivative of the energy density; integration by parts would change the
integrand by a divergence that a finite quadrature set does not annihilate,
and the centered-FD-of-energy oracle shares the quadrature set by contract.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import geometry, sections
from .energy import MetricParams, kato_margin_from_jets
from .geometry import ManifoldSpec, QuadratureSet
from .sections import SectionSpec


@dataclass(frozen=True)
class PerPointResidual:
    point: np.ndarray
    residual_norm: float
    tension_norm: float
    multiplier_abs: float


@dataclass(frozen=True)
class ResidualReport:
    sup_residual: float
    l2_residual: float
    n_samples: int
    seed: int
    params: MetricParams | None
    per_point: list[PerPointResidual] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "sup_residual": self.sup_residual,
            "l2_residual": self.l2_residual,
            "N": self.n_samples,
            "seed": self.seed,
        }
        if self.params is not None:
            out["p"] = self.params.p
            out["q"] = self.params.q
        return out

    def per_point_to_csv(self, fileobj, axis: np.ndarray | None = None) -> None:
        """Columns: point coordinates, height along the family axis where
        applicable (blank otherwise), |tension|, |multiplier|, |residual|."""
        if self.per_point is None:
            raise ValueError("report was built without per-point data")
        writer = csv.writer(fileobj)
        d = len(self.per_point[0].point) if self.per_point else 0
        writer.writerow([f"x{i}" for i in range(d)] + ["lambda", "tension", "multiplier", "residual"])
        for row in self.per_point:
            lam = format(float(row.point @ axis), ".17g") if axis is not None else ""
            writer.writerow(
                [format(c, ".17g") for c in row.point]
                + [lam, format(row.tension_norm, ".17g"),
                   format(row.multiplier_abs, ".17g"), format(row.residual_norm, ".17g")]
            )


@dataclass(frozen=True)
class VariationSpec:
    """A variation direction; the varied family is sigma + t*direction."""

    direction: SectionSpec


def tension_from_jets(jets: sections.JetArrays, p: float) -> np.ndarray:
    """(1+2F)*rough_laplacian + 2p*(derivative along grad F) at each point."""
    return (1.0 + 2.0 * jets.half_len2)[:, None] * jets.rough_laplacian + (
        2.0 * p
    ) * jets.deriv_along_grad


def multiplier_from_jets(jets: sections.JetArrays, mp: MetricParams) -> np.ndarray:
    """The scalar multiplying sigma in the criticality equation, at each point."""
    grad_f_sq = np.sum(jets.grad_half_len2 * jets.grad_half_len2, axis=1)
    return (
        mp.p * jets.deriv_norm2
        - mp.p * mp.q * grad_f_sq
        - mp.q * (1.0 + 2.0 * jets.half_len2) * jets.lap_half_len2
    )


def _residual_report(
    t_vec: np.ndarray, mult: np.ndarray, value: np.ndarray, quad: QuadratureSet,
    params: MetricParams | None, with_per_point: bool,
) -> ResidualReport:
    """Sup, weighted L2 and optional per-point rows of t_vec - mult*value."""
    res = t_vec - mult[:, None] * value
    norms = np.linalg.norm(res, axis=1)
    sup = float(np.max(norms))
    l2 = float(np.sqrt(np.sum(quad.weights * norms * norms)))
    per_point = None
    if with_per_point:
        t_norms = np.linalg.norm(t_vec, axis=1)
        per_point = [
            PerPointResidual(quad.points[i].copy(), float(norms[i]), float(t_norms[i]), abs(float(mult[i])))
            for i in range(quad.n_points)
        ]
    return ResidualReport(sup, l2, quad.n_points, quad.seed, params, per_point)


def residual_from_jets(
    jets: sections.JetArrays, mp: MetricParams, quad: QuadratureSet,
    with_per_point: bool = False,
) -> ResidualReport:
    """Aggregate |tension - multiplier*sigma| over the quadrature set.

    Jets are taken as an argument so parameter sweeps can reuse one set of
    point data across many (p, q).
    """
    return _residual_report(
        tension_from_jets(jets, mp.p), multiplier_from_jets(jets, mp), jets.value,
        quad, mp, with_per_point,
    )


def residual(
    s: SectionSpec, m: ManifoldSpec, mp: MetricParams, quad: QuadratureSet,
    with_per_point: bool = False,
) -> ResidualReport:
    """Pointwise criticality defect aggregated over the quadrature set;
    zero residual means the section is (p,q)-critical at the samples."""
    sections.check_compatible(s, m)
    if quad.n_points == 0:
        raise ValueError("empty quadrature set")
    jets = sections.jet_batch(s, m, quad.points)
    return residual_from_jets(jets, mp, quad, with_per_point)


def sphere_bundle_residual(
    s: SectionSpec, m: ManifoldSpec, k: float, quad: QuadratureSet,
    with_per_point: bool = False,
) -> ResidualReport:
    """Defect of the constrained equation rough_laplacian = |grad sigma|^2/k^2 * sigma
    for a section of constant length k.

    In the per-term breakdown the "tension" is the rough Laplacian and the
    "multiplier" is |grad sigma|^2 / k^2.
    """
    sections.check_compatible(s, m)
    if k <= 0:
        raise ValueError(f"sphere bundle radius must be positive, got {k}")
    if quad.n_points == 0:
        raise ValueError("empty quadrature set")
    jets = sections.jet_batch(s, m, quad.points)
    lengths = np.sqrt(2.0 * jets.half_len2)
    if np.max(np.abs(lengths - k)) > 1e-8:
        raise ValueError(
            f"section is not of constant length {k}: sampled lengths in "
            f"[{lengths.min()!r}, {lengths.max()!r}]"
        )
    mult = jets.deriv_norm2 / (k * k)
    return _residual_report(jets.rough_laplacian, mult, jets.value, quad, None, with_per_point)


def first_variation(
    s: SectionSpec, variation: VariationSpec, m: ManifoldSpec, mp: MetricParams,
    quad: QuadratureSet,
) -> float:
    """d/dt at t=0 of the energy of sigma + t*rho over the quadrature set.

    The integrand is the exact pointwise t-derivative of the energy density:

        w^p * ( <grad sigma, grad rho> + q <sigma, d_rho(grad F)>
                + q <d_sigma(grad F), rho> )
        - p w^(p+1) * (|grad sigma|^2 + q |grad F|^2) * <sigma, rho>

    so with a shared quadrature set the centered difference of the energy
    reproduces it up to O(t^2) differentiation error only.
    """
    sections.check_compatible(s, m)
    rho = variation.direction
    sections.check_compatible(rho, m)
    if quad.n_points == 0:
        raise ValueError("empty quadrature set")
    X = quad.points
    jets = sections.jet_batch(s, m, X, order=1)
    rho_val = sections.evaluate_batch(rho, m, X)
    w = 1.0 / (1.0 + 2.0 * jets.half_len2)

    # sum_i <d_i sigma, d_i rho> over the deterministic frame
    frames = geometry.frame_batch(m, X)
    pairing = np.zeros(X.shape[0])
    for i in range(m.dim):
        e = frames[:, i, :]
        ds = sections.derivative_batch(s, m, X, e)
        dr = sections.derivative_batch(rho, m, X, e)
        pairing += np.sum(ds * dr, axis=1)

    rho_along_grad = sections.derivative_batch(rho, m, X, jets.grad_half_len2)
    integrand = w**mp.p * (
        pairing
        + mp.q * np.sum(jets.value * rho_along_grad, axis=1)
        + mp.q * np.sum(jets.deriv_along_grad * rho_val, axis=1)
    ) - mp.p * w ** (mp.p + 1.0) * kato_margin_from_jets(jets, mp.q) * np.sum(
        jets.value * rho_val, axis=1
    )
    return float(np.sum(quad.weights * integrand))


def first_variation_fd(
    s: SectionSpec, variation: VariationSpec, m: ManifoldSpec, mp: MetricParams,
    quad: QuadratureSet, t: float = 1e-4,
) -> float:
    """Centered-difference oracle [E(sigma + t*rho) - E(sigma - t*rho)]/(2t),
    sharing the quadrature set with the analytic side."""
    from . import energy as energy_mod

    plus = sections.add_scaled(s, variation.direction, t, m)
    minus = sections.add_scaled(s, variation.direction, -t, m)
    e_plus = energy_mod.energy(plus, m, mp, quad).total
    e_minus = energy_mod.energy(minus, m, mp, quad).total
    return (e_plus - e_minus) / (2.0 * t)
