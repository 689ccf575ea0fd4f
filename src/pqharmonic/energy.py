"""The vertical (p,q)-energy: weight, density, Kato margin, classification.

For metric parameters (p, q) the energy of a section sigma is

    E = 1/2 * integral of  w(|sigma|^2)^p * (|grad sigma|^2 + q*|grad F|^2)

with w(t) = 1/(1+t) and F = |sigma|^2/2, realized as a weighted sum over a
quadrature set.  The pointwise density and Kato margin are functions of the
section's jets (``sections.JetArrays``).  Identical quadrature sets should be
reused across comparisons so Monte Carlo error cancels in ratios and
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry, sections
from .geometry import ManifoldSpec, QuadratureSet
from .sections import SectionSpec

Q_RIEMANNIAN_TOL = 1e-9


@dataclass(frozen=True)
class MetricParams:
    """The real parameter pair (p, q) of the bundle metric family."""

    p: float
    q: float


@dataclass(frozen=True)
class EnergyReport:
    total: float
    density_min: float
    density_max: float
    n_samples: int
    seed: int
    params: MetricParams

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "density_min": self.density_min,
            "density_max": self.density_max,
            "N": self.n_samples,
            "seed": self.seed,
            "p": self.params.p,
            "q": self.params.q,
        }


def weight(e_norm_sq: float) -> float:
    """w(|e|^2) = 1/(1 + |e|^2), in (0, 1]."""
    if e_norm_sq < 0:
        raise ValueError(f"squared norm must be nonnegative, got {e_norm_sq}")
    return 1.0 / (1.0 + e_norm_sq)


def kato_margin_from_jets(jets: sections.JetArrays, q: float) -> np.ndarray:
    """|grad sigma|^2 + q*|grad F|^2; nonnegative for q-Riemannian sections,
    zero exactly where the section is parallel."""
    grad_f_sq = np.sum(jets.grad_half_len2 * jets.grad_half_len2, axis=1)
    return jets.deriv_norm2 + q * grad_f_sq


def density_from_jets(jets: sections.JetArrays, mp: MetricParams) -> np.ndarray:
    """Pointwise energy density w^p * (|grad sigma|^2 + q*|grad F|^2)."""
    w = 1.0 / (1.0 + 2.0 * jets.half_len2)
    return w**mp.p * kato_margin_from_jets(jets, mp.q)


class QRiemannianClass(Enum):
    STRICT = "strict"
    BOUNDARY = "boundary"
    NOT = "not"


@dataclass(frozen=True)
class ClassificationResult:
    """Sampled verdict on q*|sigma|^2 >= -1; carries the sample count so
    callers can tighten N."""

    verdict: QRiemannianClass
    n_samples: int
    min_value: float  # min over samples of q*|sigma(x)|^2
    max_value: float


def classify_q_riemannian(
    s: SectionSpec, m: ManifoldSpec, q: float, quad: QuadratureSet
) -> ClassificationResult:
    """Classify the section against the closed tube q*|sigma|^2 >= -1 (sampled)."""
    sections.check_compatible(s, m)
    if quad.n_points == 0:
        raise ValueError("empty quadrature set")
    values = sections.evaluate_batch(s, m, quad.points)
    qn2 = q * np.sum(values * values, axis=1)
    lo = float(np.min(qn2))
    hi = float(np.max(qn2))
    if lo < -1.0 - Q_RIEMANNIAN_TOL:
        verdict = QRiemannianClass.NOT
    elif hi <= -1.0 + Q_RIEMANNIAN_TOL:
        verdict = QRiemannianClass.BOUNDARY
    else:
        verdict = QRiemannianClass.STRICT
    return ClassificationResult(verdict, quad.n_points, lo, hi)


def energy(s: SectionSpec, m: ManifoldSpec, mp: MetricParams, quad: QuadratureSet) -> EnergyReport:
    """Quadrature value of the vertical (p,q)-energy with density extrema.

    The sum is a fixed-order pairwise reduction (np.sum), so repeated runs on
    the same quadrature set are bitwise identical.
    """
    sections.check_compatible(s, m)
    if quad.n_points == 0:
        raise ValueError("empty quadrature set")
    dens = density_from_jets(sections.jet_batch(s, m, quad.points, order=1), mp)
    total = 0.5 * float(np.sum(quad.weights * dens))
    return EnergyReport(
        total=total,
        density_min=float(np.min(dens)),
        density_max=float(np.max(dens)),
        n_samples=quad.n_points,
        seed=quad.seed,
        params=mp,
    )


def conformal_energy_polar(n: int, c: float, p: float, q: float, nodes: int = 200) -> float:
    """Independent 1-d oracle for the energy of a conformal gradient field.

    Every jet quantity of the family depends on the point only through the
    height lam = c*cos(theta), so the energy reduces to an integral over the
    polar angle with surface measure vol(S^{n-1}) sin^{n-1}(theta) d(theta),
    evaluated here by Gauss-Legendre quadrature.
    """
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    nodes_x, weights = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (nodes_x + 1.0)
    w_theta = 0.5 * math.pi * weights
    lam = c * np.cos(theta)
    sigma_sq = c * c - lam * lam
    dens = (1.0 + sigma_sq) ** (-p) * (n * lam * lam + q * lam * lam * sigma_sq)
    shell = geometry.manifold_volume(geometry.sphere(n - 1)) if n >= 2 else 2.0
    integrand = dens * np.sin(theta) ** (n - 1)
    return 0.5 * shell * float(np.sum(w_theta * integrand))
