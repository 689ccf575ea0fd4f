"""Tangent vector field families with closed-form covariant derivatives.

Each family evaluates to a field tangent to the base manifold, and carries
analytic first derivatives.  ``jet_batch`` returns the full derivative data
over a stack of points as ``JetArrays`` (value, |grad sigma|^2, rough
Laplacian, the scalar half_len2 = |sigma|^2/2 with its gradient and
Laplacian, and the derivative along that gradient); every derived quantity
of the energy and the criticality equation is a function of these arrays.
The data is analytic for every family except ``LinearAmbient``, whose
second-order data is assembled semi-analytically: one nested central
difference of the closed-form first derivative, always differencing
parallel-transported vectors (a raw ambient stencil would pick up
second-fundamental-form terms).

Finite-difference oracles for the analytic formulas live here too:
``covariant_derivative_fd`` and ``rough_laplacian_fd`` work for any family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import geometry
from .geometry import ManifoldSpec

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-3


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ConformalGradient:
    """sigma(x) = a - (a.x)x on a sphere; the gradient of the height function along a."""

    axis: np.ndarray

    def __post_init__(self):
        axis = _as_vector(self.axis, "axis")
        if np.linalg.norm(axis) == 0.0:
            raise ValueError("conformal gradient axis must be nonzero")
        object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class Hopf:
    """sigma(x) = Jx on an odd sphere, J the standard blockwise rotation by 90 degrees."""


@dataclass(frozen=True)
class LinearAmbient:
    """sigma(x) = P_x(Ax + b): tangential part of an affine ambient field."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        off = _as_vector(self.offset, "offset")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if off.shape[0] != mat.shape[0]:
            raise ValueError("matrix and offset sizes disagree")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "offset", off)


@dataclass(frozen=True)
class Constant:
    """Constant scalar multiplier."""

    value: float


@dataclass(frozen=True)
class AxisLinear:
    """Height function x -> a.x restricted to the sphere."""

    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", _as_vector(self.axis, "axis"))


ScalarFieldSpec = Union[Constant, AxisLinear]


@dataclass(frozen=True)
class Rescaled:
    """Pointwise scalar multiple f(x) * base(x)."""

    base: "SectionSpec"
    factor: ScalarFieldSpec


@dataclass(frozen=True)
class ConstantTorus:
    """Constant (hence parallel) field on a flat torus."""

    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", _as_vector(self.vector, "vector"))


@dataclass(frozen=True)
class Zero:
    """The zero section."""


SectionSpec = Union[ConformalGradient, Hopf, LinearAmbient, Rescaled, ConstantTorus, Zero]


def hopf_matrix(ambient_dim: int) -> np.ndarray:
    """The standard skew map (x1,x2,...) -> (-x2,x1,...), blockwise on pairs."""
    if ambient_dim % 2 != 0:
        raise ValueError("Hopf structure needs an even ambient dimension")
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    return np.kron(np.eye(ambient_dim // 2), block)


def check_compatible(s: SectionSpec, m: ManifoldSpec) -> None:
    """Raise if the family cannot live on ``m`` (wrong manifold, parity or sizes)."""
    d = m.ambient_dim
    if isinstance(s, ConformalGradient):
        if not m.is_sphere:
            raise ValueError("conformal gradient fields live on spheres")
        if s.axis.shape[0] != d:
            raise ValueError(f"axis has length {s.axis.shape[0]}, expected {d}")
    elif isinstance(s, Hopf):
        if not (m.is_sphere and m.dim % 2 == 1):
            raise ValueError("the Hopf field needs an odd-dimensional sphere")
    elif isinstance(s, LinearAmbient):
        if not m.is_sphere:
            raise ValueError("linear ambient fields live on spheres")
        if s.matrix.shape[0] != d:
            raise ValueError(f"matrix is {s.matrix.shape[0]}x..., expected {d}")
    elif isinstance(s, Rescaled):
        check_compatible(s.base, m)
        if isinstance(s.factor, AxisLinear):
            if not m.is_sphere:
                raise ValueError("axis-linear scalar fields live on spheres")
            if s.factor.axis.shape[0] != d:
                raise ValueError(f"scalar axis has length {s.factor.axis.shape[0]}, expected {d}")
    elif isinstance(s, ConstantTorus):
        if m.is_sphere:
            raise ValueError("constant fields are a torus family; use LinearAmbient on spheres")
        if s.vector.shape[0] != d:
            raise ValueError(f"vector has length {s.vector.shape[0]}, expected {d}")
    elif isinstance(s, Zero):
        pass
    else:
        raise TypeError(f"unknown section spec {s!r}")


def scalar_batch(f: ScalarFieldSpec, m: ManifoldSpec, X: np.ndarray):
    """Value, tangential gradient and Laplacian of the scalar field at each point."""
    n_pts, d = X.shape
    if isinstance(f, Constant):
        return (
            np.full(n_pts, f.value),
            np.zeros((n_pts, d)),
            np.zeros(n_pts),
        )
    # height function on the sphere: eigenfunction of the Laplacian with eigenvalue n
    lam = X @ f.axis
    grad = f.axis[None, :] - lam[:, None] * X
    return lam, grad, m.dim * lam


# ---------------------------------------------------------------------------
# batched evaluation and derivatives


def evaluate_batch(s: SectionSpec, m: ManifoldSpec, X: np.ndarray) -> np.ndarray:
    """Field values at a stack of points, shape (N, ambient_dim)."""
    if isinstance(s, ConformalGradient):
        lam = X @ s.axis
        return s.axis[None, :] - lam[:, None] * X
    if isinstance(s, Hopf):
        return X @ hopf_matrix(m.ambient_dim).T
    if isinstance(s, LinearAmbient):
        amb = X @ s.matrix.T + s.offset[None, :]
        return geometry.project_batch(m, X, amb)
    if isinstance(s, Rescaled):
        f, _, _ = scalar_batch(s.factor, m, X)
        return f[:, None] * evaluate_batch(s.base, m, X)
    if isinstance(s, ConstantTorus):
        return np.broadcast_to(s.vector, X.shape).copy()
    if isinstance(s, Zero):
        return np.zeros_like(X)
    raise TypeError(f"unknown section spec {s!r}")


def derivative_batch(s: SectionSpec, m: ManifoldSpec, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Covariant derivative at X[i] in the tangent direction V[i], closed form."""
    if isinstance(s, ConformalGradient):
        lam = X @ s.axis
        return -lam[:, None] * V
    if isinstance(s, Hopf):
        return geometry.project_batch(m, X, V @ hopf_matrix(m.ambient_dim).T)
    if isinstance(s, LinearAmbient):
        c = np.sum((X @ s.matrix.T + s.offset[None, :]) * X, axis=1)
        return geometry.project_batch(m, X, V @ s.matrix.T) - c[:, None] * V
    if isinstance(s, Rescaled):
        f, gradf, _ = scalar_batch(s.factor, m, X)
        df = np.sum(gradf * V, axis=1)
        return df[:, None] * evaluate_batch(s.base, m, X) + f[:, None] * derivative_batch(
            s.base, m, X, V
        )
    if isinstance(s, (ConstantTorus, Zero)):
        return np.zeros_like(V)
    raise TypeError(f"unknown section spec {s!r}")


@dataclass
class JetArrays:
    """Derivative data of a section over a stack of points (struct of arrays).

    ``rough_laplacian`` and ``lap_half_len2`` are None when the jet was
    requested at first order for a family whose second-order data needs
    finite differencing.
    """

    value: np.ndarray            # (N, d)
    deriv_norm2: np.ndarray      # (N,)   |grad sigma|^2
    rough_laplacian: np.ndarray | None  # (N, d)
    half_len2: np.ndarray        # (N,)   |sigma|^2 / 2
    grad_half_len2: np.ndarray   # (N, d)
    lap_half_len2: np.ndarray | None    # (N,)
    deriv_along_grad: np.ndarray  # (N, d) derivative in the direction grad_half_len2


def _rough_laplacian_fd_batch(
    s: SectionSpec, m: ManifoldSpec, X: np.ndarray, h: float
) -> np.ndarray:
    """Minus the traced second derivative by transported central differences.

    For each frame direction the closed-form first derivative is evaluated at
    geodesic(+/-h) in the transported direction, pulled back to the center,
    and differenced.  Geodesic frame extensions make the connection
    correction vanish at the center point.
    """
    frames = geometry.frame_batch(m, X)
    out = np.zeros_like(X)
    for i in range(m.dim):
        e = frames[:, i, :]
        y_plus = geometry.geodesic_batch(m, X, e, h)
        y_minus = geometry.geodesic_batch(m, X, e, -h)
        v_plus = geometry.geodesic_velocity_batch(m, X, e, h)
        v_minus = geometry.geodesic_velocity_batch(m, X, e, -h)
        g_plus = derivative_batch(s, m, y_plus, v_plus)
        g_minus = derivative_batch(s, m, y_minus, v_minus)
        back_plus = geometry.transport_batch(m, y_plus, -v_plus, h, g_plus)
        back_minus = geometry.transport_batch(m, y_minus, v_minus, h, g_minus)
        out += (back_plus - back_minus) / (2.0 * h)
    return -out


def _scalar_laplacian_fd_batch(values_fn, m: ManifoldSpec, X: np.ndarray, h: float) -> np.ndarray:
    """Minus the traced second difference of a scalar function along geodesic frames."""
    frames = geometry.frame_batch(m, X)
    center = values_fn(X)
    acc = np.zeros(X.shape[0])
    for i in range(m.dim):
        e = frames[:, i, :]
        f_plus = values_fn(geometry.geodesic_batch(m, X, e, h))
        f_minus = values_fn(geometry.geodesic_batch(m, X, e, -h))
        acc += (f_plus - 2.0 * center + f_minus) / (h * h)
    return -acc


def jet_batch(s: SectionSpec, m: ManifoldSpec, X: np.ndarray, order: int = 2) -> JetArrays:
    """Full derivative data over a stack of points.

    ``order=1`` skips the finite-difference second-order fields of
    LinearAmbient (they come back as None); closed-form families always
    carry everything.
    """
    d = m.ambient_dim
    n_pts = X.shape[0]
    if isinstance(s, ConformalGradient):
        c2 = float(s.axis @ s.axis)
        lam = X @ s.axis
        value = s.axis[None, :] - lam[:, None] * X
        half = 0.5 * (c2 - lam * lam)
        grad_half = -lam[:, None] * value
        return JetArrays(
            value=value,
            deriv_norm2=m.dim * lam * lam,
            rough_laplacian=value.copy(),
            half_len2=half,
            grad_half_len2=grad_half,
            lap_half_len2=c2 - (m.dim + 1) * lam * lam,
            deriv_along_grad=-lam[:, None] * grad_half,
        )
    if isinstance(s, Hopf):
        value = X @ hopf_matrix(d).T
        return JetArrays(
            value=value,
            deriv_norm2=np.full(n_pts, float(m.dim - 1)),
            rough_laplacian=(m.dim - 1) * value,
            half_len2=np.full(n_pts, 0.5),
            grad_half_len2=np.zeros((n_pts, d)),
            lap_half_len2=np.zeros(n_pts),
            deriv_along_grad=np.zeros((n_pts, d)),
        )
    if isinstance(s, LinearAmbient):
        a_mat = s.matrix
        amb = X @ a_mat.T + s.offset[None, :]
        c = np.sum(amb * X, axis=1)
        value = amb - c[:, None] * X
        half = 0.5 * np.sum(value * value, axis=1)
        # |grad sigma|^2 = |PAP - cP|_F^2 expanded in ambient traces
        ax = X @ a_mat.T
        atx = X @ a_mat
        xax = np.sum(ax * X, axis=1)
        deriv_norm2 = (
            float(np.sum(a_mat * a_mat))
            - np.sum(ax * ax, axis=1)
            - np.sum(atx * atx, axis=1)
            + xax * xax
            - 2.0 * c * (float(np.trace(a_mat)) - xax)
            + c * c * m.dim
        )
        grad_half = geometry.project_batch(m, X, value @ a_mat) - c[:, None] * value
        def half_len2_at(Y):
            sig = evaluate_batch(s, m, Y)
            return 0.5 * np.sum(sig * sig, axis=1)
        second = order >= 2
        return JetArrays(
            value=value,
            deriv_norm2=deriv_norm2,
            rough_laplacian=_rough_laplacian_fd_batch(s, m, X, FD_STEP_SECOND) if second else None,
            half_len2=half,
            grad_half_len2=grad_half,
            lap_half_len2=_scalar_laplacian_fd_batch(half_len2_at, m, X, FD_STEP_SECOND) if second else None,
            deriv_along_grad=derivative_batch(s, m, X, grad_half),
        )
    if isinstance(s, Rescaled):
        base = jet_batch(s.base, m, X, order)
        f, gradf, lapf = scalar_batch(s.factor, m, X)
        gradf_norm2 = np.sum(gradf * gradf, axis=1)
        value = f[:, None] * base.value
        deriv_norm2 = (
            gradf_norm2 * 2.0 * base.half_len2
            + 2.0 * f * np.sum(gradf * base.grad_half_len2, axis=1)
            + f * f * base.deriv_norm2
        )
        rough = None
        if base.rough_laplacian is not None:
            rough = (
                f[:, None] * base.rough_laplacian
                + lapf[:, None] * base.value
                - 2.0 * derivative_batch(s.base, m, X, gradf)
            )
        half = f * f * base.half_len2
        grad_half = 2.0 * (f * base.half_len2)[:, None] * gradf + (f * f)[:, None] * base.grad_half_len2
        # product rule for the Laplacian: lap(f^2 G) with lap(f^2) = 2 f lapf - 2|gradf|^2
        lap_half = None
        if base.lap_half_len2 is not None:
            lap_half = (
                f * f * base.lap_half_len2
                + 2.0 * base.half_len2 * (f * lapf - gradf_norm2)
                - 4.0 * f * np.sum(gradf * base.grad_half_len2, axis=1)
            )
        return JetArrays(
            value=value,
            deriv_norm2=deriv_norm2,
            rough_laplacian=rough,
            half_len2=half,
            grad_half_len2=grad_half,
            lap_half_len2=lap_half,
            deriv_along_grad=derivative_batch(s, m, X, grad_half),
        )
    if isinstance(s, ConstantTorus):
        value = np.broadcast_to(s.vector, X.shape).copy()
        half = np.full(n_pts, 0.5 * float(s.vector @ s.vector))
        zeros_v = np.zeros((n_pts, d))
        zeros_s = np.zeros(n_pts)
        return JetArrays(value, zeros_s.copy(), zeros_v.copy(), half, zeros_v.copy(), zeros_s.copy(), zeros_v.copy())
    if isinstance(s, Zero):
        zeros_v = np.zeros((n_pts, d))
        zeros_s = np.zeros(n_pts)
        return JetArrays(
            zeros_v.copy(), zeros_s.copy(), zeros_v.copy(), zeros_s.copy(),
            zeros_v.copy(), zeros_s.copy(), zeros_v.copy(),
        )
    raise TypeError(f"unknown section spec {s!r}")


# ---------------------------------------------------------------------------
# single-point API


def evaluate(s: SectionSpec, m: ManifoldSpec, x: np.ndarray) -> np.ndarray:
    """Field value at a point; tangent to the manifold there."""
    check_compatible(s, m)
    x = geometry.check_point(m, x)
    return evaluate_batch(s, m, x[None, :])[0]


def covariant_derivative(
    s: SectionSpec, m: ManifoldSpec, x: np.ndarray, direction: np.ndarray
) -> np.ndarray:
    """Closed-form covariant derivative at x in a tangent direction."""
    check_compatible(s, m)
    x = geometry.check_point(m, x)
    direction = geometry.check_tangent(m, x, direction)
    return derivative_batch(s, m, x[None, :], direction[None, :])[0]


def covariant_derivative_fd(
    s: SectionSpec,
    m: ManifoldSpec,
    x: np.ndarray,
    direction: np.ndarray,
    step: float = FD_STEP_FIRST,
    richardson: bool = False,
) -> np.ndarray:
    """Finite-difference oracle for the covariant derivative.

    Projects the central difference of the field along the geodesic with the
    normalized direction, then rescales by |direction|.  One Richardson step
    (step, step/2) is applied on request.
    """
    check_compatible(s, m)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = geometry.check_point(m, x)
    direction = geometry.check_tangent(m, x, direction)
    speed = float(np.linalg.norm(direction))
    if speed == 0.0:
        return np.zeros_like(direction)
    u = direction / speed

    def central(h: float) -> np.ndarray:
        y_plus = geometry.geodesic(m, x, u, h)
        y_minus = geometry.geodesic(m, x, u, -h)
        diff = (evaluate_batch(s, m, y_plus[None, :])[0] - evaluate_batch(s, m, y_minus[None, :])[0]) / (2.0 * h)
        return geometry.tangent_project(m, x, diff)

    if richardson:
        return speed * (4.0 * central(step / 2.0) - central(step)) / 3.0
    return speed * central(step)


def rough_laplacian_fd(
    s: SectionSpec, m: ManifoldSpec, x: np.ndarray, step: float = FD_STEP_SECOND
) -> np.ndarray:
    """Finite-difference rough Laplacian (minus the traced second derivative)."""
    check_compatible(s, m)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = geometry.check_point(m, x)
    return _rough_laplacian_fd_batch(s, m, x[None, :], step)[0]


def sup_norm(s: SectionSpec, m: ManifoldSpec, quad: geometry.QuadratureSet) -> float:
    """Max of |sigma| over the quadrature points (a sampled lower bound of the sup)."""
    check_compatible(s, m)
    if quad.n_points == 0:
        raise ValueError("empty quadrature set")
    values = evaluate_batch(s, m, quad.points)
    return float(np.max(np.linalg.norm(values, axis=1)))


# ---------------------------------------------------------------------------
# linear-ambient algebra (used to form variations sigma + t*rho analytically)


def to_linear_ambient(s: SectionSpec, m: ManifoldSpec) -> LinearAmbient | None:
    """Rewrite the family as LinearAmbient on a sphere, or None if impossible."""
    if not m.is_sphere:
        return None
    d = m.ambient_dim
    if isinstance(s, ConformalGradient):
        return LinearAmbient(np.zeros((d, d)), s.axis)
    if isinstance(s, Hopf):
        return LinearAmbient(hopf_matrix(d), np.zeros(d))
    if isinstance(s, LinearAmbient):
        return s
    if isinstance(s, Zero):
        return LinearAmbient(np.zeros((d, d)), np.zeros(d))
    if isinstance(s, Rescaled) and isinstance(s.factor, Constant):
        base = to_linear_ambient(s.base, m)
        if base is None:
            return None
        k = s.factor.value
        return LinearAmbient(k * base.matrix, k * base.offset)
    return None


def add_scaled(s: SectionSpec, rho: SectionSpec, t: float, m: ManifoldSpec) -> SectionSpec:
    """The section s + t*rho, formed inside a closed-form family.

    Works whenever both operands are linear-ambient on a sphere, or both are
    constant fields on a torus; otherwise raises (callers treat that as
    "variation not representable" and skip with a diagnostic).
    """
    if isinstance(s, (ConstantTorus, Zero)) and isinstance(rho, (ConstantTorus, Zero)) and not m.is_sphere:
        d = m.ambient_dim
        c_s = s.vector if isinstance(s, ConstantTorus) else np.zeros(d)
        c_r = rho.vector if isinstance(rho, ConstantTorus) else np.zeros(d)
        return ConstantTorus(c_s + t * c_r)
    lin_s = to_linear_ambient(s, m)
    lin_r = to_linear_ambient(rho, m)
    if lin_s is None or lin_r is None:
        raise ValueError(
            "section combination is only closed-form for linear-ambient sphere "
            "families and constant torus fields"
        )
    return LinearAmbient(lin_s.matrix + t * lin_r.matrix, lin_s.offset + t * lin_r.offset)


# ---------------------------------------------------------------------------
# textual forms used by the CLI


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values).ravel())


def format_section(s: SectionSpec) -> str:
    """Canonical flat text form; parse(format(s)) round-trips."""
    if isinstance(s, Zero):
        return "zero"
    if isinstance(s, Hopf):
        return "hopf"
    if isinstance(s, ConformalGradient):
        return f"conformal:a={_fmt_floats(s.axis)}"
    if isinstance(s, ConstantTorus):
        return f"constant:c={_fmt_floats(s.vector)}"
    if isinstance(s, LinearAmbient):
        rows = "|".join(_fmt_floats(row) for row in s.matrix)
        return f"linear:A={rows};b={_fmt_floats(s.offset)}"
    if isinstance(s, Rescaled):
        if isinstance(s.factor, Constant):
            return f"scaled:{format_section(s.base)}:k={repr(float(s.factor.value))}"
        return f"scaled:{format_section(s.base)}:axis={_fmt_floats(s.factor.axis)}"
    raise TypeError(f"unknown section spec {s!r}")


def parse_section(text: str) -> SectionSpec:
    """Parse the flat text form, e.g. "conformal:a=1,0,0,0" or "scaled:hopf:k=0.5"."""
    text = text.strip()
    if text == "zero":
        return Zero()
    if text == "hopf":
        return Hopf()
    try:
        if text.startswith("conformal:"):
            body = _expect_key(text[len("conformal:"):], "a")
            return ConformalGradient(_parse_floats(body))
        if text.startswith("constant:"):
            body = _expect_key(text[len("constant:"):], "c")
            return ConstantTorus(_parse_floats(body))
        if text.startswith("linear:"):
            a_part, _, b_part = text[len("linear:"):].partition(";")
            rows = [_parse_floats(r) for r in _expect_key(a_part, "A").split("|")]
            return LinearAmbient(np.array(rows), _parse_floats(_expect_key(b_part, "b")))
        if text.startswith("scaled:"):
            inner, _, last = text[len("scaled:"):].rpartition(":")
            if not inner:
                raise ValueError("scaled needs a base family and a factor")
            if last.startswith("k="):
                return Rescaled(parse_section(inner), Constant(_parse_float(last[2:])))
            if last.startswith("axis="):
                return Rescaled(parse_section(inner), AxisLinear(_parse_floats(last[5:])))
            raise ValueError(f"unknown scale factor {last!r}")
    except ValueError as exc:
        raise ValueError(f"cannot parse section {text!r}: {exc}") from None
    raise ValueError(f"cannot parse section {text!r}")


def _expect_key(body: str, key: str) -> str:
    prefix = key + "="
    if not body.startswith(prefix):
        raise ValueError(f"expected {prefix}...")
    return body[len(prefix):]


def _parse_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"coefficient {token!r} is not finite")
    return value


def _parse_floats(body: str) -> np.ndarray:
    return np.array([_parse_float(tok) for tok in body.split(",") if tok != ""])


def section_axis(s: SectionSpec) -> np.ndarray | None:
    """The natural axis of the family, if it has one (used for reporting)."""
    if isinstance(s, ConformalGradient):
        return s.axis
    if isinstance(s, Rescaled):
        if isinstance(s.factor, AxisLinear):
            return s.factor.axis
        return section_axis(s.base)
    return None
