"""Parameter-plane regions where critical sections are forced to be parallel.

Membership predicates follow the defining inequalities verbatim, strict
versus non-strict comparisons included (the F_1 family is open in q, G_1 is
closed), using exact IEEE comparisons with no epsilon.  Callers probing
boundaries should pass exactly representable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

F_MINUS = "F_minus"
F_0 = "F_0"
F_1 = "F_1"
G_1 = "G_1"
W = "W"
NONE = "none"
RHO_BELOW = "rho_below"


@dataclass(frozen=True)
class RegionSpec:
    """Slope parameters (mu, nu) of the region families; both positive."""

    mu: float
    nu: float

    def __post_init__(self):
        if self.mu <= 0 or self.nu <= 0:
            raise ValueError(f"mu and nu must be positive, got ({self.mu}, {self.nu})")

    def theorem_warnings(self) -> list[str]:
        """Hypothesis flags: the parallel-only conclusions need mu >= 1/2 or nu >= 1."""
        notes = []
        if self.mu < 0.5:
            notes.append(f"mu = {self.mu} < 1/2: vanishing arguments need mu >= 1/2")
        if self.nu < 1.0:
            notes.append(f"nu = {self.nu} < 1: vanishing arguments need nu >= 1")
        return notes


@dataclass(frozen=True)
class RegionVerdict:
    member: bool
    region_name: str
    constraint_notes: str = ""


def cutoff_rho(nu: float, p: float) -> float:
    """Monotone decreasing piecewise-linear cut-off: -1-p on [-4,-1], 0 on
    [-1,2], nu*(2-p)/2 beyond 2.  Defined only for p >= -4."""
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if p < -4:
        raise ValueError(f"cut-off is defined for p >= -4, got {p}")
    if p <= -1:
        return -1.0 - p
    if p <= 2:
        return 0.0
    return nu * (2.0 - p) / 2.0


def in_F(mu: float, p: float, q: float) -> RegionVerdict:
    """Membership in F(mu) = F_minus(mu) | F_0 | F_1(mu).

    F_minus(mu): p < 0 and mu*q <= 2p (boundary included);
    F_0: 0 <= p <= 1, any q;
    F_1(mu): p > 1 and mu*q < 1 - p (boundary excluded).
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    notes = []
    if p == 0.0 or p == 1.0:
        notes.append("p on the F_0 seam")
    if p < 0:
        if mu * q == 2 * p:
            notes.append("on the mu*q = 2p boundary (included)")
        if mu * q <= 2 * p:
            return RegionVerdict(True, F_MINUS, "; ".join(notes))
        return RegionVerdict(False, NONE, "; ".join(notes))
    if p <= 1:
        return RegionVerdict(True, F_0, "; ".join(notes))
    if mu * q == 1 - p:
        notes.append("on the mu*q = 1-p boundary (excluded)")
    if mu * q < 1 - p:
        return RegionVerdict(True, F_1, "; ".join(notes))
    return RegionVerdict(False, NONE, "; ".join(notes))


def in_G1(nu: float, p: float, q: float) -> RegionVerdict:
    """Membership in G_1(nu) = {p > 1, q >= 2*nu*(1-p)} (boundary included)."""
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    notes = []
    if p > 1 and q == 2 * nu * (1 - p):
        notes.append("on the q = 2*nu*(1-p) boundary (included)")
    member = p > 1 and q >= 2 * nu * (1 - p)
    return RegionVerdict(member, G_1 if member else NONE, "; ".join(notes))


def in_W(mu: float, nu: float, p: float, q: float) -> RegionVerdict:
    """Membership in W(mu,nu) = F_1(mu) & G_1(nu) = {p>1, 2*mu*nu*(1-p) <= mu*q < 1-p}."""
    if mu <= 0 or nu <= 0:
        raise ValueError(f"mu and nu must be positive, got ({mu}, {nu})")
    member = p > 1 and 2 * mu * nu * (1 - p) <= mu * q < 1 - p
    return RegionVerdict(member, W if member else NONE)


@dataclass(frozen=True)
class AllowedQ:
    """Range of q left open for a non-trivial critical section at given p.

    ``upper`` is a strict upper bound (q must be < upper); None means the
    statement is silent for these inputs.
    """

    case: str  # "a" | "b" | "c" | "d" | "silent"
    upper: float | None
    note: str = ""

    @property
    def unconstrained(self) -> bool:
        return self.upper is None

    def allows(self, q: float) -> bool:
        return True if self.upper is None else q < self.upper


def theoremB_allowed_q(p: float, sup_norm_sigma: float) -> AllowedQ:
    """Constraint on q for a compact base with nonvanishing topological
    obstruction to parallel sections.

    (a) -4 <= p <= -1: q < -1-p; (b) -1 <= p <= 1: q < 0;
    (c) 1 < p <= 2 with sup|sigma| <= 1/sqrt(p-1): q < 0;
    (d) p >= 2 with sup|sigma| <= 1/sqrt(p-1): q < 1 - p/2;
    anything else: unconstrained (statement silent).
    """
    if -4 <= p <= -1:
        return AllowedQ("a", -1.0 - p)
    if -1 <= p <= 1:
        return AllowedQ("b", 0.0)
    if p > 1:
        bound = 1.0 / np.sqrt(p - 1.0)
        if sup_norm_sigma <= bound:
            if p <= 2:
                return AllowedQ("c", 0.0)
            return AllowedQ("d", 1.0 - p / 2.0)
        return AllowedQ("silent", None, f"sup norm {sup_norm_sigma} exceeds 1/sqrt(p-1) = {bound}")
    return AllowedQ("silent", None, "no case covers p < -4")


@dataclass(frozen=True)
class Corollary410Result:
    case: str  # "a" | "b" | "c" | "d" | "none"
    passed: bool
    required_sup_sq: float | None
    note: str = ""


def corollary410_check(p: float, q: float, sampled_sup_sq: float) -> Corollary410Result:
    """Check the sampled sup of |sigma|^2 against the non-compact lower bounds.

    (a) p < 0, q <= 4p: sup > -2/q; (b) 0 <= p <= 1: q < 0 and sup > -2/q;
    (c) p > 1, q < 2(1-p): sup > -2/q; (d) p > 1, q >= 2(1-p): sup > 1/(p-1).
    """
    if p < 0:
        if q <= 4 * p:
            need = -2.0 / q
            return Corollary410Result("a", sampled_sup_sq > need, need)
        return Corollary410Result("none", True, None, "no case applies for p < 0, q > 4p")
    if p <= 1:
        if q >= 0:
            return Corollary410Result("b", False, None, "case (b) requires q < 0")
        need = -2.0 / q
        return Corollary410Result("b", sampled_sup_sq > need, need)
    if q < 2 * (1 - p):
        need = -2.0 / q
        return Corollary410Result("c", sampled_sup_sq > need, need)
    need = 1.0 / (p - 1.0)
    return Corollary410Result("d", sampled_sup_sq > need, need)


@dataclass(frozen=True)
class RegionGridRow:
    p: float
    q: float
    labels: tuple[str, ...]


MAX_RESOLUTION = 4096

# bit i of a cell mask is membership in _LABEL_BITS[i], in the order in which
# a cell lists its labels
_LABEL_BITS = (F_MINUS, F_0, F_1, G_1, W, RHO_BELOW)
_MASK_LABELS = tuple(
    tuple(name for bit, name in enumerate(_LABEL_BITS) if mask >> bit & 1)
    for mask in range(1 << len(_LABEL_BITS))
)


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Labels of a regular (p, q) grid: bit i of ``masks[i_p, i_q]`` is the
    cell's membership in the i-th of F_minus, F_0, F_1, G_1, W, rho_below.

    ``len`` is the cell count; iteration yields one RegionGridRow per cell,
    p-major then q ascending.
    """

    ps: np.ndarray
    qs: np.ndarray
    masks: np.ndarray

    def __len__(self) -> int:
        return self.masks.size

    def __iter__(self):
        qs = self.qs.tolist()
        for p, row in zip(self.ps.tolist(), self.masks):
            for q, mask in zip(qs, row.tolist()):
                yield RegionGridRow(p, q, _MASK_LABELS[mask])


def _label_members(mu: float, nu: float, p: np.ndarray, q: np.ndarray):
    """Membership of a p column against a q row, one boolean array per label
    in mask bit order.  Each predicate repeats the scalar one (in_F, in_G1,
    in_W, cutoff_rho) operation for operation, comparisons included, so the
    cells agree with the scalar calls bit for bit."""
    mu_q = mu * q
    one_minus_p = 1 - p
    above_one = p > 1
    yield (p < 0) & (mu_q <= 2 * p)
    yield (p >= 0) & (p <= 1)
    yield above_one & (mu_q < one_minus_p)
    yield above_one & (q >= 2 * nu * one_minus_p)
    yield above_one & (2 * mu * nu * one_minus_p <= mu_q) & (mu_q < one_minus_p)
    cutoff = np.where(p <= -1, -1.0 - p, np.where(p <= 2, 0.0, nu * (2.0 - p) / 2.0))
    yield (p >= -4) & (q < cutoff)


def export_region_grid(
    mu: float, nu: float,
    p_range: tuple[float, float], q_range: tuple[float, float],
    resolution: int,
) -> RegionGrid:
    """Membership labels on a regular (p, q) grid of resolution^2 cells.

    Labels per cell are drawn from {F_minus, F_0, F_1, G_1, W, rho_below};
    rho_below means q < cutoff_rho(nu, p) and is omitted where the cut-off
    is undefined (p < -4).  The resolution per axis is 2 to MAX_RESOLUTION.
    """
    RegionSpec(mu, nu)  # rejects mu, nu <= 0
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be <= {MAX_RESOLUTION} per axis, got {resolution}")
    p_lo, p_hi = p_range
    q_lo, q_hi = q_range
    if not (p_lo < p_hi and q_lo < q_hi):
        raise ValueError("empty parameter range")
    ps = np.linspace(p_lo, p_hi, resolution)
    qs = np.linspace(q_lo, q_hi, resolution)
    masks = np.zeros((resolution, resolution), np.uint8)
    # Python floats overflow to inf (and inf * 0 to nan) without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for bit, member in enumerate(_label_members(mu, nu, ps[:, None], qs[None, :])):
            np.bitwise_or(masks, np.uint8(1 << bit), out=masks, where=member)
    return RegionGrid(ps, qs, masks)


# label field and line end of a CSV row, per mask
_MASK_CSV_END = tuple(";".join(labels) + "\r\n" for labels in _MASK_LABELS)


def region_grid_to_csv(grid: RegionGrid, fileobj) -> None:
    """Header ``p,q,labels`` and one ``p,q,labels`` line per cell, in grid
    order, with CRLF line ends: the bytes csv.writer writes (no field here
    needs quoting).  One write per p row."""
    fileobj.write("p,q,labels\r\n")
    q_fields = [f",{q:.17g}," for q in grid.qs.tolist()]
    for p, row in zip(grid.ps.tolist(), grid.masks):
        p_field = format(p, ".17g")
        fileobj.write("".join([p_field + q + _MASK_CSV_END[mask]
                               for q, mask in zip(q_fields, row.tolist())]))


_SVG_COLORS = {
    W: "#7b3294",
    F_1: "#2c7bb6",
    G_1: "#abd9e9",
    F_0: "#fdae61",
    F_MINUS: "#d7191c",
    NONE: "#f7f7f7",
}
_SVG_PRIORITY = (W, F_1, G_1, F_0, F_MINUS)
# end of a cell's <rect> element, per mask; None leaves the background showing
_MASK_RECT_END = tuple(
    next((_SVG_COLORS[name] + '"/>\n' for name in _SVG_PRIORITY if name in labels), None)
    for labels in _MASK_LABELS
)


def region_grid_to_svg(
    grid: RegionGrid, fileobj,
    width: int = 640, height: int = 640,
) -> None:
    """Filled-cell rendering of the grid with axis ticks at integers; one
    write per p row of cells."""
    ps = sorted(set(grid.ps.tolist()))
    qs = sorted(set(grid.qs.tolist()))
    p_lo, p_hi = ps[0], ps[-1]
    q_lo, q_hi = qs[0], qs[-1]
    cell_w = width / len(ps)
    cell_h = height / len(qs)
    margin = 30

    def x_of(p):
        return margin + (p - p_lo) / (p_hi - p_lo) * width

    def y_of(q):
        return margin + (q_hi - q) / (q_hi - q_lo) * height

    fileobj.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 2 * margin}" '
        f'height="{height + 2 * margin}">\n'
        f'<rect x="{margin}" y="{margin}" width="{width}" height="{height}" fill="{_SVG_COLORS[NONE]}"/>\n'
    )
    size = f'" width="{cell_w:.2f}" height="{cell_h:.2f}" fill="'
    y_fields = [f'" y="{y_of(q) - cell_h / 2:.2f}{size}' for q in grid.qs.tolist()]
    for p, row in zip(grid.ps.tolist(), grid.masks):
        x_field = f'<rect x="{x_of(p) - cell_w / 2:.2f}'
        ends = [_MASK_RECT_END[mask] for mask in row.tolist()]
        fileobj.write("".join([x_field + y + end for y, end in zip(y_fields, ends) if end is not None]))
    parts = []
    for p in range(int(np.ceil(p_lo)), int(np.floor(p_hi)) + 1):
        x = x_of(p)
        parts.append(f'<line x1="{x:.2f}" y1="{margin + height}" x2="{x:.2f}" '
                     f'y2="{margin + height + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{margin + height + 18}" font-size="10" '
                     f'text-anchor="middle">{p}</text>')
    for q in range(int(np.ceil(q_lo)), int(np.floor(q_hi)) + 1):
        y = y_of(q)
        parts.append(f'<line x1="{margin - 6}" y1="{y:.2f}" x2="{margin}" y2="{y:.2f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{margin - 9}" y="{y + 3:.2f}" font-size="10" '
                     f'text-anchor="end">{q}</text>')
    parts.append("</svg>")
    fileobj.write("\n".join(parts) + "\n")
