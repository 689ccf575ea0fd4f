"""Parameter-plane region tests, boundary conventions included."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqharmonic import regions
from pqharmonic.regions import (
    RegionSpec,
    corollary410_check,
    cutoff_rho,
    export_region_grid,
    in_F,
    in_G1,
    in_W,
    theoremB_allowed_q,
)


# --- cut-off ------------------------------------------------------------------


@pytest.mark.parametrize("nu,p,expected", [(1.0, -2.0, 1.0), (1.0, 0.0, 0.0), (2.0, 4.0, -2.0)])
def test_cutoff_values(nu, p, expected):
    assert cutoff_rho(nu, p) == expected


def test_cutoff_domain_error():
    with pytest.raises(ValueError):
        cutoff_rho(1.0, -4.5)
    with pytest.raises(ValueError):
        cutoff_rho(-1.0, 0.0)


def test_cutoff_continuous_at_joints_and_monotone():
    for nu in (0.25, 1.0, 3.0):
        assert abs(cutoff_rho(nu, -1.0) - 0.0) < 1e-15
        assert abs(cutoff_rho(nu, 2.0) - 0.0) < 1e-15
        ps = np.linspace(-4.0, 10.0, 1000)
        vals = [cutoff_rho(nu, float(p)) for p in ps]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# --- membership ---------------------------------------------------------------


def test_strip_region_ignores_q():
    assert in_F(0.5, 0.5, 7.0).region_name == regions.F_0
    assert in_F(0.5, 0.0, -123.0).member
    assert in_F(0.5, 1.0, 123.0).member


def test_negative_p_wedge_boundary_included():
    verdict = in_F(0.5, -1.0, -4.0)  # mu*q = -2 = 2p exactly
    assert verdict.member and verdict.region_name == regions.F_MINUS
    assert "boundary" in verdict.constraint_notes
    assert not in_F(0.5, -1.0, -3.9).member


def test_open_wedge_boundary_excluded():
    assert not in_F(0.5, 2.0, -1.9).member  # mu*q = -0.95, needs < -1
    assert in_F(0.5, 2.0, -2.1).member
    exact = in_F(0.5, 2.0, -2.0)  # mu*q = 1-p exactly: excluded
    assert not exact.member and "excluded" in exact.constraint_notes


def test_closed_wedge_boundary_included():
    assert in_G1(1.0, 2.0, -2.0).member
    assert not in_G1(1.0, 2.0, -2.01).member
    assert not in_G1(1.0, 1.0, 100.0).member  # needs p > 1


def test_intersection_wedge():
    assert in_W(1.0, 1.0, 3.0, -3.0).member  # -4 <= -3 < -2
    assert not in_W(1.0, 1.0, 3.0, -1.0).member


@given(st.floats(1.0001, 50), st.floats(-200, 200))
def test_disjoint_partition_at_critical_slopes(p, q):
    """With mu = 1/2, nu = 1 the open and closed wedges partition {p > 1}."""
    f1 = in_F(0.5, p, q).region_name == regions.F_1
    g1 = in_G1(1.0, p, q).member
    assert f1 != g1


def test_spot_check_partition_along_q_line():
    for q in np.linspace(-8.0, 4.0, 97):
        f1 = in_F(0.5, 3.0, float(q)).region_name == regions.F_1
        g1 = in_G1(1.0, 3.0, float(q)).member
        assert f1 != g1


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_wedges_cover_right_half_plane(mu, nu):
    """F_1(mu) | G_1(nu) = {p > 1} whenever mu >= 1/2 and nu >= 1."""
    for p in np.linspace(1.01, 12.0, 40):
        for q in np.linspace(-30.0, 10.0, 41):
            f1 = in_F(mu, float(p), float(q)).region_name == regions.F_1
            g1 = in_G1(nu, float(p), float(q)).member
            assert f1 or g1


def test_region_spec_warnings():
    assert RegionSpec(0.5, 1.0).theorem_warnings() == []
    assert len(RegionSpec(0.25, 0.5).theorem_warnings()) == 2
    with pytest.raises(ValueError):
        RegionSpec(0.0, 1.0)


# --- allowed-q bounds ------------------------------------------------------------


def test_allowed_q_strip_case():
    out = theoremB_allowed_q(0.0, 1.0)
    assert out.case == "b" and out.upper == 0.0
    assert out.allows(-0.5) and not out.allows(0.0)


def test_allowed_q_bounded_norm_case():
    out = theoremB_allowed_q(4.0, 0.5)  # 0.5 <= 1/sqrt(3)
    assert out.case == "d" and out.upper == -1.0


def test_allowed_q_silent_cases():
    assert theoremB_allowed_q(-5.0, 1.0).unconstrained
    assert theoremB_allowed_q(4.0, 0.9).unconstrained  # sup norm above 1/sqrt(3)


def test_allowed_q_negative_band():
    out = theoremB_allowed_q(-2.0, 10.0)
    assert out.case == "a" and out.upper == 1.0


def test_exact_conformal_solutions_escape_via_norm_hypothesis():
    """The solved triples have sup norm above 1/sqrt(p-1), so no bound applies;
    when a bound would apply at n = 3 it would sit exactly on the cut-off."""
    for n in (3, 5, 7):
        p = float(n + 1)
        q = float(2 - n)
        c = 1.0 / math.sqrt(n - 2)
        assert c > 1.0 / math.sqrt(p - 1.0)
        out = theoremB_allowed_q(p, c)
        assert out.unconstrained and out.allows(q)
    assert cutoff_rho(1.0, 4.0) == -1.0  # the n=3 parameters land on the cut-off


# --- sampled sup lower bounds -------------------------------------------------------


@pytest.mark.parametrize(
    "p,q,sup_sq,case,passed",
    [
        (0.5, -1.0, 3.0, "b", True),
        (2.0, -3.0, 0.5, "c", False),
        (2.0, 0.0, 2.0, "d", True),
        (-1.0, -5.0, 0.5, "a", True),   # needs > 2/5
        (0.5, 1.0, 9.0, "b", False),    # q >= 0 contradicts case (b)
        (-1.0, 1.0, 0.0, "none", True),
    ],
)
def test_corollary_cases(p, q, sup_sq, case, passed):
    out = corollary410_check(p, q, sup_sq)
    assert out.case == case and out.passed is passed


# --- grid export ----------------------------------------------------------------------


def test_grid_rows_ordered_p_major():
    rows = export_region_grid(0.5, 1.0, (0.0, 1.0), (0.0, 1.0), 3)
    ps = [r.p for r in rows]
    qs = [r.q for r in rows]
    assert ps == sorted(ps)
    assert qs[:3] == sorted(qs[:3])
    assert len(rows) == 9


def test_grid_strip_cells_labeled():
    rows = export_region_grid(0.5, 1.0, (-2.0, 2.0), (-2.0, 2.0), 9)
    for row in rows:
        if 0.0 <= row.p <= 1.0:
            assert regions.F_0 in row.labels


def test_grid_cell_on_cutoff_has_no_below_label():
    rows = export_region_grid(0.5, 1.0, (4.0, 5.0), (-1.0, 0.0), 2)
    cell = next(r for r in rows if r.p == 4.0 and r.q == -1.0)
    assert regions.RHO_BELOW not in cell.labels
    below = next(r for r in rows if r.p == 5.0 and r.q == -1.0)  # rho(5) = -1.5
    assert regions.RHO_BELOW not in below.labels
    rows2 = export_region_grid(0.5, 1.0, (4.0, 5.0), (-2.0, -1.5), 2)
    assert regions.RHO_BELOW in next(r for r in rows2 if r.p == 4.0 and r.q == -2.0).labels


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        export_region_grid(0.5, 1.0, (0.0, 1.0), (0.0, 1.0), 1)
    with pytest.raises(ValueError):
        export_region_grid(0.5, 1.0, (1.0, 0.0), (0.0, 1.0), 4)


def test_grid_csv_and_svg_output():
    rows = export_region_grid(0.5, 1.0, (-5.0, 5.0), (-8.0, 4.0), 12)
    csv_buf = io.StringIO()
    regions.region_grid_to_csv(rows, csv_buf)
    lines = csv_buf.getvalue().strip().splitlines()
    assert lines[0] == "p,q,labels"
    assert len(lines) == 145
    svg_buf = io.StringIO()
    regions.region_grid_to_svg(rows, svg_buf)
    text = svg_buf.getvalue()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "<rect" in text and "<text" in text


# --- vectorised grid against the scalar predicates and the loop writers ---------


def scalar_labels(mu, nu, p, q):
    """Labels of one cell from the scalar membership predicates."""
    labels = []
    verdict = in_F(mu, p, q)
    if verdict.member:
        labels.append(verdict.region_name)
    if in_G1(nu, p, q).member:
        labels.append(regions.G_1)
    if in_W(mu, nu, p, q).member:
        labels.append(regions.W)
    if p >= -4 and q < cutoff_rho(nu, p):
        labels.append(regions.RHO_BELOW)
    return tuple(labels)


def loop_csv(rows, fileobj):
    """Reference CSV writer: csv.writer, one row per cell."""
    writer = csv.writer(fileobj)
    writer.writerow(["p", "q", "labels"])
    for row in rows:
        writer.writerow([format(row.p, ".17g"), format(row.q, ".17g"), ";".join(row.labels)])


def loop_svg(rows, fileobj, width=640, height=640):
    """Reference SVG writer: one formatted rectangle per coloured cell."""
    colors = regions._SVG_COLORS
    ps = sorted({r.p for r in rows})
    qs = sorted({r.q for r in rows})
    p_lo, p_hi = ps[0], ps[-1]
    q_lo, q_hi = qs[0], qs[-1]
    cell_w = width / len(ps)
    cell_h = height / len(qs)
    margin = 30

    def x_of(p):
        return margin + (p - p_lo) / (p_hi - p_lo) * width

    def y_of(q):
        return margin + (q_hi - q) / (q_hi - q_lo) * height

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 2 * margin}" '
        f'height="{height + 2 * margin}">',
        f'<rect x="{margin}" y="{margin}" width="{width}" height="{height}" fill="{colors[regions.NONE]}"/>',
    ]
    for row in rows:
        color = None
        for name in regions._SVG_PRIORITY:
            if name in row.labels:
                color = colors[name]
                break
        if color is None:
            continue
        x = x_of(row.p) - cell_w / 2
        y = y_of(row.q) - cell_h / 2
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" '
            f'fill="{color}"/>'
        )
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


def assert_matches_scalar(mu, nu, p_range, q_range, res):
    grid = export_region_grid(mu, nu, p_range, q_range, res)
    rows = list(grid)
    assert len(grid) == len(rows) == res * res
    cells = [(float(p), float(q)) for p in np.linspace(*p_range, res) for q in np.linspace(*q_range, res)]
    assert [(row.p, row.q) for row in rows] == cells
    for row in rows:
        assert row.labels == scalar_labels(mu, nu, row.p, row.q), (row.p, row.q)
    return rows


# cells land exactly on p in {-4, -1, 0, 1, 2}, on mu*q = 2p, mu*q = 1-p,
# q = 2*nu*(1-p) and on the cut-off
BOUNDARY_GRIDS = [
    (0.5, 1.0, (-4.0, 4.0), (-8.0, 8.0), 9),
    (1.0, 0.5, (-4.0, 4.0), (-8.0, 8.0), 9),
    (0.5, 1.5, (-4.0, 4.0), (-12.0, 12.0), 25),
    (2.0, 1.0, (-6.0, 6.0), (-6.0, 6.0), 25),
]


@pytest.mark.parametrize("mu,nu,p_range,q_range,res", BOUNDARY_GRIDS)
def test_grid_cells_equal_scalar_labels_on_boundaries(mu, nu, p_range, q_range, res):
    rows = assert_matches_scalar(mu, nu, p_range, q_range, res)
    labelled = {name for row in rows for name in row.labels}
    assert labelled >= {regions.F_MINUS, regions.F_0, regions.F_1, regions.G_1, regions.RHO_BELOW}


def test_boundary_grid_hits_every_boundary():
    mu, nu = 0.5, 1.0
    cells = {(row.p, row.q) for row in export_region_grid(mu, nu, (-4.0, 4.0), (-8.0, 8.0), 9)}
    ps = {p for p, _ in cells}
    assert {-4.0, -1.0, 0.0, 1.0, 2.0} <= ps
    assert any(p < 0 and mu * q == 2 * p for p, q in cells)
    assert any(p > 1 and mu * q == 1 - p for p, q in cells)
    assert any(p > 1 and q == 2 * nu * (1 - p) for p, q in cells)
    assert any(p >= -4 and q == cutoff_rho(nu, p) for p, q in cells)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ranges(draw):
    lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    return lo, hi


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(min_value=5e-324, allow_infinity=False),
       nu=st.floats(min_value=5e-324, allow_infinity=False),
       p_range=st.one_of(ranges(), st.tuples(st.integers(-8, 0), st.integers(1, 8)).map(
           lambda t: (float(t[0]), float(t[1])))),
       q_range=ranges(), res=st.integers(2, 12))
def test_grid_cells_equal_scalar_labels(mu, nu, p_range, q_range, res):
    with warnings.catch_warnings():
        # np.linspace itself warns when hi - lo overflows, as it always has
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_matches_scalar(mu, nu, p_range, q_range, res)


def test_grid_labelling_prints_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = export_region_grid(1e308, 1e308, (-4.0, 4.0), (1e307, 1e308), 9)
    assert len(grid) == 81


@pytest.mark.parametrize("mu,nu,p_range,q_range,res", [
    *BOUNDARY_GRIDS,
    (0.5, 1.0, (-5.0, 5.0), (-8.0, 4.0), 60),
    (0.93, 1.17, (-4.2, 3.8), (-6.1, 2.9), 64),
    (0.3, 0.7, (-7.5, 9.25), (-20.0, 3.0), 33),
    (1.0, 1.0, (0.0, 1e-6), (-1e-6, 0.0), 7),
    (1.0, 1.0, (2.0, 2.0 + 1e-12), (-3.0, 3.0), 16),
    (0.5, 1.0, (4.0, 5.0), (-1.0, 0.0), 2),
])
def test_grid_writers_match_loop_writers_byte_for_byte(mu, nu, p_range, q_range, res):
    grid = export_region_grid(mu, nu, p_range, q_range, res)
    rows = list(grid)
    for fast, slow in ((regions.region_grid_to_csv, loop_csv), (regions.region_grid_to_svg, loop_svg)):
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        fast(grid, got)
        slow(rows, want)
        assert got.getvalue() == want.getvalue()


def test_grid_resolution_is_capped():
    assert regions.MAX_RESOLUTION == 4096
    with pytest.raises(ValueError, match="4096"):
        export_region_grid(0.5, 1.0, (0.0, 1.0), (0.0, 1.0), regions.MAX_RESOLUTION + 1)
