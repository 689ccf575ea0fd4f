"""Rescaling-search tests: parameter sweeps, exact solver, functional factors."""

import math

import numpy as np
import pytest

from pqharmonic import geometry
from pqharmonic.energy import MetricParams
from pqharmonic.sections import AxisLinear, Constant, ConformalGradient, Hopf
from pqharmonic.solver import (
    conformal_axis_sweep,
    functional_rescale_check,
    grid_roots,
    scale_sweep,
    solve_conformal_parameters,
)

S3 = geometry.sphere(3)
S5 = geometry.sphere(5)


def mc(m, n, seed):
    return geometry.make_quadrature(m, geometry.MONTE_CARLO, n, seed)


QUAD3 = mc(S3, 1200, 0)
QUAD5 = mc(S5, 1200, 0)


# --- scale sweeps ----------------------------------------------------------------


def test_scale_sweep_finds_unit_root_for_p_two():
    out = scale_sweep(Hopf(), S3, MetricParams(2.0, 0.0), (0.1, 3.0), 40, QUAD3)
    assert len(out.roots) == 1
    assert abs(out.roots[0] - 1.0) < 1e-8


def test_scale_sweep_root_at_half_for_p_five():
    out = scale_sweep(Hopf(), S3, MetricParams(5.0, -1.0), (0.1, 3.0), 40, QUAD3)
    assert len(out.roots) == 1
    assert abs(out.roots[0] - 0.5) < 1e-8


def test_scale_sweep_no_root_for_small_p():
    out = scale_sweep(Hopf(), S3, MetricParams(0.5, 0.0), (0.1, 3.0), 40, QUAD3)
    assert out.roots == []
    assert min(pt.l2_residual for pt in out.grid) > 1e-4


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0, 10.0])
def test_scale_sweep_roots_satisfy_inverse_square_relation(p):
    out = scale_sweep(Hopf(), S3, MetricParams(p, 0.5), (0.1, 3.0), 60, QUAD3)
    assert len(out.roots) == 1
    k_star = out.roots[0]
    assert abs(p - (1.0 + 1.0 / (k_star * k_star))) < 1e-8


def test_energy_critical_points_sit_at_residual_roots():
    out = scale_sweep(Hopf(), S3, MetricParams(2.0, 0.0), (0.1, 3.0), 60, QUAD3)
    spacing = (3.0 - 0.1) / 59
    assert len(out.critical_points) == 1
    assert abs(out.critical_points[0] - out.roots[0]) <= 2 * spacing


def test_scale_sweep_requires_unit_length_base():
    with pytest.raises(ValueError):
        scale_sweep(ConformalGradient(np.array([1.0, 0, 0, 0])), S3,
                    MetricParams(2.0, 0.0), (0.1, 3.0), 10, QUAD3)
    with pytest.raises(ValueError):
        scale_sweep(Hopf(), S3, MetricParams(2.0, 0.0), (0.1, 3.0), 2, QUAD3)


@pytest.mark.parametrize("sweep,args", [
    (scale_sweep, (Hopf(), S3, MetricParams(2.0, 0.0))),
    (conformal_axis_sweep, (S3, MetricParams(4.0, -1.0))),
])
def test_reversed_range_gives_the_ordered_result(sweep, args):
    ordered = sweep(*args, (0.1, 3.0), 40, QUAD3)
    reversed_ = sweep(*args, (3.0, 0.1), 40, QUAD3)
    assert len(ordered.roots) == 1
    assert reversed_ == ordered


def test_grid_roots_refines_interior_minima_and_keeps_edge_zeros():
    def f(x):
        return abs((x - 0.3) * (x - 1.2) * x)

    grid = np.linspace(0.0, 1.5, 16)
    roots = grid_roots(f, grid, np.array([f(x) for x in grid]))
    assert len(roots) == 3
    assert roots[0] == 0.0  # edge minimum, kept unrefined
    assert abs(roots[1] - 0.3) < 1e-9 and abs(roots[2] - 1.2) < 1e-9
    assert grid_roots(lambda x: 1.0 + x * x, grid, 1.0 + grid * grid) == []


def test_sweep_csv_and_json(tmp_path):
    out = scale_sweep(Hopf(), S3, MetricParams(2.0, 0.0), (0.5, 1.5), 11, QUAD3)
    path = tmp_path / "sweep.csv"
    with open(path, "w", newline="") as fh:
        out.to_csv(fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,residual,energy"
    assert len(lines) == 12
    payload = out.to_json_dict()
    assert set(payload) == {"roots", "critical_points"}


# --- conformal axis sweeps ----------------------------------------------------------


def test_conformal_sweep_locates_exact_amplitude_on_s5():
    out = conformal_axis_sweep(S5, MetricParams(6.0, -3.0), (0.1, 2.0), 40, QUAD5)
    assert len(out.roots) == 1
    assert abs(out.roots[0] - 1.0 / math.sqrt(3.0)) < 1e-6


def test_conformal_sweep_no_root_off_parameters():
    out = conformal_axis_sweep(S5, MetricParams(6.0, -2.9), (0.1, 2.0), 40, QUAD5)
    assert out.roots == []
    assert min(pt.l2_residual for pt in out.grid) > 1e-4


def test_conformal_sweep_standard_amplitude_on_s3():
    out = conformal_axis_sweep(S3, MetricParams(4.0, -1.0), (0.1, 2.0), 40, QUAD3)
    assert len(out.roots) == 1
    assert abs(out.roots[0] - 1.0) < 1e-8


def test_conformal_sweep_needs_sphere():
    with pytest.raises(ValueError):
        conformal_axis_sweep(geometry.torus(2), MetricParams(4.0, -1.0), (0.1, 2.0), 10,
                             geometry.make_quadrature(geometry.torus(2), geometry.TORUS_GRID, 100, 0))


# --- exact parameter solver -----------------------------------------------------------


def test_solved_triples():
    sol3 = solve_conformal_parameters(3)
    assert (sol3.p, sol3.q, sol3.c) == (4.0, -1.0, 1.0)
    sol5 = solve_conformal_parameters(5)
    assert sol5.p == 6.0 and sol5.q == -3.0
    assert abs(sol5.c - 0.5773502691896258) < 1e-15


def test_solver_rejects_low_dimensions():
    for n in (1, 2):
        with pytest.raises(ValueError):
            solve_conformal_parameters(n)


def test_solver_is_deterministic_pure_algebra():
    assert solve_conformal_parameters(7) == solve_conformal_parameters(7)


def test_solved_amplitude_matches_swept_root():
    sol = solve_conformal_parameters(5)
    out = conformal_axis_sweep(S5, MetricParams(sol.p, sol.q), (0.2, 1.2), 30, QUAD5)
    assert len(out.roots) == 1
    assert abs(out.roots[0] - sol.c) < 1e-6


# --- functional rescalings --------------------------------------------------------------


@pytest.mark.parametrize("p", [2.0, 5.0])
def test_constant_amplitude_rescaling_critical(p):
    rep = functional_rescale_check(S3, MetricParams(p, 0.0),
                                   Constant(1.0 / math.sqrt(p - 1.0)), QUAD3)
    assert rep.sup_residual < 1e-10


def test_constant_amplitude_off_value():
    rep = functional_rescale_check(S3, MetricParams(3.0, 0.0), Constant(1.0), QUAD3)
    assert rep.sup_residual > 1e-4
    # reduced-form oracle for constant factors: |2m (1 + (1-p) f^2) f|
    assert abs(rep.sup_residual - 2.0) < 1e-12


def test_zero_amplitude_is_trivially_critical():
    rep = functional_rescale_check(S3, MetricParams(3.0, 1.0), Constant(0.0), QUAD3)
    assert rep.sup_residual == 0.0


def test_height_function_factor_keeps_positive_floor():
    axis = np.array([1.0, 0.0, 0.0, 0.0])
    rep = functional_rescale_check(S3, MetricParams(3.0, 0.0), AxisLinear(axis), QUAD3,
                                   with_per_point=True)
    lam = np.abs(QUAD3.points @ axis)
    floor = min(pp.residual_norm for pp, h in zip(rep.per_point, lam) if h > 0.1)
    assert floor > 1e-6


def test_functional_rescale_needs_odd_sphere():
    with pytest.raises(ValueError):
        functional_rescale_check(geometry.sphere(2), MetricParams(2.0, 0.0), Constant(1.0),
                                 mc(geometry.sphere(2), 100, 0))
