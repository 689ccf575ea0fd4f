"""Correctness checks for benchmark operations.

Every check runs outside the timed region. ``check(op, outcome, out_dir)``
returns None when the output is right and a one-line reason otherwise.
Reference values come from closed forms, from scalar re-evaluation, or from
independent oracles run through the CLI, never from the code path timed.
"""

from __future__ import annotations

import csv
import json
import math
import random

from bench_workloads import OUT, Op, Outcome, execute, linear_text

# tolerance the package uses for finite-difference (FD) second-order jets
# (variational.RESIDUAL_TOL_FD at the time this benchmark was written)
RESIDUAL_TOL_FD = 1e-5
CLOSED_FORM_REL = 1e-12
SOLVE52_TOL = 1e-8
ROOT_TOL = 1e-8
FV_STEP = 1e-4
REGIONS_SAMPLE = 200
_SVG_COLORED = ("W", "F_1", "G_1", "F_0", "F_minus")


def sphere_volume(n: int) -> float:
    half = (n + 1) / 2.0
    return 2.0 * math.pi**half / math.gamma(half)


def parse_report(text: str) -> dict:
    """Parse a JSON report and require every number in it to be finite."""

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=reject)


def check(op: Op, out: Outcome, out_dir: str) -> str | None:
    if out.error is not None:
        return f"raised {out.error}"
    if op.expect.get("call") == "first_variation":
        return check_first_variation(op.expect, out.value, out_dir)
    if out.rc != 0:
        return f"exit code {out.rc}: {out.stderr.strip()[-200:]}"
    command = op.expect["command"]
    if command == "regions":
        return check_regions(op.expect, out_dir)
    try:
        report = parse_report(out.stdout)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    if command == "sweep":
        return check_sweep(op.expect, report)
    return check_quadrature_report(op.expect, report)


def check_quadrature_report(expect: dict, report: dict) -> str | None:
    """energy/residual: echoed inputs, then the closed forms that apply."""
    for key, want in (("N", expect["samples"]), ("seed", expect["seed"]),
                      ("p", expect["p"]), ("q", expect["q"])):
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    n = int(expect["manifold"].partition(":")[2])
    p = expect["p"]
    closed = expect.get("closed_form")
    if expect["command"] == "energy":
        if closed is None:
            return None
        # |grad sigma|^2 = n-1 and |sigma| = 1, so the density is 2^-p (n-1)
        want = sphere_volume(n) * 2.0 ** (-p) * (n - 1) / 2.0
        got = report["total"]
        if abs(got - want) > CLOSED_FORM_REL * abs(want):
            return f"{closed} energy total {got!r}, closed form {want!r}"
        return None
    # residual of the Hopf field: tension 2(n-1) sigma, multiplier p(n-1)
    want = abs(2.0 - p) * (n - 1)
    got = report["sup_residual"]
    if closed == "hopf":
        if abs(got - want) > CLOSED_FORM_REL * max(want, (2.0 + abs(p)) * (n - 1)):
            return f"hopf sup_residual {got!r}, closed form {want!r}"
    elif closed == "linear-hopf":
        if abs(got - want) > RESIDUAL_TOL_FD:
            return f"linear A=J sup_residual {got!r}, hopf value {want!r}"
    elif expect.get("solve52") and got > SOLVE52_TOL:
        return f"conformal residual {got!r} at the solve52 triple"
    return None


def check_sweep(expect: dict, report: dict) -> str | None:
    roots = report.get("roots")
    if not isinstance(roots, list):
        return "no roots list"
    want = expect["roots"]
    if len(roots) != len(want):
        return f"roots {roots!r}, expected {want!r}"
    for got, ref in zip(sorted(roots), sorted(want)):
        if abs(got - ref) > ROOT_TOL:
            return f"root {got!r}, expected {ref!r}"
    return None


def check_first_variation(spec: dict, value: float | None, out_dir: str) -> str | None:
    """Analytic first variation against the centred difference of the energy.

    The oracle is E(sigma +- t rho) from the CLI on the same quadrature set,
    at steps t and 2t. The truncation error of the step-t difference is about
    |fd(2t) - fd(t)| / 3, so that gap plus a round-off term bounds it.
    """
    if value is None or not math.isfinite(value):
        return f"first variation {value!r}"
    try:
        fd_t, scale = _energy_difference(spec, FV_STEP, out_dir)
        fd_2t, _ = _energy_difference(spec, 2.0 * FV_STEP, out_dir)
    except ValueError as exc:
        return str(exc)
    tol = abs(fd_2t - fd_t) + 1e-9 * scale
    if abs(value - fd_t) > tol:
        return f"first variation {value!r}, energy difference {fd_t!r} (tolerance {tol:.3g})"
    return None


def _parse_linear(text: str):
    a_part, _, b_part = text[len("linear:A="):].partition(";b=")
    mat = [[float(x) for x in row.split(",")] for row in a_part.split("|")]
    return mat, [float(x) for x in b_part.split(",")]


def _energy_difference(spec: dict, t: float, out_dir: str):
    """(E(sigma + t rho) - E(sigma - t rho)) / 2t and the energies' scale."""
    mat_s, vec_s = _parse_linear(spec["section"])
    mat_r, vec_r = _parse_linear(spec["direction"])
    totals = []
    for sign in (1.0, -1.0):
        mat = [[a + sign * t * b for a, b in zip(ra, rb)] for ra, rb in zip(mat_s, mat_r)]
        vec = [a + sign * t * b for a, b in zip(vec_s, vec_r)]
        argv = ("energy", "--manifold", spec["manifold"], "--section", linear_text(mat, vec),
                "--p", repr(spec["p"]), "--q", repr(spec["q"]),
                "--samples", str(spec["samples"]), "--seed", str(spec["seed"]))
        out = execute(Op("oracle", argv), out_dir)
        if out.error is not None or out.rc != 0:
            raise ValueError(f"energy oracle failed: {out.error or out.stderr.strip()[-200:]}")
        totals.append(parse_report(out.stdout)["total"])
    return (totals[0] - totals[1]) / (2.0 * t), abs(totals[0]) + abs(totals[1])


def expected_labels(mu: float, nu: float, p: float, q: float) -> str:
    """Labels of one cell from the scalar membership predicates."""
    from pqharmonic import regions

    labels = []
    verdict = regions.in_F(mu, p, q)
    if verdict.member:
        labels.append(verdict.region_name)
    if regions.in_G1(nu, p, q).member:
        labels.append(regions.G_1)
    if regions.in_W(mu, nu, p, q).member:
        labels.append(regions.W)
    if p >= -4 and q < regions.cutoff_rho(nu, p):
        labels.append(regions.RHO_BELOW)
    return ";".join(labels)


def _linspace(lo: float, hi: float, n: int, i: int) -> float:
    import numpy as np

    return float(np.linspace(lo, hi, n)[i])


def check_regions(expect: dict, out_dir: str) -> str | None:
    """Row count res^2, a seeded sample of cells re-labelled by scalar calls,
    and one coloured SVG cell per CSV row carrying a coloured label."""
    res, mu, nu = expect["res"], expect["mu"], expect["nu"]
    n_cells = res * res
    rng = random.Random(f"{mu}/{nu}/{res}")
    sample = set(rng.sample(range(n_cells), min(REGIONS_SAMPLE, n_cells))) | {0, n_cells - 1}
    colored = 0
    rows = 0
    with open(expect["csv"].replace(OUT, out_dir), newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["p", "q", "labels"]:
            return "regions CSV header"
        for index, row in enumerate(reader):
            rows += 1
            if len(row) != 3:
                return f"regions CSV row {index}: {row!r}"
            labels = row[2]
            if any(name in labels.split(";") for name in _SVG_COLORED):
                colored += 1
            if index in sample:
                p, q = float(row[0]), float(row[1])
                i, j = divmod(index, res)
                if p != _linspace(*expect["p_range"], res, i) or q != _linspace(*expect["q_range"], res, j):
                    return f"regions cell {index} at ({p!r}, {q!r}) is off the grid"
                want = expected_labels(mu, nu, p, q)
                if labels != want:
                    return f"regions cell {index} at ({p!r}, {q!r}): {labels!r}, expected {want!r}"
    if rows != n_cells:
        return f"regions CSV has {rows} rows, expected {n_cells}"
    with open(expect["svg"].replace(OUT, out_dir)) as fh:
        svg = fh.read()
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        return "regions SVG is not a complete document"
    cells = svg.count("<rect") - 1  # the background rectangle
    if cells != colored:
        return f"regions SVG has {cells} coloured cells, CSV has {colored}"
    return None


def check_defect(op: Op, out: Outcome, out_dir: str) -> str | None:
    """Contract outcome of a known-defect probe; None when it is met."""
    if out.error is not None:
        return f"raised {out.error}"
    flag = op.expect.get("usage_error")
    if flag is not None:
        if out.rc != 2 or flag not in out.stderr:
            named = out.stderr.strip().splitlines()[:1]
            return f"exit code {out.rc}, expected 2 naming {flag} (stderr: {named})"
        return None
    ordered = execute(Op("ordered", tuple(op.expect["same_roots_as"])), out_dir)
    if out.rc != 0 or ordered.rc != 0:
        return f"exit codes {out.rc} and {ordered.rc}"
    got = parse_report(out.stdout)["roots"]
    want = parse_report(ordered.stdout)["roots"]
    if len(got) != len(want) or any(abs(a - b) > ROOT_TOL for a, b in zip(sorted(got), sorted(want))):
        return f"roots {got!r}, ordered range gives {want!r}"
    return None
