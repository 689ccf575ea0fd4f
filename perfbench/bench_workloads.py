"""Operation lists for the pqharmonic benchmark, generated from a seed.

Each workload is a repeating block of operation templates. The block fixes
the mix (command, family, manifold, size), so the cost profile of a run is
the same for every seed; the seed only draws the values inside each
template ((p, q), coefficients, ranges) and the order within each block.

An operation is either a CLI call, ``cli.main(argv)`` in-process, or the
one library call with no CLI command, ``variational.first_variation``.
Paths in an argv start with ``@OUT``, which the runner replaces with its
scratch directory, so the operation list itself does not depend on where
the benchmark runs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("survey", "sweep", "regions")

# pqharmonic modules each workload loads; set-up time covers importing them
MODULES = {
    "survey": ("cli", "geometry", "sections", "energy", "variational", "serialize"),
    "sweep": ("cli", "geometry", "sections", "energy", "variational", "solver", "serialize"),
    "regions": ("cli", "regions"),
}

OUT = "@OUT"


@dataclass(frozen=True)
class Op:
    """One benchmark operation and what its checker needs to know."""

    label: str                 # stratum: the block template it came from
    argv: tuple[str, ...]      # CLI argv; empty for library calls
    expect: dict = field(default_factory=dict, compare=False)

    def resolved_argv(self, out_dir: str) -> list[str]:
        return [tok.replace(OUT, out_dir) for tok in self.argv]


@dataclass
class Outcome:
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: float | None = None   # library calls
    error: str | None = None     # exception raised by the program


def load_modules(workload: str) -> dict:
    return {
        name: importlib.import_module(f"pqharmonic.{name}") for name in MODULES[workload]
    }


def execute(op: Op, out_dir: str) -> Outcome:
    """Run one operation in-process with stdout and stderr captured."""
    out = Outcome()
    if op.expect.get("call") == "first_variation":
        try:
            out.value = first_variation_call(op.expect)
        except Exception as exc:  # the benchmark records every failure and goes on
            out.error = f"{type(exc).__name__}: {exc}"
        return out
    from pqharmonic import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            out.rc = cli.main(op.resolved_argv(out_dir))
    except SystemExit as exc:  # argparse usage errors
        out.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the benchmark records every failure and goes on
        out.error = f"{type(exc).__name__}: {exc}"
    out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    return out


def first_variation_call(spec: dict) -> float:
    from pqharmonic import energy, geometry, sections, variational

    m = geometry.parse_manifold(spec["manifold"])
    quad = geometry.make_quadrature(m, "monte-carlo", spec["samples"], spec["seed"])
    sigma = sections.parse_section(spec["section"])
    rho = variational.VariationSpec(sections.parse_section(spec["direction"]))
    mp = energy.MetricParams(spec["p"], spec["q"])
    return variational.first_variation(sigma, rho, m, mp, quad)


# ---------------------------------------------------------------------------
# text forms of the generated fields


def fmt(x: float) -> str:
    return repr(float(x))


def fmt_vec(v) -> str:
    return ",".join(fmt(x) for x in v)


def hopf_matrix(d: int) -> list[list[float]]:
    mat = [[0.0] * d for _ in range(d)]
    for i in range(0, d, 2):
        mat[i][i + 1] = -1.0
        mat[i + 1][i] = 1.0
    return mat


def linear_text(mat, vec) -> str:
    return "linear:A=" + "|".join(fmt_vec(row) for row in mat) + ";b=" + fmt_vec(vec)


def _vec(rng: random.Random, d: int, scale: float) -> list[float]:
    return [round(rng.gauss(0.0, scale), 6) for _ in range(d)]


def _mat(rng: random.Random, d: int, scale: float) -> list[list[float]]:
    return [_vec(rng, d, scale) for _ in range(d)]


def _direction(rng: random.Random, d: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _axis(rng: random.Random, d: int, lo: float, hi: float) -> list[float]:
    length = rng.uniform(lo, hi)
    return [round(length * x, 6) for x in _direction(rng, d)]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


# ---------------------------------------------------------------------------
# survey: energy and residual over every family, plus first variations

# (command, manifold, family, samples), 25 templates of equal weight: ten
# cheap closed-form operations, five copies of one template for the median,
# three dearer ones, and a tail of seven linear-ambient residuals (FD
# second-order jets) and first variations.  With whole blocks the median
# falls in the middle of the five copies and the 90th percentile in the 23rd
# template, not on the step between two templates of different cost.
SURVEY_BLOCK = (
    ("energy", "torus:2", "constant", 20000),
    ("residual", "torus:2", "constant", 50000),
    ("energy", "sphere:3", "hopf", 20000),
    ("energy", "sphere:5", "hopf", 20000),
    ("residual", "sphere:3", "conformal-solve52", 20000),
    ("residual", "sphere:5", "conformal", 20000),
    ("energy", "sphere:5", "conformal", 20000),
    ("energy", "sphere:3", "linear", 20000),
    ("energy", "sphere:5", "scaled-conformal-axis", 20000),
    ("residual", "sphere:3", "scaled-conformal-axis", 20000),
    *(("residual", "sphere:3", "hopf", 50000),) * 5,
    ("residual", "sphere:5", "conformal-solve52", 50000),
    ("energy", "sphere:5", "linear-hopf", 50000),
    ("residual", "sphere:5", "scaled-hopf-axis", 50000),
    ("residual", "sphere:3", "linear", 50000),
    ("residual", "sphere:3", "linear-hopf", 20000),
    ("residual", "sphere:5", "linear-hopf", 50000),
    ("residual", "sphere:3", "scaled-linear", 20000),
    ("residual", "sphere:5", "scaled-linear", 50000),
    ("first_variation", "sphere:3", "linear", 50000),
    ("first_variation", "sphere:5", "linear", 20000),
)


def _section(rng: random.Random, family: str, manifold: str) -> tuple[str, dict]:
    """Text form of a random member of ``family``, plus checker facts."""
    kind, _, dim_text = manifold.partition(":")
    n = int(dim_text)
    d = n + 1 if kind == "sphere" else n
    if family == "hopf":
        return "hopf", {"closed_form": "hopf"}
    if family == "conformal":
        return "conformal:a=" + fmt_vec(_axis(rng, d, 0.3, 1.5)), {}
    if family == "conformal-solve52":
        # unrounded, so that |a| = 1/sqrt(n-2) to round-off
        c = 1.0 / math.sqrt(n - 2)
        return "conformal:a=" + fmt_vec(c * x for x in _direction(rng, d)), {"solve52": True}
    if family == "linear":
        return linear_text(_mat(rng, d, 0.5), _vec(rng, d, 0.3)), {}
    if family == "linear-hopf":
        return linear_text(hopf_matrix(d), [0.0] * d), {"closed_form": "linear-hopf"}
    if family == "scaled-linear":
        base = linear_text(_mat(rng, d, 0.5), _vec(rng, d, 0.3))
        return f"scaled:{base}:k={fmt(_u(rng, 0.5, 1.5))}", {}
    if family == "scaled-hopf-axis":
        return "scaled:hopf:axis=" + fmt_vec(_axis(rng, d, 0.3, 1.2)), {}
    if family == "scaled-conformal-axis":
        base = "conformal:a=" + fmt_vec(_axis(rng, d, 0.3, 1.5))
        return f"scaled:{base}:axis=" + fmt_vec(_axis(rng, d, 0.3, 1.2)), {}
    if family == "constant":
        return "constant:c=" + fmt_vec(_vec(rng, d, 0.8)), {}
    raise ValueError(f"unknown family {family!r}")


def _survey_op(rng: random.Random, template) -> Op:
    command, manifold, family, samples = template
    n = int(manifold.partition(":")[2])
    seed = rng.randrange(1 << 30)
    p, q = _u(rng, -2.0, 4.0), _u(rng, -2.0, 2.0)
    label = f"{command}/{family}/{manifold}/N{samples}"
    if command == "first_variation":
        d = n + 1
        spec = {
            "call": "first_variation", "manifold": manifold,
            "section": linear_text(_mat(rng, d, 0.5), _vec(rng, d, 0.3)),
            "direction": linear_text(_mat(rng, d, 0.5), _vec(rng, d, 0.3)),
            "p": p, "q": q, "samples": samples, "seed": seed,
        }
        return Op(label, (), spec)
    section, facts = _section(rng, family, manifold)
    if facts.get("solve52"):
        # the exact conformal-gradient triple: p = n+1, q = 2-n, |a| = 1/sqrt(n-2)
        p, q = float(n + 1), float(2 - n)
    argv = (command, "--manifold", manifold, "--section", section,
            "--p", fmt(p), "--q", fmt(q), "--samples", str(samples), "--seed", str(seed))
    expect = {"command": command, "manifold": manifold, "p": p, "q": q,
              "samples": samples, "seed": seed, **facts}
    return Op(label, argv, expect)


# ---------------------------------------------------------------------------
# sweep: rescaling searches, most with a known root in range

# Fifteen templates of equal weight, so that with whole blocks the median
# falls in the middle of the 8th cheapest template and the 90th percentile
# in the middle of the 14th: 12 fifty-step sweeps (half with a root in
# range) under 3 two-hundred-step sweeps, away from the steps between them.
SWEEP_BLOCK = (
    *((kind, n, 50, root)
      for kind in ("scale", "conformal") for n in (3, 5, 7) for root in (True, False)),
    ("conformal", 3, 200, True), ("scale", 5, 200, True), ("conformal", 7, 200, True),
)


def _sweep_op(rng: random.Random, template) -> Op:
    kind, n, steps, root = template
    seed = rng.randrange(1 << 30)
    if kind == "scale":
        # k*hopf is critical exactly at k = 1/sqrt(p-1), for every q
        p, q = _u(rng, 1.5, 5.0), _u(rng, -2.0, 2.0)
        known = 1.0 / math.sqrt(p - 1.0)
    else:
        # conformal gradient of length c is critical only at (n+1, 2-n, 1/sqrt(n-2))
        p, q = float(n + 1), float(2 - n)
        known = 1.0 / math.sqrt(n - 2)
    if root:
        lo, hi = known * _u(rng, 0.3, 0.8), known * _u(rng, 1.25, 2.5)
    else:
        # above the root the residual grows, so the only minimum is the left
        # edge and the sweep does no bisection, whatever the seed
        lo, hi = known * _u(rng, 1.2, 1.6), known * _u(rng, 2.0, 3.0)
    argv = ["sweep", "--kind", kind]
    if kind == "scale":
        argv += ["--section", "hopf"]
    argv += ["--manifold", f"sphere:{n}", "--p", fmt(p), "--q", fmt(q),
             "--range", f"{fmt(lo)}:{fmt(hi)}", "--steps", str(steps),
             "--samples", "5000", "--seed", str(seed)]
    label = f"sweep/{kind}/sphere:{n}/s{steps}/{'root' if root else 'noroot'}"
    return Op(label, tuple(argv), {"command": "sweep", "roots": [known] if root else []})


# ---------------------------------------------------------------------------
# regions: region maps at three resolutions

# 10:1:3 puts the median inside the res-64 group and the 90th percentile in
# the middle of the res-256 group, away from the steps between groups.
REGIONS_BLOCK = (64,) * 10 + (128,) + (256,) * 3


def _regions_op(rng: random.Random, res: int) -> Op:
    # fixed spans and slopes near 1 keep the share of labelled cells, and so
    # the CSV and SVG sizes, about the same for every seed
    mu, nu = _u(rng, 0.8, 1.2), _u(rng, 0.8, 1.2)
    p_lo, q_lo = _u(rng, -4.5, -3.5), _u(rng, -6.5, -5.5)
    p_range, q_range = (p_lo, round(p_lo + 8.0, 4)), (q_lo, round(q_lo + 9.0, 4))
    argv = ("regions", "--mu", fmt(mu), "--nu", fmt(nu),
            "--p-range", f"{fmt(p_range[0])}:{fmt(p_range[1])}",
            "--q-range", f"{fmt(q_range[0])}:{fmt(q_range[1])}",
            "--res", str(res), "--output", f"{OUT}/regions.csv", "--svg", f"{OUT}/regions.svg")
    expect = {"command": "regions", "mu": mu, "nu": nu, "p_range": p_range,
              "q_range": q_range, "res": res,
              "csv": f"{OUT}/regions.csv", "svg": f"{OUT}/regions.svg"}
    return Op(f"regions/res{res}", argv, expect)


_BLOCKS = {
    "survey": (SURVEY_BLOCK, _survey_op),
    "sweep": (SWEEP_BLOCK, _sweep_op),
    "regions": (REGIONS_BLOCK, _regions_op),
}


def block_size(workload: str) -> int:
    return len(_BLOCKS[workload][0])


def make_block(workload: str, seed: int, index: int) -> list[Op]:
    """Block ``index`` of the workload: every template once, shuffled."""
    templates, build = _BLOCKS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = [build(rng, t) for t in templates]
    rng.shuffle(ops)
    return ops


class OpStream:
    """The seed's operation sequence, extended block by block on demand."""

    def __init__(self, workload: str, seed: int, blocks: int):
        self.workload, self.seed = workload, seed
        self.block_size = block_size(workload)
        self.ops: list[Op] = []
        while len(self.ops) < blocks * self.block_size:
            self._extend()

    def _extend(self) -> None:
        index = len(self.ops) // self.block_size
        self.ops.extend(make_block(self.workload, self.seed, index))

    def __getitem__(self, i: int) -> Op:
        while i >= len(self.ops):
            self._extend()
        return self.ops[i]


# ---------------------------------------------------------------------------
# known defects: inputs with the outcome the CLI contract asks for


def defect_probes(workload: str, seed: int) -> list[Op]:
    """Inputs from the roadmap's known-defect list with their contract outcome.

    Each probe's ``expect`` holds either the usage error it must produce
    (exit 2 naming ``flag``) or, for a reversed range, the ordered argv whose
    roots it must reproduce.
    """
    rng = random.Random(f"defects/{workload}/{seed}")
    seed_q = rng.randrange(1 << 30)
    if workload == "survey":
        common = ("--manifold", "sphere:3", "--samples", "2000", "--seed", str(seed_q))
        q = fmt(_u(rng, -2.0, 2.0))
        return [
            Op("defect/p-nan", ("energy", "--section", "hopf", *common, "--p", "nan", "--q", q),
               {"usage_error": "--p"}),
            Op("defect/p-overflow", ("energy", "--section", "hopf", *common, "--p", "-1100", "--q", q),
               {"usage_error": "--p"}),
            Op("defect/section-inf",
               ("residual", "--section", "conformal:a=inf,0,0,0", *common,
                "--p", fmt(_u(rng, -2.0, 4.0)), "--q", q),
               {"usage_error": "--section"}),
        ]
    if workload == "sweep":
        p = _u(rng, 1.5, 5.0)
        known = 1.0 / math.sqrt(p - 1.0)
        lo, hi = known * _u(rng, 0.3, 0.8), known * _u(rng, 1.25, 2.5)
        base = ("sweep", "--kind", "scale", "--section", "hopf", "--manifold", "sphere:3",
                "--p", fmt(p), "--q", fmt(_u(rng, -2.0, 2.0)), "--steps", "50",
                "--samples", "2000", "--seed", str(seed_q))
        return [
            Op("defect/reversed-range", (*base, "--range", f"{fmt(hi)}:{fmt(lo)}"),
               {"same_roots_as": [*base, "--range", f"{fmt(lo)}:{fmt(hi)}"]}),
            Op("defect/conformal-range-through-zero",
               ("sweep", "--kind", "conformal", "--manifold", "sphere:3", "--p", "4", "--q", "-1",
                "--range", "0:2", "--steps", "50", "--samples", "2000", "--seed", str(seed_q)),
               {"usage_error": "--range"}),
        ]
    return []
