"""Command-line front end: energy, residual, sweeps, region maps, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
including non-finite input and reports that overflow at the given (p, q);
the message names the flag.  Nonzero residuals are results, not failures,
except under ``verify``.
All numeric output is printed with 17 significant digits so runs diff
cleanly; identical (config, seed) pairs produce byte-identical JSON.

Only argparse is imported at module load: ``--threads`` must take effect
before the numerics (numpy/BLAS) are first imported.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass


class UsageError(Exception):
    """Bad field in the run configuration; carries the flag name."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


@dataclass
class RunConfig:
    """Parsed common configuration; manifold/section kept in canonical text form."""

    manifold: object
    section: object
    p: float
    q: float
    samples: int
    seed: int
    scheme: str

    @property
    def canonical_manifold(self) -> str:
        return str(self.manifold)

    @property
    def canonical_section(self) -> str:
        from . import sections

        return sections.format_section(self.section)


def _parse_config(args: argparse.Namespace, need_section: bool = True) -> RunConfig:
    from . import geometry, sections

    try:
        manifold = geometry.parse_manifold(args.manifold)
    except ValueError as exc:
        raise UsageError("--manifold", str(exc)) from None
    section = None
    if need_section:
        try:
            section = sections.parse_section(args.section)
            sections.check_compatible(section, manifold)
        except ValueError as exc:
            raise UsageError("--section", str(exc)) from None
    if args.samples < 1:
        raise UsageError("--samples", "need at least one sample")
    return RunConfig(
        manifold=manifold,
        section=section,
        p=getattr(args, "p", 0.0),
        q=getattr(args, "q", 0.0),
        samples=args.samples,
        seed=args.seed,
        scheme=args.scheme,
    )


def _finite_float(text: str) -> float:
    """argparse type of the real-valued flags."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise UsageError(flag, f"expected lo:hi, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(flag, f"endpoints must be finite, got {text!r}")
    return lo, hi


def _require_finite(report: dict, what: str) -> None:
    """Extreme (p, q) overflow w^p or the q terms; such a report has no JSON form."""
    if not all(math.isfinite(v) for v in report.values() if isinstance(v, float)):
        raise UsageError("--p/--q", f"the {what} is not finite at these parameters")


def _make_quadrature(cfg: RunConfig):
    from . import geometry

    try:
        return geometry.make_quadrature(cfg.manifold, cfg.scheme, cfg.samples, cfg.seed)
    except ValueError as exc:
        raise UsageError("--scheme", str(exc)) from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# scheme names duplicated from geometry so building the parser does not pull
# in the numerics before --threads is applied
_SCHEME_CHOICES = ("monte-carlo", "fibonacci-2sphere", "torus-grid")


def _add_common(p: argparse.ArgumentParser, need_section: bool = True) -> None:
    p.add_argument("--manifold", required=True, help='base manifold, e.g. "sphere:3" or "torus:2"')
    if need_section:
        p.add_argument("--section", required=True,
                       help='field family, e.g. "hopf", "conformal:a=1,0,0,0", "scaled:hopf:k=0.5"')
    p.add_argument("--samples", type=int, default=10000, help="quadrature sample count")
    p.add_argument("--seed", type=int, default=0, help="quadrature seed")
    p.add_argument("--scheme", choices=_SCHEME_CHOICES, default="monte-carlo",
                   help="quadrature scheme")


def cmd_energy(args: argparse.Namespace) -> int:
    from . import energy, serialize

    cfg = _parse_config(args)
    quad = _make_quadrature(cfg)
    report = energy.energy(cfg.section, cfg.manifold, energy.MetricParams(args.p, args.q), quad)
    _require_finite(report.to_json_dict(), "energy")
    payload = {
        "manifold": cfg.canonical_manifold,
        "section": cfg.canonical_section,
        "scheme": cfg.scheme,
        **report.to_json_dict(),
    }
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(list(payload))
        writer.writerow([
            serialize.format_float(v)
            if isinstance(v, (int, float)) and not isinstance(v, bool) else str(v)
            for v in payload.values()
        ])
        _emit(buf.getvalue(), args.output)
    else:
        _emit(serialize.dumps(payload) + "\n", args.output)
    return 0


def cmd_residual(args: argparse.Namespace) -> int:
    from . import energy, sections, serialize, variational

    cfg = _parse_config(args)
    quad = _make_quadrature(cfg)
    report = variational.residual(
        cfg.section, cfg.manifold, energy.MetricParams(args.p, args.q), quad,
        with_per_point=args.per_point is not None,
    )
    _require_finite(report.to_json_dict(), "residual")
    if args.per_point is not None:
        axis = sections.section_axis(cfg.section)
        with open(args.per_point, "w", newline="") as fh:
            report.per_point_to_csv(fh, axis)
    payload = {
        "manifold": cfg.canonical_manifold,
        "section": cfg.canonical_section,
        "scheme": cfg.scheme,
        **report.to_json_dict(),
    }
    _emit(serialize.dumps(payload) + "\n", args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import energy, serialize, solver

    lo, hi = _parse_range(args.range, "--range")
    if args.steps < 3:
        raise UsageError("--steps", f"need at least 3 sweep steps, got {args.steps}")
    mp = energy.MetricParams(args.p, args.q)
    if args.kind == "scale":
        cfg = _parse_config(args)
        quad = _make_quadrature(cfg)
        try:
            result = solver.scale_sweep(cfg.section, cfg.manifold, mp, (lo, hi), args.steps, quad)
        except ValueError as exc:
            raise UsageError("--section", str(exc)) from None
    else:
        if min(lo, hi) <= 0.0 <= max(lo, hi):
            raise UsageError("--range", f"the axis length must be nonzero, got {args.range!r}")
        cfg = _parse_config(args, need_section=False)
        quad = _make_quadrature(cfg)
        try:
            result = solver.conformal_axis_sweep(cfg.manifold, mp, (lo, hi), args.steps, quad)
        except ValueError as exc:
            raise UsageError("--manifold", str(exc)) from None
    if args.output:
        with open(args.output, "w", newline="") as fh:
            result.to_csv(fh)
    payload = {"kind": args.kind, "p": args.p, "q": args.q, **result.to_json_dict()}
    sys.stdout.write(serialize.dumps(payload) + "\n")
    return 0


def cmd_solve52(args: argparse.Namespace) -> int:
    from . import serialize, solver

    try:
        sol = solver.solve_conformal_parameters(args.n)
    except ValueError as exc:
        raise UsageError("--n", str(exc)) from None
    sys.stdout.write(serialize.dumps({"n": sol.n, "p": sol.p, "q": sol.q, "c": sol.c}) + "\n")
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    import io

    from . import regions

    for flag, value in (("--mu", args.mu), ("--nu", args.nu)):
        if value <= 0.0:
            raise UsageError(flag, f"must be positive, got {value!r}")
    p_range = _parse_range(args.p_range, "--p-range")
    q_range = _parse_range(args.q_range, "--q-range")
    for flag, (lo, hi) in (("--p-range", p_range), ("--q-range", q_range)):
        if not lo < hi:
            raise UsageError(flag, f"need lo < hi, got {lo!r}:{hi!r}")
    try:
        rows = regions.export_region_grid(args.mu, args.nu, p_range, q_range, args.res)
    except ValueError as exc:
        raise UsageError("--res", str(exc)) from None
    buf = io.StringIO()
    regions.region_grid_to_csv(rows, buf)
    _emit(buf.getvalue(), args.output)
    if args.svg:
        with open(args.svg, "w") as fh:
            regions.region_grid_to_svg(rows, fh)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import serialize, verify

    results = verify.run_all(seed=args.seed, fast=args.fast)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.seconds:7.3f}s", file=sys.stderr)
    all_passed = all(r.passed for r in results)
    print(f"{'all criteria passed' if all_passed else 'FAILURES PRESENT'} "
          f"({sum(r.seconds for r in results):.2f}s total)", file=sys.stderr)
    payload = {
        "seed": args.seed,
        "fast": args.fast,
        "all_passed": all_passed,
        "criteria": [r.to_json_dict() for r in results],
    }
    _emit(serialize.dumps(payload) + "\n", args.output)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqharmonic",
        description="Vertical (p,q)-energies and harmonic-section residuals "
                    "for vector fields on spheres and tori.",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="worker thread budget for the numerics "
                             "(default: machine parallelism; results do not depend on it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="vertical (p,q)-energy of a section")
    _add_common(p_energy)
    p_energy.add_argument("--p", type=_finite_float, required=True)
    p_energy.add_argument("--q", type=_finite_float, required=True)
    p_energy.add_argument("--output", default=None, help="write JSON/CSV here instead of stdout")
    p_energy.add_argument("--format", choices=("json", "csv"), default="json")
    p_energy.set_defaults(func=cmd_energy)

    p_res = sub.add_parser("residual", help="criticality residual of a section")
    _add_common(p_res)
    p_res.add_argument("--p", type=_finite_float, required=True)
    p_res.add_argument("--q", type=_finite_float, required=True)
    p_res.add_argument("--per-point", default=None, metavar="CSV",
                       help="also write the per-point breakdown to this CSV file")
    p_res.add_argument("--output", default=None)
    p_res.set_defaults(func=cmd_residual)

    p_sweep = sub.add_parser("sweep", help="residual/energy sweep over a rescaling parameter")
    p_sweep.add_argument("--kind", choices=("scale", "conformal"), default="scale")
    _add_common(p_sweep)
    p_sweep.add_argument("--p", type=_finite_float, required=True)
    p_sweep.add_argument("--q", type=_finite_float, required=True)
    p_sweep.add_argument("--range", required=True, help="sweep range lo:hi")
    p_sweep.add_argument("--steps", type=int, default=50)
    p_sweep.add_argument("--output", default=None, help="CSV of (k, residual, energy)")
    p_sweep.set_defaults(func=cmd_sweep)
    # the section flag is not needed for conformal sweeps
    for action in p_sweep._actions:
        if "--section" in getattr(action, "option_strings", ()):
            action.required = False

    p_solve = sub.add_parser("solve52", help="exact conformal-gradient parameter triple")
    p_solve.add_argument("--n", type=int, required=True, help="sphere dimension (>= 3)")
    p_solve.set_defaults(func=cmd_solve52)

    p_reg = sub.add_parser("regions", help="parameter-plane region grid (CSV, optional SVG)")
    p_reg.add_argument("--mu", type=_finite_float, required=True)
    p_reg.add_argument("--nu", type=_finite_float, required=True)
    p_reg.add_argument("--p-range", required=True, dest="p_range")
    p_reg.add_argument("--q-range", required=True, dest="q_range")
    p_reg.add_argument("--res", type=int, default=100, help="grid resolution per axis")
    p_reg.add_argument("--output", default=None, help="CSV path (stdout if omitted)")
    p_reg.add_argument("--svg", default=None, help="also render the regions to this SVG file")
    p_reg.set_defaults(func=cmd_regions)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    p_ver.add_argument("--fast", action="store_true", help="smaller sample counts")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--output", default=None, help="write the JSON report here")
    p_ver.set_defaults(func=cmd_verify)
    return parser


_RANGE_FLAGS = ("--range", "--p-range", "--q-range")


def _join_range_values(argv: list[str]) -> list[str]:
    """Attach range values to their flags so "--q-range -8:4" parses even
    though the value starts with a dash."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RANGE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_range_values(sys.argv[1:] if argv is None else list(argv)))
    if args.threads is not None:
        if args.threads < 1:
            parser.error("--threads: must be >= 1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
