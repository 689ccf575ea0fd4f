"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqharmonic import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_contract(argv):
    """Exit code and stderr of one call; usage errors may come back as SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


S3_RUN = ["--manifold", "sphere:3", "--samples", "200", "--seed", "1"]
SCALE = ["sweep", "--kind", "scale", "--section", "hopf", "--p", "2", "--q", "0", *S3_RUN]
CONFORMAL = ["sweep", "--kind", "conformal", "--p", "4", "--q", "-1", *S3_RUN]
REGIONS = ["regions", "--res", "4"]


@pytest.mark.parametrize("flag,argv", [
    # non-finite or overflowing input
    ("--p", ["energy", "--section", "hopf", *S3_RUN, "--p", "nan", "--q", "0"]),
    ("--q", ["residual", "--section", "hopf", *S3_RUN, "--p", "1", "--q", "nan"]),
    ("--q", ["energy", "--section", "hopf", *S3_RUN, "--p", "1", "--q", "inf"]),
    ("--section", ["residual", "--section", "conformal:a=inf,0,0,0", *S3_RUN, "--p", "1", "--q", "0"]),
    ("--section", ["energy", "--section", "linear:A=1,0,0,0|0,1,0,0|0,0,1,0|0,0,0,1;b=nan,0,0,0",
                   *S3_RUN, "--p", "1", "--q", "0"]),
    ("--section", ["energy", "--section", "scaled:hopf:k=inf", *S3_RUN, "--p", "1", "--q", "0"]),
    ("--p", ["energy", "--section", "hopf", "--manifold", "sphere:3", "--p", "-1100", "--q", "0",
             "--samples", "200"]),
    ("--p", ["residual", "--section", "conformal:a=1,0,0,0", *S3_RUN, "--p=-1e308", "--q", "1"]),
    ("--mu", [*REGIONS, "--mu", "nan", "--nu", "1", "--p-range", "-5:5", "--q-range", "-8:4"]),
    ("--nu", [*REGIONS, "--mu", "1", "--nu", "inf", "--p-range", "-5:5", "--q-range", "-8:4"]),
    ("--p-range", [*REGIONS, "--mu", "1", "--nu", "1", "--p-range", "-5:inf", "--q-range", "-8:4"]),
    ("--range", [*SCALE, "--range", "nan:3"]),
    # the flag a bad value belongs to
    ("--steps", [*SCALE, "--range", "0.1:3", "--steps", "2"]),
    ("--steps", [*CONFORMAL, "--range", "0.1:3", "--steps", "2"]),
    ("--range", [*CONFORMAL, "--range", "0:2"]),
    ("--range", [*CONFORMAL, "--range", "1:-1"]),
    ("--mu", [*REGIONS, "--mu", "-1", "--nu", "1", "--p-range", "-5:5", "--q-range", "-8:4"]),
    ("--nu", [*REGIONS, "--mu", "1", "--nu", "0", "--p-range", "-5:5", "--q-range", "-8:4"]),
    ("--p-range", [*REGIONS, "--mu", "1", "--nu", "1", "--p-range", "5:-5", "--q-range", "-8:4"]),
    ("--q-range", [*REGIONS, "--mu", "1", "--nu", "1", "--p-range", "-5:5", "--q-range", "4:-8"]),
    ("--res", ["regions", "--res", "4097", "--mu", "1", "--nu", "1", "--p-range", "-5:5",
               "--q-range", "-8:4"]),
    ("--p/--q", ["sweep", "--kind", "scale", "--section", "hopf", "--manifold", "sphere:3",
                 "--p=-1e308", "--q", "0", "--range", "0.1:3", "--samples", "200"]),
    # a negative exponent-form value is read as the flag's value
    ("--mu", [*REGIONS, "--mu", "-1e-3", "--nu", "1", "--p-range", "-5:5", "--q-range", "-8:4"]),
    ("--q", ["energy", "--section", "hopf", *S3_RUN, "--p", "-1e-3", "--q", "-inf"]),
])
def test_bad_input_exits_2_naming_the_flag(flag, argv):
    code, err = run_contract(argv)
    assert code == 2
    assert flag in err


def test_negative_exponent_values_are_read_as_numbers(tmp_path):
    base = ["energy", "--section", "hopf", *S3_RUN, "--q", "0"]
    outputs = []
    for p_args in (["--p", "-1e-3"], ["--p=-1e-3"]):
        path = tmp_path / "energy.json"
        code, err = run_contract([*base, *p_args, "--output", str(path)])
        assert code == 0, err
        outputs.append(path.read_text())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["p"] == -1e-3
    code, err = run_contract(["regions", "--mu", "-2.5e-1", "--nu", "1", "--p-range", "-5:5",
                              "--q-range", "-8:4"])
    assert code == 2 and "--mu: must be positive" in err


def test_overflowing_sweep_writes_no_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    code, err = run_contract(["sweep", "--kind", "scale", "--section", "hopf", "--manifold", "sphere:3",
                              "--p", "-1e308", "--q", "0", "--range", "0.1:3", "--samples", "200",
                              "--output", str(path)])
    assert code == 2 and "--p/--q" in err and "sweep grid" in err
    assert not path.exists()


P_Q_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]))


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["energy", "residual"]), p=P_Q_FLOATS, q=P_Q_FLOATS)
def test_any_p_q_exits_0_or_2_naming_the_flag(command, p, q):
    code, err = run_contract([command, "--manifold", "sphere:3", "--section", "conformal:a=0.8,0.3,0,0",
                              f"--p={p!r}", f"--q={q!r}", "--samples", "64"])
    assert code in (0, 2)
    if code == 2:
        assert "--p" in err or "--q" in err
        if not math.isfinite(p):
            assert "--p" in err
        elif not math.isfinite(q):
            assert "--q" in err


def test_energy_command_hopf(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--manifold", "sphere:3", "--section", "hopf",
        "--p", "0", "--q", "0", "--samples", "20000", "--seed", "42",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["total"] - 2 * math.pi**2) < 1e-9
    assert payload["N"] == 20000 and payload["seed"] == 42


def test_energy_command_zero_section(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--manifold", "sphere:3", "--section", "zero",
        "--p", "2", "--q", "-1", "--samples", "100",
    )
    assert code == 0
    assert json.loads(out)["total"] == 0.0


def test_energy_missing_p_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--manifold", "sphere:3", "--section", "hopf", "--q", "0"])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err


def test_energy_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--manifold", "torus:2", "--section", "constant:c=1,0",
        "--p", "1", "--q", "1", "--samples", "100", "--scheme", "torus-grid",
        "--format", "csv",
    )
    assert code == 0
    import csv
    import io

    header, row = list(csv.reader(io.StringIO(out)))
    assert header[:4] == ["manifold", "section", "scheme", "total"]
    assert row[3] == "0"


def test_residual_command_exact_and_perturbed(capsys):
    base = ["residual", "--manifold", "sphere:3", "--section", "conformal:a=1,0,0,0",
            "--q", "-1", "--samples", "1000", "--seed", "3"]
    code, out, _ = run_cli(capsys, *base, "--p", "4")
    assert code == 0
    assert json.loads(out)["sup_residual"] < 1e-10
    code, out, _ = run_cli(capsys, *base, "--p", "3")
    assert code == 0  # nonzero residual is data, not an error
    assert json.loads(out)["sup_residual"] > 1e-4


def test_residual_rejects_hopf_on_even_sphere(capsys):
    code, _, err = run_cli(
        capsys, "residual", "--manifold", "sphere:2", "--section", "hopf",
        "--p", "1", "--q", "0",
    )
    assert code == 2
    assert "--section" in err and "usage" in err


def test_residual_per_point_csv(tmp_path, capsys):
    path = tmp_path / "points.csv"
    code, out, _ = run_cli(
        capsys, "residual", "--manifold", "sphere:3", "--section", "conformal:a=1,0,0,0",
        "--p", "4", "--q", "-1", "--samples", "50", "--per-point", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,x2,x3,lambda,tension,multiplier,residual"
    assert len(lines) == 51


def test_solve52_command(capsys):
    code, out, _ = run_cli(capsys, "solve52", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 5, "p": 6, "q": -3, "c": pytest.approx(0.57735026918962584)}
    code, _, err = run_cli(capsys, "solve52", "--n", "2")
    assert code == 2 and "--n" in err


def test_sweep_command_writes_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "scale", "--manifold", "sphere:3", "--section", "hopf",
        "--p", "2", "--q", "0", "--range", "0.5:1.5", "--steps", "15",
        "--samples", "500", "--seed", "1", "--output", str(path),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["roots"]) == 1
    assert abs(payload["roots"][0] - 1.0) < 1e-8
    assert path.read_text().splitlines()[0] == "k,residual,energy"


def test_sweep_conformal_without_section(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "conformal", "--manifold", "sphere:5",
        "--p", "6", "--q", "-3", "--range", "0.2:1.2", "--steps", "20",
        "--samples", "600", "--seed", "2",
    )
    assert code == 0
    roots = json.loads(out)["roots"]
    assert len(roots) == 1 and abs(roots[0] - 1 / math.sqrt(3)) < 1e-6


def test_regions_command_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    svg_path = tmp_path / "grid.svg"
    code, _, _ = run_cli(
        capsys, "regions", "--mu", "0.5", "--nu", "1", "--p-range", "-5:5",
        "--q-range", "-8:4", "--res", "20", "--output", str(csv_path),
        "--svg", str(svg_path),
    )
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "p,q,labels"
    assert svg_path.read_text().startswith("<svg")


def test_regions_bad_range(capsys):
    code, _, err = run_cli(
        capsys, "regions", "--mu", "0.5", "--nu", "1", "--p-range", "oops",
        "--q-range", "-8:4",
    )
    assert code == 2 and "--p-range" in err


def test_verify_fast_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify", "--fast", "--seed", "7")
        assert code == 0
        assert "PASS" in err  # human table goes to stderr
        outputs.append(out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 12


def test_identical_config_means_identical_json(capsys):
    args = ["energy", "--manifold", "sphere:3", "--section", "scaled:hopf:k=0.5",
            "--p", "2", "--q", "1", "--samples", "5000", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_config_text_forms_round_trip():
    from pqharmonic import geometry, sections

    for text in ("sphere:3", "torus:2"):
        assert str(geometry.parse_manifold(text)) == text
    for text in ("hopf", "conformal:a=1,0,0,0", "scaled:hopf:k=0.5"):
        canonical = sections.format_section(sections.parse_section(text))
        assert sections.format_section(sections.parse_section(canonical)) == canonical
