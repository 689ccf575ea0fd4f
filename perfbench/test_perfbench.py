"""Tests of the benchmark itself: determinism, metric names and the checkers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _ops(workload: str, seed: int, index: int = 0) -> list[dict]:
    return [dataclasses.asdict(op) for op in bw.make_block(workload, seed, index)]


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_same_seed_gives_the_same_operations(workload):
    assert _ops(workload, 5) == _ops(workload, 5)
    assert _ops(workload, 5) != _ops(workload, 6)
    assert _ops(workload, 5) != _ops(workload, 5, 1)
    assert sorted(op["label"] for op in _ops(workload, 5)) == sorted(
        op["label"] for op in _ops(workload, 6))


def _cheap_ops() -> list[bw.Op]:
    survey = [op for op in bw.make_block("survey", 5, 0)
              if op.argv and op.label.split("/")[1] in ("hopf", "constant", "linear-hopf")
              and op.label.startswith("energy")]
    sweep = [op for op in bw.make_block("sweep", 5, 0)
             if op.label == "sweep/scale/sphere:3/s50/noroot"][:1]
    regions = [op for op in bw.make_block("regions", 5, 0) if op.label == "regions/res64"][:1]
    return survey + sweep + regions


def test_same_seed_gives_byte_identical_outputs(tmp_path):
    ops = _cheap_ops()
    assert {op.label.split("/")[0] for op in ops} == {"energy", "sweep", "regions"}
    runs = []
    for attempt in ("a", "b"):
        out_dir = tmp_path / attempt
        out_dir.mkdir()
        outputs = []
        for op in ops:
            out = bw.execute(op, str(out_dir))
            assert out.rc == 0 and out.error is None, out.stderr
            assert bench_checks.check(op, out, str(out_dir)) is None
            files = [(out_dir / name).read_bytes() for name in ("regions.csv", "regions.svg")
                     if op.label.startswith("regions")]
            outputs.append((out.stdout, files))
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_every_named_metric_is_reported_with_its_unit():
    durations = [0.001 * (1 + i % 7) for i in range(120)]
    metrics = run.end_to_end(durations, [0.2, 0.3, 0.25])
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    assert dict(bench_trace.PER_LAYER) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    values = bench_trace.per_layer_values(bench_trace.Tracer(), set())
    assert set(values) == {name for name, _ in bench_trace.PER_LAYER}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bw.WORKLOADS)


def test_tracer_rebinds_imported_names_and_nests_recursive_calls():
    from pqharmonic import energy, serialize, solver

    original = energy.density_from_jets
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert solver.density_from_jets is energy.density_from_jets is not original
        tracer.enabled = True
        serialize.dumps({"a": [1.5, {"b": 2.0}]})
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert solver.density_from_jets is original
    names = [s.name for s in tracer.spans]
    assert names == ["serialize.dumps"] * len(names) and len(names) > 3
    assert tracer.spans[0].parent is None and all(s.parent is not None for s in tracer.spans[1:])
    values = bench_trace.per_layer_values(tracer, set())
    assert values["serialize.dumps.calls"] == len(names)
    assert values["serialize.dumps.bytes"] == len(serialize.dumps({"a": [1.5, {"b": 2.0}]}))


def _report_op(family: str, command: str, n: int = 3):
    for op in bw.make_block("survey", 9, 0):
        if op.label.startswith(f"{command}/{family}/sphere:{n}/"):
            return op
    raise LookupError(family)


def _outcome(op: bw.Op, **fields) -> bw.Outcome:
    e = op.expect
    report = {"N": e["samples"], "seed": e["seed"], "p": e["p"], "q": e["q"], **fields}
    return bw.Outcome(rc=0, stdout=json.dumps(report))


def test_quadrature_checkers_reject_corrupted_values():
    op = _report_op("hopf", "energy")
    n, p = 3, op.expect["p"]
    exact = bench_checks.sphere_volume(n) * 2.0 ** (-p) * (n - 1) / 2.0
    assert bench_checks.check(op, _outcome(op, total=exact), "") is None
    assert bench_checks.check(op, _outcome(op, total=exact * (1 + 1e-6)), "") is not None

    op = _report_op("hopf", "residual")
    exact = abs(2.0 - op.expect["p"]) * 2
    assert bench_checks.check(op, _outcome(op, sup_residual=exact), "") is None
    assert bench_checks.check(op, _outcome(op, sup_residual=exact + 1e-6), "") is not None

    op = _report_op("linear-hopf", "residual")
    exact = abs(2.0 - op.expect["p"]) * 2
    assert bench_checks.check(op, _outcome(op, sup_residual=exact + 2e-6), "") is None
    assert bench_checks.check(op, _outcome(op, sup_residual=exact + 1e-4), "") is not None

    op = _report_op("conformal-solve52", "residual")
    assert bench_checks.check(op, _outcome(op, sup_residual=1e-14), "") is None
    assert bench_checks.check(op, _outcome(op, sup_residual=1e-7), "") is not None

    assert "seed" in bench_checks.check(op, _outcome(op, sup_residual=0.0, seed=-1), "")
    bad_json = bw.Outcome(rc=0, stdout='{"sup_residual": NaN}')
    assert "unparseable" in bench_checks.check(op, bad_json, "")
    assert "exit code 1" in bench_checks.check(op, bw.Outcome(rc=1), "")
    assert "raised" in bench_checks.check(op, bw.Outcome(error="ValueError: x"), "")


def test_sweep_checker_rejects_missing_extra_or_moved_roots():
    expect = {"command": "sweep", "roots": [0.5]}
    check = bench_checks.check_sweep
    assert check(expect, {"roots": [0.5 + 1e-10]}) is None
    assert check(expect, {"roots": []}) is not None
    assert check(expect, {"roots": [0.5, 0.9]}) is not None
    assert check(expect, {"roots": [0.5 + 1e-6]}) is not None
    assert check({"roots": []}, {"roots": []}) is None
    assert check({"roots": []}, {"roots": [0.3]}) is not None


def test_regions_checker_rejects_a_flipped_label_and_a_missing_row(tmp_path):
    op = next(op for op in bw.make_block("regions", 5, 0) if op.label == "regions/res64")
    out = bw.execute(op, str(tmp_path))
    assert bench_checks.check(op, out, str(tmp_path)) is None
    path = tmp_path / "regions.csv"
    lines = path.read_text().splitlines(keepends=True)

    flipped = list(lines)
    p, q, labels = flipped[1].rstrip("\r\n").split(",")  # cell 0 is always sampled
    new = "" if labels else "W"
    flipped[1] = f"{p},{q},{new}\r\n"
    path.write_text("".join(flipped))
    assert "cell 0" in bench_checks.check(op, out, str(tmp_path))

    path.write_text("".join(lines[:-1]))
    assert "rows" in bench_checks.check(op, out, str(tmp_path))


def test_first_variation_checker_rejects_a_perturbed_value(tmp_path):
    spec = next(op for op in bw.make_block("survey", 5, 0)
                if op.label.startswith("first_variation/linear/sphere:3")).expect
    spec = {**spec, "samples": 2000}
    value = bw.first_variation_call(spec)
    assert bench_checks.check_first_variation(spec, value, str(tmp_path)) is None
    assert bench_checks.check_first_variation(spec, value * (1 + 1e-4), str(tmp_path)) is not None
    assert bench_checks.check_first_variation(spec, math.nan, str(tmp_path)) is not None


def test_defect_checker_requires_exit_2_naming_the_flag():
    op = bw.Op("defect", (), {"usage_error": "--range"})
    assert bench_checks.check_defect(op, bw.Outcome(rc=2, stderr="error: --range: bad"), "") is None
    assert bench_checks.check_defect(op, bw.Outcome(rc=2, stderr="error: --manifold: x"), "")
    assert bench_checks.check_defect(op, bw.Outcome(error="ValueError: nan"), "")
