"""Tests of the benchmark itself, at tiny problem sizes.

Run from the repository root:  python3 -m pytest perfbench/tests
"""
import io
import json
import math
import shutil
import sys
import threading

import pytest

import run as bench
import stratachern as sc
import tracer
import workloads

TINY = {
    "figure_pipeline": {"mesh": 16},
    "phase_scan": {"mesh": 32},
    "qgt_random": {"mesh": 16, "samples": 512},
    "fine_mesh": {"mesh": 32, "thetas": 8},
}

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_op_blocks(monkeypatch):
    """Traced runs alternate single ops, so a tiny run covers few draws."""
    monkeypatch.setattr(bench, "BLOCK_S", 0.0)


def tiny_run(workload, trace=False, seconds=0.05):
    out = io.StringIO()
    result = bench.run(workload, 3, seconds, trace, size=TINY[workload],
                       setup_repeats=1, out=out)
    return result, out.getvalue()


def package_bindings():
    """(module, attribute) -> object for every callable bound in the package."""
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "stratachern" or name.startswith("stratachern.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.WORKLOADS) == set(workloads.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    for m in wanted:
        assert f"# {m['name']} " in report
    if not trace:
        assert "# op_tail_s " in report and "# failed_frac " in report
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    json.dumps(result, allow_nan=False)


def test_tracer_counts_figure_pipeline_layers():
    result, _ = tiny_run("figure_pipeline", trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # Workspace mesh, 25 sweep points, inequality_suite: the sweep's M = 0
    # point and the suite rebuild the Workspace mesh.
    assert m["mesh.build_mesh.calls"] == 27
    assert m["mesh.build_mesh.unique_frac"] == pytest.approx(25 / 27)
    assert m["mesh.build_mesh.kpoints"] == 27 * 16 * 16
    assert m["harness.run_all.calls"] == m["cli.main.calls"] == 1
    assert m["harness.rows_written"] == sum(workloads.expected_rows(16).values())
    assert m["witness.sweep_mass.parallelism"] > 0


def test_forced_wrong_invariant_is_counted_as_failed(monkeypatch):
    real = sc.chern_number
    monkeypatch.setattr(sc, "chern_number", lambda F: real(F) + 1)
    result, report = tiny_run("phase_scan")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    line = next(x for x in report.splitlines() if x.startswith("# failed_frac "))
    assert line.split()[2] == "1"


def test_raising_op_is_counted_as_failed(monkeypatch):
    def gapless(*args, **kwargs):
        raise sc.GaplessMesh("forced")

    monkeypatch.setattr(sc, "build_mesh", gapless)
    result, _ = tiny_run("fine_mesh")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_changed_panel_bytes_break_the_digest():
    workdir = bench.RUN_DIR / "test-digest"
    try:
        wl = workloads.make("figure_pipeline", 3, workdir, TINY["figure_pipeline"])
        assert wl.check(0, wl.op(0)) is None
        wl.cli_seed += 1  # panel h bytes change within one run
        reason = wl.check(1, wl.op(1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert reason is not None and "digest" in reason


def test_untraced_run_installs_no_wrapper(monkeypatch):
    before = package_bindings()

    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    seen = []
    real_op = workloads.PhaseScan.op

    def spying_op(self, i):
        seen.append(package_bindings() == before)
        return real_op(self, i)

    monkeypatch.setattr(workloads.PhaseScan, "op", spying_op)
    result, _ = tiny_run("phase_scan")
    assert result["correct"] and seen and all(seen)
    assert package_bindings() == before


def test_traced_run_restores_every_binding():
    before = package_bindings()
    with tracer.Tracer():
        assert sc.build_mesh is not before[("stratachern", "build_mesh")]
        assert sc.harness.build_mesh is sc.witness.build_mesh is sc.geometry.build_mesh
        assert sc.mesh.d_components is sc.model.d_components is not before[
            ("stratachern.model", "d_components")]
    assert package_bindings() == before


def test_pool_thread_spans_are_adopted_by_the_sweep():
    p = sc.ModelParams(1.0, 1.0 / 3.0, math.pi / 2.0, 0.0)
    with tracer.Tracer() as tr:
        tr.op = 0
        sc.witness.sweep_mass(p, [-3.0, -1.0, 1.0, 3.0], (8, 8), workers=2)
        tr.op = None
    by_id = {s[0]: s for s in tr.spans}
    (sweep,) = [s for s in tr.spans if s[2] == "witness.sweep_mass"]
    builds = [s for s in tr.spans if s[2] == "mesh.build_mesh"]
    assert len(builds) == 4 and all(s[1] == sweep[0] for s in builds)
    for s in tr.spans:
        if s[2] == "model.d_components":
            assert by_id[s[1]][2] == "mesh.build_mesh"
    m = tracer.layer_metrics(tr.spans, [0])
    assert m["witness.sweep_mass.calls"] == (1.0, "count")
    assert m["model.d_components.kpoints"] == (4 * 64, "count")
    assert m["witness.sweep_mass.parallelism"][0] > 0
    assert m["witness.sweep_mass.wait_s"] == m["witness.sweep_mass.self_s"]
    assert threading.active_count() == 1


def test_covered_is_the_union_of_child_intervals():
    assert tracer.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 5.5) == 3.5
    assert tracer.covered([], 0.0, 1.0) == 0.0


def test_missing_package_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", bench.ROOT / "no-such-src")
    code = bench.main(["--workload", "phase_scan", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code != 0 and captured.out == ""
    assert "no stratachern package" in captured.err
