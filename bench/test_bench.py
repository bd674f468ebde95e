"""Tests of the benchmark itself: tracer coverage, layer separation, contract.

    python3 -m pytest -q bench/test_bench.py

The traced smoke runs take about a minute in all (one group of ops per
workload; `transform` builds the Meyer mother).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import frwave  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER, SPANS, Tracer  # noqa: E402

# counters that must be non-zero on each workload (the layer table in README.md)
EXERCISED = {
    "verify": ["riesz.spectrum_on_grid.calls", "riesz.translate_gram.calls",
               "mra.level_atom.calls", "mra.project.calls", "banks.spectral_scaling.calls",
               "grids.sample_at.calls", "biortho.riesz_frame_bounds.self_pct",
               "biortho.cross_orthogonality_check.self_pct", "biortho.level_split_defect.self_pct",
               "biortho.decay_check.self_pct", "report.dumps_deterministic.self_pct",
               "cli.main.self_pct"],
    "dual": ["grids.sample_at.sinc_points", "grids.sample_at.sinc_ops",
             "riesz.translate_gram.calls", "riesz.spectrum_on_grid.calls",
             "riesz.dual_scaling.self_pct", "riesz.check_biorthogonal.self_pct"],
    "expand": ["mra.level_atom.calls", "mra.project.calls",
               "biortho.expand_reconstruct.calls", "biortho.expand_reconstruct.atom_bytes",
               "biortho.riesz_frame_bounds.self_pct", "banks.spectral_scaling.calls"],
    "transform": ["frft.frft.calls", "frft.frft.samples", "frft.frft_eval.calls",
                  "frft.frft_eval.ops", "wavelets.atom_continuous.calls",
                  "wavelets.make_mother.self_pct", "wavelets.admissibility_constant.self_pct"],
}
NO_SINC = ("verify", "expand")


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_tracer_wraps_every_binding_and_restores():
    tracer = Tracer(frwave.FrwaveError)
    pkg = sys.modules["frwave"]
    before = pkg.frft
    tracer.install(roots=[HERE])
    try:
        for mod_name, fn_names in SPANS.items():
            home = sys.modules[f"frwave.{mod_name}"]
            for fn in fn_names:
                assert getattr(home, fn).__wrapped__ is not None
        # re-exported over the module name, and `from ... import` copies
        assert pkg.frft.__wrapped__ is before
        assert sys.modules["frwave.wavelets"].frft_eval.__wrapped__ is not None
        assert sys.modules["frwave.biortho"].spectrum_on_grid.__wrapped__ is not None
        assert sys.modules["frwave.mra"].spectrum_on_grid.__wrapped__ is not None
        assert sys.modules["frwave.cli"].frft.__wrapped__ is not None
        tracer.verify(roots=[HERE])
    finally:
        tracer.uninstall()
    assert pkg.frft is before
    assert not hasattr(sys.modules["frwave.wavelets"].frft_eval, "__wrapped__")


def test_tracer_self_time_and_errors():
    tracer = Tracer(frwave.FrwaveError)
    tracer.install(roots=[HERE])
    try:
        sig = frwave.SampledSignal(-1.0, 0.5, [0.0, 1.0, 2.0, 1.0, 0.0])
        frwave.sample_at(sig, [0.25, 0.0])
        with pytest.raises(frwave.DegenerateAngle):
            frwave.frft_eval(sig, 0.0, [0.0])
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert agg["grids.sample_at.calls"] == 1
    assert agg["grids.sample_at.hit_points"] == 1
    assert agg["grids.sample_at.sinc_points"] == 1
    assert agg["grids.sample_at.sinc_ops"] == 5
    assert agg["frft.errors"] == 1
    assert all(t >= -1e-6 for t in tracer.self_times())


def test_tail_latency_definition():
    assert run.tail_latency([float(i) for i in range(10, 0, -1)]) == (1.0, 0.0, 10)
    assert run.tail_latency([float(i) for i in range(1, 12)]) == (1.0, 100.0 / 11, 11)
    value, pct, n = run.tail_latency([float(i) for i in range(1, 41)])
    assert (value, pct, n) == (30.0, 75.0, 40)


def test_speed_probe_scales_to_the_nominal_speed():
    nominal = run.PROBE_NOMINAL_S
    assert run.SpeedProbe.scale(3.0, nominal) == pytest.approx(3.0)
    # the machine ran at half speed around the op: it counts half its wall time
    assert run.SpeedProbe.scale(3.0, 1.5 * nominal, 2.5 * nominal) == pytest.approx(1.5)
    probe = run.SpeedProbe()
    result, scaled, wall = probe.timed(sum, [1, 2])
    assert result == 3 and scaled > 0 and wall > 0 and len(probe.times) == 2


def test_benchmark_json_lists_the_tracer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [u for _, u in PER_LAYER]
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_smoke_run_separates_layers(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _ in PER_LAYER]
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    if workload in NO_SINC:
        assert metrics["grids.sample_at.sinc_points"]["value"] == 0


def test_untraced_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
