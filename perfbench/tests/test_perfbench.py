"""The benchmark's own tests, on tiny workloads.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
from surrogate_forge import bm_predict, cli, model_core, posterior
from tracer import Tracer, self_times

BENCH_DIR = Path(harness.__file__).resolve().parent
ROOT = BENCH_DIR.parent

TINY_PIPELINE = dict(J=3, n_observed=60, warmup=20, samples=30, leapfrog_steps=5,
                     I=100, hidden=16, lr=3e-3, I_init=100, I_al=20, pool_size=30,
                     K=4, max_rounds=2, max_epochs=2, val_size=30)
TINY_FIT = dict(J=3, n_observed=60, warmup=20, samples=30, leapfrog_steps=5)
TINY_SERVE = dict(batch_rows=40, small_per_block=300)


def tiny(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], pipeline=TINY_PIPELINE,
                               fit=TINY_FIT)


@pytest.fixture(scope="module", autouse=True)
def tiny_constants():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "SERVE_LOOP", TINY_SERVE)
        mp.setattr(harness, "MIN_UNITS", 2)
        mp.setattr(harness, "SETUP_REPS", 2)
        mp.setattr(harness, "N_TEST", 40)
        yield


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A traced execution of the tiny fit workload: (tracer, measured)."""
    work = tmp_path_factory.mktemp("traced")
    tracer = Tracer("test")
    layers.install(tracer)
    try:
        measured, ledger = harness.execute(tiny("fit"), 3, 0.2, work, tracer)
    finally:
        tracer.unpatch_all()
    assert ledger.failed == 0, ledger.failures
    return tracer, measured


@pytest.mark.parametrize("name", ["fit", "pipeline", "serve"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(name, trace, tmp_path):
    report = harness.run(name, 5, 0.2, trace, tmp_path, tiny(name))
    summary = report["summary"]
    assert summary["correct"], report["failures"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    printed = summary["metrics"]
    assert set(printed) == {m["name"] for m in declared}
    for m in declared:
        assert printed[m["name"]]["unit"] == m["unit"]
        assert isinstance(printed[m["name"]]["value"], float)
    env = report["env"]
    for key in ("python", "numpy", "scipy", "blas", "nproc", "blas_threads", "threads",
                "git_commit", "seed"):
        assert key in env
    assert env["seed"] == 5


def test_benchmark_json_matches_harness():
    doc = benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_self_times_nonnegative_and_within_wall_time(traced):
    tracer, measured = traced
    spans = tracer.spans
    own = self_times(spans)
    assert min(own) >= 0.0
    wall = measured.wall[1] - measured.wall[0]
    # spans of one thread nest, so their self times add up to at most its busy time
    for thread in {s.thread for s in spans}:
        assert sum(t for s, t in zip(spans, own) if s.thread == thread) <= wall + 1e-6
    assert any(s.thread != 0 for s in spans), "batch workers should record spans"


def test_grad_evals_within_nominal(traced):
    tracer, _ = traced
    spans = tracer.spans
    calls = [i for i, s in enumerate(spans) if s.name == "posterior.sample_posterior"]
    assert len(calls) >= 3
    for i in calls:
        evals = sum(1 for j, s in enumerate(spans)
                    if s.name == "model_core.link_apply" and s.via == "posterior"
                    and layers._ancestor(spans, j, "posterior.sample_posterior") == i)
        cfg = TINY_FIT if spans[i].via == "posterior" else TINY_PIPELINE
        nominal = (cfg["warmup"] + cfg["samples"]) * cfg["leapfrog_steps"] + 1
        assert spans[i].attrs["nominal_grad_evals"] == nominal
        assert 0 < evals <= nominal


def _fits(tracer, phase, fits, evals):
    """Spans of `fits` HMC fits of `evals` gradient evaluations each."""
    with tracer.span(phase):
        for _ in range(fits):
            with tracer.span("posterior.sample_posterior", "posterior") as attrs:
                attrs.update(min_ess=3.0, M=100, mean_accept=0.8, step_size=0.1)
                with tracer.span("posterior.run_hmc", "posterior"):
                    for _ in range(evals):
                        with tracer.span("model_core.link_apply", "posterior"):
                            pass
                        with tracer.span("model_core.link_deriv", "posterior"):
                            pass


@pytest.mark.parametrize("main_fits, per_fit", [(0, 10), (1, 30), (4, 30)])
def test_posterior_metrics_read_measured_fits_only(main_fits, per_fit):
    """Measured fits are never pooled with set-up fits, however many run;
    without measured fits the set-up's are read."""
    tracer = Tracer("phases")
    _fits(tracer, "bench.setup", fits=3, evals=10)
    _fits(tracer, "bench.main", fits=main_fits, evals=30)
    measured = harness.Measured(wall=(tracer.spans[0].start, tracer.spans[-1].end))
    v = layers.metrics(tracer.spans, measured, 1.0, 1.0)
    assert v["posterior.grad_evals"]["value"] == per_fit
    assert v["model_core.link_calls.posterior"]["value"] == 2 * per_fit


def test_rounds_equal_history_rows(tmp_path):
    tracer = Tracer("rounds")
    layers.install(tracer)
    try:
        res = harness.run_pipeline(tmp_path, 9, TINY_PIPELINE, harness.Ledger(), tracer)
    finally:
        tracer.unpatch_all()
    assert res is not None
    history = (tmp_path / "artifacts" / "net" / "history.csv").read_text().splitlines()
    measured = harness.Measured(wall=(tracer.spans[0].start, tracer.spans[-1].end))
    value = layers.metrics(tracer.spans, measured, 1.0, 1.0)["active_learning.rounds"]["value"]
    assert value == len(history) - 1 == TINY_PIPELINE["max_rounds"] + 1


def test_untraced_run_installs_no_wrapper(tmp_path):
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in layers.BOUNDARIES}
    harness.run("serve", 2, 0.1, 0, tmp_path, tiny("serve"))
    assert cli.sample_posterior is posterior.sample_posterior
    assert bm_predict.link_apply is model_core.link_apply
    harness.run("serve", 2, 0.1, 1, tmp_path, tiny("serve"))
    after = {(m.__name__, a): getattr(m, a) for m, a, _, _ in layers.BOUNDARIES}
    assert after == before


def test_failed_check_counts_as_failed_operation():
    ledger = harness.Ledger()
    ledger.op(True)
    ledger.op(False, "bad row")
    assert (ledger.attempted, ledger.failed, ledger.failures) == (2, 1, ["bad row"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
