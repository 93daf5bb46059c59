"""Workloads, output checks and metrics of the surrogate-forge benchmark.

Every workload runs in one process with at most ``THREADS`` threads and
drives the package only through its public functions and ``cli.main``.
Each has a set-up, repeated ``SETUP_REPS`` times, and a measured phase
that lasts the requested seconds. Every end-to-end metric is measured on
every workload; the README in this directory says which phase supplies
which metric on which workload.

``execute`` runs a workload once; ``run`` turns one or two executions into
the report that ``run.py`` prints.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from surrogate_forge import bm_predict, cli, model_core, posterior, surrogate

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = 2

# Relative tolerances of the output checks. Both engines reduce in another
# order for a batch than for one row, so agreement is to rounding, not bitwise.
BM_ROW_RTOL = 1e-9
NN_ROW_RTOL = 1e-9
NN_ROW_ATOL = 1e-12
CHECKED_ROWS = 3

# The CLI pipeline sizes. inter_patience = max_rounds and intra_patience =
# max_epochs switch early stopping off, so a pipeline does the same work on
# every seed.
PIPELINE_MAIN = dict(J=10, n_observed=500, warmup=100, samples=100, leapfrog_steps=20,
                     I=2500, hidden=256, lr=1e-3, I_init=2000, I_al=400, pool_size=600,
                     K=12, max_rounds=3, max_epochs=6, val_size=500)
PIPELINE_PROBE = dict(J=10, n_observed=300, warmup=50, samples=100, leapfrog_steps=10,
                      I=1000, hidden=128, lr=1e-3, I_init=2000, I_al=200, pool_size=300,
                      K=8, max_rounds=1, max_epochs=15, val_size=300)
SERVE_SETUP = dict(J=20, n_observed=300, warmup=100, samples=200, leapfrog_steps=10,
                   I=1000, hidden=256, lr=1e-3, I_init=2000, I_al=300, pool_size=400,
                   K=8, max_rounds=1, max_epochs=10, val_size=500)
FIT_MAIN = dict(J=10, n_observed=1000, warmup=150, samples=200, leapfrog_steps=10)
SERVE_LOOP = dict(batch_rows=5000, small_per_block=100)
# set-ups per run; setup_s, and the metrics a workload reads from its
# set-up pipelines, are medians over them
SETUP_REPS = 5
# fit and pipeline run at least this many units of work
MIN_UNITS = 4
# share of a fit or pipeline unit's time that the serve probe after it takes
PROBE_SHARE = 0.2
# held-out rows on which each pipeline's surrogate error is measured
N_TEST = 1000


@dataclass(frozen=True)
class Workload:
    """What one run of a workload does.

    setup: "pipeline" runs the CLI pipeline `pipeline` and loads its
    artifacts; "cold_start" times a fresh interpreter importing the CLI.
    main: "fit", "pipeline" or "serve". Fit and pipeline run units of work,
    at least `MIN_UNITS`; a serve probe against the newest artifacts
    follows each unit and takes `PROBE_SHARE` of the time. Serve runs the
    closed loop for the whole phase.
    """

    setup: str
    main: str
    pipeline: dict
    fit: dict | None = None


WORKLOADS = {
    "fit": Workload(setup="pipeline", main="fit", pipeline=PIPELINE_PROBE, fit=FIT_MAIN),
    "pipeline": Workload(setup="cold_start", main="pipeline", pipeline=PIPELINE_MAIN),
    "serve": Workload(setup="pipeline", main="serve", pipeline=SERVE_SETUP),
}

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "fit_s": "s", "min_ess_per_s": "1/s",
    "pipeline_s": "s",
    "bm_batch_rows_per_s": "rows/s", "nn_batch_rows_per_s": "rows/s",
    "bm_small_p1_ms": "ms", "nn_small_p1_ms": "ms",
}

class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def error(self, what: str) -> None:
        self.op(False, f"{what}: {traceback.format_exc(limit=4)}")


@dataclass
class Measured:
    """Raw measurements of one execution."""

    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    min_ess: list = field(default_factory=list)
    pipeline_s: list = field(default_factory=list)
    stage_s: list = field(default_factory=list)
    test_rel_mse: list = field(default_factory=list)
    test_mse: list = field(default_factory=list)
    artifact_bytes: list = field(default_factory=list)
    bm_batch_rps: list = field(default_factory=list)
    nn_batch_rps: list = field(default_factory=list)
    # single-row latencies, tens of thousands a run: packed doubles
    bm_small_s: array = field(default_factory=lambda: array("d"))
    nn_small_s: array = field(default_factory=lambda: array("d"))
    cycle_s: list = field(default_factory=list)
    # Python warnings the program raised; recorded in the report, not failures
    runtime_warnings: list = field(default_factory=list)
    wall: tuple = (0.0, 0.0)


def pipeline_config(seed: int, p: dict) -> dict:
    return {
        "seed": seed, "threads": THREADS,
        "model": {"J": p["J"], "n_observed": p["n_observed"]},
        "sampler": {"warmup": p["warmup"], "samples": p["samples"],
                    "leapfrog_steps": p["leapfrog_steps"]},
        "datagen": {"I": p["I"]},
        "net": {"hidden_width": p["hidden"], "learning_rate": p["lr"]},
        "al": {"I_init": p["I_init"], "I_al": p["I_al"], "K": p["K"],
               "pool_size": p["pool_size"], "val_size": p["val_size"],
               "max_rounds": p["max_rounds"], "inter_patience": p["max_rounds"],
               "max_epochs": p["max_epochs"], "intra_patience": p["max_epochs"]},
    }


CLI_STAGES = (
    ("fit_bm", ["fit-bm"]),
    ("gen_data", ["gen-data"]),
    ("train_al", ["train", "--al"]),
    ("predict_nn", ["predict", "--engine", "nn"]),
    ("predict_bm", ["predict", "--engine", "bm"]),
)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext({})


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _check_fit(draws, ledger: Ledger) -> None:
    """Draws are finite and the sampler added nothing to its warnings list."""
    ledger.op(_all_finite(draws.alpha, draws.beta, draws.gamma, draws.sigma2)
              and not draws.diagnostics.get("warnings"),
              f"fit draws not finite or sampler warned: {draws.diagnostics.get('warnings')}")


def _messages(caught) -> list[str]:
    return [f"{w.category.__name__}: {w.message} ({Path(w.filename).name}:{w.lineno})"
            for w in caught]


def run_pipeline(work: Path, seed: int, p: dict, ledger: Ledger, tracer=None):
    """The five CLI stages on a fresh config. Returns stage seconds, spec,
    draws, net, ESS list, the artifact directory and the Python warnings
    raised, or None when a stage fails."""
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(pipeline_config(seed, p)))
    out = work / "artifacts"
    stages = {}
    raised = []
    for name, argv in CLI_STAGES:
        sink = io.StringIO()
        with _span(tracer, f"cli.{name}"):
            with redirect_stdout(sink), redirect_stderr(sink), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv + ["--config", str(cfg_path), "--out", str(out)])
                except Exception:
                    ledger.error(f"cli {name}")
                    return None
                stages[name] = time.perf_counter() - t0
        raised += _messages(caught)
        if not ledger.op(rc == 0, f"cli {name} exit {rc}: {sink.getvalue()[-400:]}"):
            return None
    spec = model_core.ModelSpec(J=p["J"])
    draws = posterior.load_posterior(out / "posterior" / "manifest.json",
                                     out / "posterior" / "draws.f64", spec)
    net = surrogate.load_net(out / "net" / "manifest.json", out / "net" / "params.f64")
    diag = json.loads((out / "posterior" / "diagnostics.json").read_text())
    draws.diagnostics["warnings"] = diag["warnings"]
    _check_fit(draws, ledger)
    return stages, spec, draws, net, diag["ess"], out, raised


def surrogate_error(spec, draws, net, X_test, ledger: Ledger) -> tuple[float, float]:
    """Mean squared error of the surrogate's risk-minimizing prediction
    against the reference, raw and over the variance of the reference."""
    ref = bm_predict.predict_batch(spec, draws, X_test, THREADS).mean(axis=1)
    out = surrogate.predict(net, X_test)
    ledger.op(out.shape == (X_test.shape[0], len(draws)) and _all_finite(out, ref),
              f"held-out predictions: shape {out.shape} or not finite")
    mse = float(np.mean((out.mean(axis=1) - ref) ** 2))
    return mse, mse / float(np.var(ref))


def cold_start_s() -> float:
    """A fresh interpreter importing the CLI, as each CLI command pays."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import surrogate_forge.cli",
                    str(SRC)], check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def run_fit(seed: int, f: dict, ledger: Ledger):
    """One HMC fit on fresh observed data; returns seconds, min ESS and the
    Python warnings raised."""
    spec = model_core.ModelSpec(J=f["J"])
    truth = model_core.sample_ground_truth(spec, np.random.default_rng([seed, 1]))
    X, y = model_core.generate_observed(spec, truth, f["n_observed"],
                                        np.random.default_rng([seed, 2]))
    cfg = posterior.SamplerConfig(warmup=f["warmup"], samples=f["samples"],
                                  leapfrog_steps=f["leapfrog_steps"], seed=seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        draws = posterior.sample_posterior(spec, X, y, cfg)
        dt = time.perf_counter() - t0
    _check_fit(draws, ledger)
    return dt, float(np.min(draws.diagnostics["ess"])), _messages(caught)


def serve_loop(spec, draws, net, seconds: float, rng, m: Measured, ledger: Ledger) -> None:
    """One closed-loop caller: a bm batch, then nn batches and then blocks
    of single-row requests, each for as long as the bm batch took; at least
    one cycle, until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        # the three request kinds get equal time, so that each samples the
        # host's fast and slow spells alike
        c0 = time.perf_counter()
        _bm_batch(spec, draws, rng, m, ledger)
        slice_s = time.perf_counter() - c0
        _repeat(slice_s, lambda: _nn_batch(spec, draws, net, rng, m, ledger))
        _repeat(slice_s, lambda: _single_rows(spec, draws, net, rng, cycle, m, ledger))
        m.cycle_s.append(time.perf_counter() - c0)
        cycle += 1


def _repeat(seconds: float, request) -> None:
    """Send `request` at least once, until `seconds` have passed."""
    t0 = time.perf_counter()
    while True:
        request()
        if time.perf_counter() - t0 >= seconds:
            return


def _bm_batch(spec, draws, rng, m: Measured, ledger: Ledger) -> None:
    B = SERVE_LOOP["batch_rows"]
    X = rng.random((B, spec.J))
    rows = rng.choice(B, CHECKED_ROWS, replace=False)
    try:
        t0 = time.perf_counter()
        res = bm_predict.predict_batch_timed(spec, draws, X, THREADS, mode="risk_min")
        dt = time.perf_counter() - t0
        single = np.array([bm_predict.predict_risk_min(spec, draws, X[i]) for i in rows])
        ok = (res.predictions.shape == (B,) and _all_finite(res.predictions)
              and np.allclose(res.predictions[rows], single, rtol=BM_ROW_RTOL, atol=0))
        if ledger.op(ok, "bm batch rows disagree with predict_risk_min"):
            m.bm_batch_rps.append(B / dt)
    except Exception:
        ledger.error("bm batch")


def _nn_batch(spec, draws, net, rng, m: Measured, ledger: Ledger) -> None:
    B = SERVE_LOOP["batch_rows"]
    X = rng.random((B, spec.J))
    rows = rng.choice(B, CHECKED_ROWS, replace=False)
    try:
        t0 = time.perf_counter()
        out = surrogate.predict(net, X)
        pred = out.mean(axis=1)
        dt = time.perf_counter() - t0
        single = np.array([surrogate.predict(net, X[i:i + 1])[0] for i in rows])
        ok = (out.shape == (B, len(draws)) and _all_finite(out, pred)
              and np.allclose(out[rows], single, rtol=NN_ROW_RTOL, atol=NN_ROW_ATOL))
        if ledger.op(ok, "nn batch rows disagree with single-row predict"):
            m.nn_batch_rps.append(B / dt)
    except Exception:
        ledger.error("nn batch")


def _single_rows(spec, draws, net, rng, cycle: int, m: Measured, ledger: Ledger) -> None:
    """A block of single-row requests, one per engine for each row, interleaved."""
    M = len(draws)
    xs = rng.random((SERVE_LOOP["small_per_block"], spec.J))
    for k, x in enumerate(xs):
        for engine in (("bm", "nn") if (cycle + k) % 2 == 0 else ("nn", "bm")):
            try:
                if engine == "bm":
                    t0 = time.perf_counter()
                    v = bm_predict.predict_risk_min(spec, draws, x)
                    dt = time.perf_counter() - t0
                    if ledger.op(math.isfinite(v), "bm single row not finite"):
                        m.bm_small_s.append(dt)
                else:
                    t0 = time.perf_counter()
                    out = surrogate.predict(net, x[None, :])
                    v = float(out.mean())
                    dt = time.perf_counter() - t0
                    if ledger.op(out.shape == (1, M) and math.isfinite(v),
                                 "nn single row not finite or misshaped"):
                        m.nn_small_s.append(dt)
            except Exception:
                ledger.error(f"{engine} single row")


def execute(wl: Workload, seed: int, seconds: float, work: Path,
            tracer: Tracer | None = None) -> tuple[Measured, Ledger]:
    """One full run of a workload: set-up reps, then the measured phase."""
    m = Measured()
    ledger = Ledger()
    t_start = time.perf_counter()
    served = None
    with _span(tracer, "bench.setup"):
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            if wl.setup == "cold_start":
                try:
                    m.setup_s.append(cold_start_s())
                    ledger.op(True)
                except (subprocess.SubprocessError, OSError):
                    ledger.error("cold start")
                continue
            sub = seed * 1000 + rep
            done = _pipeline_unit(work / f"setup{rep}", sub, wl, m, ledger, tracer,
                                  count_fit=wl.main != "fit")
            if done is not None:
                served, check_s = done
                # the benchmark's own held-out check is not set-up time
                m.setup_s.append(time.perf_counter() - t0 - check_s)

    t_main = time.perf_counter()
    rng = np.random.default_rng([seed, 3])
    with _span(tracer, "bench.main"):
        unit = 0
        while wl.main != "serve" and (
                unit < MIN_UNITS or time.perf_counter() - t_main < seconds):
            sub = seed * 1000 + 100 + unit
            t0 = time.perf_counter()
            if wl.main == "fit":
                try:
                    dt, ess, raised = run_fit(sub, wl.fit, ledger)
                    m.fit_s.append(dt)
                    m.min_ess.append(ess)
                    m.runtime_warnings += raised
                except Exception:
                    ledger.error("fit")
            else:
                done = _pipeline_unit(work / f"main{unit}", sub, wl, m, ledger, tracer,
                                      count_fit=True)
                if done is not None:
                    served = done[0]
                    shutil.rmtree(work / f"main{unit - 1}", ignore_errors=True)
            # the probe follows every unit, so it samples the whole run
            if served is not None:
                probe_s = (time.perf_counter() - t0) * PROBE_SHARE / (1 - PROBE_SHARE)
                serve_loop(*served, probe_s, rng, m, ledger)
            unit += 1
        if served is None:
            ledger.op(False, "no artifacts to serve")
        elif wl.main == "serve":
            serve_loop(*served, seconds, rng, m, ledger)
        # short runs top up single-row samples until a p99 can be read
        while served is not None:
            have = min(len(m.bm_small_s), len(m.nn_small_s))
            if have >= layers.P99_MIN_SAMPLES:
                break
            serve_loop(*served, 0.0, rng, m, ledger)
            if min(len(m.bm_small_s), len(m.nn_small_s)) == have:
                break
    m.wall = (t_start, time.perf_counter())
    return m, ledger


def _pipeline_unit(work: Path, sub: int, wl: Workload, m: Measured, ledger: Ledger,
                   tracer, count_fit: bool):
    """A CLI pipeline plus the benchmark's check of it: artifact bytes and
    held-out error. Returns ((spec, draws, net), seconds the check took)."""
    try:
        res = run_pipeline(work, sub, wl.pipeline, ledger, tracer)
        if res is None:
            return None
        stages, spec, draws, net, ess, out, raised = res
        t0 = time.perf_counter()
        with _span(tracer, "bench.check"):
            nbytes = _dir_bytes(out)
            X_test = np.random.default_rng([sub, 4]).random((N_TEST, spec.J))
            mse, rel = surrogate_error(spec, draws, net, X_test, ledger)
        check_s = time.perf_counter() - t0
    except Exception:
        ledger.error("pipeline")
        return None
    m.pipeline_s.append(sum(stages.values()))
    m.stage_s.append(stages)
    m.test_mse.append(mse)
    m.test_rel_mse.append(rel)
    m.artifact_bytes.append(nbytes)
    m.runtime_warnings += raised
    if count_fit:
        m.fit_s.append(stages["fit_bm"])
        m.min_ess.append(float(min(ess)))
    return (spec, draws, net), check_s


def _median(xs):
    return float(statistics.median(xs)) if xs else None


def end_to_end(m: Measured) -> dict:
    fit_med = _median(m.fit_s)
    values = {
        "setup_s": _median(m.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fit_s": fit_med,
        # a fit's ESS varies with its inputs; the median over the run's fits steadies it
        "min_ess_per_s": (statistics.median(m.min_ess) / fit_med) if m.min_ess else None,
        "pipeline_s": _median(m.pipeline_s),
        "bm_batch_rows_per_s": _median(m.bm_batch_rps),
        "nn_batch_rows_per_s": _median(m.nn_batch_rps),
        # the host moves between faster and slower states every few seconds,
        # and may spend less than a tenth of a run in the fastest; the p1
        # stays in that state, while the median and even the p10 jump
        # between states with the share of time a run spent in each
        "bm_small_p1_ms": _ms(_p1(m.bm_small_s)),
        "nn_small_p1_ms": _ms(_p1(m.nn_small_s)),
    }
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}


def _p1(xs):
    return float(np.percentile(xs, 1)) if xs else None


def _quantiles(xs, qs):
    return [float(v) for v in np.percentile(xs, qs)] if xs else []


def _quantiles_ms(xs):
    return [v * 1e3 for v in _quantiles(xs, (1, 5, 10, 25, 50))]


def _ms(s):
    return None if s is None else s * 1e3


def headline(name: str, m: Measured) -> float | None:
    """The time each workload's tracing overhead is judged on."""
    return {"fit": _median(m.fit_s), "pipeline": _median(m.pipeline_s),
            "serve": _median(m.cycle_s)}[name]


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": THREADS, "git_commit": git_commit(), "workload": workload,
        "seed": seed, "seconds": seconds, "trace": trace,
    }


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: int, out_dir: Path,
        wl: Workload | None = None) -> dict:
    """One benchmark run; returns the report whose summary run.py prints.

    A traced run splits the seconds between an untraced and a traced pass,
    so that it takes about as long as an untraced run."""
    wl = wl or WORKLOADS[workload]
    work = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    pass_s = seconds / 2 if trace else seconds
    try:
        m, ledger = execute(wl, seed, pass_s, work / "untraced")
        report = {"env": environment(workload, seed, seconds, trace)}
        if not trace:
            metrics = end_to_end(m)
        else:
            tracer = Tracer(run_id=f"{workload}-{seed}")
            layers.install(tracer)
            try:
                mt, lt = execute(wl, seed, pass_s, work / "traced", tracer)
            finally:
                tracer.unpatch_all()
            ledger.attempted += lt.attempted
            ledger.failed += lt.failed
            ledger.failures += lt.failures
            metrics = layers.metrics(tracer.spans, mt, headline(workload, m),
                                     headline(workload, mt))
            tracer.write(out_dir / f"{workload}-seed{seed}.spans.jsonl")
            report["layer_self_share"] = layers.layer_shares(tracer.spans, *mt.wall)
            report["traced_end_to_end"] = end_to_end(mt)
        report["untraced_end_to_end"] = end_to_end(m)
        report["runtime_warnings"] = m.runtime_warnings
        report["units"] = {"fit_s": m.fit_s, "min_ess": m.min_ess, "setup_s": m.setup_s,
                           "pipeline_stage_s": m.stage_s, "test_mse": m.test_mse,
                           "test_rel_mse": m.test_rel_mse,
                           "bm_small_requests": len(m.bm_small_s),
                           "nn_small_requests": len(m.nn_small_s),
                           "bm_batches": len(m.bm_batch_rps), "nn_batches": len(m.nn_batch_rps),
                           "small_ms_p1_p5_p10_p25_p50": {
                               "bm": _quantiles_ms(m.bm_small_s), "nn": _quantiles_ms(m.nn_small_s)},
                           "batch_rows_per_s_p10_p50_p90": {
                               "bm": _quantiles(m.bm_batch_rps, (10, 50, 90)),
                               "nn": _quantiles(m.nn_batch_rps, (10, 50, 90))}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [n for n, v in metrics.items() if v["value"] is None]
    correct = ledger.failed == 0 and not missing
    if missing:
        ledger.failures.append(f"metrics without a value: {missing}")
    report["failures"] = ledger.failures
    report["summary"] = {"correct": correct, "attempted": ledger.attempted,
                         "failed": ledger.failed,
                         "metrics": {n: v for n, v in metrics.items() if v["value"] is not None}}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=2, default=float) + "\n")
    return report
