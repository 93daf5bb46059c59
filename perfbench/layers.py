"""The traced run's module boundaries and the per-layer metrics read from them.

``install`` wraps, in each calling module's namespace, the public functions
one module calls in another, plus the functions the benchmark calls
directly. ``metrics`` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

from surrogate_forge import (
    active_learning,
    bm_predict,
    cli,
    model_core,
    posterior,
    surrogate,
    synth_data,
)

from tracer import coverage, self_times


def _rows_arg1(result, args, kwargs):
    return {"rows": int(np.asarray(args[1]).shape[0])}


def _labelled(result, args, kwargs):
    return {"rows": len(result)}


def _batch_workers(result, args, kwargs):
    threads = args[3] if len(args) > 3 else kwargs.get("threads", 1)
    return {"rows": int(result.shape[0]), "workers": min(threads, result.shape[1])}


def _sampled(result, args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    d = result.diagnostics
    return {"min_ess": float(np.min(d["ess"])), "M": len(result),
            "mean_accept": d["mean_accept"], "step_size": d["adapted_step_size"],
            "nominal_grad_evals": (cfg.warmup + cfg.samples) * cfg.leapfrog_steps + 1}


def _al_trained(result, args, kwargs):
    records = result[1]
    return {"rounds": len(records), "final_rows": records[-1].dataset_size}


def _trained(result, args, kwargs):
    net, hist = result
    rows = len(args[1])
    return {"epochs": hist.epochs_run,
            "steps": hist.epochs_run * math.ceil(rows / net.config.batch_size)}


def _entropy_ratio(result, args, kwargs):
    p = result[result > 0]
    return {"ratio": float(-(p * np.log(p)).sum() / math.log(result.size))
            if result.size > 1 else 1.0}


def _unique_ratio(result, args, kwargs):
    return {"ratio": np.unique(result).size / result.size}


def _saved_bytes(result, args, kwargs):
    d = Path(args[1])
    return {"bytes": sum(f.stat().st_size for f in d.iterdir() if f.is_file())}


# (module whose namespace is patched, attribute, span name, observer)
BOUNDARIES = [
    (cli, "generate_observed", "model_core.generate_observed", None),
    (cli, "sample_posterior", "posterior.sample_posterior", _sampled),
    (cli, "save_posterior", "posterior.save_posterior", None),
    (cli, "load_posterior", "posterior.load_posterior", None),
    (cli, "generate", "synth_data.generate", _labelled),
    (cli, "save_labeled_set", "synth_data.save_labeled_set", _saved_bytes),
    (cli, "load_labeled_set", "synth_data.load_labeled_set", None),
    (cli, "al_train", "active_learning.al_train", _al_trained),
    (cli, "write_history_csv", "active_learning.write_history_csv", None),
    (cli, "save_net", "surrogate.save_net", None),
    (cli, "load_net", "surrogate.load_net", None),
    (cli, "predict", "surrogate.predict", _rows_arg1),
    (cli, "predict_batch_timed", "bm_predict.predict_batch_timed", None),
    (cli, "export_predictions_csv", "bm_predict.export_predictions_csv", None),
    (posterior, "sample_posterior", "posterior.sample_posterior", _sampled),
    (posterior, "run_hmc", "posterior.run_hmc", None),
    (posterior, "effective_sample_size", "posterior.effective_sample_size", None),
    (posterior, "link_apply", "model_core.link_apply", None),
    (posterior, "link_deriv", "model_core.link_deriv", None),
    (active_learning, "generate", "synth_data.generate", _labelled),
    (active_learning, "generate_at", "synth_data.generate_at", _labelled),
    (active_learning, "train", "surrogate.train", _trained),
    (active_learning, "uncertainty", "active_learning.uncertainty", _rows_arg1),
    (active_learning, "acquisition_probs", "active_learning.acquisition_probs", _entropy_ratio),
    (active_learning, "acquire", "active_learning.acquire", _unique_ratio),
    (active_learning, "mc_dropout_predict", "surrogate.mc_dropout_predict", None),
    (surrogate, "eval_loss", "surrogate.eval_loss", None),
    (surrogate, "predict", "surrogate.predict", _rows_arg1),
    (synth_data, "predict_batch", "bm_predict.predict_batch", _batch_workers),
    (bm_predict, "predict_batch", "bm_predict.predict_batch", _batch_workers),
    (bm_predict, "predict_batch_timed", "bm_predict.predict_batch_timed", None),
    (bm_predict, "predict_risk_min", "bm_predict.predict_risk_min", None),
    (bm_predict, "predict_draws", "bm_predict.predict_draws", None),
    (bm_predict, "link_apply", "model_core.link_apply", None),
]


def install(tracer) -> None:
    for module, attr, name, observe in BOUNDARIES:
        tracer.patch(module, attr, name, observe)


# (metric, unit) of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "posterior.sample_s": "s", "posterior.grad_evals": "count",
    "posterior.ms_per_grad_eval": "ms", "posterior.min_ess": "draws",
    "posterior.ess_per_draw": "1", "posterior.mean_accept": "1",
    "posterior.step_size": "1",
    "model_core.link_calls.posterior": "count", "model_core.link_s.posterior": "s",
    "model_core.link_share.posterior": "1",
    "model_core.link_calls.bm_predict": "count", "model_core.link_s.bm_predict": "s",
    "model_core.link_share.bm_predict": "1",
    "bm_predict.batch_s": "s", "bm_predict.label_rows_per_s": "rows/s",
    "bm_predict.small_p50_ms": "ms", "bm_predict.small_p99_ms": "ms",
    "synth_data.generate_rows_per_s": "rows/s", "synth_data.save_s": "s",
    "synth_data.bytes_written": "bytes",
    "surrogate.train_s": "s", "surrogate.epochs": "count", "surrogate.steps": "count",
    "surrogate.ms_per_step": "ms", "surrogate.eval_loss_s": "s",
    "surrogate.predict_batch_s": "s", "surrogate.small_p50_ms": "ms",
    "surrogate.small_p99_ms": "ms",
    "surrogate.test_mse": "1", "surrogate.test_rel_mse": "1",
    "active_learning.al_train_s": "s", "active_learning.rounds": "count",
    "active_learning.final_rows": "rows", "active_learning.score_rows_per_s": "rows/s",
    "active_learning.acq_entropy_ratio": "1", "active_learning.unique_acquired_ratio": "1",
    "cli.fit_bm_s": "s", "cli.gen_data_s": "s", "cli.train_al_s": "s",
    "cli.predict_nn_s": "s", "cli.predict_bm_s": "s", "cli.artifact_bytes": "bytes",
    "trace.overhead_ratio": "1", "trace.span_coverage": "1",
}


def _mean(xs):
    return float(statistics.fmean(xs)) if xs else None


def _median(xs):
    return float(statistics.median(xs)) if xs else None


def _ratio(a, b):
    return a / b if b else None


# a p99 needs at least ten samples beyond it
P99_MIN_SAMPLES = 1000


def _p50_ms(durations):
    return float(np.median(durations)) * 1e3 if durations else None


def _p99_ms(durations):
    if len(durations) < P99_MIN_SAMPLES:
        return None
    return float(np.percentile(durations, 99)) * 1e3


def _ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None and spans[p].name != name:
        p = spans[p].parent
    return p


def metrics(spans, measured, untraced_headline, traced_headline) -> dict:
    """Per-layer metrics of one traced execution.

    Counts are per call of the function that owns them (grad evals per
    sample_posterior, epochs per al_train, ...); times are seconds per call
    or shares of the caller's time.

    A function's spans come from the measured phase when it runs there, and
    from the set-up only when it does not: the fit workload's set-up fits
    are smaller than its measured ones, and how many measured fits a run
    holds depends on their speed, so the two are never pooled.
    """
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def idx(name, via=None):
        ids = [i for i in by.get(name, ()) if via is None or spans[i].via == via]
        measured = [i for i in ids if _ancestor(spans, i, "bench.setup") is None]
        return measured or ids

    def dur(ids):
        return sum(spans[i].duration for i in ids)

    def attr(ids, key):
        return [spans[i].attrs[key] for i in ids if key in spans[i].attrs]

    v = {}
    sample = idx("posterior.sample_posterior")
    hmc = idx("posterior.run_hmc")
    link_post = idx("model_core.link_apply", "posterior") + idx("model_core.link_deriv", "posterior")
    grad = idx("model_core.link_apply", "posterior")
    v["posterior.sample_s"] = _ratio(dur(sample), len(sample))
    v["posterior.grad_evals"] = _ratio(len(grad), len(sample))
    v["posterior.ms_per_grad_eval"] = _ratio(dur(hmc) * 1e3, len(grad))
    v["posterior.min_ess"] = _mean(attr(sample, "min_ess"))
    v["posterior.ess_per_draw"] = _mean([spans[i].attrs["min_ess"] / spans[i].attrs["M"]
                                         for i in sample if "M" in spans[i].attrs])
    v["posterior.mean_accept"] = _mean(attr(sample, "mean_accept"))
    v["posterior.step_size"] = _mean(attr(sample, "step_size"))

    v["model_core.link_calls.posterior"] = _ratio(len(link_post), len(sample))
    v["model_core.link_s.posterior"] = _ratio(dur(link_post), len(sample))
    v["model_core.link_share.posterior"] = _ratio(dur(link_post), dur(sample))
    # bm_predict's own entry points: batches (busy on every worker) and rows
    link_bm = idx("model_core.link_apply", "bm_predict")
    batches = idx("bm_predict.predict_batch")
    draws_calls = idx("bm_predict.predict_draws")
    busy = sum(spans[i].duration * spans[i].attrs.get("workers", 1) for i in batches)
    entry = batches + draws_calls
    v["model_core.link_calls.bm_predict"] = _ratio(len(link_bm), len(entry))
    v["model_core.link_s.bm_predict"] = _ratio(dur(link_bm), len(entry))
    v["model_core.link_share.bm_predict"] = _ratio(dur(link_bm), busy + dur(draws_calls))

    served = idx("bm_predict.predict_batch_timed", "bm_predict")
    labels = idx("bm_predict.predict_batch", "synth_data")
    small_bm = idx("bm_predict.predict_risk_min", "bm_predict")
    v["bm_predict.batch_s"] = _ratio(dur(served), len(served))
    v["bm_predict.label_rows_per_s"] = _ratio(sum(attr(labels, "rows")), dur(labels))
    v["bm_predict.small_p50_ms"] = _p50_ms([spans[i].duration for i in small_bm])
    v["bm_predict.small_p99_ms"] = _p99_ms([spans[i].duration for i in small_bm])

    gen = idx("synth_data.generate") + idx("synth_data.generate_at")
    saves = idx("synth_data.save_labeled_set")
    v["synth_data.generate_rows_per_s"] = _ratio(sum(attr(gen, "rows")), dur(gen))
    v["synth_data.save_s"] = _ratio(dur(saves), len(saves))
    v["synth_data.bytes_written"] = _mean(attr(saves, "bytes"))

    al = idx("active_learning.al_train")
    train = idx("surrogate.train")
    evals = [i for i in idx("surrogate.eval_loss")
             if _ancestor(spans, i, "surrogate.train") is not None]
    steps = sum(attr(train, "steps"))
    # the serve loop's calls, not the held-out check's
    nn_direct = [i for i in idx("surrogate.predict", "surrogate")
                 if _ancestor(spans, i, "bench.check") is None]
    nn_batch = [i for i in nn_direct if spans[i].attrs.get("rows", 0) > 1]
    nn_small = [i for i in nn_direct if spans[i].attrs.get("rows") == 1]
    v["surrogate.train_s"] = _ratio(dur(train), len(al))
    v["surrogate.epochs"] = _ratio(sum(attr(train, "epochs")), len(al))
    v["surrogate.steps"] = _ratio(steps, len(al))
    v["surrogate.ms_per_step"] = _ratio((dur(train) - dur(evals)) * 1e3, steps)
    v["surrogate.eval_loss_s"] = _ratio(dur(evals), len(al))
    v["surrogate.predict_batch_s"] = _ratio(dur(nn_batch), len(nn_batch))
    v["surrogate.small_p50_ms"] = _p50_ms([spans[i].duration for i in nn_small])
    v["surrogate.small_p99_ms"] = _p99_ms([spans[i].duration for i in nn_small])
    v["surrogate.test_mse"] = _median(measured.test_mse)
    v["surrogate.test_rel_mse"] = _median(measured.test_rel_mse)

    scored = idx("active_learning.uncertainty")
    v["active_learning.al_train_s"] = _ratio(dur(al), len(al))
    v["active_learning.rounds"] = _mean(attr(al, "rounds"))
    v["active_learning.final_rows"] = _mean(attr(al, "final_rows"))
    v["active_learning.score_rows_per_s"] = _ratio(sum(attr(scored, "rows")), dur(scored))
    v["active_learning.acq_entropy_ratio"] = _mean(attr(idx("active_learning.acquisition_probs"), "ratio"))
    v["active_learning.unique_acquired_ratio"] = _mean(attr(idx("active_learning.acquire"), "ratio"))

    for stage in ("fit_bm", "gen_data", "train_al", "predict_nn", "predict_bm"):
        ids = idx(f"cli.{stage}")
        v[f"cli.{stage}_s"] = _ratio(dur(ids), len(ids))
    v["cli.artifact_bytes"] = _mean(measured.artifact_bytes)

    v["trace.overhead_ratio"] = (_ratio(traced_headline - untraced_headline, untraced_headline)
                                 if traced_headline and untraced_headline else None)
    v["trace.span_coverage"] = coverage(spans, *measured.wall)
    return {n: {"value": v[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}


def layer_shares(spans, start: float, end: float) -> dict:
    """Self time of each layer's spans, summed over threads, over the wall time."""
    shares = {}
    for s, own in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + own / (end - start)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
