"""Command-line pipeline orchestrator.

Subcommands: fit-bm, gen-data, train [--al], predict [--engine bm|nn],
bench <speed|calibration|invariance|crossover>. Exit codes:
0 ok, 2 config, 3 sampler, 4 training, 5 missing artifact or one from
another run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .active_learning import al_train, calibration_data, train_new, write_history_csv
from .bm_predict import predict_batch_timed
from .config import ConfigError, RunConfig, load_config
from .model_core import generate_observed, sample_ground_truth
from .posterior import SamplerInitError, load_posterior, sample_posterior, save_posterior
from .seeds import substream
from .serialize import (ArtifactError, export_predictions_csv, read_manifest, write_csv,
                        write_manifest)
from .surrogate import TrainingDiverged, load_net, predict, save_net
from .synth_data import LabeledSet, generate, load_labeled_set, save_labeled_set

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SAMPLER = 3
EXIT_TRAINING = 4
EXIT_MISSING = 5


def _posterior_paths(cfg: RunConfig) -> tuple[Path, Path]:
    d = cfg.artifacts / "posterior"
    return d / "manifest.json", d / "draws.f64"


def _net_paths(cfg: RunConfig) -> tuple[Path, Path]:
    d = cfg.artifacts / "net"
    return d / "manifest.json", d / "params.f64"


def _fit_bm(cfg: RunConfig) -> None:
    spec = cfg.spec
    truth = sample_ground_truth(spec, substream(cfg.seed, "bm-truth"),
                                sigma2=cfg.truth_sigma2)
    X, y = generate_observed(spec, truth, cfg.n_observed,
                             substream(cfg.seed, "bm-data"))
    draws = sample_posterior(spec, X, y, cfg.sampler)
    man, blob = _posterior_paths(cfg)
    save_posterior(draws, man, blob)
    diag = dict(draws.diagnostics)
    diag["ess"] = [float(v) for v in diag.get("ess", [])]
    write_manifest(man.parent / "diagnostics.json", "sampler_diagnostics", diag)
    write_manifest(man.parent / "truth.json", "ground_truth", {
        "alpha": list(truth.alpha), "beta": list(truth.beta),
        "gamma": truth.gamma, "sigma2": truth.sigma2,
        "J": spec.J, "link": spec.link, "n_observed": cfg.n_observed,
    })
    print(f"posterior: {len(draws)} draws -> {man.parent}")
    for w in draws.diagnostics.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)


def _posterior(cfg: RunConfig, auto: bool):
    """The stored draws and the sha256 of their blob, which names them in the
    set and net manifests; fitted first under --auto when missing."""
    man, blob = _posterior_paths(cfg)
    if not man.exists() or not blob.exists():
        if not auto:
            raise ArtifactError(
                f"posterior artifact missing under {man.parent} (run fit-bm or pass --auto)")
        _fit_bm(cfg)
    draws = load_posterior(man, blob, cfg.spec)
    return draws, hashlib.sha256(blob.read_bytes()).hexdigest()


def _labeled_set(cfg: RunConfig, draws, digest: str, relabel: bool = False) -> LabeledSet:
    """The datagen set under data/, refused unless these draws labelled it
    under these datagen fields; labelled and stored first when missing, or
    always when relabel is set."""
    data_dir = cfg.artifacts / "data"
    if not relabel and (data_dir / "manifest.json").exists():
        try:
            return load_labeled_set(data_dir, {**dataclasses.asdict(cfg.datagen),
                                               "posterior_sha256": digest})
        except ArtifactError as err:
            raise ArtifactError(f"{err}; re-run gen-data") from err
    ls = generate(cfg.spec, draws, cfg.datagen, cfg.threads)
    save_labeled_set(ls, data_dir, cfg.datagen, digest)
    print(f"labeled set: {len(ls)} rows -> {data_dir}")
    return ls


def _net(cfg: RunConfig, auto: bool, posterior: tuple | None = None):
    """The stored net, refused unless it reads J inputs and, when the caller
    holds the posterior's (draws, digest), was trained on that posterior;
    trained first under --auto when missing."""
    man, blob = _net_paths(cfg)
    if not man.exists() or not blob.exists():
        if not auto:
            raise ArtifactError(
                f"net artifact missing under {man.parent} (run train or pass --auto)")
        _train(cfg, False, auto, posterior)
    try:
        net = load_net(man, blob, None if posterior is None
                       else {"posterior_sha256": posterior[1]})
        if net.config.input_dim != cfg.spec.J:
            raise ArtifactError(f"stored net expects {net.config.input_dim} inputs, "
                                f"model has J={cfg.spec.J}")
    except ArtifactError as err:
        raise ArtifactError(f"{err}; re-run train") from err
    return net


def _train(cfg: RunConfig, use_al: bool, auto: bool, posterior: tuple | None = None) -> None:
    """Train and store the net and its history on the caller's (draws, digest), if any."""
    draws, digest = posterior or _posterior(cfg, auto)
    spec = cfg.spec
    net_cfg = dataclasses.replace(cfg.net, output_dim=len(draws))
    man, blob = _net_paths(cfg)
    hist_path = man.parent / "history.csv"
    if use_al:
        net, records = al_train(spec, draws, cfg.al, net_cfg, cfg.threads)
        save_net(net, man, blob, digest)
        write_history_csv(records, hist_path)
        print(f"al training: {records[-1].round} rounds, "
              f"final |D^NN| = {records[-1].dataset_size}, "
              f"best val loss = {min(r.val_loss for r in records):.6g}")
    else:
        train_set = _labeled_set(cfg, draws, digest)
        net, hist, _ = train_new(spec, draws, train_set, net_cfg, cfg.al,
                                 threads=cfg.threads)
        save_net(net, man, blob, digest)
        write_csv(hist_path, {"epoch": np.arange(1, len(hist.train_loss) + 1),
                              "train_loss": hist.train_loss, "val_loss": hist.val_loss})
        print(f"training: {hist.epochs_run} epochs, dataset size {len(train_set)}, "
              f"best val loss = {hist.best_val_loss:.6g}")
    print(f"net -> {man.parent}")


def _predict(cfg: RunConfig, engine: str, mode: str, x_csv, auto: bool) -> None:
    posterior = None
    if x_csv is not None:
        with warnings.catch_warnings():
            # a header-only file is reported below as having no rows
            warnings.simplefilter("ignore", UserWarning)
            try:
                X = np.loadtxt(x_csv, delimiter=",", skiprows=1, ndmin=2)
            except ValueError as e:
                raise ConfigError(f"cannot read input rows from {x_csv}: {e}") from e
    else:
        posterior = _posterior(cfg, auto)
        X = _labeled_set(cfg, *posterior).X
    if X.ndim != 2 or X.shape[0] == 0:
        raise ConfigError(f"input has no rows (shape {X.shape})")
    if X.shape[1] != cfg.spec.J:
        raise ConfigError(f"model expects {cfg.spec.J} columns, input has {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ConfigError("input holds non-finite values")
    out_path = cfg.artifacts / "predictions.csv"
    if engine == "bm":
        draws, _ = posterior or _posterior(cfg, auto)
        result = predict_batch_timed(cfg.spec, draws, X, cfg.threads,
                                     mode="risk_min" if mode == "mean" else "draws")
        preds = result.predictions
        print(f"bm prediction: {X.shape[0]} rows in {result.wall_time:.3f}s "
              f"on {result.threads_used} threads")
    else:
        # rows from data/ name a posterior, which the net must match too
        net = _net(cfg, auto, posterior)
        preds = predict(net, X)
        if mode == "mean":
            preds = preds.mean(axis=1)
        print(f"nn prediction: {X.shape[0]} rows")
    export_predictions_csv(out_path, X, preds)
    print(f"predictions -> {out_path}")


def _merge_report(cfg: RunConfig, key: str, payload) -> Path:
    out = cfg.artifacts / "bench" / "report.json"
    doc = {}
    if out.exists():
        doc = read_manifest(out, "bench_report", ())
        doc.pop("format_version")
        doc.pop("kind")
    doc[key] = payload
    write_manifest(out, "bench_report", doc)
    return out


def _bench_speed(cfg: RunConfig) -> None:
    b = cfg.bench
    sampler = dataclasses.replace(cfg.sampler, warmup=b.warmup)
    report = bench_mod.run_speed_sweep(
        b.J_list, b.M, b.N_test, cfg.net, cfg.al, seed=cfg.seed,
        threads=cfg.threads, reps=b.reps, n_observed=cfg.n_observed,
        sampler=sampler, model=cfg.spec, truth_sigma2=cfg.truth_sigma2)
    write_csv(cfg.artifacts / "bench" / "speed_sweep.csv",
              {name: [r[key] for r in report.rows] for name, key in (
                  ("J", "J"), ("bm_time_s", "bm_time_s"), ("nn_time_s", "nn_time_s"),
                  ("test_mse", "test_mse"), ("dataset_size", "final_dataset_size"))})
    fit = bench_mod.timing_regression(report)
    path = _merge_report(cfg, "speed", {"rows": report.rows, "env": report.env,
                                        "bm_linear_fit": fit})
    for r in report.rows:
        print(f"J={r['J']:>3}  bm {r['bm_time_s']:.4f}s  nn {r['nn_time_s']:.4f}s  "
              f"mse {r['test_mse']:.3e}  |D^NN| {r['final_dataset_size']}")
    print(f"bm time ~ J: slope {fit['slope']:.5f} s/J, R^2 {fit['r2']:.4f}")
    print(f"report -> {path}")


def _bench_calibration(cfg: RunConfig, auto: bool) -> None:
    from scipy.stats import spearmanr

    posterior = _posterior(cfg, auto)
    net = _net(cfg, auto, posterior)
    b = cfg.bench
    pool_rng = substream(cfg.seed, "calibration-pool")
    X_pool = pool_rng.random((b.calibration_pool, cfg.spec.J))
    sigma, mu_rmse = calibration_data(net, cfg.spec, posterior[0], X_pool,
                                      cfg.al.K, substream(cfg.seed, "al-score"),
                                      cfg.threads)
    write_csv(cfg.artifacts / "bench" / "calibration.csv", {"sigma": sigma, "mu_rmse": mu_rmse})
    rho = float(spearmanr(sigma, mu_rmse).statistic)
    path = _merge_report(cfg, "calibration", {
        "pool_size": int(X_pool.shape[0]), "K": cfg.al.K, "spearman": rho})
    print(f"calibration: spearman(sigma, mu_rmse) = {rho:.4f} "
          f"over {X_pool.shape[0]} pool rows")
    print(f"report -> {path}")


def _bench_invariance(cfg: RunConfig, auto: bool) -> None:
    draws, _ = _posterior(cfg, auto)
    net_cfg = dataclasses.replace(cfg.net, output_dim=len(draws))
    result = bench_mod.run_invariance_suite(cfg.spec, draws, cfg.invariance, net_cfg,
                                            out_dir=cfg.artifacts / "bench",
                                            threads=cfg.threads)
    summary = {f"tau{t:g}|{mode}" + (f"|c{c:g}" if c is not None else ""): v
               for (t, mode, c), v in result.summary.items()}
    path = _merge_report(cfg, "invariance", {"max_abs_deviation": summary,
                                             "files": result.files})
    for key in sorted(summary):
        print(f"{key}: max |net - bm| = {summary[key]:.5f}")
    print(f"report -> {path}")


def main(argv=None) -> int:
    # Global flags are accepted both before and after the subcommand; the
    # subparser copies default to SUPPRESS so they only override when given.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a JSON run configuration")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="root seed override")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="worker thread count")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="artifact directory override")
    common.add_argument("--auto", action="store_true", default=argparse.SUPPRESS,
                        help="fit a missing posterior and train a missing net "
                             "instead of failing")

    parser = argparse.ArgumentParser(
        prog="surrogate-forge",
        description="Approximate a Bayesian regression model's risk-minimizing "
                    "predictions with a feed-forward surrogate.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fit-bm", parents=[common],
                   help="sample the posterior and store it")
    sub.add_parser("gen-data", parents=[common],
                   help="synthesize a labeled surrogate training set")
    p_train = sub.add_parser("train", parents=[common],
                             help="train the surrogate; without --al on the labeled set in "
                                  "data/, labelling and storing it first if it is missing")
    p_train.add_argument("--al", action="store_true",
                         help="grow the training set by active learning")
    p_pred = sub.add_parser("predict", parents=[common],
                            help="predict with either engine on --x-csv rows or else on "
                                 "the labeled set in data/, labelling it first if missing")
    p_pred.add_argument("--engine", choices=("bm", "nn"), default="nn")
    p_pred.add_argument("--mode", choices=("mean", "draws"), default="mean")
    p_pred.add_argument("--x-csv", help="CSV of input rows (header + J columns)")
    p_bench = sub.add_parser("bench", parents=[common],
                             help="run a benchmark suite")
    p_bench.add_argument("suite", choices=("speed", "calibration", "invariance",
                                           "crossover"))
    p_bench.add_argument("--kappa", type=int, default=20000)
    p_bench.add_argument("--m", type=int, default=2000)

    args = parser.parse_args(argv)
    # Flags left at SUPPRESS (not given in either position) need their
    # real defaults; set_defaults would leak onto the shared parent actions.
    for name, default in (("config", None), ("seed", None), ("threads", None),
                          ("out", None), ("auto", False)):
        if not hasattr(args, name):
            setattr(args, name, default)

    try:
        if args.command == "bench" and args.suite == "crossover":
            try:
                print(bench_mod.crossover(args.kappa, args.m))
            except ValueError as e:
                raise ConfigError(str(e)) from e
            return EXIT_OK
        cfg = load_config(args.config, seed=args.seed, threads=args.threads,
                          out=args.out)
        if args.command == "fit-bm":
            _fit_bm(cfg)
        elif args.command == "gen-data":
            _labeled_set(cfg, *_posterior(cfg, args.auto), relabel=True)
        elif args.command == "train":
            _train(cfg, args.al, args.auto)
        elif args.command == "predict":
            _predict(cfg, args.engine, args.mode, args.x_csv, args.auto)
        elif args.command == "bench" and args.suite == "speed":
            _bench_speed(cfg)
        elif args.command == "bench" and args.suite == "calibration":
            _bench_calibration(cfg, args.auto)
        elif args.command == "bench" and args.suite == "invariance":
            _bench_invariance(cfg, args.auto)
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SamplerInitError as e:
        print(f"sampler error: {e}", file=sys.stderr)
        return EXIT_SAMPLER
    except TrainingDiverged as e:
        print(f"training error: {e}", file=sys.stderr)
        return EXIT_TRAINING
    except (ArtifactError, FileNotFoundError) as e:
        print(f"artifact error: {e}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
