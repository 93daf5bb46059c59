"""Surrogate Forge: fast risk-minimizing prediction for Bayesian regression.

Fit a posterior once, then train a one-pass feed-forward surrogate of the
M-draw Monte Carlo predictor, growing its training set by dropout-based
active learning.
"""

from .active_learning import (
    ALConfig,
    acquire,
    acquisition_probs,
    al_train,
    calibration_data,
    min_final_dataset_size,
    train_new,
    uncertainty,
)
from .bench import (
    BenchConfig,
    BenchReport,
    EffectCurve,
    InvarianceConfig,
    crossover,
    effect_curve,
    make_weak_truth,
    run_invariance_suite,
    run_speed_sweep,
    timing_regression,
)
from .bm_predict import (
    predict_batch,
    predict_batch_timed,
    predict_draws,
    predict_risk_min,
)
from .config import ConfigError, RunConfig, load_config
from .model_core import (
    ModelSpec,
    ParamDraw,
    eval_mean,
    eval_mean_batch,
    generate_observed,
    link_apply,
    link_deriv,
    sample_ground_truth,
)
from .posterior import (
    PosteriorDraws,
    SamplerConfig,
    SamplerInitError,
    analytic_conjugate_posterior,
    effective_sample_size,
    load_posterior,
    run_hmc,
    sample_posterior,
    save_posterior,
)
from .seeds import substream
from .surrogate import (
    NetConfig,
    SurrogateNet,
    TrainingDiverged,
    grad_check,
    init_net,
    load_net,
    mc_dropout_predict,
    predict,
    save_net,
    smooth_l1,
    smooth_l1_grad,
    train,
)
from .synth_data import (
    DataGenConfig,
    LabeledSet,
    generate,
    generate_at,
    load_labeled_set,
    save_labeled_set,
)

__version__ = "0.1.0"
