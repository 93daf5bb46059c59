"""Hand-buildable posterior draw sets, and the J-sum order in pure Python,
shared by the test modules.

Kept out of conftest.py so that test modules can import them by a name no
other conftest on the path shadows.
"""

import numpy as np

from surrogate_forge import ModelSpec, ParamDraw, PosteriorDraws


def make_draws(spec: ModelSpec, M: int, seed: int = 0) -> PosteriorDraws:
    """M independent parameter vectors drawn from the truth ranges."""
    rng = np.random.default_rng(seed)
    return PosteriorDraws(
        spec,
        rng.uniform(0.3, 3.0, size=(M, spec.J)),
        rng.uniform(0.1, 1.0, size=(M, spec.J)),
        rng.uniform(-0.5, 0.5, size=M),
        rng.uniform(0.005, 0.05, size=M),
    )


def tile_draws(spec: ModelSpec, draw: ParamDraw, M: int) -> PosteriorDraws:
    """Degenerate posterior: every one of the M draws equals `draw`."""
    return PosteriorDraws(
        spec,
        np.tile(draw.alpha, (M, 1)),
        np.tile(draw.beta, (M, 1)),
        np.full(M, draw.gamma),
        np.full(M, draw.sigma2),
    )


def halving_sum(values) -> float:
    """The sum model_core.sum_terms computes, one Python float at a time:
    with h = n // 2 the last h values are added onto the first h, until one
    is left."""
    v = [float(a) for a in values]
    n = len(v)
    while n > 1:
        h = n // 2
        for k in range(h):
            v[k] += v[n - h + k]
        n -= h
    return v[0]
