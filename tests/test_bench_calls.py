"""The library calls that ``perfbench/`` makes, with the arguments it makes
them with.

``perfbench/tracing.py`` is loaded read-only from its file: its
``replay_price`` re-runs the stages of ``price`` through the public names
and must reproduce every price bit for bit, and the benchmark's MC
requests call the estimators below on ``McConfig(paths=, dt=, seed=)``.
A library change that breaks the benchmark's traced run fails here.
"""

import random

import numpy as np
import pytest

import asianlns as lib

from oracles import load_perfbench


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


def test_replay_price_reproduces_price(tracing, cases):
    markets = list(cases.values()) + [lib.MarketParams(0.05, 0.3, 1.0, 2.0, 0.0)]
    for m in markets:
        for N in (0, 5, 10, 15, 20, 40):
            replayed = tracing.replay_price(tracing.Tracer(), m, N, {}, [])
            assert replayed == lib.price(m, N).price, (m, N)


def test_mc_calls(cases):
    # the markets go in as (r, sigma, T, S0, K) tuples, the seed as 32 random bits
    market = lib.MarketParams(*(cases[5].r, cases[5].sigma, cases[5].T,
                                cases[5].S0, cases[5].K))
    norm = market.normalized()
    weight = lib.price(norm, 20).weight
    grid = np.linspace(0.8, 1.3, 7)
    assert lib.McConfig().batches >= 1
    cfg = lib.McConfig(paths=512, dt=0.05, seed=random.Random(3).getrandbits(32))

    assert np.isfinite(lib.price_cv(market, cfg).value)
    sims = [lib.simulate(norm, cfg, stream=s) for s in (0, 1)]
    assert all(s.n == cfg.paths for s in sims)
    est = lib.density_cv(norm, cfg, grid)
    assert est.value.shape == est.std_error.shape == est.variance_reduction.shape == grid.shape
    for tilde in (False, True):
        assert np.isfinite(lib.likelihood_norm_sq(norm, cfg, weight,
                                                  tilde_from_weight=tilde).value)
    assert lib.price(market, 20).density()(grid).shape == grid.shape
