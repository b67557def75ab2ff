"""Stage-replay tracing: per-layer times measured from outside the library.

The traced run replays each request's stages through the library's public
functions, in the order ``price()`` and the MC estimators run them, and
records a span around each call.  Cached stages (basis, relative moments)
are replayed only when their key is new, as the library's kernel cache
would, so the stage sums add up to the workload's time.  The replay must
reproduce every untraced price bit for bit; a mismatch is reported.

Spans are (name, start_ns, end_ns, parent span id, request id), kept in
memory and written when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: span name -> layer metric it feeds (median of the span durations, in us)
SERIES_STAGES = {"model.m1": "model.m1_us", "model.relmom": "model.relmom_us",
                 "basis.build": "basis.build_us", "pricer.proj": "pricer.proj_us",
                 "pricer.coef": "pricer.coef_us", "pricer.norm": "pricer.norm_us",
                 "pricer.density": "pricer.density_us"}


class Tracer:
    """In-memory span recorder; one request id at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.request)

    def seconds(self, sid: int) -> float:
        """Duration of one finished span."""
        return (self.spans[sid][2] - self.spans[sid][1]) / 1e9

    def durations(self, name: str) -> list:
        """Durations in seconds of every span with this name."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def self_times(self) -> dict:
        """Total self time in seconds per span name."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0 - child[sid]) / 1e9
        return out

    def stage_sum(self, request_span: int) -> float:
        """Seconds covered by the direct children of one request span (its
        children were all recorded after it)."""
        return sum((s[2] - s[1]) / 1e9 for s in self.spans[request_span + 1:]
                   if s[3] == request_span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans}, fh)


def replay_price(tr: Tracer, market, N: int, kernels: dict, builds: list) -> float:
    """The stages of ``asianlns.price(market, N)`` at the default weight.

    ``payoff_coefficients`` is split into its projection and its solve so
    that each layer is timed once; ``kernels`` plays the kernel cache.
    """
    from asianlns import (default_weight, likelihood_coefficients, moments,
                          orthonormal_basis, payoff_norm_sq, scaled_payoff_projections)
    normalized = market.normalized()
    with tr.span("model.m1"):
        m1 = float(moments(normalized, 1, kind="raw").values[1])
    with tr.span("basis.weight"):
        weight = default_weight(normalized, m1)
    key = (market.r, market.sigma, market.T, N, weight.mu, weight.nu)
    if key not in kernels:
        with tr.span("basis.build"):
            basis = orthonormal_basis(weight, N)
        with tr.span("model.relmom"):
            moms = moments(normalized, N, kind="relative", weight=weight)
        kernels[key] = (basis, moms)
        builds.append(basis.jitter > 0.0)
    basis, moms = kernels[key]
    with tr.span("pricer.proj"):
        fbar = scaled_payoff_projections(weight, market.K / market.S0, N)
    with tr.span("pricer.coef"):
        ell = likelihood_coefficients(moms, basis)
        f = math.exp(-market.r * market.T) * market.S0 * basis.solve_scaled(fbar)
        if market.K == 0.0 and N >= 2:
            f[2:] = 0.0
    with tr.span("pricer.norm"):
        payoff_norm_sq(market, weight)
    return float(f @ ell)


def median_us(values) -> float:
    return statistics.median(values) * 1e6 if values else math.nan
