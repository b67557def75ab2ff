"""Benchmark of the asianlns series pricer and its Monte-Carlo engine.

Run from the repository root:

    python3 perfbench/run.py --workload series_cold --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for why each exists): series_cold, series_warm,
mc_price, mc_density.  Each is a closed loop with one client in this
process, timed for ``--seconds`` in slices; every result is checked
against an independent reference (the high-precision series oracle, or the
published fixture values) between the slices, outside the timed regions.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every request also runs as a replay of its stages
through the library's public functions, with a span around each call and
the plain call next to it, and the last line carries the per-layer
metrics; the spans are written to .perfbench/.  Lines before the last
print the per-workload metrics with units and sample counts (median and
tail latency, throughput, series error, MC efficiency, failed/attempted
ops), the failures, the drawn input ranges and the host facts; a traced
run adds the self time per layer, the tracing overhead, and per layer
metric its unit and the end-to-end metric it should move.

``failed`` counts the ops that raised, returned a non-finite value, or
missed their reference outside the fixed set of known defects
(``known_defect``), and ``correct`` is false when there is one.  Tolerance
misses inside that set are known misses: they are printed with their count
and in ``fail_frac``, which counts every missed op, but they are not
failures, so ``failed`` does not grow with the number of ops a run does.

Exit status 0 after a run, 2 when the library sources are missing.

The library's own default threading is what gets measured: ASIANLNS_THREADS
is removed from the environment (its value is recorded), and warning
filters are left at the interpreter's defaults.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import sys
import time
from collections import OrderedDict, namedtuple
from pathlib import Path

import numpy as np

from measure import (THREADS_ENV_VAR, Ledger, host_facts, peak_rss_mb, setup_time,
                     summarize)
from oracle import SeriesOracle, half_unit, load_fixture
from tracing import SERIES_STAGES, Tracer, median_us, replay_price
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: series prices must be within this of the oracle at S0 = 2 (the README's
#: acceptance tolerance); it scales with S0
PRICE_TOL = 2e-4
#: series densities (and the MC density beyond its noise) must be within
#: this share of the oracle density's peak
DENSITY_TOL = 1e-3
#: MC checks: standard errors allowed.  The integration-by-parts weights
#: are heavy-tailed, so |z| is not quite normal: over 300 seeded density
#: grids the largest central |z| was 4.7, and one in about 400 reached 5.6
MC_Z = 6.0
#: MC densities are checked within this many sds of log Q_T of the centre
MC_CENTRAL = 2.5
#: The fixed set of known defects: ops whose tolerance misses are counted
#: as known misses (in ``fail_frac``, not in ``failed``) and leave the run
#: correct.  At the seed every miss falls
#: in it; any miss outside it makes the run incorrect.
#: - case 3 at N = 20, which prices 0.174194 against the series' own 0.172255;
#: - drawn markets with tau = sigma^2 T below KNOWN_TAU, at every order: the
#:   scaled Gram matrix loses degrees to rounding there, and 0.2-0.5% of
#:   the prices miss (of 13500 drawn prices, the missing tau reached 0.164);
#: - the series densities of cases 1-3 (tau 0.01 to 0.125), for the same
#:   reason.
KNOWN_TAU = 0.2
KNOWN_DENSITY_CASES = (1, 2, 3)
#: --seconds are timed in this many slices, at least SLICE_GAP seconds
#: apart.  The gap holds the slice's checks, a set-up probe, and side-probe
#: batches (workloads.side_probes) SIDE_TICK seconds apart until the gap's
#: time is used, at least SIDE_MIN_BATCHES of them.  The set-up probes run
#: once before the first slice and once per gap, and the side probes in
#: every gap, so both sample the whole run.
#: A shared host's speed swings by up to 2x for seconds at a
#: time; spreading the timed seconds over a longer window averages over
#: more of those swings (measured: the run-to-run spread of throughput on
#: series_cold, whose checks take 2-3x its timed seconds, was 0.13 against
#: 0.2 for workloads timed in one stretch).
SLICES = 5
SLICE_GAP = 3.0
SIDE_TICK = 0.2
SIDE_MIN_BATCHES = 2
#: per-layer probes for workloads that do not run a layer themselves:
#: series prices, and MC calls at PROBE_PATHS paths
PROBE_PRICES = 9
PROBE_MC_CALLS = 3
PROBE_PATHS = 4096


Priced = namedtuple("Priced", "price weight")


class Harness:
    """Builds the library inputs for each request and runs the library call."""

    def __init__(self, workload: str, seed: int, fixture: dict):
        import asianlns
        self.lib = asianlns
        self.workload = workload
        self.stream = wl.STREAMS[workload](seed, fixture)
        self.approx = {}
        self.weights = {}
        if workload == "mc_density":
            for c in wl.MC_DENSITY_CASES:
                m = wl.normalized(wl.case_markets(fixture)[c])
                self.weights[c] = asianlns.price(asianlns.MarketParams(*m), 20).weight

    def mc_config(self, req):
        dt = wl.MC_PRICE_DT if req.kind == "mc_price" else wl.MC_DENSITY_DT
        return self.lib.McConfig(paths=wl.MC_PATHS, dt=dt, seed=req.mc_seed)

    def prepare(self, req):
        if req.kind == "density":
            return self.approx.get(req.case)
        if req.parts:
            return [(self.lib.MarketParams(*p.market), self.mc_config(p)) for p in req.parts]
        market = self.lib.MarketParams(*req.market)
        if req.kind == "price":
            return market
        return market, self.mc_config(req)

    def execute(self, req, args):
        lib = self.lib
        if req.kind == "price":
            return lib.price(args, req.N)
        if req.kind == "density":
            if args is None:
                raise RuntimeError(f"no price of case {req.case} to take a density from")
            return args.density()(req.grid)
        if req.kind == "mc_price":
            return lib.price_cv(*args)
        out = []
        for part, (market, cfg) in zip(req.parts, args):
            w = self.weights[part.case]
            out.append((lib.density_cv(market, cfg, part.grid),
                        lib.likelihood_norm_sq(market, cfg, w),
                        lib.likelihood_norm_sq(market, cfg, w, tilde_from_weight=True)))
        return out

    def after(self, req, result):
        """Keep what the checks need: a price keeps its value and weight
        only, so the run's memory does not grow with its length."""
        if req.kind != "price" or isinstance(result, BaseException):
            return result
        if req.case is not None:
            self.approx[req.case] = result
        return Priced(result.price, result.weight)

    def warm_up(self, fixture: dict) -> None:
        """First calls outside the stream's keys: lazy imports, first-call
        allocations.  Series warm-up uses N = 5, which no request uses."""
        lib = self.lib
        market = lib.MarketParams(*wl.case_markets(fixture)[5])
        if self.workload.startswith("series"):
            lib.price(market, 5).density()(wl.density_grid(wl.case_markets(fixture)[5]))
        else:
            cfg = lib.McConfig(paths=256, dt=0.05, seed=0)
            lib.price_cv(market, cfg)
            norm = lib.MarketParams(*wl.normalized(wl.case_markets(fixture)[5]))
            lib.density_cv(norm, cfg, np.array([1.0]))


def slice_done(records: list, start: float, seconds: float, last: bool) -> bool:
    """A slice ends once its seconds are up; the last one also finishes the
    pass it is in, so that every run covers whole passes."""
    return bool(records) and time.perf_counter() - start >= seconds \
        and (records[-1][0].pass_end or not last)


def run_one(h: Harness, req) -> tuple:
    """(request, args, latency_s, result or exception) of one request."""
    args = h.prepare(req)
    t0 = time.perf_counter()
    try:
        res = h.execute(req, args)
    except Exception as exc:  # a failed op is counted; the loop goes on
        res = exc
    dt = time.perf_counter() - t0
    return req, args, dt, h.after(req, res)


def timed_loop(h: Harness, seconds: float, last: bool = True) -> list:
    """Closed loop for ``seconds``: one record of run_one per request."""
    records = []
    start = time.perf_counter()
    while not slice_done(records, start, seconds, last):
        records.append(run_one(h, next(h.stream)))
    return records


def clear_kernel_cache(lib) -> None:
    """Drop the library's cached kernels, where it has a cache."""
    clear = getattr(getattr(lib, "pricer", None), "clear_kernel_cache", None)
    if clear is not None:
        clear()


def run_side_probes(h: Harness, batches, until: float, last: bool) -> list:
    """Side-probe batches, SIDE_TICK seconds apart, until ``until`` (after
    the last slice, only the minimum).  The kernel cache is cleared after
    each batch that priced, so that it leaves no key warm for the
    workload's own requests."""
    records = []
    for n in itertools.count(1):
        reqs = next(batches)
        records += [run_one(h, req) for req in reqs]
        if any(req.kind == "price" for req in reqs):
            clear_kernel_cache(h.lib)
        left = until - time.perf_counter()
        if n >= SIDE_MIN_BATCHES and (last or left <= 0):
            return records
        time.sleep(min(max(left, 0.0), SIDE_TICK))


class References:
    """Oracle objects and fixture values, computed outside timed regions."""

    def __init__(self, fixture: dict):
        self.fixture = fixture
        self.weights = {}           # mc_density: case -> the library's weight
        self._oracles = OrderedDict()
        self._densities = {}

    def oracle(self, market: tuple, weight) -> SeriesOracle:
        """The oracle of one (r, sigma, T, weight); the few most recent are
        kept, which covers the requests of a market (they are adjacent)."""
        r, sigma, T = market[:3]
        key = (r, sigma, T, weight.mu, weight.nu)
        if key in self._oracles:
            self._oracles.move_to_end(key)
        else:
            self._oracles[key] = SeriesOracle(r, sigma, T, weight.mu, weight.nu)
            if len(self._oracles) > 64:
                self._oracles.popitem(last=False)
        return self._oracles[key]

    def density(self, market: tuple, weight, grid) -> np.ndarray:
        key = (market[:3], weight.mu, weight.nu, grid.tobytes())
        if key not in self._densities:
            self._densities[key] = np.array(self.oracle(market, weight).density(grid, 20))
        return self._densities[key]


def known_defect(req) -> bool:
    """Whether a series request is in the known-defect set."""
    if req.kind == "price":
        if req.case is None:
            r, sigma, T = req.market[:3]
            return sigma * sigma * T < KNOWN_TAU
        return req.case == 3 and req.N == 20
    return req.kind == "density" and req.case in KNOWN_DENSITY_CASES


def density_error(g, ref) -> float:
    return float(np.max(np.abs(np.asarray(g) - ref)) / np.max(np.abs(ref)))


def check(records: list, refs: References, ledger: Ledger) -> list:
    """Check every op; returns the MC efficiency 1/(se^2 t) of each
    price_cv call."""
    efficiency = []
    for req, args, dt, res in records:
        tag = f"case={req.case} market={req.market} N={req.N}"
        if req.kind == "price":
            ledger.check("price", res, lambda a: abs(
                a.price - refs.oracle(req.market, a.weight).price(req.market[3], req.market[4],
                                                                  req.N)),
                PRICE_TOL * req.market[3] / 2.0, tag, known_defect(req))
        elif req.kind == "density":
            ledger.check("series_density", res, lambda g: density_error(
                g, refs.density(req.market, args.weight, req.grid)), DENSITY_TOL, tag,
                known_defect(req))
        elif req.kind == "mc_price":
            row = refs.fixture[req.case]
            h = half_unit(row["ee"])
            ledger.check("mc_price", res, lambda e: max(abs(e.value - row["ee"]) - h, 0.0)
                         / e.std_error, MC_Z, tag + f" seed={req.mc_seed}")
            if not isinstance(res, BaseException) and res.std_error > 0:
                efficiency.append(1.0 / (res.std_error ** 2 * dt))
        else:
            for i, part in enumerate(req.parts):
                trio = res if isinstance(res, BaseException) else res[i]
                check_mc_density(part, trio, refs, ledger,
                                 f"case={part.case} seed={part.mc_seed}")
    return efficiency


def check_mc_density(req, res, refs: References, ledger: Ledger, tag: str) -> None:
    """Three ops: the density grid against the oracle series density, the
    likelihood norm against its Bessel lower bound sum ell_n^2, and the
    unit-mass self-test.

    The density is compared on the central grid points, |z| <= MC_CENTRAL
    sds of log Q_T: beyond them so few paths cross x that the per-point
    standard error is no longer a noise scale (it can be exactly zero).
    """
    if isinstance(res, BaseException):
        for name in ("mc_density", "likelihood_norm", "unit_mass"):
            ledger.check(name, res, None, 0.0, tag)
        return
    dens, norm, unit = res
    weight = refs.weights[req.case]
    g = refs.density(req.market, weight, req.grid)
    peak = float(np.max(np.abs(g)))
    central = np.abs(np.linspace(-wl.GRID_SDS, wl.GRID_SDS, len(g))) <= MC_CENTRAL
    ledger.check("mc_density", dens, lambda d: float(np.max(np.maximum(
        np.abs(d.value - g) - MC_Z * d.std_error, 0.0)[central])) / peak, DENSITY_TOL, tag)
    bound = refs.oracle(req.market, weight).likelihood_norm_sq(20)
    ledger.check("likelihood_norm", norm, lambda e: max(bound - e.value, 0.0) / e.std_error,
                 MC_Z, tag)
    ledger.check("unit_mass", unit, lambda e: abs(e.value - 1.0) / e.std_error, MC_Z, tag)


def mc_steps(T: float, dt: float) -> int:
    """Time steps the MC engine takes for expiry T at step dt."""
    return max(1, round(T / dt))


# -- traced replay ---------------------------------------------------------
def replay_one(h: Harness, tr: Tracer, req, args, kernels: dict, builds: list):
    """One request's stages, each in a span under a 'request' span.
    Returns (request span id, replayed price or None, MC path seconds,
    MC stream-0 seconds, MC stream-0 path-steps)."""
    lib = h.lib
    p, t_path, t_stream0, path_steps = None, 0.0, 0.0, 0
    with tr.span("request") as sid:
        if req.kind == "price":
            p = replay_price(tr, args, req.N, kernels, builds)
        elif req.kind == "density":
            with tr.span("pricer.density"):
                args.density()(req.grid)
        elif req.kind == "mc_price":
            with tr.span("mc.estimator"):
                lib.price_cv(*args)
        else:
            for part, (market, cfg) in zip(req.parts, args):
                w = h.weights[part.case]
                with tr.span("mc.estimator"):
                    lib.density_cv(market, cfg, part.grid)
                    lib.likelihood_norm_sq(market, cfg, w)
                    lib.likelihood_norm_sq(market, cfg, w, tilde_from_weight=True)
    if req.kind.startswith("mc"):
        # path generation is timed on its own, outside the request span;
        # mc_density draws stream 0 for each of its three estimators and
        # stream 1 for the second sample of likelihood_norm_sq
        for market, cfg in ([args] if req.kind == "mc_price" else args):
            with tr.span("mc.path") as p0:
                lib.simulate(market, cfg, stream=0)
            path_steps += cfg.paths * mc_steps(market.T, cfg.dt)
            t0 = tr.seconds(p0)
            t_stream0 += t0
            t_path += t0
            if req.kind == "mc_density":
                with tr.span("mc.path") as p1:
                    lib.simulate(market, cfg, stream=1)
                t_path += 2 * t0 + tr.seconds(p1)
    return sid, p, t_path, t_stream0, path_steps


def try_replay(h: Harness, tr: Tracer, req, args, kernels: dict, builds: list):
    try:
        return replay_one(h, tr, req, args, kernels, builds)
    except Exception:  # the plain call fails the same way and is counted there
        return None


def replay_state() -> dict:
    """What the traced loop accumulates over a run."""
    return {"kernels": {}, "builds": [], "unattributed": [], "path_ns": [], "reduce": [],
            "path_s": 0.0, "mismatch": 0, "untraced": 0.0, "traced": 0.0, "requests": 0}


def traced_loop(h: Harness, tr: Tracer, seconds: float, rep: dict, last: bool = True) -> list:
    """Closed loop for ``seconds`` in which every request runs twice, traced
    replay and plain call, in alternating order, so that both see the same
    machine state.  The plain calls give the checked results; the pairs
    give the tracing overhead and the library's unattributed time."""
    records = []
    kernels, builds = rep["kernels"], rep["builds"]
    start = time.perf_counter()
    while not slice_done(records, start, seconds, last):
        req = next(h.stream)
        args = h.prepare(req)
        tr.request = rep["requests"]
        rep["requests"] += 1
        traced_first = tr.request % 2 == 0
        if traced_first:
            replayed = try_replay(h, tr, req, args, kernels, builds)
        t0 = time.perf_counter()
        try:
            res = h.execute(req, args)
        except Exception as exc:  # a failed op is counted; the loop goes on
            res = exc
        dt = time.perf_counter() - t0
        res = h.after(req, res)
        records.append((req, args, dt, res))
        if not traced_first:
            replayed = try_replay(h, tr, req, args, kernels, builds)
        if replayed is None:
            continue
        sid, p, t_path, t_stream0, path_steps = replayed
        rep["untraced"] += dt
        rep["traced"] += tr.seconds(sid)
        if req.kind == "price":
            rep["unattributed"].append(dt - tr.stage_sum(sid))
            rep["mismatch"] += isinstance(res, BaseException) or p != res.price
        elif path_steps:
            rep["path_ns"].append(t_stream0 * 1e9 / path_steps)
            rep["path_s"] += t_path
            rep["reduce"].append(tr.seconds(sid) - t_path)
    tr.request = None
    return records


def probe_series(h: Harness, market: tuple, grid) -> dict:
    """Per-call series stage times at one market, for workloads whose own
    requests do not run those stages (each stage called directly, cold).
    Replay and plain call alternate in order, as in traced_loop."""
    lib, tr, builds, unattributed = h.lib, Tracer(), [], []
    m = lib.MarketParams(*market)

    def plain():
        clear_kernel_cache(lib)
        t0 = time.perf_counter()
        return lib.price(m, 20), time.perf_counter() - t0

    for i in range(PROBE_PRICES):
        if i % 2:
            approx, dt = plain()
        with tr.span("request") as sid:
            replay_price(tr, m, 20, {}, builds)
        if not i % 2:
            approx, dt = plain()
        unattributed.append(dt - tr.stage_sum(sid))
        with tr.span("pricer.density"):
            approx.density()(grid)
    return {"tracer": tr, "builds": builds, "unattributed": unattributed}


def probe_mc(h: Harness, market: tuple) -> dict:
    """MC path and reduction cost at one market, for workloads that do not
    run the MC engine."""
    lib = h.lib
    m = lib.MarketParams(*market)
    cfg = lib.McConfig(paths=PROBE_PATHS, dt=wl.MC_PRICE_DT, seed=1)
    path_ns, reduce = [], []
    for _ in range(PROBE_MC_CALLS):
        t0 = time.perf_counter()
        lib.simulate(m, cfg)
        t1 = time.perf_counter()
        lib.price_cv(m, cfg)
        t2 = time.perf_counter()
        path_ns.append((t1 - t0) * 1e9 / (cfg.paths * mc_steps(m.T, cfg.dt)))
        reduce.append((t2 - t1) - (t1 - t0))
    return path_ns, reduce


def layer_metrics(h: Harness, records: list, tr: Tracer, rep: dict, setups: list) -> tuple:
    """Per-layer metrics; stages the workload never ran come from probes."""
    first = records[0][0]
    first = first.parts[0] if first.parts else first
    probed = []
    series = None
    values = {}
    for stage, name in SERIES_STAGES.items():
        d = tr.durations(stage)
        if not d:
            if series is None:
                grid = first.grid if first.grid is not None else wl.density_grid(first.market)
                series = probe_series(h, first.market, grid)
            d = series["tracer"].durations(stage)
            probed.append(name)
        values[name] = median_us(d)
    builds = rep["builds"] or series["builds"]
    values["basis.jitter_frac"] = sum(builds) / len(builds)
    unattributed = rep["unattributed"]
    if not unattributed:
        unattributed = series["unattributed"]
        probed.append("pricer.unattributed_us")
    values["pricer.unattributed_us"] = median_us(unattributed)
    path_ns, reduce = rep["path_ns"], rep["reduce"]
    if not path_ns:
        path_ns, reduce = probe_mc(h, first.market)
        probed += ["mc.path_ns_per_step", "mc.reduce_s"]
    values["mc.path_ns_per_step"] = statistics.median(path_ns)
    values["mc.reduce_s"] = statistics.median(reduce)
    values["mc.threads"] = h.lib.McConfig().batches
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["workload.repeat_frac"] = wl.repeat_frac(
        q.key for q, _, _, _ in records if q.kind != "density")
    values["trace.overhead_frac"] = rep["traced"] / rep["untraced"] - 1.0
    return values, probed


def self_time_report(tr: Tracer, rep: dict) -> dict:
    """Seconds of self time per stage and per layer over the replay.

    Series stages come from the span tree.  The library's own glue in
    price() (validation, dataclasses, warnings) is the untraced latency
    minus the replayed stages; the MC estimator splits into path
    generation (timed on its own) and the rest, the reductions.
    """
    st = tr.self_times()
    stages = {k: v for k, v in st.items() if k not in ("request", "mc.estimator", "mc.path")}
    stages["pricer.unattributed"] = sum(rep["unattributed"])
    stages["mc.path"] = rep["path_s"]
    stages["mc.reduce"] = sum(rep["reduce"])
    layers = {}
    for k, v in stages.items():
        layer = k.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v
    stages["replay_glue"] = st.get("request", 0.0)
    return {"stages_s": stages, "layers_s": layers, "untraced_s": rep["untraced"],
            "traced_s": rep["traced"]}


# -- end-to-end metrics and the report ----------------------------------------
#: the end-to-end metrics of the contract line, as in BENCHMARK.json
E2E = ("setup_s", "requests_per_s", "peak_rss_mb", "density_us_p50", "mc_efficiency")

#: per-layer metric -> (unit, the end-to-end metric and workload it should move)
LAYERS = {
    "model.m1_us": ("us", "price_us_p50@series_warm"),
    "model.relmom_us": ("us", "price_us_p50,price_us_p99@series_cold"),
    "basis.build_us": ("us", "price_us_p99,series_err_max,fail_frac@series_cold"),
    "basis.jitter_frac": ("ratio", "price_us_p99,series_err_max,fail_frac@series_cold"),
    "pricer.proj_us": ("us", "price_us_p50@series_warm"),
    "pricer.coef_us": ("us", "price_us_p50@series_warm"),
    "pricer.norm_us": ("us", "price_us_p50@series_warm"),
    "pricer.density_us": ("us", "density_us_p50@series_warm"),
    "pricer.unattributed_us": ("us", "price_us_p50@series_warm"),
    "mc.path_ns_per_step": ("ns", "mc_call_s_p50,mc_efficiency@mc_price"),
    "mc.reduce_s": ("s", "mc_call_s_p50,peak_rss_mb@mc_density"),
    "mc.threads": ("count", "mc_call_s_p50@mc_price,mc_density"),
    "setup.import_s": ("s", "setup_s@every workload"),
    "workload.repeat_frac": ("ratio", "none: about 0 on series_cold and 1 on series_warm"),
    "workload.fail_frac": ("ratio", "fail_frac@every workload"),
    "trace.overhead_frac": ("ratio", "none: the replay's own cost against the plain calls"),
}


def own_or_side(own: list, side: list) -> tuple:
    """The workload's own samples where it has them, else the side probes'."""
    return (own, "own requests") if own else (side, "side probes")


def report_metrics(records: list, side: list, setups: list, ledger: Ledger,
                   efficiency: list, side_efficiency: list, rss_mb: float) -> list:
    """The per-workload metrics: (name, value, unit, note).  Every workload
    has the E2E ones; the price and MC-call rows appear where they apply.

    Throughput is requests over busy seconds, so in this one-client closed
    loop it is the inverse of the mean latency.  The median and tail price
    latencies are printed but not bounded: on a shared host they move with
    its speed swings (and the cold median with the mix of orders) more than
    a bound allows.  MC efficiency differs between the seven cases by orders
    of magnitude; its geometric mean over whole passes uses every call,
    where a median would rest on the few calls of one case."""
    busy = sum(dt for _, _, dt, _ in records)
    primary = sum(q.kind != "density" for q, _, _, _ in records)
    rows = [("setup_s", statistics.median(x["setup_s"] for x in setups), "s",
             f"n={len(setups)} fresh interpreters"),
            ("requests_per_s", primary / busy, "1/s", f"n={primary}")]
    prices = [dt for q, _, dt, _ in records if q.kind == "price"]
    if prices:
        s = summarize(prices)
        rows += [("price_us_p50", s["p50"] * 1e6, "us", f"n={s['n']}"),
                 ("price_us_p99", s["tail"] * 1e6, "us",
                  f"n={s['n']}, percentile p{s['tail_pct']:g} by the ten-beyond rule"),
                 ("prices_per_s", len(prices) / busy, "1/s", f"n={s['n']}"),
                 ("series_err_max", ledger.worst.get("price", math.nan), "currency",
                  "largest |price - oracle|")]
    dens, src = own_or_side([dt for q, _, dt, _ in records if q.kind == "density"],
                            [dt for q, _, dt, _ in side if q.kind == "density"])
    rows.append(("density_us_p50", statistics.median(dens) * 1e6, "us",
                 f"n={len(dens)} from {src}"))
    calls = [dt for q, _, dt, _ in records if q.kind.startswith("mc")]
    if calls:
        s = summarize(calls)
        rows.append(("mc_call_s_p50", s["p50"], "s", f"n={s['n']}"))
    eff, src = own_or_side(efficiency, side_efficiency)
    rows += [("mc_efficiency", statistics.geometric_mean(eff), "1/ccy2/s",
              f"geometric mean of 1/(se^2 t) over n={len(eff)} price_cv calls from {src}"),
             ("peak_rss_mb", rss_mb, "MB", "whole process"),
             ("fail_frac", ledger.fail_frac, "ratio",
              f"known_misses={ledger.known_misses} failed={ledger.failed} "
              f"attempted={ledger.attempted}")]
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (SRC / "asianlns" / "__init__.py").is_file():
        print(f"error: asianlns sources not found under {SRC}", file=sys.stderr)
        return 2
    if a.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    threads_env = os.environ.pop(THREADS_ENV_VAR, None)
    sys.path.insert(0, str(SRC))
    import asianlns
    if Path(asianlns.__file__).resolve().parent != SRC / "asianlns":
        print(f"error: imported asianlns from {asianlns.__file__}, not {SRC}", file=sys.stderr)
        return 2

    fixture = load_fixture(ROOT)
    h = Harness(a.workload, a.seed, fixture)
    first = next(wl.STREAMS[a.workload](a.seed, fixture))
    setup_market = (first.parts[0] if first.parts else first).market
    env = dict(os.environ)
    setups = [setup_time(SRC, setup_market, env)]
    h.warm_up(fixture)

    refs = References(fixture)
    refs.weights = h.weights
    ledger = Ledger()
    tr, rep = Tracer(), replay_state()
    batches = wl.side_probes(a.seed, fixture, a.workload)
    records, side, efficiency, side_efficiency = [], [], [], []
    for i in range(SLICES):
        last = i == SLICES - 1
        part = traced_loop(h, tr, a.seconds / SLICES, rep, last) if a.trace \
            else timed_loop(h, a.seconds / SLICES, last)
        t0 = time.perf_counter()
        efficiency += check(part, refs, ledger)
        records += part
        if not last:
            setups.append(setup_time(SRC, setup_market, env))
        probes = run_side_probes(h, batches, t0 + SLICE_GAP, last)
        side_efficiency += check(probes, refs, ledger)
        side += probes
    rss_mb = peak_rss_mb()
    correct = ledger.correct()

    print("host " + json.dumps(host_facts(threads_env)))
    print("workload " + json.dumps({
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "requests": sum(q.kind != "density" for q, _, _, _ in records),
        "repeat_frac": wl.repeat_frac(q.key for q, _, _, _ in records if q.kind != "density"),
        "drawn": wl.describe([q for q, _, _, _ in records])}))
    print("ops " + json.dumps(ledger.report()))
    rows = report_metrics(records, side, setups, ledger, efficiency, side_efficiency, rss_mb)
    for name, value, unit, note in rows:
        print(f"metric {name:<16} {value:>14.6g} {unit:<10} {note}")

    if a.trace:
        values, probed = layer_metrics(h, records, tr, rep, setups)
        values["workload.fail_frac"] = ledger.fail_frac
        tr.write(OUT / f"spans-{a.workload}-seed{a.seed}.json")
        print("selftime " + json.dumps(self_time_report(tr, rep)))
        print("replay " + json.dumps({"prices_not_reproduced": rep["mismatch"],
                                      "probed": probed}))
        print("layers " + json.dumps({k: {"unit": u, "moves": m}
                                      for k, (u, m) in LAYERS.items()}))
        correct = correct and rep["mismatch"] == 0
        metrics = {k: {"value": values[k], "unit": u} for k, (u, _) in LAYERS.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, v, u, _ in rows if name in E2E}
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
