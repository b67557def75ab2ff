"""Command-line front end.

Four subcommands: ``price`` (single market, a list of truncation orders),
``bench`` (the seven standard test cases, optionally with Monte-Carlo
intervals and timings), ``density`` (grid export of the series density with
optional Monte-Carlo columns) and ``errbound`` (projection-error bound and
squared relative error against Monte-Carlo, optionally swept over sigma).

Machine-readable output: ``--format csv`` writes an RFC-4180 table with a
header row and 17-significant-digit numbers (exact double round-trip);
``--format json`` emits one object {config, results, diagnostics} whose
config block, fed back as flags, reproduces the numeric output bit for bit
at a fixed seed; it is strict JSON, with null for a NaN or infinite value.
The config block holds every flag except ``--output``, with resolved values
in place of defaults (the order list, the grid ends, the sigma grid) and
density's ``--case`` appearing as its market; price and density append the
weight parameters.  Its ``diagnostics`` are the records of
``SeriesApproximation.diagnostics`` behind their context keys, plus
``failed`` and ``norm_skipped`` records with a ``message``.  Table and csv
formats echo the resolved configuration (including defaulted weight
parameters) and one ``# key=value ...`` line per record to stderr.

Exit codes: 0 success, 2 invalid input, 3 numerical failure (the failing
module is named on stderr).  ``--output`` is written only on success.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict
from statistics import NormalDist

import numpy as np

from . import __version__
from .basis import weight_density
from .benchmarks import benchmark_cases, reference_case
from .errors import NumericalError, ValidationError
from .mc import (McConfig, error_bound, likelihood_norm_sq, price_cv,
                 density_cv, squared_relative_error)
from .model import MarketParams
from .pricer import clear_kernel_cache, price

_FLOAT_FMT = "%.17g"
# table and csv headers that name a JSON result key differently
_RESULT_KEY = {"conv_diag": "convergence_diag",
               "LNS10": "lns10", "LNS15": "lns15", "LNS20": "lns20"}
_GRID_MASS = 0.99999  # central weight mass covered by the default density grid


def _market_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, default=0.05, help="short rate per year")
    p.add_argument("--sigma", type=float, default=0.25, help="volatility per sqrt(year)")
    p.add_argument("--T", type=float, default=1.0, help="expiry in years")
    p.add_argument("--S0", type=float, default=1.0, help="initial stock price")
    p.add_argument("--K", type=float, default=1.0, help="strike (0 allowed)")


def _mc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paths", type=int, default=200_000, help="Monte-Carlo paths")
    p.add_argument("--dt", type=float, default=1e-3, help="simulation step (years)")
    p.add_argument("--seed", type=int, default=0, help="reproducibility seed")


def _output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="asianlns",
                                 description="Arithmetic Asian option pricing via a "
                                             "log-normal polynomial series expansion")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one option at several truncation orders")
    _market_args(p)
    p.add_argument("--N", default="10,15,20",
                   help="comma-separated truncation orders (default 10,15,20)")
    _output_args(p)

    b = sub.add_parser("bench", help="reproduce the seven standard benchmark cases")
    b.add_argument("--with-mc", action="store_true",
                   help="append control-variate Monte-Carlo intervals")
    b.add_argument("--timings", action="store_true",
                   help="append cold-cache wall time per N=20 price (ms)")
    _mc_args(b)
    _output_args(b)

    d = sub.add_parser("density", help="export the series density on a grid")
    _market_args(d)
    d.add_argument("--case", type=int, default=None,
                   help="use benchmark case 1-7 instead of market flags")
    d.add_argument("--N", type=int, default=20)
    d.add_argument("--grid-min", type=float, default=None)
    d.add_argument("--grid-max", type=float, default=None)
    d.add_argument("--grid-points", type=int, default=200)
    d.add_argument("--with-mc", action="store_true",
                   help="append control-variate Monte-Carlo density columns")
    _mc_args(d)
    _output_args(d)

    e = sub.add_parser("errbound", help="projection-error bound and SRE vs Monte-Carlo")
    _market_args(e)
    e.add_argument("--N", type=int, default=20)
    e.add_argument("--sigma-grid", default=None,
                   help="comma-separated sigmas to sweep (overrides --sigma)")
    _mc_args(e)
    _output_args(e)
    return ap


def _parse_list(spec: str, convert, what: str) -> list:
    """Comma-separated values, empty tokens skipped; ValidationError on a
    malformed token or an empty list."""
    try:
        values = [convert(tok) for tok in str(spec).split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"could not parse {what} {spec!r}", module="cli")
    if not values:
        raise ValidationError(f"empty {what}", module="cli")
    return values


def _market_from(ns) -> MarketParams:
    return MarketParams(r=ns.r, sigma=ns.sigma, T=ns.T, S0=ns.S0, K=ns.K)


def _mc_config(ns) -> McConfig:
    return McConfig(paths=ns.paths, dt=ns.dt, seed=ns.seed)


def _config(ns, **resolved) -> dict:
    """The config block: every parsed flag but ``--output`` and ``--case``, in
    parser order, with the ``resolved`` values replacing or appending entries."""
    flags = {k: v for k, v in vars(ns).items() if k not in ("output", "case")}
    return {**flags, **resolved}


def _emit(doc: dict, columns, fmt: str, stderr, table_note: str) -> str:
    """Render results in the requested format; returns the payload string.

    The table and csv rows hold ``columns`` of each JSON result, through
    ``_RESULT_KEY`` where a header differs from its key; a key a result
    lacks (a failed bench case) is NaN.  ``table_note`` follows the table."""
    if fmt == "json":
        # strict JSON has no NaN or Infinity: the parser's hook turns each into null
        doc = json.loads(json.dumps(doc), parse_constant=lambda name: None)
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"

    rows = [[res.get(_RESULT_KEY.get(c, c), math.nan) for c in columns]
            for res in doc["results"]]
    print("# config: " + json.dumps(doc["config"]), file=stderr)
    for rec in doc["diagnostics"]:
        print("# " + " ".join(f"{k}={v}" for k, v in rec.items()), file=stderr)
    if fmt == "csv":
        buf = io.StringIO()
        wtr = csv.writer(buf)
        wtr.writerow(columns)
        for row in rows:
            wtr.writerow([_FLOAT_FMT % v if isinstance(v, float) else v for v in row])
        return buf.getvalue()

    widths = [max(len(str(c)), 12) for c in columns]
    out = ["  ".join(str(c).rjust(w) for c, w in zip(columns, widths))]
    for row in rows:
        cells = ["%.6g" % v if isinstance(v, float) else str(v) for v in row]
        out.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(out) + "\n" + table_note


def _records(approx, **context) -> list:
    """The price's diagnostics records behind the context keys and N."""
    return [{**context, "N": approx.N, **rec} for rec in approx.diagnostics]


# Each command returns its config block, results, diagnostics records, the
# table and csv columns, and a note that follows the table.

def cmd_price(ns):
    market = _market_from(ns)
    orders = _parse_list(ns.N, int, "order list")
    diagnostics, results = [], []
    for N in orders:
        ap = price(market, N)
        results.append({"N": N, "price": ap.price, "eps_F": ap.eps_payoff,
                        "convergence_diag": ap.convergence_diagnostic(),
                        "resolvable_degree": ap.basis.resolvable_degree})
        diagnostics += _records(ap)
    config = _config(ns, N=",".join(map(str, orders)),
                     weight_mu=ap.weight.mu, weight_nu2=ap.weight.nu2)
    return config, results, diagnostics, ["N", "price", "eps_F", "conv_diag"], ""


def cmd_bench(ns):
    mc_cfg = _mc_config(ns) if ns.with_mc else None
    columns = ["case", "r", "sigma", "T", "S0", "K", "LNS10", "LNS15", "LNS20"]
    if ns.with_mc:
        columns += ["mc_lo", "mc_hi"]
    if ns.timings:
        columns += ["ms"]

    diagnostics, results = [], []
    for idx, market in enumerate(benchmark_cases(), start=1):
        res = {"case": idx, **asdict(market)}
        try:
            for ap in [price(market, N) for N in (10, 15, 20)]:
                res[f"lns{ap.N}"] = ap.price
                diagnostics += _records(ap, case=idx)
            if ns.with_mc:
                est = price_cv(market, mc_cfg)
                res.update(mc_lo=est.ci95[0], mc_hi=est.ci95[1],
                           mc_se=est.std_error)
            if ns.timings:
                clear_kernel_cache()
                t0 = time.perf_counter()
                price(market, 20)
                res["ms"] = (time.perf_counter() - t0) * 1e3
        except NumericalError as exc:
            diagnostics.append({"case": idx, "code": "failed", "stage": exc.module or "unknown",
                                "value": None, "threshold": None, "message": str(exc)})
            res["error"] = str(exc)
        results.append(res)

    note = "\nreference values (external fixture data):\n"
    for idx in range(1, 8):
        ref = reference_case(idx)
        note += (f"  case {idx}: LNS10={ref['lns10']} LNS15={ref['lns15']} "
                 f"LNS20={ref['lns20']} EE={ref['ee']} "
                 f"MC95=[{ref['mc_lo']}, {ref['mc_hi']}]\n")
    return _config(ns), results, diagnostics, columns, note


def cmd_density(ns):
    if ns.case is not None:
        if not 1 <= ns.case <= 7:
            raise ValidationError(f"--case must be 1..7, got {ns.case}", module="cli")
        market = benchmark_cases()[ns.case - 1]
    else:
        market = _market_from(ns)

    approx = price(market, ns.N)
    approx4 = price(market, 4) if ns.N != 4 else approx
    diagnostics = _records(approx) + (_records(approx4) if ns.N != 4 else [])

    w = approx.weight
    z = NormalDist().inv_cdf(0.5 + 0.5 * _GRID_MASS)
    gmin = ns.grid_min if ns.grid_min is not None else float(np.exp(w.mu - z * w.nu))
    gmax = ns.grid_max if ns.grid_max is not None else float(np.exp(w.mu + z * w.nu))
    if not (0.0 < gmin < gmax) or ns.grid_points < 2:
        raise ValidationError("invalid density grid", module="cli")
    x = np.linspace(gmin, gmax, ns.grid_points)

    config = _config(ns, **asdict(market), grid_min=gmin, grid_max=gmax,
                     weight_mu=w.mu, weight_nu2=w.nu2,
                     scale="densities are for the normalized average A_T / S0")
    cols = {"x": x, "g0": weight_density(w, x), "g4": approx4.density()(x),
            f"g{ns.N}": approx.density()(x)}  # one g0 or g4 column at N = 0 or 4
    if ns.with_mc:
        est = density_cv(market.normalized(), _mc_config(ns), x)
        cols.update(mc_density=est.value, mc_se=est.std_error)

    results = [{c: float(col[i]) for c, col in cols.items()} for i in range(len(x))]
    return config, results, diagnostics, list(cols), ""


def cmd_errbound(ns):
    market = _market_from(ns)
    sigmas = (_parse_list(ns.sigma_grid, float, "sigma grid") if ns.sigma_grid
              else [market.sigma])
    mc_cfg = _mc_config(ns)

    diagnostics, results = [], []
    for sg in sigmas:
        mkt = MarketParams(r=market.r, sigma=sg, T=market.T, S0=market.S0, K=market.K)
        approx = price(mkt, ns.N)
        diagnostics += _records(approx, sigma=sg)
        try:
            norm_est = likelihood_norm_sq(mkt.normalized(), mc_cfg, approx.weight)
        except ValidationError as exc:
            diagnostics.append({"sigma": sg, "N": ns.N, "code": "norm_skipped", "stage": "mc",
                                "value": None, "threshold": None, "message": str(exc)})
            norm_est = None
        est = price_cv(mkt, mc_cfg)
        sre, _ = squared_relative_error(est, approx.price)
        res = {"sigma": sg, "N": ns.N, "price": approx.price, "eps_F": approx.eps_payoff,
               "eps_ell": math.nan, "eps_ell_se": math.nan, "bound": math.nan,
               "bound_hi": math.nan, "mc_price": est.value, "mc_se": est.std_error,
               "sqrt_sre": math.sqrt(sre)}
        if norm_est is not None:
            eb = error_bound(approx, norm_est)
            res.update(eps_F=eb.eps_F, eps_ell=eb.eps_ell, eps_ell_se=norm_est.std_error,
                       bound=eb.value, bound_hi=eb.ci95[1])
        results.append(res)

    config = _config(ns, sigma_grid=",".join(map(repr, sigmas)) if ns.sigma_grid else None)
    return config, results, diagnostics, list(results[0]), ""


_COMMANDS = {"price": cmd_price, "bench": cmd_bench,
             "density": cmd_density, "errbound": cmd_errbound}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)

    try:
        config, results, diagnostics, columns, note = _COMMANDS[ns.command](ns)
    except ValidationError as exc:
        print(f"error (invalid input, module {exc.module or 'cli'}): {exc}",
              file=stderr)
        return 2
    except NumericalError as exc:
        print(f"error (numerical failure in module {exc.module or 'unknown'}): {exc}",
              file=stderr)
        return 3
    doc = {"config": config, "results": results, "diagnostics": diagnostics}
    payload = _emit(doc, columns, ns.format, stderr, note)
    if ns.output:  # written only now, so a failed command leaves the file as it was
        with open(ns.output, "w", newline="") as fh:
            fh.write(payload)
    else:
        stdout.write(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
