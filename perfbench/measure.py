"""Timing summaries, failure counting, host facts and the set-up probe."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

#: candidate percentiles, highest last
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

THREADS_ENV_VAR = "ASIANLNS_THREADS"


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples (exact arithmetic)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    above its rank; the median when even it has fewer (n < 2 MIN_BEYOND)."""
    ok = [p for p in LADDER if n - _rank(n, p) >= MIN_BEYOND]
    return max(ok, default=50.0)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    return s[_rank(len(s), p) - 1]


def summarize(values) -> dict:
    """Median, tail percentile (by the ten-beyond rule) and sample count."""
    n = len(values)
    p = tail_percentile(n)
    median = statistics.median(values)
    return {"n": n, "p50": median, "tail_pct": p,
            "tail": median if p == 50.0 else percentile(values, p)}


class Ledger:
    """Attempted ops, the failed ones, and the known-defect misses.

    An op misses if it raised, returned a non-finite value, or missed its
    reference; each missed op counts once whatever the reason.  A tolerance
    miss of an op in the benchmark's fixed set of known defects is a known
    miss: it counts in ``fail_frac`` but not in ``failed``, and leaves the
    run correct.  Every other miss is a failure and makes it incorrect.
    The known misses grow with the ops a run completes, so ``failed`` is
    what runs of the same code can be compared on.
    """

    #: misses listed in the report, of each kind
    REPORT_LIMIT = 12

    def __init__(self):
        self.attempted = 0
        self.misses = []            # (reason, known, detail)
        self.worst = {}             # check name -> largest |error| seen

    def check(self, name: str, outcome, measure, tol: float, detail="",
              known: bool = False) -> bool:
        """Record one op.  ``outcome`` is the op's result or the exception it
        raised; ``measure(outcome)`` gives its error against the reference,
        which must be finite and at most ``tol``.  ``known`` marks an op of
        the known-defect set, whose tolerance misses leave the run correct."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            self.misses.append(("raised", False, f"{name} {detail}: {outcome!r}"))
            return False
        err = measure(outcome)
        if not math.isfinite(err):
            self.misses.append(("nonfinite", False, f"{name} {detail}: error {err}"))
            return False
        self.worst[name] = max(self.worst.get(name, 0.0), err)
        if err > tol:
            self.misses.append(("tolerance", known,
                                f"{name} {detail}: error {err:.3e} > {tol:.3e}"))
            return False
        return True

    @property
    def failed(self) -> int:
        """Misses outside the known-defect set."""
        return sum(not known for _, known, _ in self.misses)

    @property
    def known_misses(self) -> int:
        return len(self.misses) - self.failed

    @property
    def fail_frac(self) -> float:
        """Every missed op, known defects included, over the attempted ops."""
        return len(self.misses) / self.attempted if self.attempted else 0.0

    def correct(self) -> bool:
        return self.failed == 0

    def report(self) -> dict:
        reasons = {}
        for reason, _, _ in self.misses:
            reasons[reason] = reasons.get(reason, 0) + 1
        known = [d for _, k, d in self.misses if k]
        failed = [d for _, k, d in self.misses if not k]
        return {"attempted": self.attempted, "failed": len(failed),
                "known_misses": len(known), "fail_frac": self.fail_frac,
                "by_reason": reasons, "worst_error": self.worst,
                "first_failed": failed[:self.REPORT_LIMIT],
                "first_known": known[:self.REPORT_LIMIT]}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_build() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def host_facts(threads_env) -> dict:
    """Facts every result is recorded with; the case-3 failure depends on
    the BLAS build."""
    import numpy as np
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_build(),
            "ASIANLNS_THREADS": threads_env,
            "blas_threads_env": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


PROBE = Path(__file__).with_name("setup_probe.py")


def setup_time(src: Path, market: tuple, env: dict) -> dict:
    """Run the set-up probe in a fresh interpreter; it reports import_s,
    first_price_s and setup_s."""
    proc = subprocess.run([sys.executable, str(PROBE), str(src), json.dumps(market)],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])
