"""Set-up cost in a fresh interpreter: ``import asianlns`` plus the first
N = 20 price.

Usage: python3 setup_probe.py <src-dir> '<[r, sigma, T, S0, K]>'
Prints one JSON object with import_s, first_price_s and setup_s.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import asianlns
    t1 = time.perf_counter()
    r, sigma, T, S0, K = json.loads(sys.argv[2])
    asianlns.price(asianlns.MarketParams(r=r, sigma=sigma, T=T, S0=S0, K=K), 20)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_price_s": t2 - t1, "setup_s": t2 - t0}))
