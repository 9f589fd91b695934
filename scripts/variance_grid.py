#!/usr/bin/env python3
"""Empirical vs predicted estimator variances over a speed/noise/jitter grid.

For each (v0, sigma_e2, sigma_l) cell this runs repeated synthetic latency
trials, measures the spread of the tau samples and of the position-error
residuals, and compares both against the closed-form predictors. Deviations
stay within Monte Carlo error when the pipeline is healthy; a cell that
drifts far from its prediction points at a sampling or windowing bug.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from itertools import product

from roadside_eval.synth import (
    ErrorModel,
    default_latency_route,
    monte_carlo_validate,
)

SPEEDS_MPS = (5.0, 10.0, 15.0)
NOISE_SIGMAS_M = (0.05, 0.2)
LATENCY_SIGMAS_S = (0.0, 0.02, 0.1)


def rel_err(emp: float, pred: float) -> float:
    if pred <= 1e-12:
        return 0.0
    return abs(emp - pred) / pred


def run_count(text: str) -> int:
    n = int(text)
    if n < 100:
        raise argparse.ArgumentTypeError(f"must be at least 100, got {n}")
    return n


def seed_value(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def positive_rate(text: str) -> float:
    x = float(text)
    # also false for NaN
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return x


def jitter_sigma(text: str) -> float:
    x = float(text)
    if not 0 <= x < math.inf:
        raise argparse.ArgumentTypeError(f"must be non-negative and finite, got {text}")
    return x


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=run_count, default=200,
                    help="Monte Carlo runs per cell (default 200; >=100)")
    ap.add_argument("--seed", type=seed_value, default=1,
                    help="master seed for the first cell (default 1)")
    ap.add_argument("--gt-rate", type=positive_rate, default=5.0,
                    help="ground-truth sampling rate in Hz (default 5)")
    ap.add_argument("--det-rate", type=positive_rate, default=5.0,
                    help="detection reporting rate in Hz (default 5)")
    ap.add_argument("--speed-jitter", type=jitter_sigma, default=0.2,
                    help="per-pass speed jitter sigma in m/s (default 0.2)")
    args = ap.parse_args(argv)

    header = (
        f"{'v0':>5}  {'sig_e2':>6}  {'sig_l':>5}  "
        f"{'var_tau emp':>12}  {'var_tau pred':>12}  {'dev%':>5}  "
        f"{'var_ed emp':>12}  {'var_ed pred':>12}  {'dev%':>5}"
    )
    print(header)
    print("-" * len(header))

    t0 = time.monotonic()
    worst = 0.0
    seed = args.seed
    for v0, sig_e2, sig_l in product(SPEEDS_MPS, NOISE_SIGMAS_M, LATENCY_SIGMAS_S):
        model = ErrorModel(
            latency_mean_s=0.5,
            latency_std_s=sig_l,
            noise_sigma_m=sig_e2,
            speed_jitter_mps=args.speed_jitter,
            det_rate_hz=args.det_rate,
        )
        route = default_latency_route(v0, window_m=4.0 * v0)
        cmp = monte_carlo_validate(
            model, route, n_runs=args.runs, master_seed=seed,
            gt_rate_hz=args.gt_rate,
        )
        seed += 1
        d_tau = rel_err(cmp.empirical_var_tau, cmp.predicted_var_tau)
        d_ed = rel_err(cmp.empirical_var_ed, cmp.predicted_var_ed)
        worst = max(worst, d_tau, d_ed)
        print(
            f"{v0:5.1f}  {sig_e2:6.2f}  {sig_l:5.2f}  "
            f"{cmp.empirical_var_tau:12.3e}  {cmp.predicted_var_tau:12.3e}  "
            f"{100 * d_tau:5.1f}  "
            f"{cmp.empirical_var_ed:12.3e}  {cmp.predicted_var_ed:12.3e}  "
            f"{100 * d_ed:5.1f}"
        )

    elapsed = time.monotonic() - t0
    print("-" * len(header))
    print(f"{len(SPEEDS_MPS) * len(NOISE_SIGMAS_M) * len(LATENCY_SIGMAS_S)} cells, "
          f"{args.runs} runs each, worst deviation {100 * worst:.2f}%, "
          f"{elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
