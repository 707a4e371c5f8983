"""Configuration-driven experiment runner and command line entry point.

Each experiment maps a refinement-level range to CSV rows: the convergence,
interval-length and perturbation studies build each level once per time
window and solve it at each of their epsilon strategies, the inf-sup study
runs the matrix-free eigensolve, and the stability-oracle study evaluates
the closed-form spectral checks. Column sets are fixed per experiment; a
solving study writes one suffixed group of the same columns per window and
strategy. Floats are written in scientific notation with 17 significant
digits so files are byte-reproducible and round-trip exactly.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import replace

from .config import ExperimentConfig, parse_config
from .oracle import (
    SpectralField,
    check_hbeta_stability,
    check_log_convexity,
    check_smoothing,
    decay_rate_fit,
    random_spectral_fields,
    single_mode_hbeta_ratio_exact,
)
from .solver import build_level, build_meshes, infsup_constant, solve_level, trial_dofs

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.16e" % value
    return str(value)


def _windows(config: ExperimentConfig):
    """(config, suffix) per time window: interval-length adds the full
    window when L < T; the other studies solve the config's own, unsuffixed."""
    if config.experiment != "interval-length":
        return [(config, "")]
    windows = [(config, f"_L{config.L:g}")]
    if config.L != config.T:
        windows.append((replace(config, L=config.T), f"_L{config.T:g}"))
    return windows


def _strategies(config: ExperimentConfig):
    """(epsilon strategy, suffix) per solve of a level: the perturbation
    studies compare two, the other studies solve at the config's own."""
    if config.experiment in ("perturb-random", "perturb-mode"):
        return [("plain", "_plain"), ("data-aware", "_aware")]
    return [(config.epsilon_strategy, "")]


def _run_solves(config: ExperimentConfig):
    """One row per level k: each window's level is built once, writes its
    dofs, and is solved at every strategy, each writing the same columns
    with its window's and its strategy's suffix."""
    windows, strategies = _windows(config), _strategies(config)
    rows = []
    for k in config.k_range:
        row = {"k": k}
        for cfg, window in windows:
            level = build_level(cfg, k)
            row[f"dofs{window}"] = level.system.n
            for strategy, tag in strategies:
                _, solve_rep, err_rep = solve_level(cfg, k, level, strategy)
                suffix = window + tag
                row[f"epsilon{suffix}"] = solve_rep.epsilon
                row[f"pcg_iterations{suffix}"] = solve_rep.iterations
                row[f"stopping_value{suffix}"] = solve_rep.stopping_value
                row[f"err_l2l2{suffix}"] = err_rep.l2l2
                row[f"err_l2h1{suffix}"] = err_rep.l2h1
                for t in cfg.slice_times:
                    row[f"err_slice@{t:g}{suffix}"] = err_rep.l2_slices[float(t)]
            del level  # free this level's factors before the next is built
        rows.append(row)
    # every row holds the same names, in the order they were first written
    return list(rows[0]), rows


def _run_infsup(config: ExperimentConfig):
    header = ["k", "dofs", "gamma_infsup"]
    rows = []
    for k in config.k_range:
        time_mesh, space_mesh = build_meshes(config, k)
        gamma = infsup_constant(time_mesh, space_mesh)
        dofs = trial_dofs(time_mesh, space_mesh)
        rows.append({"k": k, "dofs": dofs, "gamma_infsup": gamma})
    return header, rows


def _run_stability_oracle(config: ExperimentConfig):
    header = ["check", "beta", "value", "reference"]
    rows = []
    # coefficient 4 puts ||u(0)|| = 2 above ||u(T)|| + 1, the regime where
    # the fractional-bound ratio has the closed-form reference; the
    # log-convexity and smoothing rows do not depend on the scale either way
    one_mode = SpectralField(2, np.array([[1, 1]]), np.array([4.0]))
    res = check_log_convexity(one_mode, config.T)
    rows.append(
        {
            "check": "log_convexity_single_mode",
            "beta": 0.0,
            "value": abs(res.max_violation),
            "reference": 0.0,
        }
    )
    suite = random_spectral_fields(100, d=2, n_max=8, seed=config.seed)
    rows.append(
        {
            "check": "log_convexity_suite",
            "beta": 0.0,
            "value": check_log_convexity(suite, config.T).max_violation,
            "reference": 0.0,
        }
    )
    rows.append(
        {
            "check": "smoothing_single_mode",
            "beta": 0.0,
            "value": check_smoothing(one_mode, config.T).constant,
            "reference": 1.0 / math.e,
        }
    )
    rows.append(
        {
            "check": "smoothing_suite",
            "beta": 0.0,
            "value": check_smoothing(suite, config.T).constant,
            "reference": 1.0 / math.e,
        }
    )
    beta = 0.5
    rows.append(
        {
            "check": "hbeta_single_mode_ratio",
            "beta": beta,
            "value": check_hbeta_stability(one_mode, config.T, beta).max_ratio,
            "reference": single_mode_hbeta_ratio_exact(beta),
        }
    )
    for beta in (0.0, 0.5):
        # fixed unit horizon: the fit is an asymptotic property of the
        # evolution, not of the configured solve interval
        slope, _, _ = decay_rate_fit(beta, range(1, 9), T=1.0, d=1)
        rows.append(
            {
                "check": "decay_rate_fit",
                "beta": beta,
                "value": slope,
                "reference": -(1.0 - beta) / 2.0,
            }
        )
    return header, rows


_RUNNERS = {
    "convergence": _run_solves,
    "interval-length": _run_solves,
    "perturb-random": _run_solves,
    "perturb-mode": _run_solves,
    "infsup": _run_infsup,
    "stability-oracle": _run_stability_oracle,
}


def run(config: ExperimentConfig, output_path: str | None = None):
    """Execute an experiment; returns (header, rows) and writes the CSV."""
    runner = _RUNNERS[config.experiment]
    try:
        header, rows = runner(config)
    except Exception as exc:
        raise RuntimeError(f"experiment {config.experiment!r} failed: {exc}") from exc
    path = output_path or config.output_path
    if path:
        write_csv(path, header, rows)
    return header, rows


def write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in header])


def main(argv=None) -> int:
    import argparse  # the command line only: not loaded by `import backsolve`

    parser = argparse.ArgumentParser(
        prog="backsolve",
        description="Space-time least-squares solver for backward heat problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("--config", required=True, help="path to a config file")
    run_p.add_argument("--output", default=None, help="CSV output path")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        output = args.output or config.output_path or "results.csv"
        _, rows = run(config, output)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {output} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
