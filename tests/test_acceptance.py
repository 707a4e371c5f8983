"""Acceptance gate: the twelve headline behaviors, one pass/fail line each.

Criterion 2 has two clauses; the slice-ordering clause is asserted literally
and is expected to fail at levels 2..4 on this method/mesh family (see the
rate line printed with it). Everything else must pass.
"""

from dataclasses import replace

import numpy as np
import pytest

from backsolve.config import ExperimentConfig
from backsolve.operators import assemble_B
from backsolve.oracle import (
    SpectralField,
    check_log_convexity,
    check_smoothing,
    decay_rate_fit,
    random_spectral_fields,
)
from backsolve.solutions import get_solution
from backsolve.solver import (
    build_meshes,
    infsup_constant,
    nodal_interpolant,
    solve_backward,
)
from reference import (
    b_route,
    dense,
    dense_from_apply,
    fit_rate,
    gram_X,
    gram_Y,
    level_system,
    space_csr,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------- shared runs ----


@pytest.fixture(scope="module")
def convergence_run():
    """T=1, d=2 manufactured cubic study at levels 1..4, plain epsilon."""
    cfg = ExperimentConfig(
        experiment="convergence",
        d=2,
        T=1.0,
        k_range=[1, 2, 3, 4],
        solution="cubic",
        epsilon_strategy="plain",
        l=0,
    )
    levels = {k: solve_backward(cfg, k) for k in cfg.k_range}
    return cfg, levels


@pytest.fixture(scope="module")
def k1_system():
    """Smallest convergence-study system, materializable densely."""
    cfg = ExperimentConfig(
        experiment="convergence", d=2, T=1.0, k_range=[1], solution="cubic"
    )
    tm, sm = build_meshes(cfg, 1)
    sol = get_solution("cubic", 2)
    dofs = tm.breakpoints.size * int((~sm.boundary_vertex_flags).sum())
    eps = dofs**-0.5
    system = level_system(tm, sm, 0, sol)
    return tm, sm, replace(system, reg_epsilon=eps)


@pytest.fixture(scope="module")
def oracle_suite():
    return random_spectral_fields(100, d=2, n_max=8, seed=0)


@pytest.fixture(scope="module")
def perturbation_runs():
    """Both epsilon strategies on the T=1/8 studies, levels 1..4."""

    def study(experiment, **extra):
        # smooth nonzero base solution, end data replaced by data + noise;
        # the mode study's noise dwarfs the data, the random study's does not
        cfg = ExperimentConfig(
            experiment=experiment,
            d=2,
            T=0.125,
            k_range=[1, 2, 3, 4],
            solution="cubic",
            slice_times=[1.0 / 16.0],
            seed=0,
            **extra,
        )
        out = {}
        for k in cfg.k_range:
            for strategy in ("plain", "data-aware"):
                _, _, err = solve_backward(
                    replace(cfg, epsilon_strategy=strategy), k
                )
                out[(k, strategy)] = err.l2_slices[1.0 / 16.0]
        return out

    mode = study("perturb-mode", mode_n=1, amplitude=0.05)
    rand = study("perturb-random", target_norm=0.01)
    return mode, rand


# -------------------------------------------------------------- criteria ----


def test_criterion_1_h1_convergence_rate(convergence_run):
    cfg, levels = convergence_run
    dofs = [levels[k][0].size for k in cfg.k_range]
    errs = [levels[k][2].l2h1 for k in cfg.k_range]
    slope = fit_rate(dofs, errs)
    report(
        "1",
        -0.45 <= slope <= -0.21,
        f"L2(J;H1) error slope {slope:.4f} against dofs "
        f"{dofs}, target window [-0.45, -0.21]",
    )


def test_criterion_2_end_slice_rate(convergence_run):
    cfg, levels = convergence_run
    dofs = [levels[k][0].size for k in cfg.k_range]
    errs = [levels[k][2].l2_slices[1.0] for k in cfg.k_range]
    slope = fit_rate(dofs, errs)
    report(
        "2 (end-slice rate)",
        -0.80 <= slope <= -0.50,
        f"L2 slice error slope at t=T is {slope:.4f}, window [-0.80, -0.50]",
    )


def test_criterion_2_early_slice_ordering(convergence_run):
    # literal clause: err(T/4) >= err(3T/4) on every level.  The early
    # slice starts more accurate here (the profile grows with t while
    # backward pollution decays), so levels 2..4 violate the ordering;
    # reported honestly rather than tuned away.
    cfg, levels = convergence_run
    pairs = {
        k: (levels[k][2].l2_slices[0.25], levels[k][2].l2_slices[0.75])
        for k in cfg.k_range
    }
    ok = all(q >= t for (q, t) in pairs.values())
    detail = ", ".join(
        f"k={k}: err(T/4)={q:.3e} vs err(3T/4)={t:.3e}"
        for k, (q, t) in pairs.items()
    )
    report("2 (early-slice ordering)", ok, detail)


def test_criterion_3_infsup_stability():
    gammas = {}
    cfg = ExperimentConfig(
        experiment="infsup", d=2, T=1.0, k_range=[1, 2, 3]
    )
    for k in cfg.k_range:
        tm, sm = build_meshes(cfg, k)
        gammas[k] = infsup_constant(tm, sm)
    vals = list(gammas.values())
    ok = max(vals) / min(vals) < 2.0 and min(vals) > 0.1
    report(
        "3",
        ok,
        "gamma_infsup "
        + ", ".join(f"k={k}: {g:.4f}" for k, g in gammas.items())
        + f" (spread x{max(vals) / min(vals):.3f})",
    )


def test_criterion_4_matrix_free_matches_dense(k1_system):
    tm, sm, system = k1_system
    ops = {
        "B": assemble_B(tm, *space_csr(sm, 0)[2:4]),
        "Gram_X": gram_X(tm, sm),
        "Gram_Y": gram_Y(tm, sm, 0),
    }
    worst = 0.0
    rng = np.random.default_rng(0)
    for name, op in ops.items():
        dense_op = dense(op)
        for _ in range(20):
            v = rng.standard_normal(op.shape[1])
            ref = dense_op @ v
            rel = np.linalg.norm(op.apply(v) - ref) / max(
                1.0, np.linalg.norm(ref)
            )
            worst = max(worst, rel)
    s_dense = dense_from_apply(system.apply, system.n)
    for _ in range(20):
        v = rng.standard_normal(system.n)
        ref = s_dense @ v
        rel = np.linalg.norm(system.apply(v) - ref) / max(
            1.0, np.linalg.norm(ref)
        )
        worst = max(worst, rel)
    report(
        "4",
        worst <= 1e-12,
        f"matrix-free vs dense, worst relative gap {worst:.3e} over "
        "B, Gram_X, Gram_Y and the normal operator (20 vectors each)",
    )


def test_criterion_5_spd_and_minimizer(convergence_run, k1_system):
    _, _, system = k1_system
    s_dense = dense_from_apply(system.apply, system.n)
    sym_gap = np.max(np.abs(s_dense - s_dense.T)) / np.max(np.abs(s_dense))
    min_eig = float(np.linalg.eigvalsh(s_dense).min())

    cfg, levels = convergence_run
    sol = get_solution("cubic", 2)
    margins = {}
    for k in cfg.k_range:
        coeffs, solve_rep, _ = levels[k]
        tm, sm = build_meshes(cfg, k)
        functional = b_route(tm, sm, 0, solve_rep.epsilon, sol).functional
        at_solution = functional(coeffs)
        at_interpolant = functional(nodal_interpolant(tm, sm, sol))
        margins[k] = (at_solution, at_interpolant)
    minimized = all(a <= b + 1e-12 * abs(b) for a, b in margins.values())
    ok = sym_gap <= 1e-12 and min_eig > 0.0 and minimized
    report(
        "5",
        ok,
        f"symmetry gap {sym_gap:.2e}, min eigenvalue {min_eig:.3e}; "
        "functional solve<=interpolant: "
        + ", ".join(
            f"k={k}: {a:.4e}<={b:.4e}" for k, (a, b) in margins.items()
        ),
    )


def test_criterion_6_stopping_rule(convergence_run):
    cfg, levels = convergence_run
    details = []
    ok = True
    for k in cfg.k_range:
        rep = levels[k][1]
        hist = rep.residual_history
        monotone = bool(np.all(np.diff(hist) <= 1e-12 * hist[0]))
        accepted = rep.converged and rep.stopping_value <= rep.threshold
        ok = ok and monotone and accepted
        details.append(
            f"k={k}: iters={rep.iterations}, final={rep.stopping_value:.3e}"
            f"<=thr={rep.threshold:.3e}, monotone={monotone}"
        )
    report("6", ok, "; ".join(details))


def test_criterion_7_log_convexity(oracle_suite):
    single = check_log_convexity(
        SpectralField(2, np.array([[1, 1]]), np.array([4.0])), T=1.0
    )
    worst = check_log_convexity(oracle_suite, T=1.0).max_violation
    ok = abs(single.max_violation) <= 1e-12 and worst <= 1e-10
    report(
        "7",
        ok,
        f"single-mode violation {abs(single.max_violation):.2e} (<=1e-12), "
        f"suite worst {worst:.2e} (<=1e-10, 100 fields)",
    )


def test_criterion_8_smoothing_bound(oracle_suite):
    single = check_smoothing(
        SpectralField(2, np.array([[1, 1]]), np.array([4.0])), T=1.0
    )
    gap = abs(single.constant - 1.0 / np.e)
    worst = check_smoothing(oracle_suite, T=1.0).constant
    ok = gap <= 1e-12 and worst <= 1.0
    report(
        "8",
        ok,
        f"single-mode constant off 1/e by {gap:.2e} (<=1e-12), "
        f"suite sup {worst:.4f} (<=1)",
    )


def test_criterion_9_mode_perturbation_needs_data_aware(perturbation_runs):
    mode, _ = perturbation_runs
    aware = mode[(4, "data-aware")]
    plain = mode[(4, "plain")]
    trail = ", ".join(
        f"k={k}: plain={mode[(k, 'plain')]:.3e} aware={mode[(k, 'data-aware')]:.3e}"
        for k in (1, 2, 3, 4)
    )
    report(
        "9",
        aware <= plain,
        f"slice t=1/16 at k=4: data-aware {aware:.4e} <= plain {plain:.4e} ({trail})",
    )


def test_criterion_10_random_perturbation_strategies_agree(perturbation_runs):
    _, rand = perturbation_runs
    ratios = {}
    for k in (1, 2, 3, 4):
        a, b = rand[(k, "plain")], rand[(k, "data-aware")]
        ratios[k] = max(a, b) / min(a, b)
    ok = all(r < 3.0 for r in ratios.values())
    report(
        "10",
        ok,
        "plain/data-aware slice-error ratio "
        + ", ".join(f"k={k}: {r:.3f}" for k, r in ratios.items())
        + " (all < 3)",
    )


def test_criterion_11_short_interval_beats_long():
    errs = {}
    for L in (0.125, 1.0):
        cfg = ExperimentConfig(
            experiment="interval-length",
            d=2,
            T=1.0,
            L=L,
            k_range=[1, 2, 3],
            solution="decay",
            epsilon_strategy="explicit",
            epsilon_values=[2.0 ** -(k + 3) for k in (1, 2, 3)],
            slice_times=[15.0 / 16.0],
        )
        for k in cfg.k_range:
            _, _, err = solve_backward(cfg, k)
            errs[(L, k)] = err.l2_slices[15.0 / 16.0]
    ok = all(errs[(0.125, k)] < errs[(1.0, k)] for k in (1, 2, 3))
    report(
        "11",
        ok,
        "slice t=15/16 "
        + ", ".join(
            f"k={k}: L=1/8 {errs[(0.125, k)]:.4f} vs L=1 {errs[(1.0, k)]:.4f}"
            for k in (1, 2, 3)
        ),
    )


def test_criterion_12_decay_rate_exponent():
    results = {}
    for beta in (0.0, 0.5):
        slope, _, _ = decay_rate_fit(beta, range(1, 9), T=1.0, d=1)
        target = -(1.0 - beta) / 2.0
        results[beta] = (slope, target, abs(slope - target) / abs(target))
    ok = all(rel <= 0.2 for _, _, rel in results.values())
    report(
        "12",
        ok,
        ", ".join(
            f"beta={b}: slope {s:.4f} vs {t:.2f} (rel {r:.3f})"
            for b, (s, t, r) in results.items()
        ),
    )
