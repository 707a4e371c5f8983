"""Command line entry point, CSV output format, determinism."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from backsolve import cli, operators, precond, solver
from backsolve.cli import main, run, write_csv
from backsolve.config import ExperimentConfig, parse_config
from backsolve.solver import solve_backward
from reference import read_results

FAST_CONVERGENCE = """
experiment = convergence
d = 1
T = 1.0
k_range = 1, 2
solution = cubic
"""


def write_config(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path):
        header = ["k", "err", "label"]
        rows = [
            {"k": 3, "err": 0.1 + 0.2, "label": "a"},
            {"k": 4, "err": 1.2345678901234567e-12, "label": "b"},
        ]
        path = str(tmp_path / "out.csv")
        write_csv(path, header, rows)
        got_header, got_rows = read_results(path)
        assert got_header == header
        for want, got in zip(rows, got_rows):
            assert got["k"] == want["k"]
            assert got["err"] == want["err"]  # bit-exact through 17 digits
            assert got["label"] == want["label"]

    def test_crlf_line_endings(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(path, ["a"], [{"a": 1}])
        raw = open(path, "rb").read()
        assert raw == b"a\r\n1\r\n"

    def test_float_formatting_17_digits(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(path, ["x"], [{"x": np.pi}])
        text = open(path, encoding="utf-8").read()
        assert "3.1415926535897931e+00" in text


class TestRun:
    def test_convergence_rows(self, tmp_path):
        cfg = parse_config(FAST_CONVERGENCE)
        header, rows = run(cfg, str(tmp_path / "r.csv"))
        assert header[:3] == ["k", "dofs", "epsilon"]
        assert [row["k"] for row in rows] == [1, 2]
        assert rows[1]["dofs"] > rows[0]["dofs"]
        assert all(row["pcg_iterations"] >= 1 for row in rows)
        assert all(row["err_l2l2"] > 0.0 for row in rows)

    def test_convergence_from_the_one_dof_square(self, tmp_path):
        # d=2 k=0 has one space dof, a square centre, and no grid dof
        cfg = ExperimentConfig(
            experiment="convergence", d=2, T=1.0, k_range=[0, 1], solution="cubic"
        )
        path = str(tmp_path / "c.csv")
        run(cfg, path)
        _, rows = read_results(path)
        assert [(row["k"], row["dofs"]) for row in rows] == [(0, 2), (1, 15)]
        assert all(row["pcg_iterations"] >= 1 for row in rows)
        assert all(0.0 < row["err_l2l2"] < 1.0 for row in rows)

    def test_byte_deterministic(self, tmp_path):
        cfg = parse_config(FAST_CONVERGENCE)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(cfg, a)
        run(parse_config(FAST_CONVERGENCE), b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_stability_oracle_rows(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="stability-oracle", d=2, T=1.0, k_range=[0]
        )
        header, rows = run(cfg, str(tmp_path / "s.csv"))
        assert header == ["check", "beta", "value", "reference"]
        names = [row["check"] for row in rows]
        assert names == [
            "log_convexity_single_mode",
            "log_convexity_suite",
            "smoothing_single_mode",
            "smoothing_suite",
            "hbeta_single_mode_ratio",
            "decay_rate_fit",
            "decay_rate_fit",
        ]

    def test_infsup_rows(self, tmp_path):
        cfg = ExperimentConfig(experiment="infsup", d=2, T=1.0, k_range=[1])
        _, rows = run(cfg, str(tmp_path / "i.csv"))
        assert 0.0 < rows[0]["gamma_infsup"] <= 1.0 + 1e-10

    def test_failure_wrapped_with_experiment_name(self):
        # L/T = 0.3 passes config validation but the mesh builder demands
        # a power of two; run() wraps that in a labeled RuntimeError
        bad = ExperimentConfig(
            experiment="interval-length",
            d=1,
            T=1.0,
            L=0.3,
            k_range=[0],
            solution="decay",
            slice_times=[0.8, 1.0],
        )
        with pytest.raises(RuntimeError, match="interval-length.*failed"):
            run(bad)

    def test_empty_trial_space_names_the_mesh(self):
        # d = 1 at k = 0 is the one-cell interval, all of whose vertices
        # lie on the boundary
        cfg = ExperimentConfig(experiment="convergence", d=1, T=1.0, k_range=[0])
        with pytest.raises(
            RuntimeError, match="the 1-d mesh with 2 vertices has no interior vertex"
        ):
            run(cfg)

    def test_no_output_path_skips_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = ExperimentConfig(
            experiment="infsup", d=2, T=1.0, k_range=[1]
        )
        run(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_infsup_builds_each_level_once(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_meshes

        def counting(config, k):
            built.append(k)
            return build(config, k)

        monkeypatch.setattr(cli, "build_meshes", counting)
        cfg = ExperimentConfig(experiment="infsup", d=2, T=1.0, k_range=[1, 2])
        _, rows = run(cfg, str(tmp_path / "i.csv"))
        assert built == [1, 2]
        # 2^k + 1 breakpoints times 5 and 25 interior space vertices
        assert [r["dofs"] for r in rows] == [3 * 5, 5 * 25]


def d1_study(experiment, **extra):
    """Two-level d=1 solving study, small enough for the tier-1 run."""
    return ExperimentConfig(
        experiment=experiment, d=1, T=1.0, k_range=[1, 2], solution="cubic", **extra
    )


def direct_cells(cfg, k):
    """One solve's column values: dofs, epsilon, iterations, stopping value,
    the two space-time errors, then the slice errors in slice_times order."""
    coeffs, solve_rep, err_rep = solve_backward(cfg, k)
    return [
        coeffs.size,
        solve_rep.epsilon,
        solve_rep.iterations,
        solve_rep.stopping_value,
        err_rep.l2l2,
        err_rep.l2h1,
    ] + [err_rep.l2_slices[t] for t in cfg.slice_times]


class TestSolvingStudies:
    """Every cell of every solving study against a direct solve of its variant."""

    def check_cells(self, header, rows, variants):
        # variants: (config, its columns in direct_cells order)
        assert [row["k"] for row in rows] == [1, 2]
        for row in rows:
            assert list(row) == header
            for cfg, names in variants:
                assert [row[name] for name in names] == direct_cells(cfg, row["k"])

    def test_convergence(self, tmp_path):
        cfg = parse_config(FAST_CONVERGENCE)
        header, rows = run(cfg, str(tmp_path / "c.csv"))
        assert header == [
            "k",
            "dofs",
            "epsilon",
            "pcg_iterations",
            "stopping_value",
            "err_l2l2",
            "err_l2h1",
            "err_slice@0.25",
            "err_slice@0.5",
            "err_slice@0.75",
            "err_slice@1",
        ]
        self.check_cells(header, rows, [(cfg, header[1:])])

    def test_interval_length(self, tmp_path):
        cfg = d1_study("interval-length", L=0.5, slice_times=[0.75, 1.0])
        header, rows = run(cfg, str(tmp_path / "i.csv"))
        assert header == [
            "k",
            "dofs_L0.5",
            "epsilon_L0.5",
            "pcg_iterations_L0.5",
            "stopping_value_L0.5",
            "err_l2l2_L0.5",
            "err_l2h1_L0.5",
            "err_slice@0.75_L0.5",
            "err_slice@1_L0.5",
            "dofs_L1",
            "epsilon_L1",
            "pcg_iterations_L1",
            "stopping_value_L1",
            "err_l2l2_L1",
            "err_l2h1_L1",
            "err_slice@0.75_L1",
            "err_slice@1_L1",
        ]
        self.check_cells(
            header, rows, [(cfg, header[1:9]), (replace(cfg, L=1.0), header[9:])]
        )
        # each window writes the epsilon its own solve used: the shorter
        # window has fewer trial dofs (9 at k=1), so a larger epsilon
        assert rows[0]["epsilon_L0.5"] == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert all(row["epsilon_L0.5"] > row["epsilon_L1"] for row in rows)

    def test_interval_length_default_slice_times(self, tmp_path):
        # the default slices are the quarter points of the window (T - L, T),
        # so they lie in both windows
        path = str(tmp_path / "i.csv")
        run(d1_study("interval-length", L=0.5), path)
        header, rows = read_results(path)
        assert [row["k"] for row in rows] == [1, 2]
        for window in ("_L0.5", "_L1"):
            slices = [name for name in header if name.startswith("err_slice")]
            assert [name for name in slices if name.endswith(window)] == [
                f"err_slice@{t}{window}" for t in ("0.625", "0.75", "0.875", "1")
            ]

    @pytest.mark.parametrize(
        "experiment, extra",
        [
            ("perturb-random", {"target_norm": 0.05, "seed": 1}),
            ("perturb-mode", {"mode_n": 1, "amplitude": 0.05}),
        ],
    )
    def test_perturbation(self, tmp_path, experiment, extra):
        cfg = d1_study(experiment, slice_times=[0.5, 1.0], **extra)
        header, rows = run(cfg, str(tmp_path / "p.csv"))
        assert header == [
            "k",
            "dofs",
            "epsilon_plain",
            "pcg_iterations_plain",
            "stopping_value_plain",
            "err_l2l2_plain",
            "err_l2h1_plain",
            "err_slice@0.5_plain",
            "err_slice@1_plain",
            "epsilon_aware",
            "pcg_iterations_aware",
            "stopping_value_aware",
            "err_l2l2_aware",
            "err_l2h1_aware",
            "err_slice@0.5_aware",
            "err_slice@1_aware",
        ]
        plain = replace(cfg, epsilon_strategy="plain")
        aware = replace(cfg, epsilon_strategy="data-aware")
        self.check_cells(
            header,
            rows,
            [(plain, ["dofs"] + header[2:9]), (aware, ["dofs"] + header[9:])],
        )

    @pytest.mark.parametrize(
        "experiment, d, k_range, extra, levels, solves",
        [
            ("perturb-random", 2, [1, 2], {"T": 0.125, "seed": 3}, 2, 4),
            ("perturb-mode", 1, [2, 3], {"T": 0.5}, 2, 4),
            # L < T: the configured and the full window are two levels per k
            (
                "interval-length",
                1,
                [1, 2],
                {"T": 1.0, "L": 0.5, "slice_times": [1.0]},
                4,
                4,
            ),
        ],
    )
    @pytest.mark.parametrize("l", [0, 1])
    def test_each_level_built_once(
        self, record_calls, experiment, d, k_range, extra, levels, solves, l
    ):
        # one level per k and window, solved at every epsilon strategy: one
        # mesh pair, space assembly and stencil read per level, a make_G_X
        # lift per level at l = 1 only (every l = 0 level's diagonal lift in
        # the tensor eigenbasis is built by in_modes), and an A_test factor
        # only at l = 1 (at l = 0 A_test is solved in closed form from the
        # stencils)
        calls = {
            name: record_calls(owner, name)
            for owner, name in [
                (solver, "build_meshes"),
                (operators, "space_factors"),
                (precond, "space_stencils"),
                (precond, "make_G_Y"),
                (precond, "make_G_X"),
                (solver, "in_modes"),
                (solver, "pcg"),
            ]
        }
        cfg = ExperimentConfig(
            experiment=experiment,
            d=d,
            k_range=k_range,
            solution="cubic",
            l=l,
            **extra,
        )
        run(cfg)
        assert {name: len(c) for name, c in calls.items()} == {
            "build_meshes": levels,
            "space_factors": levels,
            "space_stencils": levels,
            "make_G_Y": levels if l else 0,
            "make_G_X": levels if l else 0,
            "in_modes": 0 if l else levels,
            "pcg": solves,
        }


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_CONVERGENCE)
        out_path = str(tmp_path / "res.csv")
        code = main(["run", "--config", cfg_path, "--output", out_path])
        assert code == 0
        captured = capsys.readouterr()
        assert f"wrote {out_path} (2 rows)" in captured.out
        header, rows = read_results(out_path)
        assert len(rows) == 2

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, FAST_CONVERGENCE + "bogus_key = 1\n"
        )
        code = main(["run", "--config", cfg_path])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: line 7: unknown key 'bogus_key'" in captured.err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_override_changes_random_study(self, tmp_path):
        text = (
            "experiment = perturb-random\nd = 1\nT = 1.0\nk_range = 1\n"
            "solution = cubic\ntarget_norm = 0.05\n"
        )
        cfg_path = write_config(tmp_path, text)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", "--config", cfg_path, "--output", a, "--seed", "1"]) == 0
        assert main(["run", "--config", cfg_path, "--output", b, "--seed", "2"]) == 0
        _, rows_a = read_results(a)
        _, rows_b = read_results(b)
        assert rows_a != rows_b

    def test_config_output_path_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(
            tmp_path, FAST_CONVERGENCE + "output_path = from_config.csv\n"
        )
        code = main(["run", "--config", cfg_path])
        assert code == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_module_entry_points_write_the_same_csv(self, tmp_path):
        # `python -m backsolve.cli` runs main like `python -m backsolve`
        cfg_path = write_config(tmp_path, FAST_CONVERGENCE)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        written = []
        for module in ("backsolve.cli", "backsolve"):
            out_path = tmp_path / f"{module}.csv"
            done = subprocess.run(
                [sys.executable, "-m", module, "run", "--config", cfg_path,
                 "--output", str(out_path)],
                env=env, capture_output=True, text=True, check=False,
            )
            assert done.returncode == 0, done.stderr
            written.append(out_path.read_bytes())
        assert written[0] == written[1]


def test_oracle_csv_independent_of_blas_threads(tmp_path):
    # the oracle's norms run einsum's own loop, no BLAS call, so a fresh
    # interpreter writes the same bytes at one and at two BLAS threads
    cfg_path = write_config(
        tmp_path, "experiment = stability-oracle\nd = 2\nT = 1.0\nk_range = 1\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out_path = tmp_path / f"oracle_{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "backsolve", "run", "--config", cfg_path,
             "--output", str(out_path)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        written.append(out_path.read_bytes())
    assert written[0] == written[1]
