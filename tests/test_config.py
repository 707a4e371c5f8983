"""Flat key = value configuration files and their validation."""

import math

import pytest

from backsolve.config import ConfigError, ExperimentConfig, parse_config

MINIMAL = """
experiment = convergence
d = 2
T = 1.0
k_range = 1, 2, 3
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.experiment == "convergence"
        assert cfg.d == 2
        assert cfg.T == 1.0
        assert cfg.k_range == [1, 2, 3]
        assert cfg.L == 1.0
        assert cfg.l == 0
        assert cfg.epsilon_strategy == "plain"
        assert cfg.solution == "zero"
        assert cfg.seed == 0
        assert cfg.slice_times == [0.25, 0.5, 0.75, 1.0]
        assert cfg.max_iter == 5000
        assert cfg.threshold is None
        assert cfg.output_path is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# study\nexperiment = convergence  # trailing\n\nd = 1\n"
            "T = 2.0\nk_range = 0\n"
        )
        assert cfg.d == 1
        assert cfg.k_range == [0]
        assert cfg.slice_times == [0.5, 1.0, 1.5, 2.0]

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 6: unknown key 'bogus_key'"):
            parse_config(MINIMAL + "bogus_key = 1\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 6: duplicate key 'd'"):
            parse_config(MINIMAL + "d = 1\n")

    def test_malformed_int_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2: key 'd' expects int"):
            parse_config("experiment = convergence\nd = two\nT = 1\nk_range = 1")

    def test_non_integer_rejected_for_int_key(self):
        with pytest.raises(ConfigError, match="expects int"):
            parse_config("experiment = convergence\nd = 1.5\nT = 1\nk_range = 1")

    @pytest.mark.parametrize("seed", [9007199254740993, 123456789012345678901])
    def test_integer_above_2_53_kept_exact(self, seed):
        # read through float these came back as 9007199254740992 and
        # 123456789012345683968, unlike `backsolve run --seed`
        cfg = parse_config(MINIMAL + f"seed = {seed}\n")
        assert type(cfg.seed) is int and cfg.seed == seed

    def test_integral_float_form_accepted_for_int_key(self):
        cfg = parse_config(MINIMAL + "seed = 3.0\n")
        assert type(cfg.seed) is int and cfg.seed == 3
        with pytest.raises(ConfigError, match=r"line 6: key 'seed' expects int"):
            parse_config(MINIMAL + "seed = 2.5\n")

    def test_malformed_float(self):
        with pytest.raises(ConfigError, match=r"key 'T' expects float"):
            parse_config("experiment = convergence\nd = 1\nT = one\nk_range = 1")

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("target_norm", "nan"),
            ("amplitude", "inf"),
            ("threshold", "-inf"),
            ("slice_times", "0.5,nan"),
            ("epsilon_values", "1e400"),
            ("k_range", "inf"),
        ],
    )
    def test_non_finite_number_names_key_and_line(self, key, raw):
        # nan and inf parse as floats; unchecked, they ran to an all-NaN CSV
        # or a slice column read at t = 0, with exit code 0
        text = f"experiment = perturb-random\nd = 1\nT = 1\n{key} = {raw}\n"
        with pytest.raises(ConfigError, match=rf"line 4: key '{key}' must be finite"):
            parse_config(text)

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError, match="missing required keys: d, k_range"):
            parse_config("experiment = convergence\nT = 1.0\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
            parse_config("experiment convergence\n")

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match=r"key 'k_range' expects a nonempty"):
            parse_config("experiment = convergence\nd = 1\nT = 1\nk_range = ,\n")

    def test_explicit_epsilon_round_trip(self):
        cfg = parse_config(
            "experiment = convergence\nd = 2\nT = 1\nk_range = 1, 2\n"
            "epsilon_strategy = explicit\nepsilon_values = 0.0625, 0.03125\n"
        )
        assert cfg.epsilon_values == [0.0625, 0.03125]


class TestValidation:
    def base(self, **overrides):
        kwargs = dict(
            experiment="convergence", d=2, T=1.0, k_range=[1], solution="cubic"
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def test_valid_baseline(self):
        cfg = self.base()
        assert cfg.L == cfg.T

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            self.base(experiment="sideways")

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="d must be"):
            self.base(d=3)

    def test_nonpositive_T(self):
        with pytest.raises(ValueError, match="T must be positive"):
            self.base(T=0.0)

    def test_L_window(self):
        assert self.base(L=0.5, slice_times=[0.75, 1.0]).L == 0.5
        with pytest.raises(ValueError, match="L must lie"):
            self.base(L=2.0)
        with pytest.raises(ValueError, match="L must lie"):
            self.base(L=0.0)

    def test_k_range_rules(self):
        with pytest.raises(ValueError, match="nonempty"):
            self.base(k_range=[])
        with pytest.raises(ValueError, match="ascending"):
            self.base(k_range=[2, 1])
        with pytest.raises(ValueError, match="ascending"):
            self.base(k_range=[1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            self.base(k_range=[-1, 0])

    def test_enrichment(self):
        assert self.base(l=1).l == 1
        with pytest.raises(ValueError, match="l must be"):
            self.base(l=2)

    def test_explicit_needs_matching_values(self):
        with pytest.raises(ValueError, match="explicit strategy"):
            self.base(epsilon_strategy="explicit")
        with pytest.raises(ValueError, match="explicit strategy"):
            self.base(
                epsilon_strategy="explicit",
                k_range=[1, 2],
                epsilon_values=[0.1],
            )
        ok = self.base(epsilon_strategy="explicit", epsilon_values=[0.1])
        assert ok.epsilon_values == [0.1]

    def test_negative_epsilon_value_rejected(self):
        # caught here, not in build_system after the level is assembled
        with pytest.raises(ValueError, match="epsilon_values must be nonnegative"):
            self.base(epsilon_strategy="explicit", epsilon_values=[-0.5])
        assert self.base(epsilon_strategy="explicit", epsilon_values=[0.0])

    def test_unknown_solution(self):
        with pytest.raises(ValueError, match="unknown solution"):
            self.base(solution="quartic")

    def test_default_slice_times_are_the_window_quarter_points(self):
        assert self.base(L=0.5).slice_times == [0.625, 0.75, 0.875, 1.0]

    @pytest.mark.parametrize("T", [1.0, 0.1, 0.3, 1.0 / 3.0, 7.0])
    def test_default_slice_times_on_the_full_window_are_bitwise_unchanged(self, T):
        assert self.base(T=T).slice_times == [T / 4, T / 2, 3 * T / 4, T]

    def test_slice_times_window(self):
        with pytest.raises(ValueError, match="outside the solved interval"):
            self.base(L=0.25, slice_times=[0.5])
        with pytest.raises(ValueError, match="outside the solved interval"):
            self.base(slice_times=[1.5])

    def test_iteration_and_threshold_guards(self):
        with pytest.raises(ValueError, match="max_iter"):
            self.base(max_iter=0)
        with pytest.raises(ValueError, match="threshold"):
            self.base(threshold=0.0)
        assert self.base(threshold=1e-8).threshold == 1e-8
        with pytest.raises(ValueError, match="target_norm"):
            self.base(target_norm=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name",
        ["T", "L", "target_norm", "amplitude", "threshold"]
        + ["slice_times", "epsilon_values"],
    )
    def test_non_finite_float_field_named(self, name, value):
        # every range check is False for NaN, and an infinite T passed them
        # all; a config built in code is checked as one parsed from a file
        bad = [0.5, value] if name in ("slice_times", "epsilon_values") else value
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            self.base(**{name: bad})

    def test_perturbation_guards(self):
        with pytest.raises(ValueError, match="target_norm"):
            self.base(target_norm=-0.1)
        with pytest.raises(ValueError, match="mode_n"):
            self.base(mode_n=0)
