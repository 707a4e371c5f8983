"""Experiment configuration: flat `key = value` files, strictly validated.

Lines are `key = value` pairs; `#` starts a comment; lists are
comma-separated. Unknown keys are rejected, malformed values are reported
with the offending line number and key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_origin, get_type_hints

EXPERIMENTS = (
    "convergence",
    "interval-length",
    "perturb-random",
    "perturb-mode",
    "infsup",
    "stability-oracle",
)
EPSILON_STRATEGIES = ("plain", "data-aware", "explicit")
SOLUTIONS = ("cubic", "decay", "zero")


@dataclass
class ExperimentConfig:
    experiment: str
    d: int
    T: float
    k_range: list[int]
    L: float = None  # interval length; defaults to T
    l: int = 0
    epsilon_strategy: str = "plain"
    epsilon_values: list[float] = None
    solution: str = "zero"
    seed: int = 0
    target_norm: float = 0.01
    mode_n: int = 1
    amplitude: float = 0.05
    slice_times: list[float] = None
    output_path: str = None
    max_iter: int = 5000
    threshold: float = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; one of {EXPERIMENTS}"
            )
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        # every range check below is False for NaN, so finiteness comes first
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            values = value if isinstance(value, (list, tuple)) else [value]
            if any(v is not None and not math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.L is None:
            self.L = self.T
        if not 0.0 < self.L <= self.T:
            raise ValueError("L must lie in (0, T]")
        ks = list(self.k_range)
        if not ks or any(int(k) != k for k in ks):
            raise ValueError("k_range must be a nonempty integer list")
        self.k_range = [int(k) for k in ks]
        if any(b <= a for a, b in zip(self.k_range, self.k_range[1:])):
            raise ValueError("k_range must be strictly ascending")
        if min(self.k_range) < 0:
            raise ValueError("k_range entries must be nonnegative")
        if self.l not in (0, 1):
            raise ValueError("l must be 0 or 1")
        if self.epsilon_strategy not in EPSILON_STRATEGIES:
            raise ValueError(
                f"unknown epsilon_strategy {self.epsilon_strategy!r}"
            )
        if self.epsilon_strategy == "explicit":
            if self.epsilon_values is None or len(self.epsilon_values) != len(
                self.k_range
            ):
                raise ValueError(
                    "explicit strategy needs epsilon_values matching k_range"
                )
        if self.epsilon_values is not None and min(self.epsilon_values) < 0.0:
            raise ValueError("epsilon_values must be nonnegative")
        if self.solution not in SOLUTIONS:
            raise ValueError(f"unknown solution {self.solution!r}")
        lo = self.T - self.L
        if self.slice_times is None:
            # quarter points of the solved interval (T - L, T); T itself,
            # since lo + L can round off it
            self.slice_times = [lo + self.L * q for q in (0.25, 0.5, 0.75)]
            self.slice_times.append(self.T)
        for t in self.slice_times:
            if t < lo - 1e-12 or t > self.T + 1e-12:
                raise ValueError(
                    f"slice time {t} outside the solved interval [{lo}, {self.T}]"
                )
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.threshold is not None and self.threshold <= 0.0:
            raise ValueError("threshold must be positive when given")
        if self.target_norm <= 0.0:
            raise ValueError("target_norm must be positive")
        if self.mode_n < 1:
            raise ValueError("mode_n must be >= 1")


class ConfigError(ValueError):
    pass


def _parse_scalar(raw: str, kind, key: str, lineno: int):
    if kind is str:
        return raw
    malformed = f"line {lineno}: key {key!r} expects {kind.__name__}, got {raw!r}"
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(malformed) from None
    if not math.isfinite(value):
        raise ConfigError(f"line {lineno}: key {key!r} must be finite, got {raw!r}")
    if kind is int and value != int(value):
        raise ConfigError(malformed)
    if kind is int and raw.lstrip("+-").isdigit():
        return int(raw)  # exact, where value keeps only 53 bits
    return kind(value)


def _parse_list(raw: str, kind, key: str, lineno: int) -> list:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"line {lineno}: key {key!r} expects a nonempty list")
    return [_parse_scalar(part, kind, key, lineno) for part in items]


# key -> (target type, is_list), read off ExperimentConfig's annotations
_SCHEMA = {
    key: (get_args(hint)[0], True) if get_origin(hint) is list else (hint, False)
    for key, hint in get_type_hints(ExperimentConfig).items()
}
_REQUIRED = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)
_FLOAT_FIELDS = tuple(key for key, (kind, _) in _SCHEMA.items() if kind is float)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind, is_list = _SCHEMA[key]
        values[key] = (
            _parse_list(raw, kind, key, lineno)
            if is_list
            else _parse_scalar(raw, kind, key, lineno)
        )
    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
