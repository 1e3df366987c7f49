"""Run configuration: strict JSON (comments stripped, unknown keys rejected)
with dotted-path overrides from the command line."""

from __future__ import annotations

import json
import math
import os
import re
import typing
from dataclasses import dataclass, field, is_dataclass

from .corpus import MANIFEST
from .errors import ConfigError, KwslabError
from .losses import LossConfig
from .model import ModelConfig
from .operate import ASSISTIVE, HANDS_FREE, Scenario
from .sampling import SamplerConfig
from .synthgen import SynthConfig
from .training import TrainConfig

DATA_ROOT_ENV = "KWSLAB_DATA_ROOT"
# fields each run sets itself, so a value in the config would never be read
_RUN_SET = {(TrainConfig, "seed"): "list the training seeds in `seeds`",
            (ModelConfig, "in_channels"): "each run takes the corpus's channel count"}


@dataclass(frozen=True)
class CorpusConfig:
    root: str | None = None
    synth: SynthConfig | None = None

    def __post_init__(self):
        if self.root is None and self.synth is None:
            raise ConfigError("corpus needs a root directory, a synth section, or both")


@dataclass(frozen=True)
class TaskConfig:
    keywords: tuple[str, ...]
    beta_neg_s: float = 0.1
    beta_pos_s: float = 0.3

    def __post_init__(self):
        if not self.keywords:
            raise ConfigError("task.keywords must list at least one keyword")
        if not (0 <= self.beta_neg_s < math.inf and 0 <= self.beta_pos_s < math.inf):
            raise ConfigError("task buffers must be >= 0 and finite")
        object.__setattr__(self, "keywords", tuple(k.lower() for k in self.keywords))


@dataclass(frozen=True)
class EvaluationConfig:
    tau: float = 0.5
    bootstrap_resamples: int = 4000
    permutation_draws: int = 10000
    target_recall: float = 0.10
    fa_budgets: tuple[float, ...] = (2.0, 0.5)
    scenarios: tuple[Scenario, ...] = (ASSISTIVE, HANDS_FREE)
    stat_seed: int = 0

    def __post_init__(self):
        if min(self.bootstrap_resamples, self.permutation_draws) < 1:
            raise ConfigError("evaluation.bootstrap_resamples and evaluation.permutation_draws "
                              "must be >= 1")
        if self.stat_seed < 0:
            raise ConfigError(f"evaluation.stat_seed must be >= 0, got {self.stat_seed}")
        if not math.isfinite(self.tau):
            raise ConfigError(f"evaluation.tau must be finite, got {self.tau}")
        if not 0 < self.target_recall <= 1:
            raise ConfigError(f"evaluation.target_recall must lie in (0, 1]: {self.target_recall}")
        if not all(0 <= budget < math.inf for budget in self.fa_budgets):
            raise ConfigError(f"evaluation.fa_budgets must be >= 0 and finite: {self.fa_budgets}")


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusConfig
    task: TaskConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(
                f"seeds must list at least one seed, none twice, got {list(self.seeds)}")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must all be >= 0, got {list(self.seeds)}")

    def resolved_root(self) -> str | None:
        return os.environ.get(DATA_ROOT_ENV) or self.corpus.root


def _build_dataclass(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)  # one per field
    for (owner, key), source in _RUN_SET.items():
        if owner is cls and key in data:
            raise ConfigError(f"{path}.{key} is not a config key: {source}")
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {key: _coerce(hints[key], value, f"{path}.{key}") for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (KwslabError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _coerce(hint, value, path):
    """`value` as the type hint reads it: a tuple takes a list, a config class an
    object, a scalar a value of its type (never a bool, nor a non-finite number;
    an int for a float is kept as given), and an optional hint also null."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(_coerce(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    target, *rest = typing.get_args(hint) or (hint,)  # `X | None` gives (X, NoneType)
    if value is None and type(None) in rest:
        return None
    if is_dataclass(target):
        return _build_dataclass(target, value, path)
    types, name = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
                   str: ((str,), "a string")}[target]
    if type(value) not in types or (type(value) is float and not math.isfinite(value)):
        raise ConfigError(f"{path}: expected {name}, got {value!r}")
    return value


# a string (kept, even if unterminated), a // comment, or a /* */ block (to the end if open)
_COMMENT_OR_STRING = re.compile(
    r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)|//[^\n]*|/\*.*?(?:\*/|\Z)', re.DOTALL)


def strip_json_comments(text: str) -> str:
    """Drop // line comments and /* */ blocks outside of strings."""
    return _COMMENT_OR_STRING.sub(lambda m: m[0] if m[0][0] == '"' else "", text)


def _apply_override(data: dict, dotted: str):
    if "=" not in dotted:
        raise ConfigError(f"override {dotted!r} must look like path.to.key=value")
    path, raw = dotted.split("=", 1)
    keys = path.strip().split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object value")
    node[keys[-1]] = value


def run_config_from_dict(data: dict) -> RunConfig:
    return _build_dataclass(RunConfig, data, "config")


def load_run_config(path: str, overrides=(), require_corpus=False) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # missing or unreadable, or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(strip_json_comments(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    for item in overrides:
        _apply_override(data, item)
    config = run_config_from_dict(data)
    if require_corpus:
        root = config.resolved_root()
        if root is None:
            raise ConfigError("this command needs corpus.root (or KWSLAB_DATA_ROOT)")
        manifest = os.path.join(root, MANIFEST)
        if not os.path.exists(manifest):
            raise ConfigError(f"referenced corpus manifest does not exist: {manifest}")
    return config
