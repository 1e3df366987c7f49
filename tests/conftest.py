import numpy as np
import pytest

from kwslab.corpus import build_task_spec, select_splits
from kwslab.losses import LossConfig
from kwslab.model import ModelConfig
from kwslab.sampling import SamplerConfig
from kwslab.synthgen import SynthConfig, default_split, generate_corpus
from kwslab.training import TrainConfig, prepare_task

# Small fast corpus for machinery tests: 4 sessions x 1.5 min at 100 Hz,
# 8 channels, high keyword prevalence so every partition has positives.
MICRO_SYNTH = SynthConfig(
    seed=5,
    n_sessions=4,
    session_minutes=1.5,
    vocab_size=12,
    zipf_exponent=0.7,
    word_duration_range_s=(0.20, 0.35),
    gap_range_s=(0.25, 0.45),
    snr=1.2,
    n_channels=8,
    sample_rate_hz=100.0,
)
MICRO_KEYWORD = "ri"  # rank-2 word, ~10% of tokens
MICRO_MODEL = ModelConfig(in_channels=8, trunk_channels=8, proj_channels=16)
MICRO_SAMPLER = SamplerConfig(batch_size=16, jitter_samples=4, noise_std_fraction=0.2)
MICRO_TRAIN = TrainConfig(max_epochs=2, patience=2, lr=1e-3, seed=0)


@pytest.fixture(scope="session")
def micro_corpus():
    sessions, templates = generate_corpus(MICRO_SYNTH)
    return sessions, templates


@pytest.fixture(scope="session")
def micro_task(micro_corpus):
    sessions, _ = micro_corpus
    spec = build_task_spec(sessions, {MICRO_KEYWORD}, 0.1, 0.2)
    split = select_splits(sessions, spec, default_split(sessions))
    return prepare_task(sessions, split, spec)


@pytest.fixture()
def loss_config():
    return LossConfig()


@pytest.fixture(scope="session")
def micro_config_dict(tmp_path_factory):
    """RunConfig JSON dict for CLI tests; corpus root filled by the test."""
    return {
        "corpus": {"synth": {
            "seed": MICRO_SYNTH.seed,
            "n_sessions": MICRO_SYNTH.n_sessions,
            "session_minutes": MICRO_SYNTH.session_minutes,
            "vocab_size": MICRO_SYNTH.vocab_size,
            "zipf_exponent": MICRO_SYNTH.zipf_exponent,
            "word_duration_range_s": list(MICRO_SYNTH.word_duration_range_s),
            "gap_range_s": list(MICRO_SYNTH.gap_range_s),
            "snr": MICRO_SYNTH.snr,
            "n_channels": MICRO_SYNTH.n_channels,
            "sample_rate_hz": MICRO_SYNTH.sample_rate_hz,
        }},
        "task": {"keywords": [MICRO_KEYWORD], "beta_neg_s": 0.1, "beta_pos_s": 0.2},
        "model": {"trunk_channels": 8, "proj_channels": 16},
        "sampler": {"batch_size": 16, "jitter_samples": 4, "noise_std_fraction": 0.2},
        "training": {"max_epochs": 2, "patience": 2},
        "evaluation": {"bootstrap_resamples": 200, "permutation_draws": 500},
        "seeds": [0, 1],
    }


def rng(seed=0):
    return np.random.default_rng(seed)
