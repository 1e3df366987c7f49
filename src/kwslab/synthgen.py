"""Deterministic generator of MEG-like corpora with a Zipfian lexicon and
injected word-evoked signatures, sized for desk-scale end-to-end runs.

Every random draw is keyed by an explicit (seed, stream, ...) tuple, so the
sessions are generated on one thread per session, up to the core count, and
the output is bit-identical to generating them one after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ChannelConfig, Session, SplitAssignment, WordEvent, map_sessions, round_half_up
from .errors import ValidationError
from .streams import stream

# RNG stream tags
_STREAM_NOISE = 0
_STREAM_TOKENS = 1
_STREAM_TEMPLATES = 2

_SYLLABLES = ("na", "to", "ri", "ke", "su", "mo", "la", "vi", "da", "pu")

_HEAD_MARGIN_S = 0.5
_TAIL_MARGIN_S = 1.0

# evoked signatures are onset-locked waveforms over a fixed span, truncated
# by the token duration, so every instance of a word is stereotyped
_RESPONSE_SPAN_S = 0.30


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_sessions: int = 8
    session_minutes: float = 10.0
    vocab_size: int = 64
    zipf_exponent: float = 1.0
    word_duration_range_s: tuple[float, float] = (0.30, 0.50)
    gap_range_s: tuple[float, float] = (0.50, 0.90)
    snr: float = 1.0
    n_channels: int = 32
    sample_rate_hz: float = 250.0

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.seed >= 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.vocab_size >= 2:
            raise ValidationError("vocab_size must be >= 2")
        if not 0 <= self.snr < np.inf:
            raise ValidationError("snr must be >= 0 and finite")
        if not np.isfinite(self.zipf_exponent):
            raise ValidationError("zipf_exponent must be finite")
        if not (self.word_duration_range_s[0] > 0 and self.gap_range_s[0] > 0):
            raise ValidationError("duration and gap minima must be > 0")
        if not 1 <= self.word_duration_range_s[0] * self.sample_rate_hz < np.inf:
            # else the last token can start on the session end, cut to zero samples
            raise ValidationError(
                "sample_rate_hz must be finite and give the shortest word at least one "
                f"sample ({self.word_duration_range_s[0]} s at {self.sample_rate_hz} Hz)")
        if not self.word_duration_range_s[0] <= self.word_duration_range_s[1] < np.inf:
            raise ValidationError("word_duration_range_s must be a finite (min, max)")
        if not self.gap_range_s[0] <= self.gap_range_s[1] < np.inf:
            raise ValidationError("gap_range_s must be a finite (min, max)")
        if not (self.n_sessions >= 1 and 0 < self.session_minutes < np.inf):
            raise ValidationError("need at least one session of positive, finite length")


@dataclass(frozen=True)
class WordTemplate:
    """Ground-truth evoked signature of one word type."""

    spatial: np.ndarray  # unit-norm, shape (n_channels,)
    freqs_hz: tuple[float, float]
    phases: tuple[float, float]
    mix: float

    def kernel(self, n_samples: int, sample_rate_hz: float) -> np.ndarray:
        """Onset-locked waveform sampled at the recording rate, zero beyond
        the fixed response span, peak amplitude 1."""
        t = (np.arange(n_samples) + 0.5) / sample_rate_hz
        u = np.clip(t / _RESPONSE_SPAN_S, 0.0, 1.0)
        v = np.sin(2 * np.pi * self.freqs_hz[0] * t + self.phases[0])
        v = v + self.mix * np.sin(2 * np.pi * self.freqs_hz[1] * t + self.phases[1])
        v = v * np.sin(np.pi * u) * (t < _RESPONSE_SPAN_S)
        peak = np.max(np.abs(v))
        return (v / peak if peak > 0 else v).astype(np.float64)


def build_lexicon(vocab_size: int) -> list[str]:
    """Pseudoword per frequency rank; string length grows with rank.

    Rank r is spelled as its zero-padded base-10 digits over a syllable
    alphabet, using 1 + r // 10 syllables, so frequent words are short and
    rare words long (the natural-lexicon relation the frequency sweep relies
    on).
    """
    return ["".join(_SYLLABLES[int(d)] for d in f"{rank:0{1 + rank // 10}d}")
            for rank in range(vocab_size)]


def zipf_probabilities(vocab_size: int, exponent: float) -> np.ndarray:
    weights = (np.arange(1, vocab_size + 1, dtype=np.float64)) ** (-exponent)
    return weights / weights.sum()


def build_templates(config: SynthConfig) -> dict[str, WordTemplate]:
    """Per-word spatial patterns (blockwise-orthonormalized Gaussians) and
    temporal kernel parameters, all keyed by (seed, word rank)."""
    lexicon = build_lexicon(config.vocab_size)
    c = config.n_channels
    spatial = np.empty((config.vocab_size, c), dtype=np.float64)
    rng = stream(config.seed, _STREAM_TEMPLATES)
    done = 0
    while done < config.vocab_size:
        block = min(c, config.vocab_size - done)
        gauss = rng.standard_normal((c, block))
        q, r = np.linalg.qr(gauss)
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
        spatial[done : done + block] = q[:, :block].T
        done += block
    templates = {}
    for rank, word in enumerate(lexicon):
        wrng = stream(config.seed, _STREAM_TEMPLATES, rank)
        freqs = tuple(wrng.uniform(3.0, 14.0, size=2))
        phases = tuple(wrng.uniform(0.0, 2 * np.pi, size=2))
        mix = float(wrng.uniform(0.3, 1.0))
        templates[word] = WordTemplate(
            spatial=spatial[rank], freqs_hz=freqs, phases=phases, mix=mix
        )
    return templates


def _burst(template: WordTemplate, width: int, config: SynthConfig) -> np.ndarray:
    """The float32 evoked burst of one token `width` samples long; its peak
    sample amplitude over the unit noise std is the snr."""
    burst = np.outer(template.spatial, template.kernel(width, config.sample_rate_hz))
    peak = np.max(np.abs(burst))
    if peak > 0:
        burst *= config.snr / peak
    return burst.astype(np.float32)


def _generate_session(config, session_idx, lexicon, probs, burst, signal) -> Session:
    """Fill `signal`, allocated by the caller, with one session's noise and
    bursts; `burst(word, width)` gives a token's burst."""
    fs = config.sample_rate_hz
    session_s = config.session_minutes * 60.0
    n_samples = signal.shape[1]
    noise_rng = stream(config.seed, _STREAM_NOISE, session_idx)
    noise_rng.standard_normal(dtype=np.float32, out=signal)

    events = []
    t = _HEAD_MARGIN_S
    token_idx = 0
    while True:
        token_rng = stream(config.seed, _STREAM_TOKENS, session_idx, token_idx)
        gap = float(token_rng.uniform(*config.gap_range_s))
        rank = int(token_rng.choice(config.vocab_size, p=probs))
        duration = float(token_rng.uniform(*config.word_duration_range_s))
        onset = t if token_idx == 0 else t + gap
        if onset + duration + _TAIL_MARGIN_S > session_s:
            break
        word = lexicon[rank]
        events.append(WordEvent(onset_s=onset, duration_s=duration, word=word, kind="word"))
        if config.snr > 0:
            start = round_half_up(onset * fs)
            width = min(max(round_half_up(duration * fs), 1), n_samples - start)
            signal[:, start : start + width] += burst(word, width)
        t = onset + duration
        token_idx += 1

    return Session(
        session_id=f"s{session_idx:03d}",
        signal=signal,
        events=events,
        channel_config=ChannelConfig(
            n_channels=config.n_channels, sample_rate_hz=fs, channel_names=None
        ),
    )


def _bursts(templates: dict[str, WordTemplate], config: SynthConfig):
    """`burst(word, width)`, the burst of one token. Each word's burst is
    made once, at the longest token width, and a token covering the
    response span takes a slice of it: the kernel is zero past the span, so
    the peak and the scaling are the same numbers. Shorter tokens make their
    own."""
    fs = config.sample_rate_hz
    longest = max(round_half_up(config.word_duration_range_s[1] * fs), 1)
    # samples of the longest token inside the span, by the kernel's own test;
    # at least one, so a token cut to zero samples fails in _burst as it would alone
    span = max(1, int(np.count_nonzero((np.arange(longest) + 0.5) / fs < _RESPONSE_SPAN_S)))
    table = {word: _burst(t, longest, config) for word, t in templates.items()}

    def burst(word, width):
        if span <= width <= longest:
            return table[word][:, :width]
        return _burst(templates[word], width, config)

    return burst


def generate_corpus(config: SynthConfig):
    """Generate all sessions plus the ground-truth template map.

    Identical configs produce bit-identical corpora regardless of how the
    per-session work is scheduled: the signals are allocated here and filled
    on one worker thread per session.
    """
    lexicon = build_lexicon(config.vocab_size)
    probs = zipf_probabilities(config.vocab_size, config.zipf_exponent)
    templates = build_templates(config)
    burst = _bursts(templates, config) if config.snr > 0 else None
    n_samples = round_half_up(config.session_minutes * 60.0 * config.sample_rate_hz)
    signals = [np.empty((config.n_channels, n_samples), dtype=np.float32)
               for _ in range(config.n_sessions)]
    sessions = map_sessions(
        lambda idx: _generate_session(config, idx, lexicon, probs, burst, signals[idx]),
        range(config.n_sessions))
    return sessions, templates


def default_split(sessions) -> SplitAssignment:
    """Default partition hint: last two sessions become validation and test."""
    ids = sorted(s.session_id for s in sessions)
    return SplitAssignment(train=ids[:-2], validation=ids[-2], test=ids[-1])
