import dataclasses
import os
import sys

import numpy as np
import pytest
from scipy import stats

from helpers import loop_build_lexicon, reference_generate_corpus
from kwslab.corpus import load_corpus, round_half_up, save_corpus
from kwslab.errors import ValidationError
from kwslab.metrics import spearman_rank_corr
from kwslab.synthgen import (
    SynthConfig,
    _burst,
    _bursts,
    build_lexicon,
    build_templates,
    default_split,
    generate_corpus,
    zipf_probabilities,
)

SMALL = SynthConfig(
    seed=11, n_sessions=2, session_minutes=2.0, vocab_size=16,
    word_duration_range_s=(0.2, 0.35), gap_range_s=(0.2, 0.4),
    n_channels=6, sample_rate_hz=100.0,
)


def token_counts(sessions):
    counts = {}
    for s in sessions:
        for ev in s.word_events():
            counts[ev.word] = counts.get(ev.word, 0) + 1
    return counts


class TestDeterminism:
    def test_identical_seeds_identical_corpora(self):
        a, _ = generate_corpus(SMALL)
        b, _ = generate_corpus(SMALL)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.signal, sb.signal)
            assert sa.events == sb.events

    def test_different_seed_differs(self):
        a, _ = generate_corpus(SMALL)
        b, _ = generate_corpus(dataclasses.replace(SMALL, seed=12))
        assert not np.array_equal(a[0].signal, b[0].signal)



@pytest.mark.parametrize("field,value", [
    ("snr", float("nan")), ("snr", float("inf")), ("snr", -1.0),
    ("session_minutes", float("nan")), ("session_minutes", float("inf")),
    ("zipf_exponent", float("nan")), ("zipf_exponent", float("-inf")),
    ("sample_rate_hz", float("nan")), ("sample_rate_hz", float("inf")),
    ("word_duration_range_s", (float("nan"), 0.3)), ("word_duration_range_s", (0.2, float("nan"))),
    ("word_duration_range_s", (0.2, float("inf"))), ("gap_range_s", (float("nan"), 0.4)),
    ("gap_range_s", (0.2, float("nan"))), ("gap_range_s", (0.2, float("inf"))),
    ("seed", float("nan")), ("vocab_size", float("nan")), ("n_sessions", float("nan")),
])
def test_non_finite_setting_rejected(field, value):
    # the checks were written so that NaN passed them: snr=NaN wrote a corpus
    # and exit 0, and NaN minutes or Zipf exponent failed later with exit 2
    with pytest.raises(ValidationError):
        dataclasses.replace(SMALL, **{field: value})


class TestZeroSnr:
    def test_signal_independent_of_lexicon(self):
        # with snr=0 the signal is pure seeded noise: changing the word
        # distribution changes the events but not one sample of signal
        base = dataclasses.replace(SMALL, snr=0.0)
        other = dataclasses.replace(base, zipf_exponent=0.0)
        a, _ = generate_corpus(base)
        b, _ = generate_corpus(other)
        assert a[0].events != b[0].events
        np.testing.assert_array_equal(a[0].signal, b[0].signal)


class TestFrequencyModel:
    def test_uniform_limit(self):
        config = SynthConfig(
            seed=3, n_sessions=2, session_minutes=4.0, vocab_size=2,
            zipf_exponent=0.0, word_duration_range_s=(0.2, 0.3),
            gap_range_s=(0.2, 0.3), n_channels=4, sample_rate_hz=100.0,
        )
        sessions, _ = generate_corpus(config)
        counts = token_counts(sessions)
        total = sum(counts.values())
        lexicon = build_lexicon(2)
        share = counts.get(lexicon[0], 0) / total
        # binomial 4-sigma band around 0.5
        assert abs(share - 0.5) < 4 * 0.5 / np.sqrt(total)

    def test_chi_square_gof_vs_zipf(self):
        config = SynthConfig(
            seed=7, n_sessions=6, session_minutes=6.0, vocab_size=12,
            zipf_exponent=1.0, word_duration_range_s=(0.2, 0.3),
            gap_range_s=(0.2, 0.3), n_channels=4, sample_rate_hz=100.0,
        )
        sessions, _ = generate_corpus(config)
        counts = token_counts(sessions)
        lexicon = build_lexicon(config.vocab_size)
        observed = np.array([counts.get(w, 0) for w in lexicon], dtype=float)
        expected = zipf_probabilities(config.vocab_size, 1.0) * observed.sum()
        assert expected.min() >= 5
        _, p = stats.chisquare(observed, expected)
        assert p > 0.01

    def test_rank_frequency_monotone_in_expectation(self):
        sessions, _ = generate_corpus(SMALL)
        counts = token_counts(sessions)
        lexicon = build_lexicon(SMALL.vocab_size)
        ranks = list(range(len(lexicon)))
        observed = [counts.get(w, 0) for w in lexicon]
        r, _ = spearman_rank_corr(ranks, observed)
        assert r < 0

    def test_zipf_probabilities_normalized(self):
        p = zipf_probabilities(64, 1.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(p) < 0)


class TestLexicon:
    def test_unique_words(self):
        lexicon = build_lexicon(64)
        assert len(set(lexicon)) == 64

    def test_length_grows_with_rank(self):
        lexicon = build_lexicon(64)
        lengths = [len(w) for w in lexicon]
        assert lengths == sorted(lengths)
        assert len(lexicon[0]) == 2 and len(lexicon[63]) == 14

    def test_spelling_equals_the_digit_loop(self):
        # rank 1229 is spelled with 123 zero-padded digits
        assert build_lexicon(1230) == loop_build_lexicon(1230)
        assert build_lexicon(12)[:3] == ["na", "to", "ri"]
        assert build_lexicon(12)[10:] == ["tona", "toto"]


def assert_same_corpus(got, want):
    (sessions, templates), (ref_sessions, ref_templates) = got, want
    assert [s.session_id for s in sessions] == [s.session_id for s in ref_sessions]
    for s, ref in zip(sessions, ref_sessions):
        assert s.signal.dtype == ref.signal.dtype and s.signal.shape == ref.signal.shape
        assert s.signal.tobytes() == ref.signal.tobytes(), s.session_id
        assert s.events == ref.events and s.channel_config == ref.channel_config
    assert list(templates) == list(ref_templates)
    for word, t in templates.items():
        assert t.spatial.tobytes() == ref_templates[word].spatial.tobytes()
        assert (t.freqs_hz, t.phases, t.mix) == (
            ref_templates[word].freqs_hz, ref_templates[word].phases, ref_templates[word].mix)


class TestParallelBitIdentity:
    """Sessions filled on worker threads, with bursts sliced from a
    per-word table, equal the serial generator with a burst made per token."""

    @pytest.mark.parametrize("config", [
        SMALL,  # widths 20-35 samples around a 30-sample response span
        dataclasses.replace(SMALL, snr=0.0),
        dataclasses.replace(SMALL, word_duration_range_s=(0.1, 0.25)),  # all inside the span
        dataclasses.replace(SMALL, word_duration_range_s=(0.4, 0.6), sample_rate_hz=250.0),
        dataclasses.replace(SMALL, n_sessions=1),
        dataclasses.replace(SMALL, n_sessions=(os.cpu_count() or 1) + 2, session_minutes=0.5),
        # the lowest rate SynthConfig accepts: the shortest word spans one sample
        dataclasses.replace(SMALL, sample_rate_hz=5.0, session_minutes=3.0),
    ])
    def test_matches_serial_reference(self, config):
        assert_same_corpus(generate_corpus(config), reference_generate_corpus(config))

    def test_round_trip_matches_with_threads_switching_often(self, tmp_path):
        config = dataclasses.replace(SMALL, n_sessions=(os.cpu_count() or 1) + 2,
                                     session_minutes=0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sessions, templates = generate_corpus(config)
            save_corpus(sessions, str(tmp_path), default_split(sessions))
            loaded, _ = load_corpus(str(tmp_path))
        finally:
            sys.setswitchinterval(interval)
        want = reference_generate_corpus(config)
        assert_same_corpus((sessions, templates), want)
        assert_same_corpus((loaded, templates), want)

    @pytest.mark.parametrize("config", [
        SMALL, dataclasses.replace(SMALL, snr=3.5, word_duration_range_s=(0.1, 0.25)),
        dataclasses.replace(SMALL, word_duration_range_s=(0.3, 0.9), sample_rate_hz=333.0),
    ])
    def test_burst_table_matches_a_fresh_burst_at_every_width(self, config):
        templates = build_templates(config)
        burst = _bursts(templates, config)
        longest = max(round_half_up(config.word_duration_range_s[1] * config.sample_rate_hz), 1)
        for word, template in templates.items():
            for width in range(1, longest + 1):
                got = burst(word, width)
                want = _burst(template, width, config)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (word, width)


class TestTemplates:
    def test_spatial_unit_norm_and_block_orthogonal(self):
        templates = build_templates(SMALL)
        lexicon = build_lexicon(SMALL.vocab_size)
        spatial = np.stack([templates[w].spatial for w in lexicon])
        np.testing.assert_allclose(np.linalg.norm(spatial, axis=1), 1.0, atol=1e-12)
        block = spatial[: SMALL.n_channels]
        gram = block @ block.T
        np.testing.assert_allclose(gram, np.eye(len(block)), atol=1e-10)

    def test_kernel_peak_normalized_and_onset_locked(self):
        templates = build_templates(SMALL)
        word = build_lexicon(SMALL.vocab_size)[0]
        short = templates[word].kernel(25, SMALL.sample_rate_hz)
        long = templates[word].kernel(35, SMALL.sample_rate_hz)
        # truncation, not stretching: common prefix identical
        np.testing.assert_array_equal(long[:25], short)
        assert np.max(np.abs(long)) == pytest.approx(1.0)


class TestEventsValid:
    def test_all_events_inside_bounds(self):
        sessions, _ = generate_corpus(SMALL)
        for s in sessions:
            s.validate_events()  # raises on violation
            assert len(s.word_events()) > 0


class TestConfigValidation:
    def test_bad_vocab(self):
        with pytest.raises(ValidationError):
            SynthConfig(vocab_size=1)

    def test_bad_snr(self):
        with pytest.raises(ValidationError):
            SynthConfig(snr=-0.1)

    @pytest.mark.parametrize("rate", [0.1, 4.99, 0.0, -100.0])
    def test_rate_with_a_token_under_one_sample_rejected(self, rate):
        # at 0.1 Hz a token starting on the session end used to be cut to zero
        # samples and fail in numpy with a bare ValueError (exit 2)
        with pytest.raises(ValidationError, match="sample_rate_hz"):
            dataclasses.replace(SMALL, sample_rate_hz=rate, session_minutes=3.0)

    def test_bad_ranges(self):
        with pytest.raises(ValidationError):
            SynthConfig(word_duration_range_s=(0.5, 0.2))
