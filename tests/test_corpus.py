import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_fit_normalizer, reference_normalizer_apply

from kwslab.corpus import (
    EVENT_KINDS,
    EVENTS_HEADER,
    ChannelConfig,
    Normalizer,
    Session,
    SplitAssignment,
    WordEvent,
    build_task_spec,
    compute_d_max,
    count_positives,
    fit_normalizer,
    format_events_tsv,
    index_windows,
    load_corpus,
    load_events,
    parse_events_tsv,
    read_manifest,
    round_half_up,
    save_corpus,
    save_session,
    select_splits,
)
from kwslab.errors import (
    EventsParseError,
    InfeasibleTaskError,
    MissingKeywordError,
    ValidationError,
)
from kwslab.synthgen import default_split
from kwslab.training import TaskData


def make_session(session_id="s0", n_channels=3, fs=100.0, duration_s=30.0,
                 events=(), signal=None, seed=0):
    n = round_half_up(duration_s * fs)
    if signal is None:
        signal = np.random.default_rng(seed).standard_normal((n_channels, n))
    return Session(
        session_id=session_id,
        signal=signal,
        events=list(events),
        channel_config=ChannelConfig(n_channels=n_channels, sample_rate_hz=fs),
    )


def save_three_sessions(root, session) -> str:
    """Save `session` (id s0, in train) and two more sessions, s1 and s2, as
    a corpus under `root`; returns the root as a string."""
    others = [make_session(f"s{i}", duration_s=5.0, seed=i) for i in (1, 2)]
    split = SplitAssignment(train=["s0"], validation="s1", test="s2")
    save_corpus([session, *others], str(root), split)
    return str(root)


class TestParseEventsTsv:
    def test_single_row(self):
        text = "onset\tduration\tkind\tword\n1.200\t0.450\tword\tWatson"
        events = parse_events_tsv(text)
        assert events == [WordEvent(1.2, 0.45, "watson", "word")]

    def test_header_only(self):
        assert parse_events_tsv("onset\tduration\tkind\tword\n") == []

    def test_sorted_by_onset(self):
        # comparison oracle: plain sorted() on the onset floats
        text = "onset\tduration\tkind\tword\n2.0\t0.1\tword\tb\n1.0\t0.1\tword\ta"
        events = parse_events_tsv(text)
        onsets = [ev.onset_s for ev in events]
        assert onsets == sorted(onsets) == [1.0, 2.0]

    def test_stable_among_equal_onsets(self):
        text = ("onset\tduration\tkind\tword\n"
                "1.0\t0.1\tword\tfirst\n1.0\t0.2\tword\tsecond")
        events = parse_events_tsv(text)
        assert [ev.word for ev in events] == ["first", "second"]

    def test_column_order_free(self):
        text = "word\tkind\tonset\tduration\nhi\tword\t0.5\t0.2"
        events = parse_events_tsv(text)
        assert events[0].word == "hi"
        assert events[0].onset_s == 0.5

    def test_malformed_numeric_reports_line(self):
        text = "onset\tduration\tkind\tword\n1.0\t0.1\tword\ta\nxx\t0.1\tword\tb"
        with pytest.raises(EventsParseError, match="line 3"):
            parse_events_tsv(text)

    def test_negative_onset_rejected(self):
        text = "onset\tduration\tkind\tword\n-1.0\t0.1\tword\ta"
        with pytest.raises(ValidationError):
            parse_events_tsv(text)

    def test_zero_duration_rejected(self):
        text = "onset\tduration\tkind\tword\n1.0\t0\tword\ta"
        with pytest.raises(ValidationError):
            parse_events_tsv(text)

    def test_bad_header(self):
        with pytest.raises(EventsParseError):
            parse_events_tsv("time\tlen\tkind\tword\n")

    @pytest.mark.parametrize("onset,duration", [
        ("nan", "0.1"), ("inf", "0.1"), ("1.0", "nan"), ("1.0", "inf"), ("1.0", "-inf"),
    ])
    def test_non_finite_time_rejected_with_line(self, onset, duration):
        # float() accepts these spellings, and NaN passes every `< 0` / `<= 0` check
        text = f"onset\tduration\tkind\tword\n1.0\t0.1\tword\ta\n{onset}\t{duration}\tword\tb"
        with pytest.raises(ValidationError, match="line 3: .*finite"):
            parse_events_tsv(text)

    def test_non_word_kinds_allow_empty_word(self):
        text = "onset\tduration\tkind\tword\n0.0\t2.5\tspeech\t"
        events = parse_events_tsv(text)
        assert events[0].kind == "speech" and events[0].word == ""


@st.composite
def word_events(draw):
    kind = draw(st.sampled_from(EVENT_KINDS))
    word = draw(st.text("abcdefghijklmnopqrstuvwxyz'-", min_size=kind == "word", max_size=8))
    onset = draw(st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False))
    duration = draw(st.floats(0.0, 1e3, exclude_min=True, allow_nan=False,
                              allow_infinity=False))
    return WordEvent(onset, duration, word, kind)


class TestEventsTsvProperties:
    """format_events_tsv -> parse_events_tsv round-trips valid events
    exactly, and a malformed row raises EventsParseError naming its line."""

    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(word_events(), max_size=12))
    def test_round_trip(self, events):
        # float repr round-trips, and the parser's sort is stable
        assert parse_events_tsv(format_events_tsv(events)) == sorted(
            events, key=lambda ev: ev.onset_s)

    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(word_events(), min_size=1, max_size=8), data=st.data())
    def test_malformed_row_names_its_line(self, events, data):
        lines = format_events_tsv(events).splitlines()
        row = data.draw(st.integers(1, len(events)))
        fields = lines[row].split("\t")
        fault = data.draw(st.sampled_from(["short", "onset", "duration"]))
        if fault == "short":
            fields = fields[: data.draw(st.integers(1, len(fields) - 1))]
        else:  # no digits, so float() rejects it
            fields[EVENTS_HEADER.index(fault)] = data.draw(st.text("xyz.,;+-e", max_size=4))
        lines[row] = "\t".join(fields)
        with pytest.raises(EventsParseError) as info:
            parse_events_tsv("\n".join(lines))
        assert info.value.line_number == row + 1

    @settings(max_examples=50, deadline=None)
    @given(events=st.lists(word_events(), max_size=4), data=st.data())
    def test_bad_header_is_line_one(self, events, data):
        lines = format_events_tsv(events).splitlines()
        header = list(EVENTS_HEADER)
        missing = data.draw(st.integers(0, len(header) - 1))
        if data.draw(st.booleans()):
            header[missing] = data.draw(st.sampled_from(["time", "len", "type", "token", ""]))
        else:
            del header[missing]
        lines[0] = "\t".join(header)
        with pytest.raises(EventsParseError) as info:
            parse_events_tsv("\n".join(lines))
        assert info.value.line_number == 1


class TestDmaxAndTaskSpec:
    def _sessions_with_durations(self, durations, word="watson"):
        events = []
        t = 1.0
        for d in durations:
            events.append(WordEvent(t, d, word))
            t += d + 0.5
        return [make_session(duration_s=t + 2.0, events=events)]

    def test_d_max_is_max(self):
        sessions = self._sessions_with_durations([0.41, 0.52, 0.47])
        assert compute_d_max([s.events for s in sessions], {"watson"}) == {"watson": 0.52}

    def test_single_instance(self):
        sessions = self._sessions_with_durations([0.8])
        assert compute_d_max([s.events for s in sessions], {"watson"})["watson"] == 0.8

    def test_missing_keyword_named(self):
        sessions = self._sessions_with_durations([0.5])
        with pytest.raises(MissingKeywordError, match="holmes"):
            compute_d_max([s.events for s in sessions], {"watson", "holmes"})

    def test_window_duration_formula(self):
        sessions = self._sessions_with_durations([0.8])
        spec = build_task_spec(sessions, {"watson"}, 0.0, 0.25)
        assert spec.window_s == pytest.approx(1.05, abs=0)
        spec = build_task_spec(sessions, {"watson"}, 0.0, 0.0)
        assert spec.window_s == 0.8
        spec = build_task_spec(sessions, {"watson"}, 0.1, 0.3)
        assert spec.window_s == pytest.approx(0.1 + 0.8 + 0.3, abs=0)

    def test_negative_buffers_rejected(self):
        sessions = self._sessions_with_durations([0.8])
        with pytest.raises(ValidationError):
            build_task_spec(sessions, {"watson"}, -0.1, 0.0)

    @pytest.mark.parametrize("neg,pos", [
        (math.nan, 0.3), (0.1, math.nan), (math.inf, 0.3), (0.1, math.inf),
    ])
    def test_non_finite_buffers_rejected(self, neg, pos):
        # a NaN buffer used to be caught only by the window recheck
        sessions = self._sessions_with_durations([0.8])
        with pytest.raises(ValidationError, match="buffers must be >= 0 and finite"):
            build_task_spec(sessions, {"watson"}, neg, pos)

    @given(durations=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
           neg=st.floats(0.0, 1.0), pos=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_window_is_the_buffers_around_the_longest_keyword(self, durations, neg, pos):
        # bit for bit: beta_neg + max d_max + beta_pos, added in that order
        words = ["watson", "holmes"]
        events, t = [], 1.0
        for i, d in enumerate(durations):
            events.append(WordEvent(t, d, words[i % 2]))
            t += d + 0.5
        sessions = [make_session(n_channels=1, duration_s=t + 1.0, events=events)]
        spec = build_task_spec(sessions, words[:len(durations)], neg, pos)
        assert spec.window_s.hex() == (neg + max(durations) + pos).hex()
        assert spec.n_window_samples(100.0) == round_half_up((neg + max(durations) + pos) * 100.0)

    def test_keywords_lowercased(self):
        sessions = self._sessions_with_durations([0.8])
        spec = build_task_spec(sessions, {"WATSON"}, 0.0, 0.0)
        assert spec.keywords == frozenset({"watson"})


def cut_windows(session, spec, normalizer=None):
    """Index a session's windows and cut each raw through TaskData.window or,
    given a normalizer, z-scored through TaskData.stack."""
    refs, tally = index_windows(session, spec)
    fs = session.channel_config.sample_rate_hz
    task = TaskData(
        spec=spec, split=None, normalizer=normalizer,
        n_channels=session.channel_config.n_channels, n_window_samples=spec.n_window_samples(fs),
        signals={session.session_id: session.signal}, partitions={"all": refs},
    )
    if normalizer is None:
        return refs, [task.window(ref) for ref in refs], tally
    return refs, list(task.stack(refs)), tally


class TestExtractWindows:
    def test_start_sample_arithmetic(self):
        # oracle: round((10.0 - 0.1) * 250) = 2475, N = round(1.2 * 250) = 300
        fs = 250.0
        events = [WordEvent(10.0, 0.8, "watson")]
        session = make_session(fs=fs, duration_s=20.0, events=events)
        spec = build_task_spec([session], {"watson"}, 0.1, 0.3)
        assert spec.n_window_samples(fs) == 300
        refs, windows, tally = cut_windows(session, spec)
        assert (tally.positives, tally.negatives) == (0, 0)
        assert refs[0].start == 2475
        np.testing.assert_array_equal(
            windows[0], session.signal[:, 2475:2775].astype(np.float32)
        )

    def test_out_of_bounds_dropped(self):
        fs = 100.0
        events = [WordEvent(0.0, 0.5, "watson"), WordEvent(5.0, 0.5, "watson")]
        session = make_session(fs=fs, duration_s=10.0, events=events)
        spec = build_task_spec([session], {"watson"}, 0.1, 0.1)
        refs, tally = index_windows(session, spec)
        assert len(refs) == 1 and tally.positives == 1 and tally.negatives == 0
        assert refs[0].token_index == 1

    def test_label_indicator(self):
        events = [WordEvent(2.0, 0.4, "watson"), WordEvent(4.0, 0.3, "the")]
        session = make_session(duration_s=10.0, events=events)
        spec = build_task_spec([session], {"watson"}, 0.0, 0.0)
        refs, _ = index_windows(session, spec)
        assert [ref.label for ref in refs] == [1, 0]
        assert [ref.word for ref in refs] == ["watson", "the"]

    def test_uniform_n_and_label_sum(self, micro_corpus):
        sessions, _ = micro_corpus
        spec = build_task_spec(sessions, {"ri"}, 0.15, 0.25)
        for session in sessions:
            refs, windows, tally = cut_windows(session, spec)
            sizes = {w.shape for w in windows}
            assert sizes == {(session.channel_config.n_channels, spec.n_window_samples(
                session.channel_config.sample_rate_hz))}
            c_s = count_positives(session, spec.keywords)
            assert sum(ref.label for ref in refs) == c_s - tally.positives

    def test_impulse_at_beta_neg_offset(self):
        fs = 100.0
        signal = np.zeros((2, 1000), dtype=np.float32)
        onset = 4.0
        signal[:, round_half_up(onset * fs)] = 7.0  # impulse at the event onset
        events = [WordEvent(onset, 0.5, "watson")]
        session = make_session(
            n_channels=2, fs=fs, duration_s=10.0, events=events, signal=signal
        )
        spec = build_task_spec([session], {"watson"}, 0.2, 0.1)
        _, windows, _ = cut_windows(session, spec)
        offset = round_half_up(spec.beta_neg_s * fs)
        assert windows[0][0, offset] == 7.0

    def test_normalizer_applied(self):
        events = [WordEvent(2.0, 0.4, "watson")]
        session = make_session(duration_s=10.0, events=events)
        spec = build_task_spec([session], {"watson"}, 0.0, 0.0)
        norm = Normalizer(mean=np.full(3, 2.0), std=np.full(3, 4.0))
        _, raw, _ = cut_windows(session, spec)
        _, normed, _ = cut_windows(session, spec, normalizer=norm)
        np.testing.assert_array_equal(
            normed[0], ((raw[0] - 2.0) / 4.0).astype(np.float32)
        )


class TestSelectSplits:
    def _sessions_with_counts(self, counts):
        sessions = []
        for sid, c in counts.items():
            events = [WordEvent(1.0 + i, 0.3, "watson") for i in range(c)]
            events += [WordEvent(20.0, 0.3, "the")]
            sessions.append(make_session(session_id=sid, duration_s=30.0, events=events))
        return sessions

    @staticmethod
    def _brute_force_expected(counts):
        ranked = sorted(counts, key=lambda sid: (-counts[sid], sid))
        return ranked[0], ranked[1]

    def test_reassignment_matches_brute_force(self):
        counts = {"A": 5, "B": 0, "C": 3, "D": 1}
        sessions = self._sessions_with_counts(counts)
        spec = build_task_spec(sessions, {"watson"}, 0.0, 0.0)
        default = SplitAssignment(train=["A", "C"], validation="B", test="D")
        split = select_splits(sessions, spec, default)
        expected_test, expected_val = self._brute_force_expected(counts)
        assert split.test == expected_test == "A"
        assert split.validation == expected_val == "C"
        assert split.train == ["B", "D"]

    def test_valid_default_kept_verbatim(self):
        sessions = self._sessions_with_counts({"A": 5, "B": 2, "C": 3, "D": 1})
        spec = build_task_spec(sessions, {"watson"}, 0.0, 0.0)
        default = SplitAssignment(train=["A", "C"], validation="B", test="D")
        split = select_splits(sessions, spec, default)
        assert (split.train, split.validation, split.test) == (["A", "C"], "B", "D")

    def test_infeasible_when_one_positive_session(self):
        sessions = self._sessions_with_counts({"A": 2, "B": 0, "C": 0, "D": 0})
        spec = build_task_spec(sessions, {"watson"}, 0.0, 0.0)
        default = SplitAssignment(train=["A", "B"], validation="C", test="D")
        with pytest.raises(InfeasibleTaskError):
            select_splits(sessions, spec, default)

    def test_needs_three_sessions(self):
        sessions = self._sessions_with_counts({"A": 2, "B": 1})
        spec = build_task_spec(sessions, {"watson"}, 0.0, 0.0)
        with pytest.raises(InfeasibleTaskError):
            select_splits(sessions, spec, SplitAssignment(train=[], validation="A", test="B"))

    def test_idempotent(self):
        sessions = self._sessions_with_counts({"A": 5, "B": 0, "C": 3, "D": 1})
        spec = build_task_spec(sessions, {"watson"}, 0.0, 0.0)
        first = select_splits(
            sessions, spec, SplitAssignment(train=["A", "C"], validation="B", test="D")
        )
        second = select_splits(sessions, spec, first)
        assert (second.train, second.validation, second.test) == (
            first.train, first.validation, first.test
        )


class TestNormalizer:
    def test_constant_channel_floored(self):
        session = make_session(signal=np.full((3, 100), 5.0), duration_s=1.0, fs=100.0)
        norm = fit_normalizer([session])
        np.testing.assert_allclose(norm.mean, 5.0)
        np.testing.assert_allclose(norm.std, 1e-8)
        out = norm.zscore(session.signal.astype(np.float32))
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_pm_one(self):
        signal = np.tile(np.array([-1.0, 1.0]), (2, 50))
        session = make_session(n_channels=2, signal=signal, duration_s=1.0, fs=100.0)
        norm = fit_normalizer([session])
        np.testing.assert_allclose(norm.mean, 0.0)
        np.testing.assert_allclose(norm.std, 1.0)

    def test_transformed_train_mean_near_zero(self):
        # oracle: recompute the statistics after the transform
        sessions = [make_session(session_id=f"s{i}", duration_s=20.0, seed=i)
                    for i in range(3)]
        norm = fit_normalizer(sessions)
        stacked = np.concatenate([norm.zscore(s.signal.astype(np.float32)) for s in sessions],
                                 axis=1)
        assert np.abs(stacked.mean(axis=1, dtype=np.float64)).max() < 1e-6
        np.testing.assert_allclose(stacked.std(axis=1, dtype=np.float64), 1.0, atol=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fit_normalizer([])

    def test_bit_identical_to_whole_matrix_reference(self, micro_corpus):
        sessions, _ = micro_corpus
        constant = make_session(session_id="c", n_channels=8, signal=np.full((8, 300), 2.5),
                                duration_s=3.0)
        for train in (sessions[:2], sessions, [constant], [constant, sessions[0]]):
            norm, ref = fit_normalizer(train), reference_fit_normalizer(train)
            assert norm.mean.tobytes() == ref.mean.tobytes()
            assert norm.std.tobytes() == ref.std.tobytes()
            for session in (*sessions, constant):
                out = norm.zscore(session.signal.astype(np.float32))
                assert out.dtype == np.float32
                assert out.tobytes() == reference_normalizer_apply(ref, session.signal).tobytes()


class TestSerialization:
    def test_session_round_trip_bit_identical(self, tmp_path):
        events = [WordEvent(1.0, 0.25, "watson"), WordEvent(2.125, 1 / 3, "the")]
        session = make_session(duration_s=10.0, events=events)
        loaded = load_corpus(save_three_sessions(tmp_path, session))[0][0]
        np.testing.assert_array_equal(loaded.signal, session.signal)
        assert loaded.events == session.events
        assert loaded.channel_config == session.channel_config

    def test_save_session_returns_the_written_checksum(self, tmp_path):
        session = make_session(duration_s=5.0)
        digest = save_session(session, str(tmp_path))
        raw = (tmp_path / f"{session.session_id}.f32").read_bytes()
        sidecar = json.loads((tmp_path / f"{session.session_id}.json").read_text())
        assert digest == hashlib.sha256(raw).hexdigest() == sidecar["checksum_sha256"]

    def test_events_tsv_round_trip(self):
        events = [WordEvent(0.1 + 1 / 7, 0.123456789012345, "x")]
        assert parse_events_tsv(format_events_tsv(events)) == events

    def test_checksum_mismatch_detected(self, tmp_path):
        root = save_three_sessions(tmp_path, make_session(duration_s=5.0))
        raw = tmp_path / "s0.f32"
        blob = bytearray(raw.read_bytes())
        blob[0] ^= 0xFF
        raw.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="checksum"):
            load_corpus(root)

    @pytest.mark.parametrize("edit", [lambda b: b[:-4], lambda b: b[:-1], lambda b: b + b"\0"])
    def test_signal_file_of_the_wrong_size_rejected(self, tmp_path, edit):
        # used to escape as a bare ValueError from numpy's reshape or frombuffer
        root = save_three_sessions(tmp_path, make_session(duration_s=5.0))
        raw = tmp_path / "s0.f32"
        raw.write_bytes(edit(raw.read_bytes()))
        with pytest.raises(ValidationError, match=r"session s0: .*s0\.f32 does not hold"):
            load_corpus(root)

    @pytest.mark.parametrize("key", ["n_samples", "n_channels", "checksum_sha256"])
    def test_sidecar_missing_key_rejected(self, tmp_path, key):
        # a missing n_samples used to escape as a KeyError
        root = save_three_sessions(tmp_path, make_session(duration_s=5.0))
        path = tmp_path / "s0.json"
        sidecar = json.loads(path.read_text())
        del sidecar[key]
        path.write_text(json.dumps(sidecar))
        with pytest.raises(ValidationError, match=rf"session s0: .*s0\.json has no {key}"):
            load_corpus(root)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"n_channels": "3"'])
    def test_sidecar_not_a_json_object_rejected(self, tmp_path, text):
        root = save_three_sessions(tmp_path, make_session(duration_s=5.0))
        (tmp_path / "s0.json").write_text(text)
        with pytest.raises(ValidationError, match=r"session s0: .*s0\.json is not a JSON object"):
            load_corpus(root)

    def test_sidecar_shape_not_counts_rejected(self, tmp_path):
        root = save_three_sessions(tmp_path, make_session(duration_s=5.0))
        path = tmp_path / "s0.json"
        sidecar = json.loads(path.read_text())
        sidecar["n_samples"] = -500
        path.write_text(json.dumps(sidecar))
        with pytest.raises(ValidationError, match="not counts"):
            load_corpus(root)

    def test_checksum_mismatch_in_a_middle_session_detected(self, tmp_path, micro_corpus):
        # the sessions are read on worker threads; the error still surfaces
        sessions, _ = micro_corpus
        save_corpus(sessions, str(tmp_path), default_split(sessions))
        raw = tmp_path / "s001.f32"
        blob = bytearray(raw.read_bytes())
        blob[-1] ^= 0x01
        raw.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="session s001: signal checksum mismatch"):
            load_corpus(str(tmp_path))

    def test_manifest_checksum_is_checked_against_the_signal(self, tmp_path):
        # a manifest checksum that agrees with neither the signal nor the
        # sidecar used to load, and went into the reports' provenance
        root = save_three_sessions(tmp_path, make_session(duration_s=5.0))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["sessions"][1]["checksum_sha256"] = "deadbeef"
        path.write_text(json.dumps(manifest))
        assert read_manifest(root)[0]["s1"] == "deadbeef"
        with pytest.raises(ValidationError,
                           match=r"session s1: .*s1\.json disagrees with the manifest checksum"):
            load_corpus(root)

    def test_events_load_without_the_signals(self, tmp_path, micro_corpus):
        sessions, _ = micro_corpus
        save_corpus(sessions, str(tmp_path), default_split(sessions))
        checksums, split = read_manifest(str(tmp_path))
        assert list(checksums) == [s.session_id for s in sessions]
        assert split == load_corpus(str(tmp_path))[1]
        for signal in tmp_path.glob("*.f32"):
            signal.unlink()
        assert load_events(str(tmp_path)) == [s.events for s in sessions]
        events = tmp_path / "s002_events.tsv"
        lines = events.read_text().splitlines()
        events.write_text("\n".join([*lines[:3], "xx\t0.3\tword\tri", *lines[3:]]) + "\n")
        with pytest.raises(EventsParseError, match=rf"{events}: line 4: malformed numeric"):
            load_events(str(tmp_path))

    def test_manifest_keeps_each_sessions_partition(self, tmp_path, micro_corpus):
        sessions, _ = micro_corpus
        ids = [s.session_id for s in sessions]
        split = SplitAssignment(train=ids[:1:-1], validation=ids[1], test=ids[0])  # train reversed
        assert split.partition_of() == {ids[0]: "test", ids[1]: "validation",
                                        **dict.fromkeys(ids[2:], "train")}
        save_corpus(sessions, str(tmp_path), split)
        assert read_manifest(str(tmp_path))[1].partition_of() == split.partition_of()

    def test_corpus_round_trip(self, tmp_path, micro_corpus):
        sessions, _ = micro_corpus
        split = SplitAssignment(
            train=[s.session_id for s in sessions[:-2]],
            validation=sessions[-2].session_id,
            test=sessions[-1].session_id,
        )
        save_corpus(sessions, str(tmp_path), split)
        loaded, default = load_corpus(str(tmp_path))
        assert [s.session_id for s in loaded] == [s.session_id for s in sessions]
        for a, b in zip(loaded, sessions):
            np.testing.assert_array_equal(a.signal, b.signal)
            assert a.events == b.events
        assert default.validation == split.validation
        assert default.test == split.test
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for entry in manifest["sessions"]:
            sidecar = json.loads((tmp_path / f"{entry['session_id']}.json").read_text())
            assert entry["checksum_sha256"] == sidecar["checksum_sha256"]


class TestSessionValidation:
    def test_unsorted_events_rejected(self):
        events = [WordEvent(2.0, 0.1, "a"), WordEvent(1.0, 0.1, "b")]
        with pytest.raises(ValidationError, match="sorted"):
            make_session(events=events)

    def test_event_past_end_rejected(self):
        events = [WordEvent(29.9, 0.5, "a")]
        with pytest.raises(ValidationError, match="past"):
            make_session(events=events, duration_s=30.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_sample_rate_rejected(self, rate):
        # a NaN rate used to construct and fail later in `index_windows`
        with pytest.raises(ValidationError, match="sample_rate_hz must be > 0 and finite"):
            ChannelConfig(n_channels=2, sample_rate_hz=rate)
