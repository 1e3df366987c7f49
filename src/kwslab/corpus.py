"""Data model, serialized formats, window indexing, labeling, and split
selection for session-structured multichannel recordings with word-level
event annotations.

A corpus on disk is a directory containing, per session,

    <session_id>.f32          raw little-endian float32 samples, channel-major
    <session_id>.json         sidecar: id, geometry, channel names, checksum
    <session_id>_events.tsv   onset / duration / kind / word rows

plus a ``manifest.json`` of session checksums and partitions. Only this module reads these.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EventsParseError,
    InfeasibleTaskError,
    MissingKeywordError,
    ValidationError,
)
from .fileio import atomic_open, write_json

EVENT_KINDS = ("word", "phoneme", "speech")
EVENTS_HEADER = ("onset", "duration", "kind", "word")
STD_FLOOR = 1e-8
SIDECAR_KEYS = ("n_channels", "n_samples", "sample_rate_hz", "checksum_sha256")
MANIFEST = "manifest.json"


def round_half_up(x: float) -> int:
    """Round to nearest integer, ties away from zero toward +inf."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ChannelConfig:
    n_channels: int = 306
    sample_rate_hz: float = 250.0
    channel_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_channels < 1:
            raise ValidationError(f"n_channels must be >= 1, got {self.n_channels}")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValidationError(
                f"sample_rate_hz must be > 0 and finite, got {self.sample_rate_hz}")
        if self.channel_names is not None and len(self.channel_names) != self.n_channels:
            raise ValidationError(
                f"channel_names has {len(self.channel_names)} entries for "
                f"{self.n_channels} channels"
            )


@dataclass(frozen=True)
class WordEvent:
    onset_s: float
    duration_s: float
    word: str
    kind: str = "word"

    def __post_init__(self):
        if not (math.isfinite(self.onset_s) and self.onset_s >= 0):
            raise ValidationError(f"event onset must be finite and >= 0, got {self.onset_s}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValidationError(f"event duration must be finite and > 0, got {self.duration_s}")
        if self.kind not in EVENT_KINDS:
            raise ValidationError(f"unknown event kind {self.kind!r}")
        if self.kind == "word" and not self.word:
            raise ValidationError("word-kind event with empty word string")


@dataclass
class Session:
    """One recording run: a C x T signal matrix plus its event list."""

    session_id: str
    signal: np.ndarray
    events: list[WordEvent]
    channel_config: ChannelConfig

    def __post_init__(self):
        self.signal = np.ascontiguousarray(self.signal, dtype=np.float32)
        if self.signal.ndim != 2:
            raise ValidationError(f"signal must be 2-D, got shape {self.signal.shape}")
        if self.signal.shape[0] != self.channel_config.n_channels:
            raise ValidationError(
                f"signal has {self.signal.shape[0]} channels, config says "
                f"{self.channel_config.n_channels}"
            )
        self.validate_events()

    @property
    def n_samples(self) -> int:
        return self.signal.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.channel_config.sample_rate_hz

    def validate_events(self):
        last = -np.inf
        for ev in self.events:
            if ev.onset_s < last:
                raise ValidationError(
                    f"session {self.session_id}: events not sorted by onset"
                )
            last = ev.onset_s
            if ev.onset_s + ev.duration_s > self.duration_s + 1e-9:
                raise ValidationError(
                    f"session {self.session_id}: event at {ev.onset_s:.3f}s "
                    f"extends past the recording end ({self.duration_s:.3f}s)"
                )

    def word_events(self) -> list[WordEvent]:
        return [ev for ev in self.events if ev.kind == "word"]


@dataclass(frozen=True)
class KeywordTaskSpec:
    """Keyword set with buffers and the derived fixed window duration."""

    keywords: frozenset[str]
    beta_neg_s: float
    beta_pos_s: float
    d_max_s: dict[str, float]

    def __post_init__(self):
        if not self.keywords:
            raise ValidationError("keyword set must be non-empty")
        if not (0 <= self.beta_neg_s < math.inf and 0 <= self.beta_pos_s < math.inf):
            raise ValidationError("buffers must be >= 0 and finite")
        for k in self.keywords:
            if self.d_max_s.get(k, 0.0) <= 0:
                raise ValidationError(f"d_max_s[{k!r}] must be > 0")

    @property
    def window_s(self) -> float:
        return self.beta_neg_s + max(self.d_max_s.values()) + self.beta_pos_s

    def n_window_samples(self, sample_rate_hz: float) -> int:
        return round_half_up(self.window_s * sample_rate_hz)


@dataclass(frozen=True)
class WindowRef:
    """Where one word token's window starts, and its label."""

    session_id: str
    token_index: int
    start: int
    label: int
    word: str


@dataclass
class DropTally:
    """Events skipped because their window exceeds the session bounds."""

    positives: int = 0
    negatives: int = 0


@dataclass
class SplitAssignment:
    train: list[str]
    validation: str
    test: str

    def all_sessions(self) -> list[str]:
        return list(self.train) + [self.validation, self.test]

    def partition_of(self) -> dict[str, str]:
        """session_id -> "train", "validation" or "test"."""
        return dict.fromkeys(self.train, "train") | {self.validation: "validation",
                                                     self.test: "test"}

    def validate(self, session_ids):
        ids = set(session_ids)
        claimed = self.all_sessions()
        if len(set(claimed)) != len(claimed):
            raise ValidationError("split partitions overlap")
        if set(claimed) != ids:
            raise ValidationError("split does not cover exactly the corpus sessions")


@dataclass(frozen=True)
class Normalizer:
    """Per-channel z-score transform fitted on the training partition."""

    mean: np.ndarray
    std: np.ndarray
    # float32 (channels, samples) rows by (key, samples): a contiguous operand
    # runs one inner loop per window, a (channels, 1) one runs one per channel
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _spread(self, key, per_channel: np.ndarray, n_samples: int) -> np.ndarray:
        if (key, n_samples) not in self._rows:
            self._rows[key, n_samples] = np.repeat(per_channel.astype(np.float32)[:, None],
                                                   n_samples, axis=1)
        return self._rows[key, n_samples]

    def zscore(self, out: np.ndarray) -> np.ndarray:
        """Z-score a float32 (..., channels, samples) array in place; returns it."""
        out -= self._spread("mean", self.mean, out.shape[-1])
        out /= self._spread("std", self.std, out.shape[-1])
        return out

    def noise_scale(self, fraction: float, n_samples: int) -> np.ndarray:
        """float32 (channels, n_samples) augmentation noise std: `fraction` of the
        z-scored unit std, and none on the floored (constant) channels."""
        live = (self.std > STD_FLOOR).astype(np.float32)
        return self._spread(("noise", fraction), fraction * live, n_samples)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def parse_events_tsv(text: str) -> list[WordEvent]:
    """Parse TSV event rows into sorted WordEvents.

    The header must name the columns onset, duration, kind and word (any
    order). Words are lowercased; rows are sorted by onset with the original
    order preserved among equal onsets.
    """
    lines = text.splitlines()
    if not lines:
        raise EventsParseError("empty events file (missing header)")
    header = lines[0].rstrip("\n").split("\t")
    try:
        cols = {name: header.index(name) for name in EVENTS_HEADER}
    except ValueError:
        raise EventsParseError(
            f"header must name columns {EVENTS_HEADER}, got {header}", line_number=1
        ) from None

    events = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < len(header):
            raise EventsParseError(
                f"expected {len(header)} tab-separated fields, got {len(fields)}",
                line_number=lineno,
            )
        try:
            onset = float(fields[cols["onset"]])
            duration = float(fields[cols["duration"]])
        except ValueError as exc:
            raise EventsParseError(f"malformed numeric field: {exc}", line_number=lineno) from None
        kind = fields[cols["kind"]].strip()
        word = fields[cols["word"]].strip().lower()
        try:
            events.append(WordEvent(onset_s=onset, duration_s=duration, word=word, kind=kind))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    events.sort(key=lambda ev: ev.onset_s)  # stable: preserves row order on ties
    return events


def format_events_tsv(events) -> str:
    """Inverse of parse_events_tsv; float repr round-trips bit-exactly."""
    rows = ["\t".join(EVENTS_HEADER)]
    for ev in events:
        rows.append(f"{ev.onset_s!r}\t{ev.duration_s!r}\t{ev.kind}\t{ev.word}")
    return "\n".join(rows) + "\n"


def compute_d_max(event_lists, keywords) -> dict[str, float]:
    """Max observed duration of each keyword over the word tokens of all event lists."""
    d_max = {k: 0.0 for k in keywords}
    for events in event_lists:
        for ev in events:
            if ev.kind == "word" and ev.word in d_max:
                d_max[ev.word] = max(d_max[ev.word], ev.duration_s)
    for k, v in d_max.items():
        if v <= 0.0:
            raise MissingKeywordError(k)
    return d_max


def build_task_spec(sessions, keywords, beta_neg_s: float, beta_pos_s: float) -> KeywordTaskSpec:
    keywords = frozenset(k.lower() for k in keywords)
    return KeywordTaskSpec(
        keywords=keywords,
        beta_neg_s=beta_neg_s,
        beta_pos_s=beta_pos_s,
        d_max_s=compute_d_max([s.events for s in sessions], keywords),
    )


def index_windows(session, spec) -> tuple[list[WindowRef], DropTally]:
    """Index one fixed-length window per word token, in token order.

    Returns ``(refs, drop_tally)``. Windows start at
    ``round((onset - beta_neg) * fs)`` and span ``round(window_s * fs)``
    samples; tokens whose window would cross the session bounds are dropped
    and tallied instead of padded.
    """
    fs = session.channel_config.sample_rate_hz
    n = spec.n_window_samples(fs)
    refs = []
    tally = DropTally()
    for token_index, ev in enumerate(session.word_events()):
        label = 1 if ev.word in spec.keywords else 0
        start = round_half_up((ev.onset_s - spec.beta_neg_s) * fs)
        if start < 0 or start + n > session.n_samples:
            if label:
                tally.positives += 1
            else:
                tally.negatives += 1
            continue
        refs.append(WindowRef(session.session_id, token_index, start, label, ev.word))
    return refs, tally


def count_positives(session, keywords) -> int:
    """c_S: number of word tokens in the session matching the keyword set."""
    return sum(1 for ev in session.word_events() if ev.word in keywords)


def select_splits(sessions, spec, default_split: SplitAssignment) -> SplitAssignment:
    """Keep the default split when its validation and test sessions both
    contain positives; otherwise reassign the two highest-count sessions
    (ties broken by ascending session_id; top count -> test)."""
    if len(sessions) < 3:
        raise InfeasibleTaskError(f"need at least 3 sessions, got {len(sessions)}")
    counts = {s.session_id: count_positives(s, spec.keywords) for s in sessions}
    if sum(1 for c in counts.values() if c > 0) < 2:
        raise InfeasibleTaskError(
            "fewer than 2 sessions contain positives; validation and test "
            "cannot both be satisfied"
        )
    default_split.validate(counts.keys())
    if counts[default_split.validation] >= 1 and counts[default_split.test] >= 1:
        return replace(default_split, train=list(default_split.train))
    ranked = sorted(counts, key=lambda sid: (-counts[sid], sid))
    test_id, val_id = ranked[0], ranked[1]
    train = sorted(sid for sid in counts if sid not in (test_id, val_id))
    return SplitAssignment(train=train, validation=val_id, test=test_id)


def fit_normalizer(train_sessions) -> Normalizer:
    """Per-channel mean/std over every training sample; std floored at 1e-8."""
    if not train_sessions:
        raise ValidationError("no training sessions to fit a normalizer on")
    n_channels = train_sessions[0].channel_config.n_channels
    total = 0
    acc = np.zeros(n_channels, dtype=np.float64)
    acc_sq = np.zeros(n_channels, dtype=np.float64)
    # a row at a time, through one float64 buffer: the same pairwise sums as
    # over the whole matrix, without a fresh array per row
    buf = np.empty(max(s.n_samples for s in train_sessions), dtype=np.float64)
    for session in train_sessions:
        row = buf[: session.n_samples]
        for c, samples in enumerate(session.signal):
            row[:] = samples
            acc[c] += row.sum()
            row *= row
            acc_sq[c] += row.sum()
        total += session.n_samples
    if total == 0:
        raise ValidationError("training sessions contain no samples")
    mean = acc / total
    var = np.maximum(acc_sq / total - mean * mean, 0.0)
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return Normalizer(mean=mean, std=std)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def map_sessions(fn, items) -> list:
    """`fn` of each item, on one worker thread per item up to the core count.

    The work that dominates releases the GIL: numpy fills, sha256, file
    reads and writes. Results come back in item order, and so does the
    first exception; items not yet started when it is raised are dropped.
    Keep `fn` to per-session work: a tracer that wraps this package's
    public functions keeps one span stack, for the calling thread.
    """
    items = list(items)
    with ThreadPoolExecutor(max(1, min(len(items), os.cpu_count() or 1))) as pool:
        return list(pool.map(fn, items))


def save_session(session, root: str) -> str:
    """Write the signal, sidecar and events files; returns the signal's sha256."""
    os.makedirs(root, exist_ok=True)
    raw = np.ascontiguousarray(session.signal, dtype="<f4").reshape(-1).view(np.uint8)
    checksum = hashlib.sha256(raw).hexdigest()
    base = os.path.join(root, session.session_id)
    with atomic_open(base + ".f32", "wb") as fh:
        fh.write(raw)
    sidecar = {
        "session_id": session.session_id,
        "n_channels": session.channel_config.n_channels,
        "n_samples": session.n_samples,
        "sample_rate_hz": session.channel_config.sample_rate_hz,
        "channel_names": list(session.channel_config.channel_names or []) or None,
        "checksum_sha256": checksum,
    }
    write_json(base + ".json", sidecar)
    with atomic_open(base + "_events.tsv", "w", encoding="utf-8") as fh:
        fh.write(format_events_tsv(session.events))
    return checksum


def _open_session(root: str, session_id: str, checksum: str) -> tuple[dict, np.ndarray]:
    """A session's sidecar, checked against the manifest, and an empty signal of its shape."""
    path = os.path.join(root, session_id + ".json")
    with open(path, encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
        except ValueError:  # not JSON, or not UTF-8
            sidecar = None
    if not isinstance(sidecar, dict):
        raise ValidationError(f"session {session_id}: {path} is not a JSON object")
    missing = [key for key in SIDECAR_KEYS if key not in sidecar]
    if missing:
        raise ValidationError(f"session {session_id}: {path} has no {', '.join(missing)}")
    if sidecar["checksum_sha256"] != checksum:  # so the signal's check against it checks both
        raise ValidationError(f"session {session_id}: {path} disagrees with the manifest checksum")
    shape = sidecar["n_channels"], sidecar["n_samples"]
    if not all(type(d) is int and d >= 0 for d in shape):
        raise ValidationError(f"session {session_id}: {path} gives the shape {shape}, not counts")
    rate = sidecar["sample_rate_hz"]
    if type(rate) not in (int, float) or not 0 < rate < math.inf:
        raise ValidationError(f"session {session_id}: {path} gives the sample rate {rate!r}")
    return sidecar, np.empty(shape, dtype="<f4")


def _read_session(root: str, session_id: str, sidecar: dict, signal: np.ndarray) -> Session:
    """Read a session's signal file into `signal`, check it against the
    sidecar, and read its events."""
    base = os.path.join(root, session_id)
    raw = signal.reshape(-1).view(np.uint8)  # the signal's own bytes
    with open(base + ".f32", "rb") as fh:
        if fh.readinto(raw) != raw.nbytes or fh.read(1):
            raise ValidationError(
                f"session {session_id}: {base}.f32 does not hold the "
                f"{signal.shape[0]} x {signal.shape[1]} float32 samples its sidecar gives"
            )
    checksum = hashlib.sha256(raw).hexdigest()
    if checksum != sidecar["checksum_sha256"]:
        raise ValidationError(f"session {session_id}: signal checksum mismatch")
    for c, row in enumerate(signal):  # a row at a time: no session-sized temporary
        if not np.isfinite(row).all():
            i = int(np.flatnonzero(~np.isfinite(row))[0])
            raise ValidationError(f"session {session_id}: channel {c} holds a non-finite "
                                  f"sample ({row[i]}) at sample index {i}")
    names = sidecar.get("channel_names")
    config = ChannelConfig(
        n_channels=sidecar["n_channels"],
        sample_rate_hz=sidecar["sample_rate_hz"],
        channel_names=tuple(names) if names else None,
    )
    return Session(session_id, signal, _read_events(root, session_id), config)


def _read_events(root: str, session_id: str) -> list[WordEvent]:
    with open(os.path.join(root, session_id + "_events.tsv"), encoding="utf-8") as fh:
        try:
            return parse_events_tsv(fh.read())
        except (EventsParseError, ValidationError, UnicodeDecodeError) as exc:
            located = EventsParseError(f"{fh.name}: {exc}")  # exc names the line, or the byte
            located.line_number = getattr(exc, "line_number", None)
            raise located from None


def save_corpus(sessions, root: str, default_split: SplitAssignment):
    """Write every session, one thread per session, then a manifest carrying
    the default partition hints."""
    os.makedirs(root, exist_ok=True)
    partition = default_split.partition_of()
    checksums = map_sessions(lambda session: save_session(session, root), sessions)
    entries = [{"session_id": s.session_id, "partition": partition[s.session_id],
                "checksum_sha256": checksum} for s, checksum in zip(sessions, checksums)]
    write_json(os.path.join(root, MANIFEST), {"sessions": entries})


def read_manifest(root: str) -> tuple[dict[str, str], SplitAssignment]:
    """The checked manifest: session_id -> checksum, in manifest order, and the default split."""
    path = os.path.join(root, MANIFEST)
    with open(path, encoding="utf-8") as fh:
        try:
            entries = json.load(fh)["sessions"]
        except (ValueError, TypeError, KeyError):  # not UTF-8 JSON, not an object, no sessions
            entries = None
    if not isinstance(entries, list):
        raise ValidationError(f"{path} is not a JSON object with a sessions list")
    parts = {"train": [], "validation": [], "test": []}
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("session_id"), str)
                and entry.get("partition") in ("train", "validation", "test")
                and isinstance(entry.get("checksum_sha256"), str)):
            raise ValidationError(f"{path}: sessions[{i}] needs a string session_id, a "
                                  "train/validation/test partition and a checksum_sha256")
        parts[entry["partition"]].append(entry["session_id"])
    if len(parts["validation"]) != 1 or len(parts["test"]) != 1:
        raise ValidationError(f"{path} must hint exactly one validation and one test session")
    split = SplitAssignment(
        train=sorted(parts["train"]),
        validation=parts["validation"][0],
        test=parts["test"][0],
    )
    return {entry["session_id"]: entry["checksum_sha256"] for entry in entries}, split


def load_corpus(root: str):
    """Read the manifest and all sessions, one thread per session; returns
    (sessions, default_split)."""
    checksums, split = read_manifest(root)
    ids = list(checksums)
    opened = [_open_session(root, sid, checksums[sid]) for sid in ids]  # signals allocated here
    sessions = map_sessions(lambda i: _read_session(root, ids[i], *opened[i]), range(len(ids)))
    return sessions, split


def load_events(root: str) -> list[list[WordEvent]]:
    """Every session's events, in manifest order, without opening a signal file."""
    return [_read_events(root, sid) for sid in read_manifest(root)[0]]
