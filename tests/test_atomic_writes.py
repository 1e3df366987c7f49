"""Checkpoints, reports, scores files and corpus files are replaced all at
once: a write that fails midway leaves the previous file intact and no temp
file, and a write that completes removes the temp files hard-killed writes
to the same file left."""

import builtins
import math
import os
import types

import numpy as np
import pytest

import kwslab.nncore.checkpoint as checkpoint
from kwslab import fileio
from kwslab.corpus import ChannelConfig, Session, SplitAssignment, WordEvent, save_corpus
from kwslab.fileio import atomic_open
from kwslab.reports import write_rows_csv
from kwslab.training import ScoreRow, write_scores_csv


def failing_rows(rows):
    """Yield the first row, then fail as a full disk would."""
    yield rows[0]
    raise OSError("no space left on device")


def write_checkpoint(path, fail, monkeypatch):
    if fail:  # the magic number is written, then packing the header fails
        def pack(*args):
            raise OSError("no space left on device")
        monkeypatch.setattr(checkpoint, "struct", types.SimpleNamespace(pack=pack))
    checkpoint.save_arrays(path, {"w": np.arange(6.0).reshape(2, 3)}, {"kind": "test"})


def write_json(path, fail, monkeypatch):
    # keys are written in sorted order, so "a" is out before "b" fails
    fileio.write_json(path, {"a": list(range(100)), "b": object() if fail else 1})


def write_csv(path, fail, monkeypatch):
    rows = [{"x": 1.5 + fail, "y": "a"}, {"x": 2.5, "y": "b"}]
    write_rows_csv(path, ["x", "y"], failing_rows(rows) if fail else rows)


def write_scores(path, fail, monkeypatch):
    rows = [ScoreRow("s0", i, i % 2, 0.1 * i + fail) for i in range(5)]
    write_scores_csv(failing_rows(rows) if fail else rows, path)


@pytest.mark.parametrize("write", [write_checkpoint, write_json, write_csv, write_scores])
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, write):
    path = str(tmp_path / "out")
    write(path, False, monkeypatch)
    before = open(path, "rb").read()
    with pytest.raises((OSError, TypeError)):
        write(path, True, monkeypatch)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("write", [write_checkpoint, write_json, write_csv, write_scores])
def test_failed_first_write_leaves_nothing(tmp_path, monkeypatch, write):
    with pytest.raises((OSError, TypeError)):
        write(str(tmp_path / "out"), True, monkeypatch)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_report_value_fails_the_write(tmp_path, bad):
    # NaN and Infinity are not JSON; they used to be written as such
    path = str(tmp_path / "out.json")
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.write_json(path, {"a": 1.0, "b": {"c": [0.5, bad]}})
    assert os.listdir(tmp_path) == []


def test_completed_write_removes_only_its_own_stale_temp_files(tmp_path):
    # a SIGKILL during a write of out.json leaves .out.json.<8 hex>.tmp behind
    planted = {
        ".out.json.0f3a9c1e.tmp": True,  # a killed write of out.json
        ".out.json.0F3A9C1E.tmp": False,  # not os.urandom(4).hex()'s lower-case hex
        ".out.json.0f3a9c1.tmp": False,  # seven hex digits
        ".out.json.bak.0f3a9c1e.tmp": False,  # a killed write of out.json.bak
        ".other.json.0f3a9c1e.tmp": False,  # a killed write of another file
        ".out.jsonx.0f3a9c1e.tmp": False,
        "out.json.0f3a9c1e.tmp": False,  # not hidden
        "scratch.tmp": False,  # an unrelated .tmp
    }
    for name in planted:
        (tmp_path / name).write_text("stale")
    with atomic_open(str(tmp_path / "out.json")) as fh:
        fh.write("{}")
    kept = sorted(name for name, stale in planted.items() if not stale)
    assert sorted(os.listdir(tmp_path)) == sorted(kept + ["out.json"])
    assert (tmp_path / "out.json").read_text() == "{}"


def test_failed_write_removes_no_stale_temp_file(tmp_path):
    (tmp_path / ".out.json.0f3a9c1e.tmp").write_text("stale")
    with pytest.raises(OSError):
        with atomic_open(str(tmp_path / "out.json")) as fh:
            raise OSError("no space left on device")
    assert os.listdir(tmp_path) == [".out.json.0f3a9c1e.tmp"]


class DiskFull:
    """A file that takes half of the first write, then fails as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def corpus(scale):
    sessions = [
        Session(
            session_id=sid,
            signal=scale * np.random.default_rng(i).standard_normal((2, 300)),
            events=[WordEvent(0.5 * scale, 0.25, "ri")],
            channel_config=ChannelConfig(n_channels=2, sample_rate_hz=100.0),
        )
        for i, sid in enumerate(("s0", "s1", "s2"))
    ]
    return sessions, SplitAssignment(train=["s0"], validation="s1", test="s2")


@pytest.mark.parametrize("name", ["s1.f32", "s1.json", "s1_events.tsv", "manifest.json"])
def test_failed_corpus_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, name):
    sessions, split = corpus(1.0)
    save_corpus(sessions, str(tmp_path), split)
    before = {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)}
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        # the target itself, or a temp file named after it
        if set(mode) & set("wxa") and name in os.path.basename(str(file)):
            return DiskFull(fh)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError):
        save_corpus(corpus(2.0)[0], str(tmp_path), split)
    monkeypatch.undo()
    assert (tmp_path / name).read_bytes() == before[name]
    assert sorted(os.listdir(tmp_path)) == sorted(before)


@pytest.mark.parametrize("name", ["s1.f32", "s1.json", "s1_events.tsv"])
def test_failed_session_write_leaves_no_manifest_and_no_temp(tmp_path, monkeypatch, name):
    # sessions are written on worker threads; the caller writes the manifest
    # only after every session is out
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wxa") and name in os.path.basename(str(file)):
            return DiskFull(fh)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    sessions, split = corpus(1.0)
    with pytest.raises(OSError, match="no space left"):
        save_corpus(sessions, str(tmp_path), split)
    monkeypatch.undo()
    written = os.listdir(tmp_path)
    assert "manifest.json" not in written
    assert not [f for f in written if f.endswith(".tmp")]
    assert name not in written
