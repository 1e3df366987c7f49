"""Checkpoints, reports and scores files are replaced all at once: a write
that fails midway leaves the previous file intact and no temp file."""

import os
import types

import numpy as np
import pytest

import kwslab.nncore.checkpoint as checkpoint
from kwslab.reports import write_json_report, write_rows_csv
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
    write_json_report(path, {"a": list(range(100)), "b": object() if fail else 1})


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
