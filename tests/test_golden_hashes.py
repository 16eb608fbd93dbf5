"""Byte identity as a gate: every file the golden cases write hashes as
recorded for this environment (see record_golden_hashes.py)."""

import time

import pytest

import record_golden_hashes as golden


def test_every_golden_case_writes_the_recorded_bytes():
    want = golden.load().get(golden.fingerprint())
    if want is None:
        pytest.fail(f"no golden hashes for this environment ({golden.fingerprint()}); "
                    f"record them with: {golden.RECORD_COMMAND}")
    start = time.perf_counter()
    got = golden.compute()
    elapsed = time.perf_counter() - start
    moved = golden.moved(want, got)
    assert not moved, "bytes moved in golden cases:\n" + "\n".join(moved)
    assert elapsed < 5.0, f"golden cases took {elapsed:.2f} s"


def test_moved_names_changed_added_and_dropped_files():
    want = {"a": {"x": "1", "y": "2"}, "b": {"z": "3"}}
    got = {"a": {"x": "1", "y": "9", "w": "4"}, "c": {"v": "5"}}
    assert golden.moved(want, got) == ["a: w", "a: y", "b: z", "c: v"]
    assert golden.moved(want, want) == []


def test_record_prints_what_moved_from_the_entry_it_replaces(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(golden, "fingerprint", lambda: "env")
    first, second = {"a": {"x": "1"}}, {"a": {"x": "2"}, "b": {"y": "3"}}
    hashes = iter([first, second, second])
    monkeypatch.setattr(golden, "compute", lambda: next(hashes))
    printed = []
    for _ in range(3):
        golden.record()
        printed.append(capsys.readouterr().err.splitlines())
    assert printed == [["no previous entry for this environment"], ["a: x", "b: y"],
                       ["nothing moved"]]
    assert golden.load() == {"env": {"a": {"x": "2"}, "b": {"y": "3"}}}
