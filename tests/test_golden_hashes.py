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
    moved = [f"{case}: {name}"
             for case in sorted(set(want) | set(got))
             for name in sorted(set(want.get(case, {})) | set(got.get(case, {})))
             if want.get(case, {}).get(name) != got.get(case, {}).get(name)]
    assert not moved, "bytes moved in golden cases:\n" + "\n".join(moved)
    assert elapsed < 5.0, f"golden cases took {elapsed:.2f} s"
