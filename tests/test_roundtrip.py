"""Property tests of the on-disk formats: a save -> load -> save round trip
gives back the same bytes, and every truncation of every file is refused
with a ValueError that names the file."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbmatch.datasets import DOMAIN_ROLES, DomainDataset, load_dataset, save_dataset
from pbmatch.nets import TASK_CLASSES, init_params, load_checkpoint, save_checkpoint
from pbmatch.transforms import ImageBatch

# no example database: every run draws the same derandomized examples
ROUND_TRIPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
TRUNCATIONS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def datasets(draw, max_rows=10):
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, max_rows))
    k = draw(st.integers(1, 5))
    labels = gen.integers(-1, k, n)
    if draw(st.booleans()):
        h, w = draw(st.integers(4, 6)), draw(st.integers(4, 6))
        images = ImageBatch(gen.uniform(0.0, 1.0, (n, h, w)))
    else:
        images = gen.normal(0.0, 3.0, (n, 2))
    sublabels = None
    if draw(st.booleans()):
        # each sublabel belongs to one label; outlier rows keep the sentinel
        sublabels = np.where(labels >= 0, 3 * labels + gen.integers(0, 3, n), -1)
    metadata = draw(st.dictionaries(st.text(max_size=5), st.integers(-9, 9), max_size=3))
    return DomainDataset(images=images, labels=labels, class_count=k,
                         domain_role=draw(st.sampled_from(DOMAIN_ROLES)),
                         sublabels=sublabels, metadata=metadata)


@st.composite
def checkpoints(draw):
    spec = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    tasks = draw(st.lists(st.sampled_from(sorted(TASK_CLASSES)), unique=True))
    params = init_params(spec, seed=draw(st.integers(0, 2**31 - 1)), tasks=tasks)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for t in params.all_tensors():
        t[...] = gen.normal(0.0, 2.0, t.shape)
    return params, draw(st.integers(0, 10**6))


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@ROUND_TRIPS
@given(ds=datasets())
def test_dataset_round_trip_gives_back_the_same_bytes(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        save_dataset(ds, first)
        back = load_dataset(first)
        save_dataset(back, second)
        assert _files(first) == _files(second)
    assert back.labels.tobytes() == ds.labels.tobytes()
    if ds.sublabels is None:
        assert back.sublabels is None
    else:
        assert back.sublabels.tobytes() == ds.sublabels.tobytes()
    raw = ds.images.data if ds.is_image else ds.images
    got = back.images.data if back.is_image else back.images
    assert back.is_image == ds.is_image
    assert got.astype("<f4").tobytes() == raw.astype("<f4").tobytes()
    assert (back.class_count, back.domain_role, back.metadata) == (
        ds.class_count, ds.domain_role, ds.metadata)


@TRUNCATIONS
@given(ds=datasets(max_rows=5))
def test_every_truncation_of_every_dataset_file_names_the_file(ds):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        save_dataset(ds, directory)
        for name, whole in _files(directory).items():
            path = directory / name
            for length in range(len(whole)):
                path.write_bytes(whole[:length])
                with pytest.raises(ValueError, match=re.escape(str(path))):
                    load_dataset(directory)
            path.write_bytes(whole)


@ROUND_TRIPS
@given(saved=checkpoints())
def test_checkpoint_round_trip_gives_back_the_same_bytes(saved):
    params, step_count = saved
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.bin", Path(tmp) / "second.bin"
        save_checkpoint(first, params, step_count=step_count)
        back, back_steps = load_checkpoint(first)
        save_checkpoint(second, back, step_count=back_steps)
        assert first.read_bytes() == second.read_bytes()
    assert back_steps == step_count
    assert (back.layer_spec, back.seed, back.tasks) == (
        params.layer_spec, params.seed, params.tasks)
    for got, want in zip(back.all_tensors(), params.all_tensors()):
        assert got.tobytes() == want.tobytes()


@TRUNCATIONS
@given(saved=checkpoints())
def test_every_truncation_of_a_checkpoint_names_the_file(saved):
    params, step_count = saved
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(path, params, step_count=step_count)
        whole = path.read_bytes()
        for length in range(len(whole)):
            path.write_bytes(whole[:length])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(path)
