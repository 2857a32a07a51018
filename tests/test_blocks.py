"""The batch kernels walk their rows in blocks of geometry._BLOCK_ELEMENTS
values.  The block size must change no output bit and no draw, and a
batch's working set must stay near its output plus one block."""

import functools
import tracemalloc

import numpy as np
import pytest

from crosspeaks import geometry
from crosspeaks.family import ProductBody
from crosspeaks.geometry import (InnerBody, classify_batch, classify_scaled_batch,
                                 full_body, membership_scaled_batch,
                                 q_membership_scaled_batch, sample_inner_batch)
from crosspeaks.oracles import continuous_random_batch

DIMS = (2, 3, 6, 10)
COUNTS = (0, 1, 150)   # 150 rows: several blocks at every patched size
SCALE = 1 << 10


def _outputs(n: int, count: int) -> dict:
    """Every blocked kernel's output at (n, count), floats as their int64
    bits, and the next draw of the generator the samplers used."""
    body = InnerBody(n, (1 << (1 << n)) // 3)   # the peaks of the even orthants
    rng = np.random.default_rng([n, count])
    points, labels = sample_inner_batch(body, count, rng)
    product = continuous_random_batch(ProductBody((body, full_body(n))), count, rng)
    next_draw = rng.random()
    # a box around the body, so every region (outside too) is labeled
    ipoints = np.random.default_rng([n, count, 1]).integers(
        -5 * SCALE // 4, 5 * SCALE // 4 + 1, size=(count, n))
    missing = [i for i in range(1 << n) if not body.has_peak(i)]
    return {
        "sample_inner_batch points": points.view(np.int64),
        "sample_inner_batch labels": labels,
        "continuous_random_batch": product.view(np.int64),
        "next draw": np.float64(next_draw).view(np.int64),
        "classify_batch": classify_batch(n, np.concatenate((points, ipoints / SCALE))),
        "classify_scaled_batch": classify_scaled_batch(n, ipoints, SCALE),
        "membership_scaled_batch": membership_scaled_batch(body, ipoints, SCALE),
        "q_membership_scaled_batch": q_membership_scaled_batch(n, missing, ipoints, SCALE),
    }


@functools.cache
def _default_outputs() -> dict:
    return {(n, count): _outputs(n, count) for n in DIMS for count in COUNTS}


@pytest.mark.parametrize("block", (1, 3, 7, 64))
def test_block_size_changes_no_bit_and_no_draw(monkeypatch, block):
    want = _default_outputs()
    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", block)
    for (n, count), outputs in want.items():
        got = _outputs(n, count)
        for name, value in outputs.items():
            assert np.array_equal(got[name], value), (n, count, name)


def test_sampler_and_classifier_working_sets():
    # the output plus about one block: the blocked kernels reach 20.0 MB and
    # add 2.0 MB here, one full-size call per stage reached 62.6 MB and
    # added 26.1 MB
    body = full_body(10)
    sample_inner_batch(body, 1, np.random.default_rng(0))   # the body's cached tables
    tracemalloc.start()
    try:
        points, _ = sample_inner_batch(body, 200_000, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
        assert peak <= points.nbytes + (8 << 20)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        labels = classify_batch(10, points)
        _, peak = tracemalloc.get_traced_memory()
        assert peak - before <= labels.nbytes + (4 << 20)
    finally:
        tracemalloc.stop()
