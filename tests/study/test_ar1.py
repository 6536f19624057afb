"""The numpy AR(1) kernel, bit for bit against a scalar float32 loop.

``ar1_batch`` advances many lanes per numpy call: rows are cut into
time segments that start from a speculative zero state and are fixed
up afterwards (see its docstring).  Every result here is compared
through an integer view, so signed zeros and rounding must agree
exactly, not just numerically.  The property tests shrink the kernel's
lane, block and window constants so that segmentation, fix-up and the
whole-segment re-run run on arrays of a few dozen steps.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.study.cohort as cohort
from repro.study.cohort import (
    FAST_COEFF,
    SERVICE_COEFF60,
    SLOW_COEFF60,
    _ar1,
    ar1_batch,
)

MODEL_COEFFS = [SLOW_COEFF60, FAST_COEFF, SERVICE_COEFF60]


def scalar_ar1(x, coeff):
    """``y[t] = fl(fl(c·y[t-1]) + x[t])`` from ``y[-1] = 0``, one numpy
    scalar at a time, in ``x``'s dtype."""
    kind = x.dtype.type
    c = kind(coeff)
    out = np.empty_like(x)
    with np.errstate(over="ignore"):
        for idx in np.ndindex(x.shape[:-1]):
            prev = kind(0.0)
            for t in range(x.shape[-1]):
                prev = kind(c * prev) + x[idx + (t,)]
                out[idx + (t,)] = prev
    return out


def bits(a):
    return a.view(np.int32 if a.dtype.itemsize == 4 else np.int64)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(bits(actual), bits(expected))


@contextmanager
def small_geometry(lanes=8, block=4, window=3):
    """Shrink the kernel so a few dozen steps span several segments."""
    saved = (cohort._AR1_LANES, cohort._AR1_BLOCK, cohort._AR1_WINDOW)
    cohort._AR1_LANES, cohort._AR1_BLOCK, cohort._AR1_WINDOW = (
        lanes, block, window,
    )
    try:
        yield
    finally:
        cohort._AR1_LANES, cohort._AR1_BLOCK, cohort._AR1_WINDOW = saved


#: Innovations mixing signed zeros, subnormals, and magnitudes up to
#: 2**119 ≈ 6.6e35 (small enough that the walk stays finite for
#: c < 0.91).
innovation = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39]),
    st.floats(
        min_value=-2.0**119, max_value=2.0**119, allow_nan=False, width=32,
    ),
    st.floats(min_value=-4.0, max_value=4.0, width=32),
)


@st.composite
def noise_arrays(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.one_of(
        st.sampled_from([0, 1, 2, 5, 6, 7, 11, 12, 13, 47, 48, 49]),
        st.integers(min_value=0, max_value=64),
    ))
    return draw(arrays(np.float32, (rows, length), elements=innovation))


@given(noise=noise_arrays(), coeff=st.sampled_from(MODEL_COEFFS))
def test_ar1_batch_matches_scalar_loop_when_segmented(noise, coeff):
    with small_geometry():
        actual = ar1_batch(noise, coeff)
    assert_bitwise(actual, scalar_ar1(noise, coeff))


@given(
    u=arrays(
        np.float32, st.tuples(
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=0, max_value=64),
        ),
        elements=st.floats(min_value=0.0, max_value=1.0, width=32,
                           exclude_max=True),
    ),
    coeff=st.sampled_from(MODEL_COEFFS),
    per_row=st.booleans(),
)
def test_uniform_innovations_are_formed_exactly(u, coeff, per_row):
    """Innovations formed block by block inside the kernel equal the
    full-array ``(u - 0.5)·amp`` the model defines."""
    if per_row:
        amp = -np.linspace(1.0, 900.0, u.shape[0], dtype=np.float32)[:, None]
    else:
        amp = np.float32(1.2124)
    inn = u - np.float32(0.5)
    inn *= amp
    with small_geometry():
        actual = _ar1(u, coeff, amp)
    assert_bitwise(actual, scalar_ar1(inn, coeff))


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize(
    "length", [1, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 1537]
)
def test_ar1_batch_at_block_and_segment_edges(rows, length):
    """Default geometry: one row of 1024+ steps splits into segments of
    at least two windows; 256 is the block length."""
    rng = np.random.default_rng(length * 10 + rows)
    noise = rng.normal(0.0, 50.0, size=(rows, length)).astype(np.float32)
    for coeff in MODEL_COEFFS:
        assert_bitwise(ar1_batch(noise, coeff), scalar_ar1(noise, coeff))


def test_segment_that_never_settles_is_rerun_whole():
    """Zero innovations after a large value: the true walk decays
    toward the smallest subnormal but never reaches the speculative
    run's exact zero, so no segment settles within its window.  The
    result is right only if every later segment is re-run whole, and
    each re-run's new end re-checks the segment after it."""
    noise = np.zeros((2, 40), dtype=np.float32)
    noise[:, 0] = np.float32(1e30)
    noise[1, 0] = np.float32(-3e25)
    with small_geometry():
        for coeff in MODEL_COEFFS:
            assert_bitwise(ar1_batch(noise, coeff), scalar_ar1(noise, coeff))


def test_unit_coefficient_cascades_through_every_segment():
    """With ``coeff = 1`` the walk is a running sum: each speculative
    segment stays off by a constant, so every segment is re-run and
    every re-run moves its end."""
    noise = np.ones((3, 50), dtype=np.float32)
    with small_geometry():
        actual = ar1_batch(noise, 1.0)
    expected = np.cumsum(noise, axis=-1, dtype=np.float32)
    assert_bitwise(actual, expected)
    assert_bitwise(actual, scalar_ar1(noise, 1.0))


def test_settled_segment_is_rechecked_after_predecessor_rerun():
    """Segment 2 settles at once from segment 1's speculative end (0),
    which is wrong: segment 1 never settles, and its re-run changes
    the start segment 2 must be re-checked from."""
    with small_geometry():
        noise = np.zeros((1, 30), dtype=np.float32)
        noise[0, 0] = np.float32(1e30)
        noise[0, 12:] = np.float32(0.25)
        assert_bitwise(
            ar1_batch(noise, FAST_COEFF), scalar_ar1(noise, FAST_COEFF)
        )


def test_fixup_compares_bits_not_values():
    """With ``c < 0.5`` a tiny negative state underflows to ``-0``, and
    ``-0`` innovations keep it there, while the speculative run from
    ``+0`` stays ``+0``.  The two compare equal as floats but not as
    bits, so only a bitwise check re-runs the segment."""
    noise = np.full((1, 30), -0.0, dtype=np.float32)
    noise[0, 0] = np.float32(-1e-45)
    with small_geometry():
        actual = ar1_batch(noise, 0.25)
    expected = scalar_ar1(noise, 0.25)
    assert np.signbit(expected[0, 1:]).all()
    assert_bitwise(actual, expected)


def test_ar1_batch_float64_and_leading_shape():
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(2, 3, 70))
    with small_geometry():
        actual = ar1_batch(noise, SLOW_COEFF60)
    assert actual.dtype == np.float64
    assert_bitwise(actual, scalar_ar1(noise, SLOW_COEFF60))


def test_ar1_batch_does_not_modify_its_input():
    noise = np.random.default_rng(2).normal(size=(1, 20)).astype(np.float32)
    before = noise.copy()
    with small_geometry():
        ar1_batch(noise, FAST_COEFF)
    assert_bitwise(noise, before)
