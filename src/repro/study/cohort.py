"""Vectorized cohort kernel: the §3 population engine.

The paper recruited 80 users and logged ~9950 hours of 1 Hz memory
samples with SignalCapturer.  Without those users, we generate a
population whose *mechanisms* follow §2/§3 — RAM market mix (1-8 GB,
12 manufacturers), vendor- and RAM-dependent Moderate/Low/Critical
thresholds, a two-timescale AR(1) memory walk (app sessions plus
allocation churn), 6 s dwell debounce, OnTrimMemory emission with
120 s re-notification, day/night interactive sessions, ≥10 h cleaning
— and run the paper's own analysis pipeline on the logs.

This module simulates a whole *cohort* of devices as 2-D numpy
operations (devices × seconds) and reduces each cohort to a small
mergeable :class:`FleetSummary` (counters + t-digests, see
:mod:`repro.study.sketches`), so fleet memory is O(cohorts), not
O(devices); small populations can also carry their per-device logs
home (:func:`repro.study.fleet.run_fleet` with ``keep_logs``).

Model (v2, cohort-seeded).  Randomness comes from *per-cohort* named
streams (``study.fleet<c>.{scalars,mask,noise,services}``), with two
vectorization-friendly choices:

* AR(1) innovations are uniform draws scaled by ``σ·sqrt(12)`` (the
  variance of a Gaussian-innovation AR(1); the AR filter Gaussianizes
  them within a few time constants), in float32;
* the slow (session-scale, θ=1/420) component advances on a 60 s tick
  with variance-matched innovations and is upsampled by repetition; the
  fast (churn, θ=1/8) component stays at full 1 Hz rate.

Because cohort streams are derived from the master seed by *name*, any
shard count partitions the same cohort sequence and reproduces the
single-process result bit for bit.

Every cohort statistic is computed exactly as the analysis functions
of :mod:`repro.study.analysis` compute it (same float widths, same
division orders), and :func:`reference_cohort_logs` materializes the
same cohort device by device (scalar :func:`_debounce`,
:func:`_emit_signals` and interactive walk) as the one per-device
oracle the batch kernels are tested against.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.rng import RandomStreams
from .signalcapturer import (
    CAPTURER_FOOTPRINT_MB,
    STATE_CODES,
    STATE_NAMES,
    DeviceInfo,
    DeviceLog,
)
from .sketches import (
    TDigest,
    dwell_histogram,
    median_from_counts,
    merge_count_dicts,
    percentile_from_counts,
    sorted_items,
)

__all__ = [
    "FleetConfig",
    "FleetSummary",
    "TransitionCandidate",
    "CohortColumns",
    "CohortResult",
    "cohort_size",
    "n_cohorts",
    "simulate_cohort",
    "reference_cohort_logs",
    "columns_to_logs",
    "ar1_batch",
    "debounce_flat",
    "signal_counts_from_runs",
]

MANUFACTURERS = [
    "Samsung", "Xiaomi", "Huawei", "Oppo", "Vivo", "Nokia",
    "Motorola", "Realme", "Tecno", "Infinix", "OnePlus", "Google",
]

#: Market mix of device RAM sizes (GB) — §3: "1 GB to 8 GB".
RAM_CHOICES_GB = np.array([1, 2, 3, 4, 6, 8])
RAM_WEIGHTS = np.array([0.16, 0.26, 0.24, 0.19, 0.10, 0.05])

#: Re-emission period for sustained non-normal states (seconds).
REEMIT_PERIOD_S = 120.0

#: Long-run mean utilization by device RAM class: smaller devices run
#: proportionally fuller (the OS floor dominates), matching Figure 2's
#: CDF where 80% of devices sit at >= 60% median utilization.
BASE_UTIL_BY_RAM_GB = {1: 0.78, 2: 0.72, 3: 0.68, 4: 0.63, 6: 0.56, 8: 0.50}

#: Debounce window (s).
MIN_DWELL_S = 6
#: Integer re-emission period; ``(len-1)//120`` on int64 equals
#: :func:`_emit_signals`'s ``int((len-1)//120.0)`` for any realistic
#: run length (the float quotient is exact to well past 2**40).
REEMIT_S = int(REEMIT_PERIOD_S)
#: Paper's Figure 6 selection threshold (fraction of time non-Normal).
MIN_NONNORMAL_FRACTION = 0.3

#: Slow/fast/service AR(1) parameters (θ, σ).
SLOW_THETA, SLOW_SIGMA = 1.0 / 420.0, 0.0055
FAST_THETA, FAST_SIGMA = 1.0 / 8.0, 0.008
SERVICE_THETA, SERVICE_SIGMA = 1.0 / 600.0, 0.35

MINUTE = 60
_SQRT12 = math.sqrt(12.0)

#: Available-memory digest resolution: samples binned at 0.25 MB.
AVAIL_BIN_PER_MB = 4
_AVAIL_BINS = 32768  # covers 8 GB devices (max avail < 7200 MB)

ANDROID_VERSIONS = ["9", "10", "11", "12"]
CORE_CHOICES = [4, 4, 8, 8, 8]


def _minute_ar_params(theta: float, sigma: float) -> Tuple[float, float]:
    """(coefficient, innovation σ) of the 60 s-tick AR(1) whose marginal
    variance matches the 1 Hz AR(1) with parameters (θ, σ)."""
    a1 = 1.0 - theta
    a60 = a1 ** MINUTE
    sd60 = sigma * math.sqrt((1.0 - a60 ** 2) / (1.0 - a1 ** 2))
    return a60, sd60


SLOW_COEFF60, SLOW_SIGMA60 = _minute_ar_params(SLOW_THETA, SLOW_SIGMA)
FAST_COEFF = 1.0 - FAST_THETA
SERVICE_COEFF60, SERVICE_SIGMA60 = _minute_ar_params(
    SERVICE_THETA, SERVICE_SIGMA
)


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for the fleet simulator."""

    n_devices: int = 80
    mean_hours: float = 124.0
    min_hours: float = 24.0
    max_hours: float = 432.0
    hours_scale: float = 1.0
    seed: int = 0
    #: Devices per cohort; 0 sizes cohorts automatically so per-cohort
    #: working buffers stay around 100 MB regardless of log length.
    cohort_size: int = 0
    #: Cleaning threshold; None → 10 h scaled by hours_scale, matching
    #: build_study's ``min_interactive_hours=10.0 * scale``.
    min_interactive_hours: Optional[float] = None
    #: t-digest compression for the sketched distributions.
    compression: int = 100

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        if not self.hours_scale > 0:
            raise ValueError(
                f"hours_scale must be > 0, got {self.hours_scale}"
            )
        if self.cohort_size < 0:
            raise ValueError(
                f"cohort_size must be >= 0, got {self.cohort_size}"
            )

    def cleaning_threshold_hours(self) -> float:
        if self.min_interactive_hours is not None:
            return self.min_interactive_hours
        return 10.0 * self.hours_scale


def cohort_size(config: FleetConfig) -> int:
    """Effective devices-per-cohort (auto-sized unless pinned).

    Deterministic from the config alone — it must not depend on runtime
    conditions or drawn values, or shard invariance would break.
    """
    if config.cohort_size > 0:
        return config.cohort_size
    max_n = max(3600, int(config.max_hours * config.hours_scale * 3600.0))
    return max(4, min(1024, 25_600_000 // max_n))


def n_cohorts(config: FleetConfig) -> int:
    return -(-config.n_devices // cohort_size(config))


# ======================================================================
# Cohort draws
# ======================================================================

@dataclass
class CohortDraws:
    """Per-device scalar draws for one cohort (all shape (C,))."""

    ram_gb: np.ndarray
    total_mb: np.ndarray
    manufacturer_idx: np.ndarray
    android_idx: np.ndarray
    cores_idx: np.ndarray
    n: np.ndarray
    mean_util: np.ndarray
    moderate_mb: np.ndarray
    low_mb: np.ndarray
    critical_mb: np.ndarray
    phase: np.ndarray


def _cohort_draws(
    cohort_index: int, count: int, config: FleetConfig,
    streams: RandomStreams,
) -> CohortDraws:
    """Draw all per-device scalars from the cohort's ``scalars`` stream.

    Draw order is part of the model definition: reordering any call
    changes every downstream value.
    """
    g = streams.numpy_stream(f"study.fleet{cohort_index}.scalars")
    u_ram = g.random(count)
    manufacturer_idx = g.integers(0, len(MANUFACTURERS), size=count)
    hours_raw = g.lognormal(math.log(config.mean_hours), 0.6, size=count)
    util_noise = g.normal(0.0, 0.08, size=count)
    patho_u = g.random(count)
    patho_add = g.uniform(0.12, 0.22, size=count)
    crit_f = g.uniform(0.035, 0.065, size=count)
    low_f = g.uniform(1.35, 1.65, size=count)
    mod_f = g.uniform(1.9, 2.4, size=count)
    android_idx = g.integers(0, len(ANDROID_VERSIONS), size=count)
    cores_idx = g.integers(0, len(CORE_CHOICES), size=count)
    phase = g.uniform(0.0, 24.0, size=count)

    ram_idx = np.minimum(
        np.searchsorted(np.cumsum(RAM_WEIGHTS), u_ram, side="right"),
        len(RAM_CHOICES_GB) - 1,
    )
    ram_gb = RAM_CHOICES_GB[ram_idx].astype(np.int64)
    total_mb = ram_gb * 1024
    base = np.array(
        [BASE_UTIL_BY_RAM_GB[int(g_)] for g_ in RAM_CHOICES_GB]
    )[ram_idx]
    mean_util = np.clip(
        base + util_noise + np.where(patho_u < 0.05, patho_add, 0.0),
        0.35, 0.97,
    )
    hours = np.clip(hours_raw, config.min_hours, config.max_hours)
    hours = hours * config.hours_scale
    n = np.maximum(3600, (hours * 3600.0).astype(np.int64))
    critical = total_mb * crit_f
    return CohortDraws(
        ram_gb=ram_gb,
        total_mb=total_mb,
        manufacturer_idx=manufacturer_idx,
        android_idx=android_idx,
        cores_idx=cores_idx,
        n=n,
        mean_util=mean_util,
        moderate_mb=critical * mod_f,
        low_mb=critical * low_f,
        critical_mb=critical,
        phase=phase,
    )


# ======================================================================
# Batched kernels
# ======================================================================

#: AR(1) kernel geometry (see :func:`ar1_batch`): lanes advanced per
#: numpy call, time steps per scratch block, and the steps a
#: speculative segment gets per fix-up window to meet its true run.
_AR1_LANES = 1024
_AR1_BLOCK = 256
_AR1_WINDOW = 256


def ar1_batch(noise: np.ndarray, coeff: float) -> np.ndarray:
    """``y[t] = coeff·y[t-1] + noise[t]`` along the last axis, from a
    zero state; any leading batch shape, float dtype preserved (other
    dtypes run in float64).

    Bit-identical to ``scipy.signal.lfilter([1], [1, -coeff], noise)``
    in the same dtype, for finite noise.  That kernel computes
    ``y[0] = 0 + x[0]`` and ``y[t] = (0·x[t-1] - y[t-1]·(-c)) + x[t]``,
    i.e. ``fl(fl(c·y[t-1]) + x[t])`` with ``c`` rounded to the dtype:
    one numpy multiply and one add per step, run here from a zero state
    so that the first step is ``0 + x[0]`` too.  The signed zeros agree
    for every ``c`` above 0.5, which covers all model coefficients:
    there ``c·y`` never underflows to zero, so ``y`` is never ``-0``.

    The recursion is sequential in time, so each numpy call advances
    many independent *lanes* one step.  Rows are split into ``K`` time
    segments so that rows × K ≈ ``_AR1_LANES``; the lanes are advanced
    ``_AR1_BLOCK`` steps at a time in a cache-resident ``(steps,
    lanes)`` scratch block.  Segments after a row's first start from a
    speculative zero state; :func:`_ar1_fixup` then re-runs each from
    its true start until the two runs agree *bitwise*, after which they
    are the same recursion on the same state and inputs.
    """
    return _ar1(np.asarray(noise), coeff, None)


def _ar1(
    src: np.ndarray, coeff: float, amp: Optional[np.ndarray]
) -> np.ndarray:
    """:func:`ar1_batch` of ``src``, or, when ``amp`` is given, of the
    uniform innovations ``(src - 0.5)·amp``.

    ``amp`` broadcasts per device ((C, 1) column or scalar); choose
    ``amp = σ·sqrt(12)`` to match a Gaussian-innovation AR(1)'s
    variance.  The innovations are formed block by block inside the
    kernel's scratch buffer, never as a full-size array.
    """
    if src.dtype.kind != "f":
        src = src.astype(np.float64)
    out = np.empty(src.shape, dtype=src.dtype)
    if out.size == 0:
        return out
    n = src.shape[-1]
    amp_col = None
    if amp is not None:
        amp_col = np.broadcast_to(
            np.asarray(amp), src.shape[:-1] + (1,)
        ).reshape(-1, 1)
    _ar1_rows(
        src.reshape(-1, n), out.reshape(-1, n),
        np.asarray(coeff, dtype=src.dtype), amp_col,
    )
    return out


def _load(
    view: np.ndarray,
    amp: Optional[np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Copy ``view`` into ``out`` (default: a fresh C-contiguous buffer;
    ``ascontiguousarray`` may return the input itself, which the
    in-place kernel would then overwrite), as the innovations
    ``(view - 0.5)·amp`` when ``amp`` is given."""
    if out is None:
        out = np.empty(view.shape, dtype=view.dtype)
    if amp is None:
        np.copyto(out, view)
    else:
        np.subtract(view, np.float32(0.5), out=out)
        np.multiply(out, amp, out=out)
    return out


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ints = np.int32 if a.dtype.itemsize == 4 else np.int64
    return np.asarray(a.view(ints) == b.view(ints))


def _ar1_steps(
    block: np.ndarray, state: np.ndarray, c: np.ndarray
) -> None:
    """Advance the lanes of ``state`` through the innovations ``block``
    (steps, *lanes) in place, one multiply and one add per step."""
    tmp = np.empty_like(state)
    prev = state
    for row in block:
        np.multiply(prev, c, out=tmp)
        np.add(tmp, row, out=row)
        prev = row


def _ar1_rows(
    x: np.ndarray, y: np.ndarray, c: np.ndarray, amp: Optional[np.ndarray]
) -> None:
    """The AR(1) of rows ``x`` into ``y`` (R, n); ``amp`` is None or an
    (R, 1) column.  More than ``_AR1_LANES`` rows run unsegmented."""
    rows, n = x.shape
    k_seg = max(1, min(_AR1_LANES // rows, n // (2 * _AR1_WINDOW)))
    seg = n // k_seg
    main = k_seg * seg
    xv = x[:, :main].reshape(rows, k_seg, seg)
    yv = y[:, :main].reshape(rows, k_seg, seg)
    state = np.zeros((rows, k_seg), dtype=y.dtype)
    block = np.empty((min(_AR1_BLOCK, seg), rows, k_seg), dtype=y.dtype)
    for s in range(0, seg, _AR1_BLOCK):
        steps = block[: min(_AR1_BLOCK, seg - s)]
        _load(xv[:, :, s:s + len(steps)].transpose(2, 0, 1), amp, steps)
        _ar1_steps(steps, state, c)
        state = steps[-1].copy()
        yv[:, :, s:s + len(steps)] = steps.transpose(1, 2, 0)
    if k_seg > 1:
        _ar1_fixup(xv, yv, c, amp)
    if main < n:
        # The n % K leftover steps continue each row's last segment.
        tail = _load(x[:, main:].T, None if amp is None else amp[:, 0])
        _ar1_steps(tail, y[:, main - 1].copy(), c)
        y[:, main:] = tail.T


def _ar1_fixup(
    xv: np.ndarray, yv: np.ndarray, c: np.ndarray,
    amp: Optional[np.ndarray],
) -> None:
    """Correct the speculative segments 1..K-1 of ``yv`` (R, K, seg).

    Each stored segment is always one run of the recursion over its
    inputs from *some* start state, so once a run from the true start
    meets it bitwise the rest already holds the true values.  First
    every segment re-runs its first window from the stored end of the
    segment before it, all lanes at once; that end is true whenever the
    segment before settled within its own window (always for segment
    0).  Then, in segment order, each unsettled segment is re-run whole
    from its predecessor's true end, and a re-run whose end changed
    sends its successor back for the same treatment.
    """
    rows, k_seg, seg = xv.shape
    win = min(_AR1_WINDOW, seg)
    trial = _load(xv[:, 1:, :win].transpose(2, 0, 1), amp)
    _ar1_steps(trial, yv[:, :-1, -1].copy(), c)
    stored = yv[:, 1:, :win].transpose(2, 0, 1)
    settled = _bitwise_equal(trial, stored).any(axis=0)
    # Unsettled segments keep their pure speculative run, so the
    # one-run invariant holds for the re-run below.
    np.copyto(stored, trial, where=settled)
    unsettled = ~settled
    amp_row = None if amp is None else amp[:, 0]
    for k in range(1, k_seg):
        redo = np.flatnonzero(unsettled[:, k - 1])
        if redo.size == 0:
            continue
        state = yv[redo, k - 1, -1]
        for s in range(0, seg, _AR1_WINDOW):
            span = slice(s, min(seg, s + _AR1_WINDOW))
            run = _load(
                xv[redo, k, span].T,
                None if amp_row is None else amp_row[redo],
            )
            _ar1_steps(run, state, c)
            met = _bitwise_equal(run, yv[redo, k, span].T).any(axis=0)
            yv[redo, k, span] = run.T
            redo, state = redo[~met], run[-1, ~met]
            if redo.size == 0:
                break
        if k + 1 < k_seg:
            unsettled[redo, k] = True


def _available_series(
    u_slow: np.ndarray,
    u_fast: np.ndarray,
    total_mb: np.ndarray,
    mean_util: np.ndarray,
) -> np.ndarray:
    """Available-memory series (MB, float32) for a batch of devices.

    Works in the available-MB domain directly: the AR components are
    scaled by ``-total_mb`` (symmetric innovations, so the sign flip is
    distribution-preserving), the long-run level
    ``total·(1-mean_util) - 17`` is folded into the slow component
    before upsampling, and the utilization clip [0.12, 0.995] plus
    availability floor ``0.005·total`` collapse to one availability
    clip ``[0.005·total, 0.88·total - 17]``.

    ``u_slow``: (C, n60) minute-tick uniforms; ``u_fast``: (C, n60·60).
    """
    total_col = total_mb[:, None].astype(np.float64)
    base_col = (
        total_col * (1.0 - mean_util[:, None]) - CAPTURER_FOOTPRINT_MB
    ).astype(np.float32)
    amp_slow = (-total_col * (SLOW_SIGMA60 * _SQRT12)).astype(np.float32)
    amp_fast = (-total_col * (FAST_SIGMA * _SQRT12)).astype(np.float32)
    lo = (total_col * 0.005).astype(np.float32)
    hi = (total_col * (1.0 - 0.12) - CAPTURER_FOOTPRINT_MB).astype(np.float32)

    slow = _ar1(u_slow, SLOW_COEFF60, amp_slow)
    slow += base_col
    avail = np.repeat(slow, MINUTE, axis=-1)
    avail += _ar1(u_fast, FAST_COEFF, amp_fast)
    np.clip(avail, lo, hi, out=avail)
    return avail


def _classify_states(
    avail: np.ndarray,
    moderate: np.ndarray,
    low: np.ndarray,
    critical: np.ndarray,
) -> np.ndarray:
    """Pressure-state codes from available memory (int8).

    Thresholds satisfy critical < low < moderate by construction, so
    summing the three comparisons gives the deepest state crossed.
    """
    state = (avail < moderate).view(np.uint8)
    state += (avail < low).view(np.uint8)
    state += (avail < critical).view(np.uint8)
    return state.view(np.int8)


def _services_series(u_serv: np.ndarray) -> np.ndarray:
    """Running-service counts (int16) from minute-tick uniforms.

    Rounding, clipping and the int16 cast are elementwise, so they run
    in place on the minute ticks before the per-second repetition.
    """
    y = _ar1(
        u_serv, SERVICE_COEFF60, np.float32(SERVICE_SIGMA60 * _SQRT12)
    )
    y += np.float32(22.0)
    np.round(y, out=y)
    np.clip(y, 3, 80, out=y)
    return np.repeat(y.astype(np.int16), MINUTE, axis=-1)


# ----------------------------------------------------------------------
# Interactive (screen-on) sessions
# ----------------------------------------------------------------------

@dataclass
class SegmentTable:
    """Screen-session segments for a cohort, one column per step.

    Row d column k holds device d's k-th alternation step: the raw
    uniform/exponential draws, whether the screen was on, and how many
    seconds of the device's log the step actually covers (0 once the
    device's log is exhausted).
    """

    u: np.ndarray      # (C, K) float64 uniforms
    e: np.ndarray      # (C, K) float64 standard exponentials
    on: np.ndarray     # (C, K) bool — screen on during this segment
    take: np.ndarray   # (C, K) int64 — seconds covered (0 when done)


def _interactive_segments(
    n: np.ndarray, phase: np.ndarray, g: np.random.Generator
) -> SegmentTable:
    """The day/night alternation walk, advanced for all devices at once.

    Each step draws one uniform and one exponential *per device* (also
    for devices already finished — column alignment is what lets the
    reference oracle replay any single device from the same table).
    """
    count = n.shape[0]
    t = np.zeros(count, dtype=np.int64)
    u_cols, e_cols, on_cols, take_cols = [], [], [], []
    while True:
        active = t < n
        if not bool(active.any()):
            break
        u = g.random(count)
        e = g.standard_exponential(count)
        hour = (t / 3600.0 + phase) % 24.0
        awake = (hour >= 8.0) & (hour <= 23.5)
        on = u < np.where(awake, 0.42, 0.04)
        scale = np.where(
            awake,
            np.where(on, 480.0, 900.0),
            np.where(on, 240.0, 5400.0),
        )
        duration = (e * scale).astype(np.int64) + np.where(awake, 30, 60)
        take = np.where(active, np.minimum(duration, n - t), 0)
        u_cols.append(u)
        e_cols.append(e)
        on_cols.append(on & active)
        take_cols.append(take)
        t += take
    return SegmentTable(
        u=np.stack(u_cols, axis=1),
        e=np.stack(e_cols, axis=1),
        on=np.stack(on_cols, axis=1),
        take=np.stack(take_cols, axis=1),
    )


def _interactive_mask_reference(
    n_i: int, phase_i: float, u_row: np.ndarray, e_row: np.ndarray
) -> np.ndarray:
    """The scalar day/night interactive walk, replaying pre-drawn
    (uniform, exponential) pairs — the oracle for the batched chain."""
    mask = np.zeros(n_i, dtype=bool)
    t = 0
    k = 0
    while t < n_i:
        u = float(u_row[k])
        e = float(e_row[k])
        hour_of_day = (t / 3600.0 + phase_i) % 24.0
        awake = 8.0 <= hour_of_day <= 23.5
        if awake:
            on = u < 0.42
            duration = int(e * (480 if on else 900)) + 30
        else:
            on = u < 0.04
            duration = int(e * (240 if on else 5400)) + 60
        end = min(n_i, t + duration)
        if on:
            mask[t:end] = True
        t = end
        k += 1
    return mask


def _materialize_mask(
    seg: SegmentTable, offsets: np.ndarray
) -> np.ndarray:
    """Flat per-second interactive mask from the segment table."""
    valid = seg.take > 0
    mask = np.repeat(seg.on[valid], seg.take[valid])
    if len(mask) != int(offsets[-1]):  # pragma: no cover - invariant
        raise AssertionError("segment table does not tile the logs")
    return mask


# ----------------------------------------------------------------------
# Flat run-length kernels (debounce, emission, episodes)
# ----------------------------------------------------------------------

@dataclass
class FlatRuns:
    """Equal-value runs of a flat concatenated series, never crossing
    device boundaries.  ``devs`` maps each run to its device row."""

    starts: np.ndarray   # int64, absolute index into the flat series
    lengths: np.ndarray  # int64
    values: np.ndarray   # dtype of the source series
    devs: np.ndarray     # int64


def _runs_flat(values: np.ndarray, offsets: np.ndarray) -> FlatRuns:
    total = int(offsets[-1])
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return FlatRuns(empty, empty, np.empty(0, dtype=values.dtype), empty)
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.unique(np.concatenate((offsets[:-1], change)))
    # Zero-length devices contribute duplicate/terminal offsets.
    starts = starts[starts < total]
    devs = np.searchsorted(offsets, starts, side="right") - 1
    ends = np.concatenate((starts[1:], [total]))
    return FlatRuns(starts, ends - starts, values[starts], devs)


def debounce_flat(
    state_flat: np.ndarray,
    offsets: np.ndarray,
    min_dwell_s: int = MIN_DWELL_S,
) -> Tuple[np.ndarray, FlatRuns]:
    """Batched :func:`_debounce` over concatenated state series.

    Runs shorter than ``min_dwell_s`` (except each device's first run)
    are absorbed into the most recent *kept* run's original value —
    exactly :func:`_debounce`'s semantics, vectorized: keep-flags, a
    running maximum over kept run indices, then re-merging adjacent
    equal runs.

    Returns the debounced flat series plus its merged runs (the same
    runs :func:`_emit_signals` would see), saving a second RLE pass.
    """
    runs = _runs_flat(state_flat, offsets)
    if len(runs.starts) == 0:
        return state_flat.copy(), runs
    is_first = runs.starts == offsets[runs.devs]
    keep = (runs.lengths >= min_dwell_s) | is_first
    idx = np.arange(len(runs.starts))
    # Every device's first run is kept, so the running maximum never
    # reaches back across a device boundary.
    src = np.maximum.accumulate(np.where(keep, idx, 0))
    new_val = runs.values[src]
    same_dev = runs.devs[1:] == runs.devs[:-1]
    boundary = np.concatenate(
        ([True], (new_val[1:] != new_val[:-1]) | ~same_dev)
    )
    m_starts = runs.starts[boundary]
    m_vals = new_val[boundary]
    m_devs = runs.devs[boundary]
    m_ends = np.concatenate((m_starts[1:], [int(offsets[-1])]))
    m_lens = m_ends - m_starts
    merged = FlatRuns(m_starts, m_lens, m_vals, m_devs)
    return np.repeat(m_vals, m_lens), merged


def signal_counts_from_runs(
    runs: FlatRuns, count: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`_emit_signals` bookkeeping.

    From the debounced merged runs, per run: an *entry* signal iff the
    state is non-Normal and strictly above the previous run's state
    (Normal at each device start), plus ``(len-1)//120`` re-emissions
    regardless of entry.  Returns (per-device-per-state counts (C, 4),
    per-run entry flags, per-run re-emission counts).
    """
    if len(runs.starts) == 0:
        z = np.zeros((count, 4), dtype=np.int64)
        e = np.zeros(0, dtype=bool)
        return z, e, np.zeros(0, dtype=np.int64)
    vals = runs.values.astype(np.int64)
    first = np.concatenate(([True], runs.devs[1:] != runs.devs[:-1]))
    prev = np.empty_like(vals)
    prev[0] = 0
    prev[1:] = vals[:-1]
    prev[first] = 0
    nonzero = vals != 0
    entry = nonzero & (vals > prev)
    reemit = np.where(nonzero, (runs.lengths - 1) // REEMIT_S, 0)
    per_run = entry.astype(np.int64) + reemit
    key = runs.devs * 4 + vals
    counts = np.bincount(key, weights=per_run.astype(np.float64),
                         minlength=4 * count)
    return counts.reshape(count, 4).astype(np.int64), entry, reemit


def _signal_events(
    runs: FlatRuns,
    entry: np.ndarray,
    reemit: np.ndarray,
    offsets: np.ndarray,
    count: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize per-device signal event lists (for log export).

    Returns (sig_offsets (C+1,), times, codes) where times are seconds
    relative to each device's log start, in :func:`_emit_signals` order.
    """
    per_run = entry.astype(np.int64) + reemit
    total = int(per_run.sum())
    if total == 0:
        return (np.zeros(count + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))
    run_of = np.repeat(np.arange(len(per_run)), per_run)
    excl = np.concatenate(([0], np.cumsum(per_run)))[:-1]
    k_within = np.arange(total) - excl[run_of]
    # With an entry, event 0 sits at the run start and re-emissions at
    # k·120; without one, re-emissions alone start at 120.
    k_eff = k_within + np.where(entry[run_of], 0, 1)
    rel_start = runs.starts - offsets[runs.devs]
    times = rel_start[run_of] + k_eff * REEMIT_S
    codes = runs.values[run_of].astype(np.int8)
    per_dev = np.bincount(runs.devs, weights=per_run.astype(np.float64),
                          minlength=count).astype(np.int64)
    sig_offsets = np.concatenate(([0], np.cumsum(per_dev)))
    return sig_offsets, times, codes


def _flatten_rows(
    arr: np.ndarray, n: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Concatenate each row's valid prefix ``arr[i, :n[i]]``."""
    out = np.empty(int(offsets[-1]), dtype=arr.dtype)
    for i in range(len(n)):
        out[int(offsets[i]):int(offsets[i + 1])] = arr[i, : int(n[i])]
    return out


def _median_utilization(avail: np.ndarray, total_mb: int) -> float:
    """Per-device median utilization as the analysis computes it:
    float32 division and median (``DeviceLog.utilization`` then
    ``np.median``), cast to float last."""
    util = 1.0 - avail / total_mb
    return float(np.median(util))


# ======================================================================
# Mergeable fleet summary
# ======================================================================

@dataclass(frozen=True)
class TransitionCandidate:
    """One kept device's transition stats, carried for the Figure 6
    fallback (fewer than nine devices over the pressure threshold)."""

    device_index: int
    pressure_fraction: float
    next_counts: Dict[int, Dict[int, int]]
    dwells: Dict[int, Dict[int, int]]


def _merge_nested(
    a: Dict[int, Dict[int, int]], b: Dict[int, Dict[int, int]]
) -> Dict[int, Dict[int, int]]:
    out = {code: dict(hist) for code, hist in a.items()}
    for code, hist in b.items():
        out[code] = merge_count_dicts(out.get(code, {}), hist)
    return out


@dataclass
class FleetSummary:
    """Mergeable §3 aggregates for any set of cohorts.

    All fields are exact counters, dicts, or canonically-merged
    t-digests, so :meth:`merge` is associative and commutative and the
    merged summary is bit-identical for any shard grouping of cohorts.
    ``table1()`` and ``transitions()`` reproduce
    ``analysis.study_summary`` / ``analysis.transition_stats`` exactly
    (same float operations in the same order).
    """

    n_devices: int = 0
    n_kept: int = 0
    total_samples: int = 0
    interactive_seconds: int = 0
    # Table 1 counters (over kept devices).
    med_ge_60: int = 0
    med_gt_75: int = 0
    any_ge_1: int = 0
    crit_gt_10: int = 0
    total_gt_70: int = 0
    high_gt_50: int = 0
    high_ge_2: int = 0
    mod_ge_2: int = 0
    crit_gt_4: int = 0
    # Fleet-wide exact counters.
    time_in_state: Dict[int, int] = field(default_factory=dict)
    signal_totals: Dict[int, int] = field(default_factory=dict)
    # Sketched distributions.
    util_median_digest: TDigest = field(default_factory=TDigest.empty)
    avail_digests: Dict[int, TDigest] = field(default_factory=dict)
    avail_sums: Dict[int, float] = field(default_factory=dict)
    avail_counts: Dict[int, int] = field(default_factory=dict)
    # Figure 6 transition stats (devices over the pressure threshold).
    sel_devices: int = 0
    sel_next_counts: Dict[int, Dict[int, int]] = field(default_factory=dict)
    sel_dwells: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: Top-9 fallback candidates, kept sorted by (-fraction, index).
    candidates: List[TransitionCandidate] = field(default_factory=list)

    # ------------------------------------------------------------------
    def merge(self, other: "FleetSummary") -> "FleetSummary":
        """Combine two disjoint device sets' summaries (pure)."""
        cands = sorted(
            list(self.candidates) + list(other.candidates),
            key=lambda c: (-c.pressure_fraction, c.device_index),
        )[:9]
        avail_digests = dict(self.avail_digests)
        for code, digest in other.avail_digests.items():
            if code in avail_digests:
                avail_digests[code] = avail_digests[code].merge(digest)
            else:
                avail_digests[code] = digest
        return FleetSummary(
            n_devices=self.n_devices + other.n_devices,
            n_kept=self.n_kept + other.n_kept,
            total_samples=self.total_samples + other.total_samples,
            interactive_seconds=(
                self.interactive_seconds + other.interactive_seconds
            ),
            med_ge_60=self.med_ge_60 + other.med_ge_60,
            med_gt_75=self.med_gt_75 + other.med_gt_75,
            any_ge_1=self.any_ge_1 + other.any_ge_1,
            crit_gt_10=self.crit_gt_10 + other.crit_gt_10,
            total_gt_70=self.total_gt_70 + other.total_gt_70,
            high_gt_50=self.high_gt_50 + other.high_gt_50,
            high_ge_2=self.high_ge_2 + other.high_ge_2,
            mod_ge_2=self.mod_ge_2 + other.mod_ge_2,
            crit_gt_4=self.crit_gt_4 + other.crit_gt_4,
            time_in_state=merge_count_dicts(
                self.time_in_state, other.time_in_state
            ),
            signal_totals=merge_count_dicts(
                self.signal_totals, other.signal_totals
            ),
            util_median_digest=self.util_median_digest.merge(
                other.util_median_digest
            ),
            avail_digests=avail_digests,
            avail_sums={
                code: self.avail_sums.get(code, 0.0)
                + other.avail_sums.get(code, 0.0)
                for code in sorted(set(self.avail_sums) | set(other.avail_sums))
            },
            avail_counts=merge_count_dicts(
                self.avail_counts, other.avail_counts
            ),
            sel_devices=self.sel_devices + other.sel_devices,
            sel_next_counts=_merge_nested(
                self.sel_next_counts, other.sel_next_counts
            ),
            sel_dwells=_merge_nested(self.sel_dwells, other.sel_dwells),
            candidates=cands,
        )

    # ------------------------------------------------------------------
    def table1(self) -> Dict[str, float]:
        """``analysis.study_summary`` of the cleaned fleet, exactly."""
        kept = self.n_kept
        n = max(1, kept)

        def mean_frac(count: int) -> float:
            # (bool_array).mean() divides by the *unclamped* device
            # count; empty-population gives nan just as analysis does.
            return count / kept if kept else float("nan")

        return {
            "devices": kept,
            "frac_median_util_ge_60": mean_frac(self.med_ge_60),
            "frac_median_util_gt_75": mean_frac(self.med_gt_75),
            "frac_any_signal_per_hour": self.any_ge_1 / n,
            "frac_critical_gt_10_per_hour": self.crit_gt_10 / n,
            "frac_total_gt_70_per_hour": self.total_gt_70 / n,
            "frac_high_time_gt_50pct": self.high_gt_50 / n,
            "frac_high_time_ge_2pct": self.high_ge_2 / n,
            "frac_moderate_ge_2pct": self.mod_ge_2 / n,
            "frac_critical_gt_4pct": self.crit_gt_4 / n,
        }

    def _transition_inputs(
        self,
    ) -> Tuple[Dict[int, Dict[int, int]], Dict[int, Dict[int, int]]]:
        if self.sel_devices > 0:
            return self.sel_next_counts, self.sel_dwells
        # Fallback: top devices by pressure fraction (analysis
        # top_pressure_devices, count=min(9, kept)).
        chosen = self.candidates[: min(9, self.n_kept)]
        next_counts: Dict[int, Dict[int, int]] = {}
        dwells: Dict[int, Dict[int, int]] = {}
        for cand in chosen:
            next_counts = _merge_nested(next_counts, cand.next_counts)
            dwells = _merge_nested(dwells, cand.dwells)
        return next_counts, dwells

    def transitions(self) -> Dict[str, dict]:
        """``analysis.transition_stats`` of the cleaned fleet, exactly."""
        next_counts, dwells = self._transition_inputs()
        result: Dict[str, dict] = {}
        for code in STATE_CODES.values():
            counts = next_counts.get(code, {})
            total = sum(counts.values())
            if total == 0:
                continue
            values, cnt = sorted_items(dwells.get(code, {}))
            result[STATE_NAMES[code]] = {
                "next": {
                    STATE_NAMES[nxt]: 100.0 * c / total
                    for nxt, c in sorted(counts.items())
                },
                "dwell_p25_s": percentile_from_counts(values, cnt, 25),
                "dwell_median_s": median_from_counts(values, cnt),
                "dwell_p75_s": percentile_from_counts(values, cnt, 75),
                "episodes": total,
            }
        return result

    def available_summary(self) -> Dict[str, dict]:
        """Figure 5-style available-MB distribution per state.

        Means are exact (float64 streaming sums); quartiles come from
        the 0.25 MB-binned t-digests, so they carry sketch resolution
        rather than matching ``np.percentile`` bitwise.
        """
        result = {}
        for name, code in STATE_CODES.items():
            count = self.avail_counts.get(code, 0)
            if count == 0:
                continue
            digest = self.avail_digests[code]
            result[name] = {
                "mean": self.avail_sums[code] / count,
                "p25": digest.quantile(0.25),
                "median": digest.quantile(0.5),
                "p75": digest.quantile(0.75),
                "n": count,
            }
        return result

    def utilization_quantiles(
        self, qs: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    ) -> Dict[float, float]:
        """Figure 2-style quantiles of per-device median utilization."""
        if self.util_median_digest.n_centroids == 0:
            return {}
        return {q: self.util_median_digest.quantile(q) for q in qs}

    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Canonical content hash (shard-invariance checks)."""

        def canon(obj: object) -> object:
            if isinstance(obj, TDigest):
                return (obj.means.tobytes(), obj.weights.tobytes())
            if isinstance(obj, dict):
                return tuple(
                    (k, canon(v)) for k, v in sorted(obj.items())
                )
            if isinstance(obj, (list, tuple)):
                return tuple(canon(v) for v in obj)
            if isinstance(obj, TransitionCandidate):
                return (
                    obj.device_index,
                    obj.pressure_fraction,
                    canon(obj.next_counts),
                    canon(obj.dwells),
                )
            return obj

        payload = tuple(
            (name, canon(getattr(self, name)))
            for name in sorted(self.__dataclass_fields__)
        )
        return hashlib.sha256(
            pickle.dumps(payload, protocol=4)
        ).hexdigest()


@dataclass
class CohortColumns:
    """Struct-of-arrays per-second logs for one cohort (npz export).

    Per-device series are stored as contiguous prefixes of flat arrays
    addressed by ``offsets`` (``sig_offsets`` for signal events).
    """

    device_index: np.ndarray     # (C,) global device indices
    total_mb: np.ndarray         # (C,)
    manufacturer_idx: np.ndarray  # (C,)
    android_idx: np.ndarray      # (C,)
    cores_idx: np.ndarray        # (C,)
    n: np.ndarray                # (C,) samples per device
    offsets: np.ndarray          # (C+1,)
    available_mb: np.ndarray     # (total,) float32
    state: np.ndarray            # (total,) int8, debounced
    interactive: np.ndarray      # (total,) bool
    n_services: np.ndarray       # (total,) int16
    sig_offsets: np.ndarray      # (C+1,)
    sig_times: np.ndarray        # (n_signals,) int64, device-relative s
    sig_codes: np.ndarray        # (n_signals,) int8


@dataclass
class CohortResult:
    """One cohort job's output: the mergeable summary, plus columnar
    logs when the caller asked for them (export / --keep-logs)."""

    cohort_index: int
    summary: FleetSummary
    columns: Optional[CohortColumns] = None


# ======================================================================
# Cohort simulation
# ======================================================================

def simulate_cohort(
    cohort_index: int,
    config: FleetConfig,
    *,
    collect_columns: bool = False,
) -> CohortResult:
    """Simulate one cohort and reduce it to a :class:`FleetSummary`.

    ``collect_columns`` additionally materializes the per-second
    columnar logs (service counts are only drawn in that mode; they
    live on their own named stream, so skipping them does not perturb
    any other draw).
    """
    size = cohort_size(config)
    start = cohort_index * size
    count = min(size, config.n_devices - start)
    if count <= 0:
        return CohortResult(cohort_index, FleetSummary())
    streams = RandomStreams(config.seed)
    draws = _cohort_draws(cohort_index, count, config, streams)

    g_mask = streams.numpy_stream(f"study.fleet{cohort_index}.mask")
    seg = _interactive_segments(draws.n, draws.phase, g_mask)
    int_count = (seg.take * seg.on).sum(axis=1)

    max_n = int(draws.n.max())
    n60 = -(-max_n // MINUTE)
    g_noise = streams.numpy_stream(f"study.fleet{cohort_index}.noise")
    u_slow = g_noise.random((count, n60), dtype=np.float32)
    u_fast = g_noise.random((count, n60 * MINUTE), dtype=np.float32)
    avail2d = _available_series(u_slow, u_fast, draws.total_mb,
                                draws.mean_util)
    del u_slow, u_fast
    state2d = _classify_states(
        avail2d,
        draws.moderate_mb[:, None].astype(np.float32),
        draws.low_mb[:, None].astype(np.float32),
        draws.critical_mb[:, None].astype(np.float32),
    )

    offsets = np.concatenate(([0], np.cumsum(draws.n)))
    avail_flat = _flatten_rows(avail2d, draws.n, offsets)
    state_flat = _flatten_rows(state2d, draws.n, offsets)
    del avail2d, state2d
    mask_flat = _materialize_mask(seg, offsets)

    state_deb, runs = debounce_flat(state_flat, offsets)
    del state_flat
    sig_counts, entry, reemit = signal_counts_from_runs(runs, count)

    # Interactive seconds under each debounced run (exclusive prefix).
    prefix = np.concatenate(
        ([0], np.cumsum(mask_flat, dtype=np.int64))
    )
    int_in_run = (
        prefix[runs.starts + runs.lengths] - prefix[runs.starts]
    )
    vals64 = runs.values.astype(np.int64)
    tis = np.bincount(
        runs.devs * 4 + vals64,
        weights=int_in_run.astype(np.float64),
        minlength=4 * count,
    ).reshape(count, 4).astype(np.int64)

    # Cleaning (analysis.clean: interactive_hours >= threshold and any
    # interactive).
    threshold = config.cleaning_threshold_hours()
    hours_int = int_count / 3600.0
    kept = (hours_int >= threshold) & (int_count > 0)

    # Interactive-compacted series (the "cleaned log" samples).
    avail_int = avail_flat[mask_flat]
    state_int = state_deb[mask_flat]
    int_offsets = np.concatenate(([0], np.cumsum(int_count)))

    summary = _summarize_cohort(
        start, count, draws, kept, int_count, hours_int, tis,
        sig_counts, avail_int, state_int, int_offsets, config,
    )

    columns = None
    if collect_columns:
        g_serv = streams.numpy_stream(
            f"study.fleet{cohort_index}.services"
        )
        u_serv = g_serv.random((count, n60), dtype=np.float32)
        serv2d = _services_series(u_serv)
        del u_serv
        serv_flat = _flatten_rows(serv2d, draws.n, offsets)
        del serv2d
        sig_offsets, sig_times, sig_codes = _signal_events(
            runs, entry, reemit, offsets, count
        )
        columns = CohortColumns(
            device_index=start + np.arange(count, dtype=np.int64),
            total_mb=draws.total_mb,
            manufacturer_idx=draws.manufacturer_idx.astype(np.int16),
            android_idx=draws.android_idx.astype(np.int8),
            cores_idx=draws.cores_idx.astype(np.int8),
            n=draws.n,
            offsets=offsets,
            available_mb=avail_flat,
            state=state_deb,
            interactive=mask_flat,
            n_services=serv_flat,
            sig_offsets=sig_offsets,
            sig_times=sig_times,
            sig_codes=sig_codes,
        )
    return CohortResult(cohort_index, summary, columns)


def _summarize_cohort(
    start: int,
    count: int,
    draws: CohortDraws,
    kept: np.ndarray,
    int_count: np.ndarray,
    hours_int: np.ndarray,
    tis: np.ndarray,
    sig_counts: np.ndarray,
    avail_int: np.ndarray,
    state_int: np.ndarray,
    int_offsets: np.ndarray,
    config: FleetConfig,
) -> FleetSummary:
    """Reduce one cohort's per-device statistics to a FleetSummary,
    replicating every float operation of analysis.py in order."""
    kept_idx = np.flatnonzero(kept)
    n_kept = int(len(kept_idx))

    # Per-device median utilization (float32 math, like analysis).
    medians = np.array([
        _median_utilization(
            avail_int[int(int_offsets[d]):int(int_offsets[d + 1])],
            int(draws.total_mb[d]),
        )
        for d in kept_idx
    ])

    # Signal rates: counts over *cleaned* hours (analysis normalizes by the
    # cleaned log's hours_logged = interactive seconds / 3600).
    hours = np.maximum(hours_int[kept_idx], 1e-9)
    r_mod = sig_counts[kept_idx, 1] / hours
    r_low = sig_counts[kept_idx, 2] / hours
    r_crit = sig_counts[kept_idx, 3] / hours
    r_total = r_mod + r_low + r_crit

    # Time-in-state fractions of the cleaned log (count/n, float64).
    n_int = int_count[kept_idx]
    f_mod = tis[kept_idx, 1] / n_int
    f_low = tis[kept_idx, 2] / n_int
    f_crit = tis[kept_idx, 3] / n_int
    f_high = f_mod + f_low + f_crit

    util_digest = TDigest.from_values(medians, config.compression)

    # Available-memory distribution per state, over kept samples only.
    avail_digests: Dict[int, TDigest] = {}
    avail_sums: Dict[int, float] = {}
    avail_counts: Dict[int, int] = {}
    if n_kept:
        if n_kept == count:
            avail_k, state_k = avail_int, state_int
        else:
            dev_of = np.repeat(
                np.arange(count), int_count
            )
            sample_kept = kept[dev_of]
            avail_k = avail_int[sample_kept]
            state_k = state_int[sample_kept]
            del dev_of, sample_kept
        bins = (avail_k * np.float32(AVAIL_BIN_PER_MB)).astype(np.int32)
        key = state_k.astype(np.int32) * _AVAIL_BINS + bins
        counts_all = np.bincount(key, minlength=4 * _AVAIL_BINS)
        sums_all = np.bincount(
            key, weights=avail_k.astype(np.float64),
            minlength=4 * _AVAIL_BINS,
        )
        for code in range(4):
            sl = slice(code * _AVAIL_BINS, (code + 1) * _AVAIL_BINS)
            c_state = counts_all[sl]
            nz = np.flatnonzero(c_state)
            if len(nz) == 0:
                continue
            centers = (nz + 0.5) / AVAIL_BIN_PER_MB
            avail_digests[code] = TDigest.from_counts(
                centers, c_state[nz], config.compression
            )
            avail_sums[code] = float(sums_all[sl].sum())
            avail_counts[code] = int(c_state.sum())

    # Figure 6: transition stats on the cleaned (compacted) state.
    episodes = _runs_flat(state_int, int_offsets)
    frac = np.zeros(count)
    pos = int_count > 0
    frac[pos] = (int_count[pos] - tis[pos, 0]) / int_count[pos]
    selected = kept & (frac > MIN_NONNORMAL_FRACTION)

    same_dev = episodes.devs[1:] == episodes.devs[:-1]
    origin_dev = episodes.devs[:-1]
    origin_val = episodes.values[:-1].astype(np.int64)
    next_val = episodes.values[1:].astype(np.int64)
    origin_len = episodes.lengths[:-1]

    def transition_tables(device_mask: np.ndarray) -> Tuple[
        Dict[int, Dict[int, int]], Dict[int, Dict[int, int]]
    ]:
        pairs = same_dev & device_mask[origin_dev]
        keys = origin_val[pairs] * 4 + next_val[pairs]
        table = np.bincount(keys, minlength=16).reshape(4, 4)
        nxt: Dict[int, Dict[int, int]] = {}
        dw: Dict[int, Dict[int, int]] = {}
        o_vals = origin_val[pairs]
        o_lens = origin_len[pairs]
        for code in range(4):
            row = {
                int(j): int(table[code, j])
                for j in range(4) if table[code, j]
            }
            if row:
                nxt[code] = row
                dw[code] = dwell_histogram(o_lens[o_vals == code])
        return nxt, dw

    if bool(selected.any()):
        sel_next, sel_dwells = transition_tables(selected)
    else:
        sel_next, sel_dwells = {}, {}

    # Fallback candidates: top 9 kept devices by (-fraction, index).
    candidates: List[TransitionCandidate] = []
    if n_kept:
        order = np.lexsort((kept_idx, -frac[kept_idx]))[:9]
        for d in kept_idx[order]:
            only = np.zeros(count, dtype=bool)
            only[d] = True
            c_next, c_dwells = transition_tables(only)
            candidates.append(TransitionCandidate(
                device_index=start + int(d),
                pressure_fraction=float(frac[d]),
                next_counts=c_next,
                dwells=c_dwells,
            ))

    time_in_state = {
        code: int(tis[kept_idx, code].sum()) for code in range(4)
        if tis[kept_idx, code].sum()
    }
    signal_totals = {
        code: int(sig_counts[kept_idx, code].sum())
        for code in range(4) if sig_counts[kept_idx, code].sum()
    }

    return FleetSummary(
        n_devices=count,
        n_kept=n_kept,
        total_samples=int(draws.n.sum()),
        interactive_seconds=int(int_count.sum()),
        med_ge_60=int((medians >= 0.60).sum()),
        med_gt_75=int((medians > 0.75).sum()),
        any_ge_1=int((r_total >= 1.0).sum()),
        crit_gt_10=int((r_crit > 10.0).sum()),
        total_gt_70=int((r_total > 70.0).sum()),
        high_gt_50=int((f_high > 0.50).sum()),
        high_ge_2=int((f_high >= 0.02).sum()),
        mod_ge_2=int((f_mod >= 0.02).sum()),
        crit_gt_4=int((f_crit > 0.04).sum()),
        time_in_state=time_in_state,
        signal_totals=signal_totals,
        util_median_digest=util_digest,
        avail_digests=avail_digests,
        avail_sums=avail_sums,
        avail_counts=avail_counts,
        sel_devices=int(selected.sum()),
        sel_next_counts=sel_next,
        sel_dwells=sel_dwells,
        candidates=candidates,
    )


# ======================================================================
# Reference oracle and log materialization
# ======================================================================

def _debounce(state: np.ndarray, min_dwell_s: int) -> np.ndarray:
    """Suppress state runs shorter than ``min_dwell_s`` seconds.

    The ActivityManager does not flip OnTrimMemory levels on every 1 s
    fluctuation; short excursions are absorbed into the previous state,
    which both rate-limits signals and produces the multi-second dwell
    times of Figure 6.
    """
    if len(state) == 0:
        return state
    result = state.copy()
    changes = np.flatnonzero(np.diff(result) != 0) + 1
    boundaries = np.concatenate(([0], changes, [len(result)]))
    current = int(result[0])
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        if end - start < min_dwell_s and start > 0:
            result[start:end] = current
        else:
            current = int(result[start])
    return result


def _emit_signals(state: np.ndarray) -> List[Tuple[int, int]]:
    """OnTrimMemory emissions: one on each entry into a non-normal
    state, plus one every REEMIT_PERIOD_S while the state persists."""
    signals: List[Tuple[int, int]] = []
    entries = np.flatnonzero(np.diff(state) != 0) + 1
    boundaries = np.concatenate(([0], entries, [len(state)]))
    previous = STATE_CODES["normal"]
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        code = int(state[start])
        if code != STATE_CODES["normal"]:
            # onTrimMemory fires when the trim level *rises*; a falling
            # level is not signalled (the app simply stops being asked
            # to trim), but a sustained state re-notifies periodically.
            if code > previous:
                signals.append((int(start), code))
            extra = int((end - start - 1) // REEMIT_PERIOD_S)
            for k in range(1, extra + 1):
                signals.append((int(start + k * REEMIT_PERIOD_S), code))
        previous = code
    return signals


def reference_cohort_logs(
    cohort_index: int, config: FleetConfig
) -> List[DeviceLog]:
    """Materialize one cohort *device by device*: the same cohort
    draws, but scalar :func:`_debounce`, :func:`_emit_signals`, and the
    scalar interactive walk — the oracle the batched kernels must match
    bit for bit."""
    size = cohort_size(config)
    start = cohort_index * size
    count = min(size, config.n_devices - start)
    if count <= 0:
        return []
    streams = RandomStreams(config.seed)
    draws = _cohort_draws(cohort_index, count, config, streams)
    g_mask = streams.numpy_stream(f"study.fleet{cohort_index}.mask")
    seg = _interactive_segments(draws.n, draws.phase, g_mask)
    max_n = int(draws.n.max())
    n60 = -(-max_n // MINUTE)
    g_noise = streams.numpy_stream(f"study.fleet{cohort_index}.noise")
    u_slow = g_noise.random((count, n60), dtype=np.float32)
    u_fast = g_noise.random((count, n60 * MINUTE), dtype=np.float32)
    g_serv = streams.numpy_stream(f"study.fleet{cohort_index}.services")
    u_serv = g_serv.random((count, n60), dtype=np.float32)

    logs = []
    for d in range(count):
        n_i = int(draws.n[d])
        # One-row (1, n) slices run the same AR(1) kernel and float32
        # operations as the batched call, one device at a time.
        avail = _available_series(
            u_slow[d:d + 1], u_fast[d:d + 1],
            draws.total_mb[d:d + 1], draws.mean_util[d:d + 1],
        )[0, :n_i]
        state = _classify_states(
            avail,
            np.float32(draws.moderate_mb[d]),
            np.float32(draws.low_mb[d]),
            np.float32(draws.critical_mb[d]),
        )
        state = _debounce(state, min_dwell_s=MIN_DWELL_S)
        signals = _emit_signals(state)
        interactive = _interactive_mask_reference(
            n_i, float(draws.phase[d]), seg.u[d], seg.e[d]
        )
        services = _services_series(u_serv[d:d + 1])[0, :n_i]
        logs.append(DeviceLog(
            info=_device_info(draws, d, start + d),
            timestamps=np.arange(n_i, dtype=np.int64),
            available_mb=avail,
            state=state,
            interactive=interactive,
            n_services=services,
            signals=signals,
        ))
    return logs


def reference_fleet_logs(config: FleetConfig) -> List[DeviceLog]:
    """All cohorts through the per-device reference path."""
    logs: List[DeviceLog] = []
    for c in range(n_cohorts(config)):
        logs.extend(reference_cohort_logs(c, config))
    return logs


def _device_info(
    draws: CohortDraws, d: int, global_index: int
) -> DeviceInfo:
    return DeviceInfo(
        device_id=f"user{global_index:03d}",
        manufacturer=MANUFACTURERS[int(draws.manufacturer_idx[d])],
        total_mb=int(draws.total_mb[d]),
        android_version=ANDROID_VERSIONS[int(draws.android_idx[d])],
        n_cores=CORE_CHOICES[int(draws.cores_idx[d])],
    )


def columns_to_logs(columns: CohortColumns) -> List[DeviceLog]:
    """Materialize :class:`DeviceLog` records from columnar arrays."""
    logs = []
    for d in range(len(columns.n)):
        lo = int(columns.offsets[d])
        hi = int(columns.offsets[d + 1])
        s_lo = int(columns.sig_offsets[d])
        s_hi = int(columns.sig_offsets[d + 1])
        signals = [
            (int(t), int(c))
            for t, c in zip(columns.sig_times[s_lo:s_hi],
                            columns.sig_codes[s_lo:s_hi])
        ]
        info = DeviceInfo(
            device_id=f"user{int(columns.device_index[d]):03d}",
            manufacturer=MANUFACTURERS[int(columns.manufacturer_idx[d])],
            total_mb=int(columns.total_mb[d]),
            android_version=ANDROID_VERSIONS[int(columns.android_idx[d])],
            n_cores=CORE_CHOICES[int(columns.cores_idx[d])],
        )
        logs.append(DeviceLog(
            info=info,
            timestamps=np.arange(hi - lo, dtype=np.int64),
            available_mb=columns.available_mb[lo:hi],
            state=columns.state[lo:hi],
            interactive=columns.interactive[lo:hi],
            n_services=columns.n_services[lo:hi],
            signals=signals,
        ))
    return logs
