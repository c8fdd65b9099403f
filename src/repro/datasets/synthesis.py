"""Raw IMU window synthesis.

Generates fixed-length 6-channel windows (3 accelerometer + 3 gyroscope
axes) for a given activity, body location and subject, following the
signature model in :mod:`repro.datasets.profiles`:

``x_c(t) = gravity_c + A_c * sum_h w_h sin(2*pi*f*h*t + phi_c + phi_s)
          + impacts(t) + sensor noise``

Per-window log-normal amplitude jitter and frequency wobble provide
intra-class variability, so two windows of the same activity are similar
but never identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.datasets.activities import Activity
from repro.datasets.body import BodyLocation
from repro.datasets.profiles import ActivitySignature, N_CHANNELS, SignatureTable
from repro.datasets.subjects import SubjectProfile
from repro.errors import DatasetError
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class StyleWobble:
    """Momentary execution style of the wearer for one window.

    A person does not perform an activity identically from window to
    window — they speed up, slow down, move more or less vigorously.
    Crucially this wobble is a property of the *movement*, so every
    sensor on the body sees the same one at the same time: sampling one
    wobble per window and passing it to all locations produces the
    correlated errors real multi-sensor deployments exhibit (a sloppy
    window is hard for every sensor at once).

    Attributes
    ----------
    amplitude_scale / frequency_scale:
        Multiplicative deviations from the subject's nominal movement.
    """

    amplitude_scale: float = 1.0
    frequency_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.amplitude_scale <= 0 or self.frequency_scale <= 0:
            raise DatasetError("style scales must be positive")

    @staticmethod
    def sample(
        rng: np.random.Generator,
        *,
        amplitude_sigma: float = 0.25,
        frequency_sigma: float = 0.06,
    ) -> "StyleWobble":
        """Draw one wobble (log-normal, mean-one scales)."""
        return StyleWobble(
            amplitude_scale=float(np.exp(rng.normal(0.0, amplitude_sigma))),
            frequency_scale=float(np.exp(rng.normal(0.0, frequency_sigma))),
        )

#: Fixed per-axis phase offsets: axes of one rigid segment move with a
#: stable relative phase (e.g. vertical acceleration leads the pitch).
_AXIS_PHASE = np.array([0.0, 1.25, 2.1, 0.6, 1.9, 2.8])

#: Direction of an impact burst on the three accelerometer axes.
_IMPACT_DIRECTION = np.array([0.3, 1.0, 0.35])

#: Windows whose waveforms are computed together.  Bounds the float64
#: scratch of one :meth:`SignalSynthesizer.batch` call to three
#: ``(block, channels, window_size)`` arrays and one ``(block, 3,
#: window_size)`` impact block (~2.6 MiB at 128 samples).
_BLOCK_WINDOWS = 128

_TWO_PI = 2.0 * np.pi


class SignalSynthesizer:
    """Produces labeled IMU windows from a :class:`SignatureTable`.

    Parameters
    ----------
    signatures:
        Calibrated table from :func:`~repro.datasets.profiles.mhealth_signatures`
        or :func:`~repro.datasets.profiles.pamap2_signatures`.
    sample_rate_hz:
        IMU sampling rate; both real datasets use 50 Hz.
    window_size:
        Samples per window (128 at 50 Hz = 2.56 s, the paper's regime of
        "hundreds of milliseconds to seconds" per activity bout).
    """

    def __init__(
        self,
        signatures: SignatureTable,
        *,
        sample_rate_hz: float = 50.0,
        window_size: int = 128,
    ) -> None:
        if sample_rate_hz <= 0:
            raise DatasetError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
        if window_size < 8:
            raise DatasetError(f"window_size must be >= 8, got {window_size}")
        self.signatures = signatures
        self.sample_rate_hz = float(sample_rate_hz)
        self.window_size = int(window_size)
        self._time = np.arange(self.window_size) / self.sample_rate_hz

    @property
    def window_duration_s(self) -> float:
        """Length of one window in seconds."""
        return self.window_size / self.sample_rate_hz

    def window(
        self,
        activity: Activity,
        location: BodyLocation,
        subject: Optional[SubjectProfile] = None,
        seed: SeedLike = None,
        *,
        style: Optional[StyleWobble] = None,
    ) -> np.ndarray:
        """One window, shape ``(N_CHANNELS, window_size)``, float32.

        Pass the *same* ``style`` for every location of one time window
        to model the shared execution wobble (see :class:`StyleWobble`);
        ``None`` draws an independent wobble per call (fine for
        training data, wrong for simulating one instant on a body).
        """
        return self.batch(activity, location, 1, subject, seed, style=style)[0]

    def batch(
        self,
        activity: Union[Activity, Sequence[Activity]],
        location: BodyLocation,
        count: Optional[int] = None,
        subject: Union[None, SubjectProfile, Sequence[SubjectProfile]] = None,
        seed: SeedLike = None,
        *,
        style: Union[None, StyleWobble, Sequence[Optional[StyleWobble]]] = None,
    ) -> np.ndarray:
        """A stream of windows at ``location``, shape ``(count, N_CHANNELS, window_size)``.

        ``activity``, ``subject`` and ``style`` each take one value shared
        by every window or a sequence with one entry per window; ``count``
        defaults to the length of those sequences.  A ``None`` style
        draws a fresh wobble from the stream before each window.  Windows
        consume the random stream in order, so the result (and the
        generator's state afterwards) equals ``count`` successive
        :meth:`window` calls on the same generator.
        """
        subject = subject or SubjectProfile.canonical()
        if count is None:
            lengths = [
                len(value)
                for value, kind in (
                    (activity, Activity),
                    (subject, SubjectProfile),
                    (style, StyleWobble),
                )
                if value is not None and not isinstance(value, kind)
            ]
            if not lengths:
                raise DatasetError("count is required without a per-window sequence")
            count = lengths[0]
        if count < 1:
            raise DatasetError(f"count must be >= 1, got {count}")
        activities = _per_window(activity, Activity, count, "activity")
        subjects = _per_window(subject, SubjectProfile, count, "subject")
        styles = _per_window(style, StyleWobble, count, "style")
        rng = as_generator(seed)

        kinds: Dict[Activity, int] = {}
        signatures: List[ActivitySignature] = []
        for item in activities:
            if item not in kinds:
                kinds[item] = len(signatures)
                signatures.append(self.signatures.signature(location, item))
        kind_of = np.fromiter((kinds[item] for item in activities), np.intp, count)
        sensor_noise = self.signatures.noise(location)

        # The output is allocated before the short-lived scratch, so the
        # freed scratch does not leave a hole below a live array.
        windows = np.empty((count, N_CHANNELS, self.window_size), dtype=np.float32)
        size = min(count, _BLOCK_WINDOWS)
        shape = (size, N_CHANNELS, self.window_size)
        signal, scratch, noise = np.empty(shape), np.empty(shape), np.empty(shape)
        impacts = np.empty((size, 3, self.window_size))
        for first in range(0, count, _BLOCK_WINDOWS):
            last = min(first + _BLOCK_WINDOWS, count)
            order = np.argsort(kind_of[first:last], kind="stable")
            draws = self._draw_block(
                signatures,
                kind_of[first:last].tolist(),
                order,
                subjects[first:last],
                styles[first:last],
                sensor_noise,
                noise,
                impacts,
                rng,
            )
            self._render_block(signatures, draws, signal, scratch, noise, impacts)
            windows[first:last][order] = signal[: last - first]
        return windows

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _draw_block(
        self,
        signatures: List[ActivitySignature],
        kinds: List[int],
        order: np.ndarray,
        subjects: Sequence[SubjectProfile],
        styles: Sequence[Optional[StyleWobble]],
        sensor_noise: float,
        noise: np.ndarray,
        impacts: np.ndarray,
        rng: np.random.Generator,
    ) -> "_BlockDraws":
        """Draw every random quantity of one block, window by window.

        Windows are visited in stream order (the RNG order of the
        per-window algorithm); each window's draws land in row
        ``rank[window]`` so that rows of one signature are contiguous.
        Noise rows of noiseless windows are ``-0.0``, the additive
        identity, and impact bursts are scattered into ``impacts``.
        """
        n = len(kinds)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        freq = np.empty(n)
        amp_scale = np.empty(n)
        phase = np.empty(n)
        gains = np.empty((n, N_CHANNELS))
        burst_rows: List[int] = []
        burst_starts: List[int] = []
        burst_lengths: List[int] = []
        burst_scales: List[np.ndarray] = []
        noise_shape = (N_CHANNELS, self.window_size)
        impacts[:n] = 0.0
        for index, row in enumerate(rank.tolist()):
            signature = signatures[kinds[index]]
            subject = subjects[index]
            style = styles[index]
            if style is None:
                style = StyleWobble.sample(rng)
            jitter = signature.jitter
            window_freq = (
                signature.frequency_hz
                * subject.frequency_scale
                * style.frequency_scale
                * float(np.exp(rng.normal(0.0, 0.03 + 0.25 * jitter)))
            )
            window_amp = (
                subject.amplitude_scale
                * style.amplitude_scale
                * float(np.exp(rng.normal(0.0, jitter)))
            )
            freq[row] = window_freq
            amp_scale[row] = window_amp
            phase[row] = float(rng.uniform(0.0, 2.0 * np.pi)) + subject.phase_offset
            gains[row] = subject.channel_gains

            # Impact spikes at each footfall: decaying bursts once per
            # period, on the accelerometer axes only.
            if signature.impact > 0:
                period = max(int(self.sample_rate_hz / max(window_freq, 1e-3)), 2)
                starts = range(int(rng.integers(0, period)), self.window_size, period)
                if starts:
                    amplitude = signature.impact * window_amp
                    burst_rows.extend([row] * len(starts))
                    burst_starts.extend(starts)
                    burst_lengths.extend([max(period // 6, 2)] * len(starts))
                    burst_scales.append(
                        amplitude * np.exp(rng.normal(0.0, 0.2, size=len(starts)))
                    )

            noise_sigma = sensor_noise * subject.noise_factor
            if noise_sigma > 0:
                noise[row] = rng.normal(0.0, noise_sigma, size=noise_shape)
            else:
                noise[row] = -0.0

        if burst_rows:
            self._scatter_impacts(
                impacts[:n],
                np.asarray(burst_rows),
                np.asarray(burst_starts),
                np.asarray(burst_lengths),
                np.concatenate(burst_scales),
            )
        return _BlockDraws(np.sort(kinds), freq, amp_scale, phase, gains)

    def _scatter_impacts(
        self,
        impacts: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        scales: np.ndarray,
    ) -> None:
        """Write every burst of a block into the zeroed ``impacts`` in one scatter."""
        span = np.arange(int(lengths.max()))
        decay = np.zeros((len(lengths), len(span)))
        for burst_len in set(lengths.tolist()):
            decay[lengths == burst_len, :burst_len] = np.exp(
                -np.linspace(0.0, 4.0, burst_len)
            )
        columns = starts[:, None] + span
        inside = (span < lengths[:, None]) & (columns < self.window_size)
        values = _IMPACT_DIRECTION[:, None, None] * scales[:, None] * decay
        flat = (rows[:, None] * 3 + np.arange(3)[:, None, None]) * self.window_size
        impacts.reshape(-1)[(flat + columns)[:, inside]] = values[:, inside]

    def _render_block(
        self,
        signatures: List[ActivitySignature],
        draws: "_BlockDraws",
        signal: np.ndarray,
        scratch: np.ndarray,
        noise: np.ndarray,
        impacts: np.ndarray,
    ) -> None:
        """Evaluate ``x_c(t)`` for a block's rows into ``signal`` (float64).

        Each signature's rows are computed together, repeating the
        per-window float operations in order: gravity, then every
        positive-weight harmonic, then impacts, channel gains and noise.
        """
        kinds = draws.kinds
        n = len(kinds)
        bounds = [0, *(np.flatnonzero(np.diff(kinds)) + 1).tolist(), n]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            signature = signatures[kinds[lo]]
            amplitudes = np.concatenate(
                [np.asarray(signature.accel_amplitude), np.asarray(signature.gyro_amplitude)]
            )
            gravity = np.concatenate([np.asarray(signature.gravity), np.zeros(3)])

            rows = signal[lo:hi]
            rows[...] = gravity[:, None]
            omega_t = (_TWO_PI * draws.freq[lo:hi])[:, None, None] * self._time
            phases = _AXIS_PHASE[:, None] + draws.phase[lo:hi, None, None]
            scaled = amplitudes[:, None] * draws.amp_scale[lo:hi, None, None]
            term = scratch[lo:hi]
            for order, weight in enumerate(signature.harmonics, start=1):
                if weight <= 0:
                    continue
                np.add(order * omega_t, order * phases, out=term)
                np.sin(term, out=term)
                term *= scaled * weight
                rows += term
            if signature.impact > 0:
                rows[:, :3] += impacts[lo:hi]
        signal[:n] *= draws.gains[:, :, None]
        signal[:n] += noise[:n]


@dataclass(frozen=True)
class _BlockDraws:
    """One block's per-row draws, rows sorted by signature."""

    kinds: np.ndarray
    freq: np.ndarray
    amp_scale: np.ndarray
    phase: np.ndarray
    gains: np.ndarray


def _per_window(value, kind: type, count: int, name: str) -> list:
    """``value`` as ``count`` per-window entries: one shared value
    repeated, or a sequence that must have exactly ``count`` entries."""
    if value is None or isinstance(value, kind):
        return [value] * count
    values = list(value)
    if len(values) != count:
        raise DatasetError(f"{name} has {len(values)} entries, expected {count}")
    return values
