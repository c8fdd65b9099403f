"""Tests for repro.datasets.synthesis."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.activities import Activity
from repro.datasets.body import BodyLocation
from repro.datasets.mhealth import make_mhealth
from repro.datasets.pamap2 import make_pamap2
from repro.datasets.profiles import (
    N_CHANNELS,
    ActivitySignature,
    mhealth_signatures,
    pamap2_signatures,
)
from repro.datasets.subjects import SubjectProfile, sample_subjects
from repro.datasets.synthesis import _BLOCK_WINDOWS, SignalSynthesizer, StyleWobble
from repro.errors import DatasetError
from repro.sim.predcache import build_run_material
from repro.store.keys import dataset_fingerprint


@pytest.fixture(scope="module")
def synth():
    return SignalSynthesizer(mhealth_signatures())


class TestWindowGeneration:
    def test_shape_and_dtype(self, synth):
        window = synth.window(Activity.WALKING, BodyLocation.CHEST, seed=0)
        assert window.shape == (N_CHANNELS, 128)
        assert window.dtype == np.float32

    def test_batch_shape(self, synth):
        batch = synth.batch(Activity.RUNNING, BodyLocation.LEFT_ANKLE, count=5, seed=0)
        assert batch.shape == (5, N_CHANNELS, 128)

    def test_reproducible_with_seed(self, synth):
        a = synth.window(Activity.CYCLING, BodyLocation.RIGHT_WRIST, seed=3)
        b = synth.window(Activity.CYCLING, BodyLocation.RIGHT_WRIST, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_windows_differ_within_class(self, synth):
        batch = synth.batch(Activity.WALKING, BodyLocation.CHEST, count=2, seed=0)
        assert not np.allclose(batch[0], batch[1])

    def test_gravity_offset_present(self, synth):
        # Accelerometer y-axis should carry roughly 1 g on average.
        window = synth.window(Activity.WALKING, BodyLocation.LEFT_ANKLE, seed=1)
        assert 5.0 < window[1].mean() < 15.0

    def test_gyro_has_no_gravity(self, synth):
        batch = synth.batch(Activity.WALKING, BodyLocation.LEFT_ANKLE, 10, seed=1)
        assert abs(batch[:, 3:, :].mean()) < 1.0

    def test_running_more_energetic_than_cycling_at_chest(self, synth):
        run = synth.batch(Activity.RUNNING, BodyLocation.CHEST, 8, seed=2)
        cyc = synth.batch(Activity.CYCLING, BodyLocation.CHEST, 8, seed=2)
        energy = lambda x: np.var(x[:, :3, :])
        assert energy(run) > energy(cyc)

    def test_invalid_count(self, synth):
        with pytest.raises(DatasetError):
            synth.batch(Activity.WALKING, BodyLocation.CHEST, count=0)

    def test_window_duration(self, synth):
        assert synth.window_duration_s == pytest.approx(128 / 50.0)


class TestSubjectEffects:
    def test_subject_changes_signal(self, synth):
        base = synth.window(Activity.WALKING, BodyLocation.CHEST, seed=5)
        subject = SubjectProfile(
            subject_id=1, frequency_scale=1.1, amplitude_scale=1.3
        )
        shifted = synth.window(Activity.WALKING, BodyLocation.CHEST, subject, seed=5)
        assert not np.allclose(base, shifted)

    def test_noise_factor_scales_noise(self, synth):
        quiet = SubjectProfile(subject_id=1, noise_factor=0.01)
        loud = SubjectProfile(subject_id=2, noise_factor=3.0)
        a = synth.batch(Activity.CYCLING, BodyLocation.CHEST, 6, quiet, seed=7)
        b = synth.batch(Activity.CYCLING, BodyLocation.CHEST, 6, loud, seed=7)
        # High-frequency residual differs strongly with noise.
        assert np.var(np.diff(b)) > np.var(np.diff(a))


class TestStyleWobble:
    def test_identity_default(self):
        style = StyleWobble()
        assert style.amplitude_scale == 1.0

    def test_sample_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            style = StyleWobble.sample(rng)
            assert style.amplitude_scale > 0
            assert style.frequency_scale > 0

    def test_invalid_rejected(self):
        with pytest.raises(DatasetError):
            StyleWobble(amplitude_scale=0.0)

    def test_shared_style_correlates_locations(self, synth):
        # The same big wobble raises energy at every location.
        big = StyleWobble(amplitude_scale=2.5)
        small = StyleWobble(amplitude_scale=0.4)
        for location in (BodyLocation.CHEST, BodyLocation.LEFT_ANKLE):
            a = synth.batch(Activity.RUNNING, location, 6, seed=1, style=big)
            b = synth.batch(Activity.RUNNING, location, 6, seed=1, style=small)
            assert np.var(a[:, :3]) > np.var(b[:, :3])


class TestConstruction:
    def test_invalid_sample_rate(self):
        with pytest.raises(DatasetError):
            SignalSynthesizer(mhealth_signatures(), sample_rate_hz=0)

    def test_tiny_window_rejected(self):
        with pytest.raises(DatasetError):
            SignalSynthesizer(mhealth_signatures(), window_size=4)


class TestBatchSequences:
    def test_per_window_activities_match_single_windows(self, synth):
        activities = [Activity.WALKING, Activity.RUNNING, Activity.WALKING]
        quiet = SubjectProfile(subject_id=1, noise_factor=0.5)
        subjects = [SubjectProfile.canonical(), quiet, SubjectProfile.canonical()]
        styles = [StyleWobble(amplitude_scale=1.2), None, StyleWobble(frequency_scale=0.9)]
        rng = np.random.default_rng(4)
        batch = synth.batch(
            activities, BodyLocation.CHEST, subject=subjects, seed=rng, style=styles
        )
        expected_rng = np.random.default_rng(4)
        expected = [
            synth.window(a, BodyLocation.CHEST, s, expected_rng, style=w)
            for a, s, w in zip(activities, subjects, styles)
        ]
        assert batch.shape == (3, N_CHANNELS, 128)
        np.testing.assert_array_equal(batch, np.stack(expected))
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_count_inferred_from_any_sequence(self, synth):
        subjects = [SubjectProfile.canonical(subject_id=i) for i in range(4)]
        batch = synth.batch(Activity.CYCLING, BodyLocation.CHEST, subject=subjects, seed=0)
        assert batch.shape[0] == 4

    def test_count_required_without_sequence(self, synth):
        with pytest.raises(DatasetError, match="count"):
            synth.batch(Activity.WALKING, BodyLocation.CHEST)

    def test_mismatched_lengths_rejected(self, synth):
        with pytest.raises(DatasetError, match="style has 2 entries"):
            synth.batch(
                [Activity.WALKING] * 3, BodyLocation.CHEST, style=[StyleWobble()] * 2
            )
        with pytest.raises(DatasetError, match="activity has 3 entries"):
            synth.batch([Activity.WALKING] * 3, BodyLocation.CHEST, count=4)

    def test_empty_sequence_rejected(self, synth):
        with pytest.raises(DatasetError, match="count must be >= 1"):
            synth.batch([], BodyLocation.CHEST)


# ---------------------------------------------------------------------------
# Differential test against the per-window algorithm
# ---------------------------------------------------------------------------

_AXIS_PHASE = np.array([0.0, 1.25, 2.1, 0.6, 1.9, 2.8])


class _PerWindowOracle:
    """The per-window synthesizer the batched one must reproduce bit for bit.

    ``_one_window`` and ``_impact_train`` are kept exactly as they were
    when each window was synthesized on its own.
    """

    def __init__(self, synthesizer: SignalSynthesizer) -> None:
        self.signatures = synthesizer.signatures
        self.sample_rate_hz = synthesizer.sample_rate_hz
        self.window_size = synthesizer.window_size
        self._time = np.arange(self.window_size) / self.sample_rate_hz

    def stream(self, activities, location, subjects, styles, rng):
        windows = np.empty(
            (len(activities), N_CHANNELS, self.window_size), dtype=np.float32
        )
        for index, (activity, subject, style) in enumerate(
            zip(activities, subjects, styles)
        ):
            signature = self.signatures.signature(location, activity)
            noise_sigma = self.signatures.noise(location) * subject.noise_factor
            wobble = style if style is not None else StyleWobble.sample(rng)
            windows[index] = self._one_window(signature, subject, noise_sigma, wobble, rng)
        return windows

    def _one_window(
        self,
        signature: ActivitySignature,
        subject: SubjectProfile,
        noise_sigma: float,
        style: StyleWobble,
        rng: np.random.Generator,
    ) -> np.ndarray:
        jitter = signature.jitter
        freq = (
            signature.frequency_hz
            * subject.frequency_scale
            * style.frequency_scale
            * float(np.exp(rng.normal(0.0, 0.03 + 0.25 * jitter)))
        )
        amp_scale = (
            subject.amplitude_scale
            * style.amplitude_scale
            * float(np.exp(rng.normal(0.0, jitter)))
        )
        window_phase = float(rng.uniform(0.0, 2.0 * np.pi)) + subject.phase_offset

        amplitudes = np.concatenate(
            [np.asarray(signature.accel_amplitude), np.asarray(signature.gyro_amplitude)]
        )
        gravity = np.concatenate([np.asarray(signature.gravity), np.zeros(3)])

        # Periodic component: harmonic series per channel.
        signal = np.tile(gravity[:, None], (1, self.window_size)).astype(np.float64)
        phases = _AXIS_PHASE[:, None] + window_phase
        omega_t = 2.0 * np.pi * freq * self._time[None, :]
        for order, weight in enumerate(signature.harmonics, start=1):
            if weight <= 0:
                continue
            signal += (
                amplitudes[:, None]
                * amp_scale
                * weight
                * np.sin(order * omega_t + order * phases)
            )

        # Impact spikes at each footfall (decaying half-sine bursts on the
        # accelerometer channels only).
        if signature.impact > 0:
            signal[:3] += self._impact_train(signature.impact * amp_scale, freq, rng)

        # Per-channel subject gains and white sensor noise.
        signal *= np.asarray(subject.channel_gains)[:, None]
        if noise_sigma > 0:
            signal += rng.normal(0.0, noise_sigma, size=signal.shape)
        return signal.astype(np.float32)

    def _impact_train(
        self, amplitude: float, freq: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sharp decaying impacts once per period, on 3 accel axes."""
        impacts = np.zeros((3, self.window_size))
        period_samples = max(int(self.sample_rate_hz / max(freq, 1e-3)), 2)
        burst_len = max(period_samples // 6, 2)
        decay = np.exp(-np.linspace(0.0, 4.0, burst_len))
        start = int(rng.integers(0, period_samples))
        direction = np.array([0.3, 1.0, 0.35])
        while start < self.window_size:
            stop = min(start + burst_len, self.window_size)
            scale = amplitude * float(np.exp(rng.normal(0.0, 0.2)))
            impacts[:, start:stop] += direction[:, None] * scale * decay[: stop - start]
            start += period_samples
        return impacts


_TABLES = {"mhealth": mhealth_signatures(), "pamap2": pamap2_signatures()}
_SUBJECTS = [
    SubjectProfile.canonical(),
    SubjectProfile(subject_id=1, noise_factor=0.0),
    # Fast enough that the impact period and burst length hit their floor of 2.
    SubjectProfile(subject_id=2, frequency_scale=60.0, amplitude_scale=1.4),
    *sample_subjects(3, 5, variability=2.0, first_id=3),
]
_BLOCK_COUNTS = [
    _BLOCK_WINDOWS - 1, _BLOCK_WINDOWS, _BLOCK_WINDOWS + 1, 2 * _BLOCK_WINDOWS + 3
]


@st.composite
def _streams(draw):
    table = _TABLES[draw(st.sampled_from(sorted(_TABLES)))]
    location = draw(st.sampled_from(table.locations))
    count = draw(st.one_of(st.integers(1, 12), st.sampled_from(_BLOCK_COUNTS)))
    window_size = draw(st.one_of(st.integers(8, 40), st.integers(41, 256)))
    sample_rate = draw(st.sampled_from([20.0, 50.0, 100.0, 33.3]))
    if count > 12:
        window_size = min(window_size, 64)

    def per_window(element, single):
        if draw(st.booleans()):
            value = draw(single)
            return value, [value] * count
        pattern = draw(st.lists(element, min_size=1, max_size=5))
        values = [pattern[index % len(pattern)] for index in range(count)]
        return values, values

    activity_arg, activities = per_window(
        st.sampled_from(table.activities), st.sampled_from(table.activities)
    )
    subject_arg, subjects = per_window(
        st.sampled_from(_SUBJECTS), st.sampled_from(_SUBJECTS)
    )
    wobbles = st.builds(
        StyleWobble,
        amplitude_scale=st.floats(0.3, 3.0),
        frequency_scale=st.floats(0.3, 3.0),
    )
    style_kind = draw(st.sampled_from(["none", "shared", "per-window"]))
    if style_kind == "none":
        style_arg, styles = None, [None] * count
    elif style_kind == "shared":
        style_arg = draw(wobbles)
        styles = [style_arg] * count
    else:
        style_arg, styles = per_window(st.one_of(st.none(), wobbles), wobbles)
    return SimpleNamespace(
        table=table,
        location=location,
        count=count,
        window_size=window_size,
        sample_rate=sample_rate,
        activity_arg=activity_arg,
        activities=activities,
        subject_arg=subject_arg,
        subjects=subjects,
        style_arg=style_arg,
        styles=styles,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestBatchMatchesPerWindowOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=_streams())
    def test_bytes_and_rng_state_match(self, case):
        synthesizer = SignalSynthesizer(
            case.table, sample_rate_hz=case.sample_rate, window_size=case.window_size
        )
        rng = np.random.default_rng(case.seed)
        count = None if isinstance(case.activity_arg, list) else case.count
        batch = synthesizer.batch(
            case.activity_arg,
            case.location,
            count,
            case.subject_arg,
            rng,
            style=case.style_arg,
        )
        oracle_rng = np.random.default_rng(case.seed)
        expected = _PerWindowOracle(synthesizer).stream(
            case.activities, case.location, case.subjects, case.styles, oracle_rng
        )
        assert batch.dtype == np.float32
        assert batch.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_impact_windows_without_a_burst(self):
        # An 8-sample window often ends before its first footfall, so an
        # impact signature contributes an all-zero impact block.
        synthesizer = SignalSynthesizer(mhealth_signatures(), window_size=8)
        activities = [Activity.WALKING, Activity.CYCLING, Activity.JUMPING] * 5
        subjects = [SubjectProfile.canonical()] * len(activities)
        for seed in range(20):
            batch = synthesizer.batch(activities, BodyLocation.LEFT_ANKLE, seed=seed)
            expected = _PerWindowOracle(synthesizer).stream(
                activities,
                BodyLocation.LEFT_ANKLE,
                subjects,
                [None] * len(activities),
                np.random.default_rng(seed),
            )
            assert batch.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Frozen digests: the trained-bundle store key hashes the split arrays, so
# any drift in synthesis would force a retrain.
# ---------------------------------------------------------------------------


def _sha256(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = str(array.dtype).encode() + str(array.shape).encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


_SPLIT_DIGESTS = {
    "mhealth": {
        "train/chest/X": (
            "b65084e9b3cbf5c987c9f7f9af5e242afbc2d598d6965e44ce255bf5a2520ac4"
        ),
        "train/chest/y": (
            "9e9ca74751848a5fb68cad1127497698187c429512612eb89469c832927a52c4"
        ),
        "train/right_wrist/X": (
            "65b552749dd1963e93ce4dd728a2c1be7b1cb17626ff455e0266e108eb0b5cb7"
        ),
        "train/right_wrist/y": (
            "14ea86d1964d39e6b7d9a023230778ab40c25345c2f8cccd1f850ef407b0b2bf"
        ),
        "train/left_ankle/X": (
            "5e894617593f3dbaf781982369edb9a933bfd6421819ee7d65722622a25e7b17"
        ),
        "train/left_ankle/y": (
            "77b0fa00a4f4a25e95a5969735c670d91b8ae526318aaa1abe78f4ebcff63fab"
        ),
        "val/chest/X": (
            "a4c339b54f97713738a6abea8a4d8194d962d2470065a687d9491f8f4d114cb3"
        ),
        "val/chest/y": (
            "307add4ebb867df7b2c8df96d95174c627859900e925d8acfad8c81baf8f69a2"
        ),
        "val/right_wrist/X": (
            "680d161e8ebe0b54b43a1bb408d9d0f4dfb36fa6902d1b5b5f53f10bf2cf472e"
        ),
        "val/right_wrist/y": (
            "9e92e389fbddaa06f4e2b28b7e26b0ccee7d8318ce67d167b37690701947094e"
        ),
        "val/left_ankle/X": (
            "6a00522b84c7f908419ff2053806c412aef8f7f6dd10b08f12381e47ae2b5836"
        ),
        "val/left_ankle/y": (
            "b22278d16994954e9d73d98b465bd5af984c9ba1044aedf7601f36acd6f67d26"
        ),
        "test/chest/X": (
            "b84526d70bf6e4e4176c55d7d22d1ea4e20ed6784913f8d9a321f026bf98b866"
        ),
        "test/chest/y": (
            "973be2cd30a96a13b4de8a44e2e8bc17d72926b074579dc91270505b31f934b6"
        ),
        "test/right_wrist/X": (
            "c948b1fefece2980b16a8592dd9742ce78415bfb5396d86a6ccc1b58d3889b44"
        ),
        "test/right_wrist/y": (
            "54fad4e6dc1c53dda9b7c3a46a578720bf586c732023c6aa7a51cff7554a3e14"
        ),
        "test/left_ankle/X": (
            "c6cb93908634e1603a2b71d2912ec363a6c62ed33efbff6f3324a460c57b1763"
        ),
        "test/left_ankle/y": (
            "08694b92acc6cc7b137edd8694df9b600983dff77e5f07df0c99e845f2a5e40b"
        ),
    },
    "pamap2": {
        "train/chest/X": (
            "599816d9fda90bfdcb05a4b354188d7684d32f37de1b342eadd66efa54910da8"
        ),
        "train/chest/y": (
            "4832576f4a00d35a506e49d8474e0bd3b8cd30a16e7a6a14c8e447de4014624e"
        ),
        "train/right_wrist/X": (
            "5a8a40688df8e9d8e99401a3b4e273ebfaba1e27c445c9897fc684213138fac5"
        ),
        "train/right_wrist/y": (
            "de3ea3bb12600bb3a4281226c5b7bb504619dd1e6fc59caa488920fc3a5816d2"
        ),
        "train/left_ankle/X": (
            "be21144ef159fadd0c5a15f37076b67d8eb2a13d0d5329593e6903b2d2be6ca1"
        ),
        "train/left_ankle/y": (
            "e159f4cca315190b3bc4b59fd44d3751e5dac50732c345c30d7585cae630ccf3"
        ),
        "val/chest/X": (
            "892b5859e1460c85fbb0fdf2c20c2505d37b35168fbac11fd5ca9d6244cd60f7"
        ),
        "val/chest/y": (
            "8f569be772bbdf1448a622829895a2e53f67e35f72eef0395d775ba0275c1705"
        ),
        "val/right_wrist/X": (
            "50797a2b502b6480e31839a19bdee04af6caf820d023c1df57e3d72bed59fff4"
        ),
        "val/right_wrist/y": (
            "a7bcb4c0ac4f5a3981c18cb22d41e5dc8b71c6c5d16f17046e7a49a282f8f3b1"
        ),
        "val/left_ankle/X": (
            "fb53f51056780462e5d8a2e44b758a5638fa432110104e379430713cd545d2de"
        ),
        "val/left_ankle/y": (
            "d96edd61f3070a937d95dc3c0c6ca8da1b2516be3fed0487fdd0e66b52416c16"
        ),
        "test/chest/X": (
            "4da058f4d2bb8e26e215c7ec4a623ba509789a11929fd534bcc82f199220f67f"
        ),
        "test/chest/y": (
            "e30bf0ec01650cac08a9b2ea272aa93b97afd3a9b76d1570164e31aeefd3841e"
        ),
        "test/right_wrist/X": (
            "3c2f531037cb3526b368ffd9745a79c90b08849f0ee76d467e94cc0203c7afb0"
        ),
        "test/right_wrist/y": (
            "58bcd5c4410c3df44212317f4e5f72538fde8753d073153cfddec1a596c915ce"
        ),
        "test/left_ankle/X": (
            "df9704b7195532a728fcf02e57c20b4c5b87b6e0b2426bab0724960174a9f23f"
        ),
        "test/left_ankle/y": (
            "b5faedadc5a1072bb2fb2f20153b2d5bdce81b3d792c0848be29e6dfecc3c2c7"
        ),
    },
}

_MATERIAL_DIGESTS = {
    3: "675c1711d8a8b1d861a11502286aac38e9585e5320ccd8c73b2439d79775f048",
    11: "60928bd0d94c58645e07dc2b9c04c7ee8418277d839564c18079fba811cbfbfa",
}

_MHEALTH_FINGERPRINT_DIGEST = (
    "8d6dbcd12b78e7c3476d701dd035b75976ec250ee46419529a892d0582c95b49"
)


@pytest.fixture(scope="module")
def standard_mhealth():
    return make_mhealth(seed=7)


class TestFrozenDigests:
    @pytest.mark.parametrize("name", sorted(_SPLIT_DIGESTS))
    def test_split_arrays(self, name, standard_mhealth):
        dataset = standard_mhealth if name == "mhealth" else make_pamap2(seed=7)
        digests = {
            f"{split}/{location.value}/{field}": _sha256(getattr(windows, field))
            for split in ("train", "val", "test")
            for location, windows in dataset.split(split).items()
            for field in ("X", "y")
        }
        assert digests == _SPLIT_DIGESTS[name]

    def test_dataset_fingerprint(self, standard_mhealth):
        fingerprint = json.dumps(dataset_fingerprint(standard_mhealth), sort_keys=True)
        assert hashlib.sha256(fingerprint.encode()).hexdigest() == _MHEALTH_FINGERPRINT_DIGEST

    @pytest.mark.parametrize("seed", sorted(_MATERIAL_DIGESTS))
    def test_run_material_windows(self, seed, standard_mhealth):
        locations = list(standard_mhealth.spec.locations)
        bundle = SimpleNamespace(node_id_of=locations.index)
        # Seed 11 streams a non-default, high-variability subject.
        subject = (
            sample_subjects(1, 99, variability=2.0, first_id=40)[0] if seed == 11 else None
        )
        material = build_run_material(
            standard_mhealth,
            bundle,
            seed,
            subject=subject,
            n_windows=150,
            dwell_scale=3.5,
            with_predictions=False,
        )
        digest = hashlib.sha256()
        for node_id in sorted(material.windows):
            digest.update(_sha256(material.windows[node_id]).encode())
        assert digest.hexdigest() == _MATERIAL_DIGESTS[seed]
