"""Tests for repro.energy.traces."""

import numpy as np
import pytest

from repro.energy.traces import OfficeState, PowerTrace, PowerTraceGenerator
from repro.errors import ConfigurationError, EnergyModelError


class TestPowerTrace:
    @pytest.fixture
    def trace(self):
        return PowerTrace(dt_s=0.5, watts=np.array([1.0, 2.0, 3.0, 4.0]))

    def test_duration(self, trace):
        assert trace.duration_s == 2.0

    def test_average_power(self, trace):
        assert trace.average_power_w == 2.5

    def test_energy_whole_trace(self, trace):
        assert trace.energy_between(0.0, 2.0) == pytest.approx(5.0)

    def test_energy_partial_sample(self, trace):
        # Half of the first 1 W sample.
        assert trace.energy_between(0.0, 0.25) == pytest.approx(0.25)

    def test_energy_clamped_outside(self, trace):
        assert trace.energy_between(5.0, 10.0) == 0.0

    def test_energy_additive(self, trace):
        total = trace.energy_between(0.0, 2.0)
        split = trace.energy_between(0.0, 0.8) + trace.energy_between(0.8, 2.0)
        assert split == pytest.approx(total)

    def test_energy_reversed_interval(self, trace):
        with pytest.raises(EnergyModelError):
            trace.energy_between(1.0, 0.5)

    def test_slot_energy_matches_energy_between(self, trace):
        assert trace.slot_energy(1, 0.5) == pytest.approx(
            trace.energy_between(0.5, 1.0)
        )

    def test_slot_energies_fast_path(self, trace):
        slots = trace.slot_energies(1.0)
        np.testing.assert_allclose(slots, [1.5, 3.5])

    def test_slot_energies_fallback(self, trace):
        slots = trace.slot_energies(0.75)
        assert len(slots) == 2
        assert slots[0] == pytest.approx(trace.energy_between(0.0, 0.75))

    def test_scaled(self, trace):
        assert trace.scaled(2.0).average_power_w == 5.0
        with pytest.raises(EnergyModelError):
            trace.scaled(-1.0)

    def test_segment(self, trace):
        seg = trace.segment(0.5, 1.5)
        np.testing.assert_allclose(seg.watts, [2.0, 3.0])

    def test_empty_segment_rejected(self, trace):
        with pytest.raises(EnergyModelError):
            trace.segment(1.0, 1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(EnergyModelError):
            PowerTrace(0.5, np.array([-1.0]))


class TestPowerTraceGenerator:
    def test_expected_average_in_wifi_regime(self):
        avg = PowerTraceGenerator().expected_average_power_w()
        assert 5e-6 < avg < 100e-6

    def test_generated_average_close_to_expected(self):
        gen = PowerTraceGenerator()
        trace = gen.generate(3600 * 4, seed=0)
        assert trace.average_power_w == pytest.approx(
            gen.expected_average_power_w(), rel=0.35
        )

    def test_reproducible(self):
        gen = PowerTraceGenerator()
        a = gen.generate(100, seed=3)
        b = gen.generate(100, seed=3)
        np.testing.assert_array_equal(a.watts, b.watts)

    def test_skewed_distribution(self):
        # Indoor RF harvest: median well below mean (bursty).
        trace = PowerTraceGenerator().generate(3600, seed=1)
        assert np.median(trace.watts) < trace.average_power_w

    def test_correlated_traces_share_bursts(self):
        gen = PowerTraceGenerator(fading_sigma=0.0)
        traces = gen.generate_correlated(1800, [1.0, 1.0], seed=2)
        # Without fading, same states + same gain => identical traces.
        np.testing.assert_allclose(traces[0].watts, traces[1].watts)

    def test_correlated_with_fading_still_correlated(self):
        gen = PowerTraceGenerator()
        a, b = gen.generate_correlated(3600, [1.0, 1.0], seed=2)
        corr = np.corrcoef(a.watts, b.watts)[0, 1]
        assert corr > 0.3

    def test_gain_scales(self):
        gen = PowerTraceGenerator(fading_sigma=0.0)
        a, b = gen.generate_correlated(600, [1.0, 2.0], seed=4)
        np.testing.assert_allclose(b.watts, 2.0 * a.watts)

    def test_state_sequence_dwells(self):
        gen = PowerTraceGenerator()
        states = gen.state_sequence(1200, seed=5)
        assert set(states) <= set(OfficeState)
        # Consecutive runs exist (dwell >> dt).
        runs = sum(1 for a, b in zip(states, states[1:]) if a is b)
        assert runs > len(states) * 0.8

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PowerTraceGenerator({OfficeState.QUIET: -1.0})
        with pytest.raises(ConfigurationError):
            PowerTraceGenerator(fading_sigma=-0.5)
        with pytest.raises(ConfigurationError):
            PowerTraceGenerator().generate_correlated(10, [], seed=0)


def _per_sample_states(gen, duration_s, rng):
    """Reference state sequence, built sample by sample."""
    n_samples = int(np.ceil(duration_s / gen.dt_s))
    states = []
    current = OfficeState.QUIET
    while len(states) < n_samples:
        dwell_s = rng.exponential(gen._params[current].mean_dwell_s)
        states.extend([current] * max(int(round(dwell_s / gen.dt_s)), 1))
        others = [state for state in OfficeState if state is not current]
        current = others[int(rng.integers(len(others)))]
    return states[:n_samples]


def _per_sample_traces(gen, duration_s, gains, seed):
    """Reference synthesis: per-sample state powers, then fading."""
    rng = np.random.default_rng(seed)
    states = _per_sample_states(gen, duration_s, rng)
    base = np.array([gen._params[state].mean_power_w for state in states])
    return [base * gen._fade(rng, base.size) * gain for gain in gains]


class TestRunLengthSynthesis:
    """Traces built from dwell runs equal the per-sample construction."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("duration_s", [0.1, 3.2, 60.0, 512.0, 3600.0])
    def test_generate_correlated_matches_per_sample(self, seed, duration_s):
        gen = PowerTraceGenerator()
        gains = [1.0, 0.6, 1.4]
        fast = gen.generate_correlated(duration_s, gains, seed=seed)
        slow = _per_sample_traces(gen, duration_s, gains, seed)
        for trace, watts in zip(fast, slow):
            assert trace.watts.tobytes() == watts.tobytes()

    @pytest.mark.parametrize("seed", [2, 5, 99])
    @pytest.mark.parametrize("duration_s", [1.0, 256.0, 1800.0])
    def test_generate_matches_per_sample(self, seed, duration_s):
        gen = PowerTraceGenerator(state_dwell_s={OfficeState.BURST: 0.2})
        fast = gen.generate(duration_s, seed=seed, gain=0.8)
        (slow,) = _per_sample_traces(gen, duration_s, [0.8], seed)
        assert fast.watts.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("duration_s", [0.1, 900.0])
    def test_state_sequence_matches_per_sample(self, duration_s):
        gen = PowerTraceGenerator()
        reference = _per_sample_states(gen, duration_s, np.random.default_rng(4))
        assert gen.state_sequence(duration_s, seed=4) == reference
