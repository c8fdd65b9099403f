"""Tests for individual layers: shapes, forward semantics, errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.nn.layers import (
    BatchNorm1D,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1D,
    MaxPool1D,
    ReLU,
)
from repro.nn.layers.activations import softmax
from repro.nn.layers.conv import im2col_1d


class TestDense:
    def test_output_shape(self):
        layer = Dense(5, seed=0)
        assert layer.build((3,)) == (5,)

    def test_affine_map(self):
        layer = Dense(2, seed=0)
        layer.build((3,))
        layer.W[...] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.b[...] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[4.5, 4.5]])

    def test_rejects_conv_input(self):
        with pytest.raises(ModelError, match="Flatten"):
            Dense(4).build((3, 10))

    def test_backward_before_forward(self):
        layer = Dense(2, seed=0)
        layer.build((3,))
        with pytest.raises(ModelError):
            layer.backward(np.zeros((1, 2)))

    def test_invalid_units(self):
        with pytest.raises(ModelError):
            Dense(0)

    def test_param_count(self):
        layer = Dense(5, seed=0)
        layer.build((3,))
        assert layer.n_params() == 3 * 5 + 5


class TestConv1D:
    def test_output_shape_valid_padding(self):
        layer = Conv1D(8, 5, seed=0)
        assert layer.build((6, 128)) == (8, 124)

    def test_matches_manual_convolution(self):
        layer = Conv1D(1, 3, seed=0)
        layer.build((1, 6))
        layer.W[...] = np.array([[[1.0, 0.0, -1.0]]])
        layer.b[...] = 0.0
        x = np.arange(6, dtype=float).reshape(1, 1, 6)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [-2.0, -2.0, -2.0, -2.0])

    def test_kernel_longer_than_input(self):
        with pytest.raises(ModelError):
            Conv1D(2, 10).build((1, 5))

    def test_in_channels(self):
        layer = Conv1D(4, 3, seed=0)
        layer.build((6, 20))
        assert layer.in_channels == 6

    def test_wrong_input_shape(self):
        layer = Conv1D(4, 3, seed=0)
        layer.build((6, 20))
        with pytest.raises(ModelError):
            layer.forward(np.zeros((2, 5, 20)))


class TestIm2Col:
    def test_shape(self):
        cols = im2col_1d(np.zeros((2, 3, 10)), kernel_size=4)
        assert cols.shape == (2, 12, 7)

    def test_content(self):
        x = np.arange(5, dtype=float).reshape(1, 1, 5)
        cols = im2col_1d(x, kernel_size=2)
        np.testing.assert_allclose(cols[0], [[0, 1, 2, 3], [1, 2, 3, 4]])

    def test_rejects_2d(self):
        with pytest.raises(ModelError):
            im2col_1d(np.zeros((3, 10)), 2)


class TestMaxPool1D:
    def test_output_shape_floors(self):
        layer = MaxPool1D(4)
        assert layer.build((8, 30)) == (8, 7)

    def test_max_selection(self):
        layer = MaxPool1D(2)
        layer.build((1, 4))
        out = layer.forward(np.array([[[1.0, 3.0, 2.0, 0.0]]]))
        np.testing.assert_allclose(out, [[[3.0, 2.0]]])

    def test_too_short_input(self):
        with pytest.raises(ModelError):
            MaxPool1D(8).build((2, 5))


class TestGlobalAvgPool1D:
    def test_mean(self):
        layer = GlobalAvgPool1D()
        layer.build((2, 4))
        out = layer.forward(np.ones((1, 2, 4)) * 3.0)
        np.testing.assert_allclose(out, [[3.0, 3.0]])

    def test_shape(self):
        assert GlobalAvgPool1D().build((5, 9)) == (5,)


class TestReLU:
    def test_clamps_negatives(self):
        layer = ReLU()
        layer.build((3,))
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_shape_preserved(self):
        assert ReLU().build((4, 7)) == (4, 7)


class TestFlatten:
    def test_channel_major_order(self):
        layer = Flatten()
        layer.build((2, 3))
        x = np.arange(6).reshape(1, 2, 3)
        out = layer.forward(x)
        np.testing.assert_array_equal(out, [[0, 1, 2, 3, 4, 5]])

    def test_backward_restores_shape(self):
        layer = Flatten()
        layer.build((2, 3))
        layer.forward(np.zeros((4, 2, 3)), training=True)
        grad = layer.backward(np.ones((4, 6)))
        assert grad.shape == (4, 2, 3)


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5, seed=0)
        layer.build((10,))
        x = np.random.default_rng(0).random((4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_zeroes_fraction(self):
        layer = Dropout(0.5, seed=0)
        layer.build((1000,))
        out = layer.forward(np.ones((1, 1000)), training=True)
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6

    def test_inverted_scaling_preserves_mean(self):
        layer = Dropout(0.3, seed=1)
        layer.build((5000,))
        out = layer.forward(np.ones((1, 5000)), training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_rate(self):
        with pytest.raises(ModelError):
            Dropout(1.0)


class TestBatchNorm1D:
    def test_normalizes_training_batch(self):
        layer = BatchNorm1D()
        layer.build((4,))
        x = np.random.default_rng(0).normal(5.0, 3.0, size=(64, 4))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_conv_shape_normalization(self):
        layer = BatchNorm1D()
        layer.build((3, 8))
        x = np.random.default_rng(0).normal(2.0, 2.0, size=(16, 3, 8))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-7)

    def test_running_stats_used_at_inference(self):
        layer = BatchNorm1D(momentum=0.0)  # running stats = last batch
        layer.build((2,))
        x = np.random.default_rng(1).normal(3.0, 1.0, size=(128, 2))
        layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        assert abs(out.mean()) < 0.2

    def test_invalid_momentum(self):
        with pytest.raises(ModelError):
            BatchNorm1D(momentum=1.0)


class TestSoftmax:
    def test_sums_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])


# ---------------------------------------------------------------------------
# Conv1D forward layout: byte-equal to the einsum it replaced
# ---------------------------------------------------------------------------


def _einsum_forward(layer, x, training=False):
    """``Conv1D.forward`` as it was: im2col columns and one einsum."""
    layer._check_input(x)
    cols = im2col_1d(x.astype(np.float64, copy=False), layer.kernel_size)
    if training:
        layer._cached_cols = cols
        layer._cached_input_shape = x.shape
    w_flat = layer.W.reshape(layer.filters, -1)  # (F, C*K)
    out = np.einsum("fk,bkl->bfl", w_flat, cols, optimize=True)
    return out + layer.b[None, :, None]


def _assert_same_array(fast, slow):
    assert fast.shape == slow.shape and fast.dtype == slow.dtype
    assert fast.strides == slow.strides
    assert fast.tobytes() == slow.tobytes()


class TestConvForwardLayout:
    @settings(max_examples=200, deadline=None)
    @given(
        batch=st.integers(1, 40),
        channels=st.integers(1, 9),
        length=st.integers(1, 70),
        kernel=st.integers(1, 9),
        filters=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
        training=st.booleans(),
    )
    def test_bytes_equal_einsum(self, batch, channels, length, kernel, filters, seed, training):
        kernel = min(kernel, length)
        layer = Conv1D(filters, kernel, seed=seed)
        layer.build((channels, length))
        rng = np.random.default_rng(seed)
        layer.b[...] = rng.standard_normal(filters)
        x = rng.standard_normal((batch, channels, length))
        slow = _einsum_forward(layer, x, training=training)
        slow_cols = layer._cached_cols
        layer._cached_cols = None
        fast = layer.forward(x, training=training)
        _assert_same_array(fast, slow)
        if training:
            _assert_same_array(layer._cached_cols, slow_cols)
            grad = rng.standard_normal(fast.shape)
            np.testing.assert_array_equal(layer.backward(grad), layer.backward(grad))

    @pytest.mark.parametrize("pruned", [False, True])
    def test_bundle_models_softmax_unchanged(self, tiny_bundle, pruned, monkeypatch):
        rng = np.random.default_rng(4)
        for model in tiny_bundle.models(pruned=pruned).values():
            assert any(isinstance(layer, Conv1D) for layer in model.layers)
            for batch in (1, 44, 255, 256):
                x = rng.standard_normal((batch, *model.input_shape)).astype(np.float32)
                fast = model.predict_proba(x)
                with monkeypatch.context() as patch:
                    patch.setattr(Conv1D, "forward", _einsum_forward)
                    slow = model.predict_proba(x)
                _assert_same_array(fast, slow)
