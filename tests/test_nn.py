"""Unit tests for the nn integration layer."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.linear import Linear, NMSparseLinear
from repro.nn.mlp import MLP, relu
from repro.nn.prune import prune_linear, sparsify_mlp
from repro.sparsity.config import NMPattern
from repro.workloads.synthetic import random_dense


class TestLinear:
    def test_forward(self, rng):
        w = random_dense(8, 4, rng)
        layer = Linear(w)
        x = random_dense(3, 8, rng)
        np.testing.assert_allclose(layer(x), x @ w)

    def test_bias(self, rng):
        w = random_dense(8, 4, rng)
        b = np.ones(4, dtype=np.float32)
        layer = Linear(w, b)
        x = random_dense(3, 8, rng)
        np.testing.assert_allclose(layer(x), x @ w + 1.0)

    def test_bad_bias_shape(self, rng):
        with pytest.raises(ShapeError):
            Linear(random_dense(8, 4, rng), np.ones(5, dtype=np.float32))

    def test_parameter_count(self, rng):
        layer = Linear(random_dense(8, 4, rng), np.zeros(4, dtype=np.float32))
        assert layer.parameter_count() == 36

    @pytest.mark.parametrize("dtype", [np.complex64, "U1", bool])
    def test_non_real_rejected(self, rng, dtype):
        with pytest.raises(ShapeError, match="weight must be real numbers"):
            Linear(np.ones((8, 4), dtype=dtype))
        layer = Linear(random_dense(8, 4, rng))
        with pytest.raises(ShapeError, match="x must be real numbers"):
            layer(np.ones((3, 8), dtype=dtype))
        sparse = NMSparseLinear.from_dense(
            Linear(random_dense(32, 16, rng)), NMPattern(2, 8, vector_length=4)
        )
        with pytest.raises(ShapeError, match="x must be real numbers"):
            sparse(np.ones((3, 32), dtype=dtype))


class TestNMSparseLinear:
    def test_from_dense_matches_pruned(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        w = random_dense(32, 16, rng)
        dense = Linear(w, np.ones(16, dtype=np.float32))
        sparse = NMSparseLinear.from_dense(dense, pattern)
        x = random_dense(4, 32, rng)
        expected = x @ sparse.handle.dense()[:32, :16] + 1.0
        np.testing.assert_allclose(sparse(x), expected, rtol=2e-5, atol=2e-5)

    def test_unpadded_input_dims(self, rng):
        """k not a multiple of M: activations are padded internally."""
        pattern = NMPattern(2, 8, vector_length=4)
        w = random_dense(30, 14, rng)  # pads to 32 x 16
        sparse = NMSparseLinear.from_dense(Linear(w), pattern)
        x = random_dense(4, 30, rng)
        out = sparse(x)
        assert out.shape == (4, 14)

    def test_wrong_input_dim_rejected(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        sparse = NMSparseLinear.from_dense(
            Linear(random_dense(32, 16, rng)), pattern
        )
        with pytest.raises(ShapeError):
            sparse(random_dense(4, 31, rng))

    def test_compression_accounting(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        dense = Linear(random_dense(64, 32, rng))
        sparse = NMSparseLinear.from_dense(dense, pattern)
        assert sparse.parameter_count() < dense.parameter_count()
        assert sparse.compression_ratio() > 1.0


class TestMLP:
    def test_relu(self):
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(relu(x), [[0.0, 2.0]])

    def test_random_mlp_forward(self, rng):
        mlp = MLP.random([16, 32, 8], seed=1)
        x = random_dense(4, 16, rng)
        out = mlp(x)
        assert out.shape == (4, 8)

    def test_layer_mismatch_rejected(self, rng):
        l1 = Linear(random_dense(4, 8, rng))
        l2 = Linear(random_dense(9, 2, rng))
        with pytest.raises(ShapeError):
            MLP([l1, l2])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            MLP([])

    def test_sizes_validation(self):
        with pytest.raises(ShapeError):
            MLP.random([16])

    def test_parameter_count(self):
        mlp = MLP.random([4, 8, 2], seed=0)
        assert mlp.parameter_count() == (4 * 8 + 8) + (8 * 2 + 2)


class TestPruneIntegration:
    def test_prune_linear(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        sparse = prune_linear(Linear(random_dense(32, 16, rng)), pattern)
        assert isinstance(sparse, NMSparseLinear)

    def test_sparsify_mlp_skips_last(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        mlp = MLP.random([16, 32, 32, 8], seed=2)
        sparse = sparsify_mlp(mlp, pattern)
        assert isinstance(sparse.layers[0], NMSparseLinear)
        assert isinstance(sparse.layers[1], NMSparseLinear)
        assert isinstance(sparse.layers[-1], Linear)

    def test_sparsify_all(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        mlp = MLP.random([16, 32, 8], seed=2)
        sparse = sparsify_mlp(mlp, pattern, skip_last=False)
        assert all(
            isinstance(layer, NMSparseLinear) for layer in sparse.layers
        )

    def test_outputs_close_at_low_sparsity(self, rng):
        """A 7:8 pruned MLP barely changes its function."""
        mlp = MLP.random([16, 64, 8], seed=3)
        x = random_dense(8, 16, rng)
        dense_out = mlp(x)
        sparse = sparsify_mlp(mlp, NMPattern(7, 8, vector_length=4))
        sparse_out = sparse(x)
        rel = np.linalg.norm(sparse_out - dense_out) / (
            np.linalg.norm(dense_out) + 1e-9
        )
        assert rel < 0.3

    def test_error_grows_with_sparsity(self, rng):
        mlp = MLP.random([16, 64, 8], seed=4)
        x = random_dense(8, 16, rng)
        dense_out = mlp(x)
        errors = []
        for n in (6, 4, 2, 1):
            sparse = sparsify_mlp(mlp, NMPattern(n, 8, vector_length=4))
            err = np.linalg.norm(sparse(x) - dense_out)
            errors.append(err)
        assert errors[0] < errors[-1]


class TestDirectConstructionOverrides:
    """Regression: a handle built directly from a compressed matrix
    with only its logical k must still pad activations up to the
    compressed k."""

    def test_original_k_override_pads(self):
        import numpy as np

        from repro.core.api import NMSpMM, SparseHandle
        from repro.nn.linear import NMSparseLinear
        from repro.sparsity.compress import compress
        from repro.sparsity.config import NMPattern
        from repro.sparsity.pruning import prune_dense

        rng = np.random.default_rng(0)
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        dense = rng.standard_normal((64, 16)).astype(np.float32)
        pruned, mask = prune_dense(pattern, dense)
        handle = SparseHandle(compressed=compress(pattern, pruned, mask), logical_k=60)
        assert (handle.k_logical, handle.k) == (60, 64)
        layer = NMSparseLinear(op, handle)
        assert (layer.in_features, layer.out_features) == (60, 16)
        x = rng.standard_normal((4, 60)).astype(np.float32)
        y = layer(x)
        assert y.shape == (4, 16)
        padded = np.hstack([x, np.zeros((4, 4), np.float32)])
        np.testing.assert_allclose(
            y, padded @ pruned, rtol=2e-5, atol=2e-5
        )

    def test_inconsistent_handle_logical_dims_rejected(self):
        import numpy as np
        import pytest

        from repro.core.api import NMSpMM, SparseHandle
        from repro.errors import ShapeError
        from repro.sparsity.config import NMPattern

        rng = np.random.default_rng(0)
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        compressed = op.prepare(
            rng.standard_normal((64, 16)).astype(np.float32)
        ).compressed
        with pytest.raises(ShapeError, match="logical_k"):
            SparseHandle(compressed=compressed, logical_k=100)
        with pytest.raises(ShapeError, match="logical_n"):
            SparseHandle(compressed=compressed, logical_n=20)
