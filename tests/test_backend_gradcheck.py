"""Numerical parity suite for the fused backend.

Every fused kernel is compared against the reference composition — forward
values and all gradients — across randomized shapes, including the
degenerate cases the MISS extractors produce (``J=1``, ``L=1``, kernels as
wide as the sequence, repeated/absent embedding rows).  Tolerance is
float64 round-off (``rtol=1e-9``): the fused kernels compute the same
quantities with different reduction orders, nothing looser.

A finite-difference spot check per kernel guards against both paths being
consistently wrong, and an end-to-end MISS check ties the suite to the
actual model."""

import numpy as np
import pytest

from repro.core import MISSConfig, MISSModule, info_nce
from repro.data.schema import DatasetSchema, FieldSpec
from repro.nn import MLP, Dense, Embedding, Tensor, kernels, use_backend
from repro.nn.backend import FusedOps
from repro.nn import functional as F

from .helpers import check_gradients

RTOL = 1e-9
ATOL = 1e-12


def _compare_backends(build, arrays, grad_seed=0):
    """Run ``build`` under both backends; assert outputs and grads agree.

    ``build`` maps leaf tensors to one output tensor; the backward pass is
    seeded with a fixed random cotangent so every gradient entry is
    exercised (a ``sum()`` seed would hide sign errors that cancel).
    """
    results = {}
    for backend in ("reference", "fused"):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with use_backend(backend):
            out = build(leaves)
            grad = np.random.default_rng(grad_seed).normal(size=out.shape)
            out.backward(grad)
        results[backend] = (out.data, [leaf.grad for leaf in leaves])
    out_ref, grads_ref = results["reference"]
    out_fused, grads_fused = results["fused"]
    np.testing.assert_allclose(out_fused, out_ref, rtol=RTOL, atol=ATOL)
    for i, (g_fused, g_ref) in enumerate(zip(grads_fused, grads_ref)):
        assert (g_fused is None) == (g_ref is None), f"leaf {i}"
        if g_ref is not None:
            np.testing.assert_allclose(g_fused, g_ref, rtol=RTOL, atol=ATOL,
                                       err_msg=f"gradient of leaf {i}")


class TestConvWindow:
    # (batch, fields, seq_len, dim, width, axis) — includes J=1, L=width
    # (single output position), width=1 (point-wise), and the vertical axis.
    CASES = [
        (4, 3, 8, 5, 3, 2),
        (2, 1, 6, 4, 2, 2),   # J=1
        (3, 2, 4, 3, 4, 2),   # width == L: one output position
        (5, 2, 1, 3, 1, 2),   # L=1, point-wise kernel
        (2, 4, 5, 3, 1, 2),   # width=1 shortcut
        (4, 3, 6, 5, 3, 1),   # vertical (field axis)
        (3, 4, 5, 2, 4, 1),   # height == J
        (2, 1, 5, 3, 1, 1),   # J=1 vertical point-wise
    ]

    @pytest.mark.parametrize("batch,fields,seq,dim,width,axis", CASES)
    def test_matches_reference(self, batch, fields, seq, dim, width, axis):
        rng = np.random.default_rng(batch * 100 + width * 10 + axis)
        x = rng.normal(size=(batch, fields, seq, dim))
        w = rng.normal(size=width)
        _compare_backends(
            lambda leaves: kernels.conv_window(leaves[0], leaves[1], axis),
            [x, w])

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_relu_matches_reference_at_the_kink(self, width, axis):
        # Small integers make many pre-activations exactly 0.0: both paths
        # must mask those (reference relu masks on x > 0; so does the
        # fused backward) as well as the negative ones.
        rng = np.random.default_rng(width * 10 + axis)
        x = rng.integers(-1, 2, size=(3, 4, 6, 2)).astype(np.float64)
        w = np.array([1.0, -1.0, 2.0, -2.0])[:width]
        with use_backend("reference"):
            pre = kernels.conv_window(Tensor(x), Tensor(w), axis).data
        assert (pre == 0.0).any() and (pre < 0.0).any()
        _compare_backends(
            lambda leaves: kernels.conv_window(leaves[0], leaves[1], axis,
                                               relu=True),
            [x, w])

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("batch,fields,seq,dim,width,axis", CASES)
    def test_forward_is_bit_equal_to_reference(self, batch, fields, seq, dim,
                                               width, axis, relu):
        # The fused forward adds the shifted slices in the reference order.
        rng = np.random.default_rng(batch * 100 + width * 10 + axis)
        x = Tensor(rng.normal(size=(batch, fields, seq, dim)))
        w = Tensor(rng.normal(size=width))
        outputs = {}
        for backend in ("reference", "fused"):
            with use_backend(backend):
                outputs[backend] = kernels.conv_window(x, w, axis,
                                                       relu=relu).data
        assert np.array_equal(outputs["fused"], outputs["reference"])

    def test_fused_relu_records_one_node(self):
        x = Tensor(np.ones((2, 2, 4, 3)), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        with use_backend("fused"):
            out = kernels.conv_window(x, w, 2, relu=True)
        assert out._op == "conv_window"
        assert set(map(id, out._parents)) == {id(x), id(w)}

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(0)
        with use_backend("fused"):
            check_gradients(
                lambda t: kernels.conv_window(t[0], t[1], 2).sum(),
                [rng.normal(size=(2, 2, 5, 3)), rng.normal(size=3)])

    def test_relu_finite_difference_under_fused(self):
        rng = np.random.default_rng(0)
        with use_backend("fused"):
            check_gradients(
                lambda t: kernels.conv_window(t[0], t[1], 1, relu=True).sum(),
                [rng.normal(size=(2, 3, 4, 3)), rng.normal(size=2)])


class TestEmbeddingLookup:
    @pytest.mark.parametrize("indices", [
        np.array([0, 1, 2, 3]),
        np.array([1, 1, 1, 1]),                # all repeats
        np.array([[4, 0], [0, 4], [2, 2]]),    # 2-D, first/last rows
        np.array([3]),                         # single row
    ])
    def test_matches_reference(self, indices):
        table = np.random.default_rng(5).normal(size=(5, 4))
        _compare_backends(
            lambda leaves: kernels.embedding_lookup(leaves[0], indices),
            [table])

    def test_pooled_index_buffer_is_rebuilt_per_call(self):
        # Same-shape calls reuse one pooled flat-index buffer: the second
        # scatter must not see the first call's indices.
        ops = FusedOps()
        grad = np.random.default_rng(6).normal(size=(4, 3))
        for indices in (np.array([0, 1, 2, 3]), np.array([3, 3, 0, 1])):
            expected = np.zeros((5, 3))
            np.add.at(expected, indices, grad)
            np.testing.assert_allclose(ops.scatter_rows(grad, indices, 5),
                                       expected, rtol=RTOL, atol=ATOL)

    def test_unreferenced_rows_get_zero_grad(self):
        table = Tensor(np.ones((6, 3)), requires_grad=True)
        with use_backend("fused"):
            kernels.embedding_lookup(table, np.array([1, 1, 4])).sum().backward()
        assert np.array_equal(table.grad[1], [2.0, 2.0, 2.0])
        for untouched in (0, 2, 3, 5):
            assert np.array_equal(table.grad[untouched], [0.0, 0.0, 0.0])

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(1)
        with use_backend("fused"):
            check_gradients(
                lambda t: kernels.embedding_lookup(
                    t[0], np.array([0, 2, 2])).sum(),
                [rng.normal(size=(4, 3))])


class TestLinearAct:
    @pytest.mark.parametrize("shape", [(6, 4), (2, 3, 4), (2, 2, 2, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_matches_reference(self, shape, bias, relu):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        w = rng.normal(size=(4, 3))
        arrays = [x, w] + ([rng.normal(size=3)] if bias else [])

        def build(leaves):
            b = leaves[2] if bias else None
            return kernels.linear_act(leaves[0], leaves[1], b, relu=relu)

        _compare_backends(build, arrays)

    def test_relu_boundary_uses_same_subgradient(self):
        # Exact zeros in the pre-activation must get zero gradient on both
        # paths (reference masks on out > 0; so does the fused backward).
        x = np.array([[1.0, -1.0]])
        w = np.array([[1.0], [1.0]])  # pre-activation is exactly 0.0
        _compare_backends(
            lambda t: kernels.linear_act(t[0], t[1], None, relu=True),
            [x, w])

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(2)
        with use_backend("fused"):
            check_gradients(
                lambda t: kernels.linear_act(t[0], t[1], t[2],
                                             relu=True).sum(),
                [rng.normal(size=(5, 4)), rng.normal(size=(4, 3)),
                 rng.normal(size=3)])

    def test_mlp_matches_reference_end_to_end(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 6))
        results = {}
        for backend in ("reference", "fused"):
            mlp = MLP(6, [5, 4, 1], np.random.default_rng(9),
                      activation="relu", output_activation=None)
            leaf = Tensor(x.copy(), requires_grad=True)
            with use_backend(backend):
                mlp(leaf).sum().backward()
            results[backend] = (leaf.grad,
                                [p.grad for p in mlp.parameters()])
        np.testing.assert_allclose(results["fused"][0],
                                   results["reference"][0],
                                   rtol=RTOL, atol=ATOL)
        for g_fused, g_ref in zip(results["fused"][1],
                                  results["reference"][1]):
            np.testing.assert_allclose(g_fused, g_ref, rtol=RTOL, atol=ATOL)

    def test_unfusible_activation_still_works(self):
        layer = Dense(4, 3, np.random.default_rng(4), activation="prelu")
        x = np.random.default_rng(5).normal(size=(6, 4))
        results = {}
        for backend in ("reference", "fused"):
            leaf = Tensor(x.copy(), requires_grad=True)
            layer.zero_grad()
            with use_backend(backend):
                layer(leaf).sum().backward()
            results[backend] = leaf.grad
        np.testing.assert_allclose(results["fused"], results["reference"],
                                   rtol=RTOL, atol=ATOL)


class TestL2Normalize:
    @pytest.mark.parametrize("shape,axis", [
        ((6, 4), -1),
        ((3, 5, 4), -1),
        ((3, 5, 4), 1),
        ((1, 4), -1),
    ])
    def test_matches_reference(self, shape, axis):
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        _compare_backends(
            lambda t: F.l2_normalize(t[0], axis=axis), [x])

    def test_near_zero_rows_match_the_sqrt_clamp(self):
        # The reference sqrt backward clamps its denominator at 1e-12; the
        # fused backward must apply the identical clamp, not its own policy.
        x = np.array([[1e-9, -1e-9, 0.0], [1.0, 2.0, 3.0]])
        _compare_backends(lambda t: F.l2_normalize(t[0], axis=-1), [x])

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(6)
        with use_backend("fused"):
            check_gradients(
                lambda t: F.l2_normalize(t[0], axis=-1).sum(),
                [rng.normal(size=(4, 5))])


class TestInfoNCE:
    """The stacked ``(P, B, D)`` InfoNCE: one fused node against the
    reference per-pair composition (mean over pairs)."""

    TEMPERATURE = 0.1

    @staticmethod
    def _mask(kind, pairs, batch, rng):
        if kind == "none":
            return None
        mask = rng.random((pairs, batch, batch)) < 0.2
        if kind == "full_row":
            mask[:, 0, :] = True  # every negative of row 0 dropped
        return mask

    @pytest.mark.parametrize("mask_kind", ["none", "random", "full_row"])
    @pytest.mark.parametrize("dim", [10, 20])
    @pytest.mark.parametrize("batch", [1, 2, 88, 128])
    @pytest.mark.parametrize("pairs", [1, 3, 8])
    def test_matches_reference(self, pairs, batch, dim, mask_kind):
        rng = np.random.default_rng(pairs * 1000 + batch * 10 + dim)
        x1 = rng.normal(size=(pairs, batch, dim))
        x2 = rng.normal(size=(pairs, batch, dim))
        mask = self._mask(mask_kind, pairs, batch, rng)
        _compare_backends(
            lambda t: info_nce(t[0], t[1], self.TEMPERATURE, mask), [x1, x2])

    @pytest.mark.parametrize("pairs,batch", [(1, 2), (3, 5)])
    def test_near_zero_rows_match_the_sqrt_clamp(self, pairs, batch):
        rng = np.random.default_rng(batch)
        x1 = rng.normal(size=(pairs, batch, 4))
        x2 = rng.normal(size=(pairs, batch, 4))
        x1[0, 0] = [1e-9, -1e-9, 0.0, 0.0]
        x2[-1, -1] = 0.0
        _compare_backends(
            lambda t: info_nce(t[0], t[1], self.TEMPERATURE), [x1, x2])

    def test_same_tensor_as_both_views(self):
        x = np.random.default_rng(8).normal(size=(3, 6, 5))
        _compare_backends(
            lambda t: info_nce(t[0], t[0], self.TEMPERATURE), [x])

    def test_fused_records_one_node(self):
        rng = np.random.default_rng(9)
        views = [Tensor(rng.normal(size=(8, 16, 10)), requires_grad=True)
                 for _ in range(2)]
        with use_backend("fused"):
            loss = info_nce(*views, self.TEMPERATURE,
                            rng.random((8, 16, 16)) < 0.2)
        assert loss._op == "info_nce"
        assert loss._parents == tuple(views)

    def test_stacked_reference_is_mean_of_pairs(self):
        # The unfused stacked path is the per-pair composition, summed in
        # pair order and scaled by 1/P — bit for bit.
        rng = np.random.default_rng(10)
        x1, x2 = rng.normal(size=(2, 4, 7, 5))
        mask = rng.random((4, 7, 7)) < 0.3
        with use_backend("reference"):
            stacked = info_nce(Tensor(x1), Tensor(x2), self.TEMPERATURE, mask)
            total = None
            for p in range(4):
                term = info_nce(Tensor(x1[p]), Tensor(x2[p]),
                                self.TEMPERATURE, mask[p])
                total = term if total is None else total + term
        assert stacked.item() == (total * (1.0 / 4)).item()

    def test_finite_difference_under_fused(self):
        rng = np.random.default_rng(11)
        mask = rng.random((2, 4, 4)) < 0.3
        with use_backend("fused"):
            check_gradients(
                lambda t: info_nce(t[0], t[1], 0.5, mask),
                [rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))])


class TestMISSEndToEnd:
    """Full SSL tower under both backends: losses and embedding gradients
    must agree to round-off (the fused path batches all encoder views)."""

    def _schema(self):
        return DatasetSchema(
            name="gradcheck",
            categorical=(FieldSpec("user", "categorical", 10),),
            sequential=(FieldSpec("item", "sequential", 12),
                        FieldSpec("cat", "sequential", 6)),
            max_seq_len=8)

    @pytest.mark.parametrize("field_aware", [True, False])
    def test_ssl_losses_agree(self, field_aware):
        rng = np.random.default_rng(21)
        c_data = rng.normal(size=(6, 2, 8, 5))
        mask = np.ones((6, 8), dtype=bool)
        mask[0, :3] = False
        sequences = rng.integers(1, 12, size=(6, 2, 8))
        results = {}
        for backend in ("reference", "fused"):
            config = MISSConfig(seed=13, field_aware_encoder=field_aware,
                                num_interest_pairs=3, num_feature_pairs=3)
            module = MISSModule(self._schema(), 5, config,
                                np.random.default_rng(17))
            c = Tensor(c_data.copy(), requires_grad=True)
            with use_backend(backend):
                interest, feature = module.ssl_losses(c, mask=mask,
                                                      sequences=sequences)
                (interest + feature).backward()
            results[backend] = (float(interest.data), float(feature.data),
                                c.grad)
        for got, want in zip(results["fused"], results["reference"]):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-11)

    def test_embedding_training_grads_agree(self):
        # One supervised-style round through Embedding + Dense under each
        # backend: parameter gradients must match to round-off.
        indices = np.random.default_rng(31).integers(0, 9, size=(12, 4))
        results = {}
        for backend in ("reference", "fused"):
            emb = Embedding(9, 5, np.random.default_rng(33))
            head = Dense(5, 1, np.random.default_rng(34), activation="relu")
            with use_backend(backend):
                pooled = emb(indices).mean(axis=1)
                head(pooled).sum().backward()
            results[backend] = [emb.weight.grad] + [
                p.grad for p in head.parameters()]
        for g_fused, g_ref in zip(results["fused"], results["reference"]):
            np.testing.assert_allclose(g_fused, g_ref, rtol=RTOL, atol=ATOL)
