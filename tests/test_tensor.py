"""Tensor op forward values, tape semantics, and gradient checks.

Every differentiable op gets a float64 finite-difference check; forward
hand values pin down the conventions (softplus at 0, softmax rows, dropout
scaling) that the rest of the stack depends on.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ginopic.tensor as T
from ginopic.docgraph import build_all_graphs
from ginopic.errors import ConfigError, ContractError, NumericsError, ShapeError
from ginopic.gin import GinConfig
from ginopic.optim import Adam, AdamConfig
from ginopic.rng import stream
from ginopic.synthetic import block_embeddings, block_topic_corpus
from ginopic.topicmodel import TopicModel, TrainConfig

F64 = np.float64


def t64(data, requires_grad=False):
    return T.Tensor(np.asarray(data, dtype=F64), requires_grad=requires_grad)


def check_grad(f, x_data, rel_tol=1e-5):
    x = t64(x_data, requires_grad=True)
    report = T.finite_difference_check(f, x, rel_tol=rel_tol)
    assert report.passed(rel_tol), (
        f"max rel err {report.max_rel_err:.3e} at {report.worst_index}"
    )
    return report


class TestForwardValues:
    def test_softplus_at_zero_is_ln2(self):
        y = T.softplus(t64([0.0]))
        assert y.data[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_softplus_large_inputs_do_not_overflow(self):
        y = T.softplus(t64([1000.0, -1000.0]))
        assert y.data[0] == pytest.approx(1000.0)
        assert y.data[1] == 0.0
        assert np.all(np.isfinite(y.data))

    def test_relu_clamps_negatives(self):
        y = T.relu(t64([-2.0, 0.0, 3.0]))
        assert y.data.tolist() == [0.0, 0.0, 3.0]

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        y = T.softmax(t64(x))
        assert np.allclose(y.data.sum(axis=1), 1.0)
        y_shift = T.softmax(t64(x + 100.0))
        assert np.allclose(y.data, y_shift.data)

    def test_log_softmax_matches_log_of_softmax(self):
        x = t64([[0.5, -1.0, 2.0]])
        assert np.allclose(T.log_softmax(x).data, np.log(T.softmax(x).data))

    def test_matmul_and_transpose(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        b = t64([[5.0], [6.0]])
        assert T.matmul(a, b).data.tolist() == [[17.0], [39.0]]
        assert T.transpose(a).data.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_linear_validation(self):
        x, w = t64(np.ones((2, 3))), t64(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="linear"):
            T.linear(x, w, t64(np.ones(3)))
        with pytest.raises(ShapeError, match="linear"):
            T.linear(t64(np.ones(3)), w, t64(np.ones(4)))

    def test_add_bias_broadcast(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        b = t64([10.0, 20.0])
        assert T.add(a, b).data.tolist() == [[11.0, 22.0], [13.0, 24.0]]

    def test_sum_axes(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        assert T.sum(a).data == 10.0
        assert T.sum(a, axis=0).data.tolist() == [4.0, 6.0]
        assert T.sum(a, axis=1).data.tolist() == [3.0, 7.0]
        assert T.mean(a).data == 2.5

    def test_sum_axis_validation(self):
        with pytest.raises(ConfigError):
            T.sum(t64([1.0]), axis=2)
        with pytest.raises(ShapeError):
            T.sum(t64([1.0, 2.0]), axis=1)

    def test_gather_rows_selects_and_validates(self):
        table = t64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = T.gather_rows(table, [2, 0, 2])
        assert out.data.tolist() == [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]]
        with pytest.raises(ContractError):
            T.gather_rows(table, [3])

    def test_segment_sum_buckets_rows(self):
        x = t64([[1.0], [2.0], [4.0], [8.0]])
        out = T.segment_sum(x, [0, 1, 0, 1], 2)
        assert out.data.tolist() == [[5.0], [10.0]]
        with pytest.raises(ContractError):
            T.segment_sum(x, [0, 1, 0, 2], 2)

    def test_concat_validation(self):
        with pytest.raises(ContractError):
            T.concat_rows([])
        with pytest.raises(ShapeError):
            T.concat_cols([t64([[1.0]]), t64([[1.0], [2.0]])])

    def test_spmm_matches_dense(self):
        rows, cols, vals = [0, 0, 1], [0, 1, 1], [2.0, 3.0, 4.0]
        m = T.SparseMatrix.from_coo(rows, cols, vals, shape=(2, 2), dtype=F64)
        x = t64([[1.0, 0.0], [0.0, 1.0]])
        dense = np.zeros((2, 2))
        dense[rows, cols] = vals
        assert np.allclose(T.spmm(m, x).data, dense @ x.data)

    def test_dropout_identity_in_eval_and_scales_in_train(self):
        x = t64(np.ones((4, 5)))
        gen = stream(0, "test/dropout")
        y_eval = T.dropout(x, 0.5, training=False, rng=gen)
        assert np.array_equal(y_eval.data, x.data)
        y = T.dropout(x, 0.5, training=True, rng=stream(0, "test/dropout"))
        surviving = y.data[y.data != 0.0]
        assert np.allclose(surviving, 2.0)
        with pytest.raises(ConfigError):
            T.dropout(x, 1.0, training=True, rng=gen)

    def test_dropout_mask_reproducible_from_stream(self):
        x = t64(np.ones((8, 8)))
        y1 = T.dropout(x, 0.3, training=True, rng=stream(7, "d"))
        y2 = T.dropout(x, 0.3, training=True, rng=stream(7, "d"))
        assert np.array_equal(y1.data, y2.data)

    def test_batchnorm_train_normalizes_and_updates_buffers(self):
        x = t64([[0.0, 10.0], [2.0, 20.0], [4.0, 30.0]])
        gamma, beta = T.ones(2, dtype=F64), T.zeros(2, dtype=F64)
        rm, rv = np.zeros(2), np.ones(2)
        y = T.batchnorm_1d(x, gamma, beta, rm, rv, momentum=0.1, eps=1e-5, training=True)
        assert np.allclose(y.data.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(y.data.var(axis=0), 1.0, atol=1e-4)
        # biased batch var of column 0 is 8/3; buffer blends 10% of it in
        assert rm[0] == pytest.approx(0.1 * 2.0)
        assert rv[0] == pytest.approx(0.9 * 1.0 + 0.1 * (8.0 / 3.0))

    def test_batchnorm_eval_is_affine_in_running_stats(self):
        x = t64([[3.0], [5.0]])
        gamma, beta = T.ones(1, dtype=F64), T.zeros(1, dtype=F64)
        rm, rv = np.array([1.0]), np.array([4.0])
        y = T.batchnorm_1d(x, gamma, beta, rm, rv, momentum=0.1, eps=0.0, training=False)
        assert np.allclose(y.data, (x.data - 1.0) / 2.0)
        # eval mode must not touch the buffers
        assert rm[0] == 1.0 and rv[0] == 4.0


def loop_softplus_grad(x, g):
    """The softplus backward before subnormal flushing, kept as its reference."""
    pos = x >= 0
    s = np.empty_like(x)
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return g * s


def softplus_grad(x, g):
    """`softplus`'s recorded backward rule applied to the output grad `g`."""
    with T.Tape() as tape:
        T.softplus(T.Tensor(x, requires_grad=True))
        return tape.records[-1].backward_fn(g)[0]


class TestSoftplusSubnormalFlush:
    @pytest.mark.parametrize("dtype,lo,hi", [(np.float32, -104.0, -80.0),
                                             (np.float64, -745.0, -700.0)])
    def test_flushes_exactly_the_subnormals(self, dtype, lo, hi):
        gen = np.random.default_rng(7)
        x = np.linspace(lo, hi, 4001).astype(dtype).reshape(4001, 1)
        g = (gen.normal(size=x.shape) * 10.0 ** gen.uniform(-3, 3, size=x.shape)).astype(dtype)
        old, new = loop_softplus_grad(x, g), softplus_grad(x, g)
        subnormal = (old != 0) & (np.abs(old) < np.finfo(dtype).tiny)
        assert subnormal.sum() > 100 and (~subnormal).sum() > 100
        assert np.all(new[subnormal] == 0)
        assert new[~subnormal].tobytes() == old[~subnormal].tobytes()

    def test_matches_old_formula_outside_the_subnormal_range(self):
        x = np.linspace(-60.0, 60.0, 1201).astype(np.float32)
        g = np.cos(np.arange(x.size, dtype=np.float32))
        assert softplus_grad(x, g).tobytes() == loop_softplus_grad(x, g).tobytes()

    def test_nan_and_inf_pass_through(self):
        x = np.array([-90.0, 0.0, 1.0], dtype=np.float32)
        got = softplus_grad(x, np.array([np.nan, np.inf, -np.inf], dtype=np.float32))
        assert np.isnan(got[0]) and got[1] == np.inf and got[2] == -np.inf


def awkward_rows(gen, shape, dtype):
    """Rows mixing normals of every scale, +-0.0, subnormals and huge values,
    so the order of a sum shows in its bits."""
    x = gen.normal(size=shape) * 10.0 ** gen.integers(-8, 8, size=shape)
    kinds = gen.integers(0, 6, size=shape)
    tiny = np.finfo(dtype).tiny
    x = np.where(kinds == 0, 0.0, np.where(kinds == 1, -0.0, x))
    x = np.where(kinds == 2, gen.choice([-1, 1], size=shape) * tiny * gen.random(shape), x)
    x = np.where(kinds == 3, gen.choice([-1, 1], size=shape) * np.finfo(dtype).max / 4, x)
    return x.astype(dtype)


def gather_rows_grad(table, idx, g):
    """`gather_rows`'s recorded backward rule applied to the output grad `g`."""
    with T.Tape() as tape:
        T.gather_rows(T.Tensor(table, requires_grad=True, dtype=table.dtype), idx)
        return tape.records[-1].backward_fn(g)[0]


class TestScatterSumsMatchAddAt:
    """`segment_sum` forward and `gather_rows` backward sum repeated rows in
    the order of `np.add.at`, so their bytes equal it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(10))
    def test_segment_sum_forward(self, dtype, seed):
        gen = np.random.default_rng(seed)
        n, buckets = int(gen.integers(1, 200)), int(gen.integers(1, 12))
        x = awkward_rows(gen, (n, 5), dtype)
        seg = gen.integers(0, buckets, size=n)
        want = np.zeros((buckets, 5), dtype=dtype)
        with np.errstate(over="ignore"):
            np.add.at(want, seg, x)
        got = T.segment_sum(T.Tensor(x, dtype=dtype), seg, buckets).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(10))
    def test_gather_rows_backward(self, dtype, seed):
        gen = np.random.default_rng(100 + seed)
        v, n = int(gen.integers(1, 40)), int(gen.integers(0, 200))
        idx = gen.integers(0, v, size=n)
        g = awkward_rows(gen, (n, 4), dtype)
        want = np.zeros((v, 4), dtype=dtype)
        with np.errstate(over="ignore"):
            np.add.at(want, idx, g)
        got = gather_rows_grad(np.zeros((v, 4), dtype=dtype), idx, g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def recorded_grads(op, g):
    """The backward rule of the op that `op()` records, applied to `g`."""
    with T.Tape() as tape:
        op()
        return tape.records[-1].backward_fn(g)


class TestBackwardRulesMatchReferenceForms:
    """Backward rules written with fewer array passes give the bytes of the
    textbook forms they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(10))
    def test_batchnorm_backward_equals_mean_form(self, dtype, seed):
        gen = np.random.default_rng(200 + seed)
        n, d = int(gen.integers(2, 70)), int(gen.integers(1, 9))
        x = (gen.normal(size=(n, d)) * 10.0 ** gen.integers(-3, 3, size=d)).astype(dtype)
        gamma, g = gen.normal(size=d).astype(dtype), gen.normal(size=(n, d)).astype(dtype)
        g[gen.random((n, d)) < 0.1] = -0.0
        grads = recorded_grads(lambda: T.batchnorm_1d(
            T.Tensor(x, requires_grad=True, dtype=dtype), T.Tensor(gamma, dtype=dtype),
            T.Tensor(np.zeros(d), dtype=dtype), np.zeros(d, dtype), np.ones(d, dtype),
            0.1, 1e-5, training=True), g)
        s = np.sqrt(x.var(axis=0) + 1e-5)
        xhat = (x - x.mean(axis=0)) / s
        want = (gamma / s) * (g - g.mean(axis=0) - xhat * (g * xhat).mean(axis=0))
        assert grads[0].dtype == want.dtype and grads[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(5))
    def test_linear_equals_matmul_then_add(self, dtype, seed):
        gen = np.random.default_rng(400 + seed)
        n, fan_in, fan_out = (int(k) for k in gen.integers(1, 40, size=3))
        x, w = awkward_rows(gen, (n, fan_in), dtype), awkward_rows(gen, (fan_in, fan_out), dtype)
        b, g = awkward_rows(gen, fan_out, dtype), awkward_rows(gen, (n, fan_out), dtype)
        xt, wt, bt = (T.Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b))
        with np.errstate(over="ignore", invalid="ignore"):
            out = T.linear(xt, wt, bt).data
            got = recorded_grads(lambda: T.linear(xt, wt, bt), g)
            want_out = T.add(T.matmul(xt, wt), bt).data
            want = (*recorded_grads(lambda: T.matmul(xt, wt), g),
                    recorded_grads(lambda: T.add(T.Tensor(g, requires_grad=True), bt), g)[1])
        assert out.tobytes() == want_out.tobytes()
        for a, e in zip(got, want):
            assert a.dtype == e.dtype and a.tobytes() == e.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(10))
    def test_spmm_backward_equals_transposed_csr_product(self, dtype, seed):
        gen = np.random.default_rng(300 + seed)
        rows, cols, nnz = (int(k) for k in gen.integers(1, 30, size=3))
        m = T.SparseMatrix.from_coo(gen.integers(0, rows, nnz), gen.integers(0, cols, nnz),
                                    awkward_rows(gen, nnz, dtype), (rows, cols), dtype)
        g = awkward_rows(gen, (rows, 3), dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            got = recorded_grads(lambda: T.spmm(m, T.Tensor(np.zeros((cols, 3)), dtype=dtype,
                                                            requires_grad=True)), g)[0]
            want = np.asarray(m.mat.T.tocsr() @ g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestDtypeRules:
    def test_default_dtype_is_float32(self):
        assert T.Tensor([1.0]).dtype == np.float32

    def test_ndarray_float_dtype_preserved(self):
        assert T.Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_default_dtype_context_restores(self):
        with T.default_dtype(np.float64):
            assert T.Tensor([1.0]).dtype == np.float64
        assert T.Tensor([1.0]).dtype == np.float32

    def test_mixed_dtypes_rejected(self):
        a = T.Tensor(np.ones((2, 2), dtype=np.float32))
        b = T.Tensor(np.ones((2, 2), dtype=np.float64))
        with pytest.raises(ShapeError, match="mixed dtypes"):
            T.add(a, b)

    def test_ops_preserve_input_dtype(self):
        x = T.Tensor(np.ones((2, 2), dtype=np.float64))
        for y in (T.relu(x), T.softmax(x), T.sum(x, axis=0), T.scale(x, 2.0)):
            assert y.dtype == np.float64


class TestTapeSemantics:
    def test_no_tape_records_nothing(self):
        x = t64([1.0], requires_grad=True)
        y = T.relu(x)
        assert not y.requires_grad

    def test_no_requires_grad_records_nothing(self):
        with T.Tape() as tape:
            y = T.relu(t64([1.0]))
        assert not tape.records and not y.requires_grad

    def test_backward_requires_scalar(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.relu(x)
            with pytest.raises(ShapeError):
                T.backward(tape, y)

    def test_backward_rejects_foreign_loss(self):
        x = t64([1.0], requires_grad=True)
        with T.Tape():
            loss = T.sum(T.relu(x))
        with T.Tape() as other:
            with pytest.raises(ContractError, match="not produced on this tape"):
                T.backward(other, loss)

    def test_backward_clears_tape(self):
        x = t64([1.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum(T.relu(x))
            T.backward(tape, loss)
        assert not tape.records

    def test_fanout_accumulates_gradients(self):
        x = t64([3.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum(T.add(x, x))
            T.backward(tape, loss)
        assert x.grad.tolist() == [2.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gradient_names_the_op(self):
        x = t64([0.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum(T.log(x))  # d/dx log(0) = inf
            with pytest.raises(NumericsError, match="log"):
                T.backward(tape, loss)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_born_in_an_intermediate_op_names_that_op(self):
        # log(relu(-1)) = log(0): log's backward yields inf, relu's turns it
        # into the NaN that reaches the leaf; the op named is where it arose
        x = t64([-1.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum(T.log(T.relu(x)))
            with pytest.raises(NumericsError, match="'log'"):
                T.backward(tape, loss)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_toward_a_constant_does_not_raise(self):
        # d/dc of x * c is x = inf, but c is a constant; d/dx = c is finite
        x = t64([np.inf], requires_grad=True)
        c = t64([2.0])
        with T.Tape() as tape:
            T.backward(tape, T.sum(T.mul(x, c)))
        assert x.grad.tolist() == [2.0] and c.grad is None

    def test_nonfinite_leaf_gradient_from_before_the_sweep_raises(self):
        x = t64([1.0], requires_grad=True)
        x.grad = np.array([np.nan])
        with T.Tape() as tape:
            with pytest.raises(NumericsError, match="leaf"):
                T.backward(tape, T.sum(x))

    def test_first_accumulation_keeps_bits(self):
        # the one-pass first write equals zeros_like(data) += g, -0.0 included
        g = np.array([-0.0, 0.0, 1e-45, -3.5, 7.25], dtype=np.float32)
        x = T.Tensor(np.ones(5, dtype=np.float32), requires_grad=True)
        with T.Tape() as tape:
            T.backward(tape, T.sum(T.mul(x, T.Tensor(g))))
        want = np.zeros_like(x.data)
        want += g
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("twice,once", [
        (lambda h: T.add(h, h), lambda h: T.scale(h, 2.0)),
        # d(h * h)/dh = g*h + g*h; the taped half of 2h * h gives (g*h) * 2
        (lambda h: T.mul(h, h), lambda h: T.mul(T.scale(h, 2.0), T.Tensor(h.data.copy()))),
    ])
    def test_intermediate_used_twice_matches_scale(self, twice, once):
        # the second gradient of an intermediate adds into the first, which
        # the sweep took without a copy; the sum must equal the doubled form
        gen = np.random.default_rng(5)
        x0, c, w = (gen.normal(size=(6, 3)).astype(np.float32) for _ in range(3))
        grads = []
        for form in (twice, once):
            x = T.Tensor(x0, requires_grad=True)
            with T.Tape() as tape:
                T.backward(tape, T.sum(T.mul(form(T.mul(x, T.Tensor(c))), T.Tensor(w))))
            grads.append(x.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

    @pytest.mark.parametrize("op", [
        lambda h: T.add_scalar(h, 1.0),   # its backward passes the output gradient on
        lambda h: T.concat_rows([h, h]),  # its backward returns views of it
    ], ids=["pass_through", "views"])
    def test_intermediate_gradient_is_its_own(self, op):
        # h takes op's gradient first and z's second; adding z's must not
        # reach the gradient of op's output
        gen = np.random.default_rng(6)
        x = T.Tensor(gen.normal(size=(2, 3)), requires_grad=True)
        with T.Tape() as tape:
            h = T.scale(x, 1.5)
            z = T.mul(h, T.Tensor(gen.normal(size=(2, 3))))
            y = op(h)
            w = T.Tensor(gen.normal(size=y.shape))
            T.backward(tape, T.add(T.sum(T.mul(y, w)), T.sum(z)))
        assert y.grad.tobytes() == w.data.tobytes()

    def test_one_array_returned_for_two_inputs_is_copied(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            a, b = T.scale(x, 1.0), T.scale(x, 3.0)
            z = T.mul(a, t64([5.0, 7.0]))
            y = T.Tensor(a.data + b.data, requires_grad=True)
            tape.record("a_plus_b", y, (a, b), lambda g: (g * 1.0,) * 2)
            T.backward(tape, T.add(T.sum(y), T.sum(z)))
        assert a.grad.tolist() == [6.0, 8.0] and b.grad.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("rule", [
        lambda g: (np.asfortranarray(g * 1.0),),
        lambda g: ((g * 1.0).astype(np.float64),),
        lambda g: (g.sum(axis=0, keepdims=True),),
    ], ids=["fortran_order", "other_dtype", "broadcast_shape"])
    def test_intermediate_gradient_has_its_tensors_layout(self, rule):
        # a fresh array in another layout is copied, not taken: the BLAS
        # products it feeds must see the operand layout they always saw
        x = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        with T.Tape() as tape:
            h = T.scale(x, 2.0)
            y = T.Tensor(h.data.copy(), requires_grad=True)
            tape.record("custom", y, (h,), rule)
            T.backward(tape, T.sum(y))
        assert h.grad.dtype == h.dtype and h.grad.shape == h.shape
        assert h.grad.flags.c_contiguous

    def test_parameter_gradients_share_no_memory(self):
        corpus = block_topic_corpus(seed=1, n_docs=12, n_topics=2, words_per_topic=4,
                                    doc_len=(4, 8))
        store = build_all_graphs(corpus, block_embeddings(corpus.vocabulary, 2, 4, within=0.8),
                                 delta=0.3)
        config = TrainConfig(topics=2, gin=GinConfig(tau=3, hidden=4, tau_out=3),
                             encoder_hidden=5, epochs=1, batch_size=8, seed=7)
        model = TopicModel(len(corpus.vocabulary), config)
        with T.Tape() as tape:
            out = model.forward_batch(corpus.split.train, store.train_graphs(), training=True,
                                      noise_rng=stream(5, "noise"), dropout_rng=stream(6, "drop"))
            T.backward(tape, out.total)
        params = [p for _, p in model.parameters()]
        assert all(p.grad is not None for p in params)
        for i, p in enumerate(params):
            for q in params[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)

    def test_chained_matmul_gradient_hand_value(self):
        # loss = sum(a @ b): dl/da = ones @ b.T
        a = t64([[1.0, 2.0]], requires_grad=True)
        b = t64([[3.0], [4.0]], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum(T.matmul(a, b))
            T.backward(tape, loss)
        assert a.grad.tolist() == [[3.0, 4.0]]
        assert b.grad.tolist() == [[1.0], [2.0]]


class TestFiniteDifference:
    """Per-op gradient checks in float64 at rel_tol 1e-5."""

    def test_requires_float64(self):
        x = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            T.finite_difference_check(lambda v: T.sum(v), x)

    def test_matmul(self, rng):
        b = t64(rng.normal(size=(4, 3)))
        check_grad(lambda x: T.sum(T.matmul(x, b)), rng.normal(size=(2, 4)))

    def test_matmul_right_operand(self, rng):
        a = t64(rng.normal(size=(3, 4)))
        check_grad(lambda x: T.sum(T.matmul(a, x)), rng.normal(size=(4, 2)))

    def test_transpose(self, rng):
        w = t64(rng.normal(size=(3, 2)))
        check_grad(lambda x: T.sum(T.mul(T.transpose(x), w)), rng.normal(size=(2, 3)))

    def test_add_same_shape(self, rng):
        b = t64(rng.normal(size=(3, 3)))
        check_grad(lambda x: T.sum(T.exp(T.add(x, b))), rng.normal(size=(3, 3)) * 0.1)

    def test_add_bias(self, rng):
        a = t64(rng.normal(size=(4, 3)))
        check_grad(lambda x: T.sum(T.exp(T.add(a, x))), rng.normal(size=3) * 0.1)

    def test_mul(self, rng):
        b = t64(rng.normal(size=(3, 3)))
        check_grad(lambda x: T.sum(T.mul(x, b)), rng.normal(size=(3, 3)))

    def test_scale_and_add_scalar(self, rng):
        check_grad(lambda x: T.sum(T.add_scalar(T.scale(x, -1.7), 0.3)),
                   rng.normal(size=(2, 3)))

    def test_log(self, rng):
        check_grad(lambda x: T.sum(T.log(x)), rng.uniform(0.5, 2.0, size=(3, 3)))

    def test_exp(self, rng):
        check_grad(lambda x: T.sum(T.exp(x)), rng.normal(size=(3, 3)) * 0.5)

    def test_sqrt(self, rng):
        check_grad(lambda x: T.sum(T.sqrt(x)), rng.uniform(0.5, 2.0, size=(3, 3)))

    def test_relu_away_from_kink(self, rng):
        x = rng.normal(size=(3, 3))
        x[np.abs(x) < 0.1] += 0.5  # keep coordinates off the nondifferentiable point
        check_grad(lambda v: T.sum(T.relu(v)), x)

    def test_softplus(self, rng):
        check_grad(lambda x: T.sum(T.softplus(x)), rng.normal(size=(3, 3)) * 2.0)

    def test_softmax(self, rng):
        w = t64(rng.normal(size=(2, 4)))
        check_grad(lambda x: T.sum(T.mul(T.softmax(x), w)), rng.normal(size=(2, 4)))

    def test_log_softmax(self, rng):
        w = t64(rng.normal(size=(2, 4)))
        check_grad(lambda x: T.sum(T.mul(T.log_softmax(x), w)), rng.normal(size=(2, 4)))

    def test_sum_axis0_and_axis1(self, rng):
        w0 = t64(rng.normal(size=3))
        check_grad(lambda x: T.sum(T.mul(T.sum(x, axis=0), w0)), rng.normal(size=(4, 3)))
        w1 = t64(rng.normal(size=4))
        check_grad(lambda x: T.sum(T.mul(T.sum(x, axis=1), w1)), rng.normal(size=(4, 3)))

    def test_mean(self, rng):
        check_grad(lambda x: T.mean(T.exp(x)), rng.normal(size=(3, 4)) * 0.3)

    def test_concat_rows(self, rng):
        b = t64(rng.normal(size=(2, 3)))
        w = t64(rng.normal(size=(5, 3)))
        check_grad(lambda x: T.sum(T.mul(T.concat_rows([x, b]), w)),
                   rng.normal(size=(3, 3)))

    def test_concat_cols(self, rng):
        b = t64(rng.normal(size=(3, 2)))
        w = t64(rng.normal(size=(3, 5)))
        check_grad(lambda x: T.sum(T.mul(T.concat_cols([x, b]), w)),
                   rng.normal(size=(3, 3)))

    def test_gather_rows(self, rng):
        idx = [0, 2, 2, 1]
        w = t64(rng.normal(size=(4, 3)))
        check_grad(lambda x: T.sum(T.mul(T.gather_rows(x, idx), w)),
                   rng.normal(size=(3, 3)))

    def test_segment_sum(self, rng):
        seg = [0, 1, 1, 0, 2]
        w = t64(rng.normal(size=(3, 2)))
        check_grad(lambda x: T.sum(T.mul(T.segment_sum(x, seg, 3), w)),
                   rng.normal(size=(5, 2)))

    def test_spmm(self, rng):
        m = T.SparseMatrix.from_coo(
            [0, 0, 1, 2], [0, 2, 1, 2], [1.5, -0.5, 2.0, 0.7], shape=(3, 3), dtype=F64
        )
        w = t64(rng.normal(size=(3, 2)))
        check_grad(lambda x: T.sum(T.mul(T.spmm(m, x), w)), rng.normal(size=(3, 2)))

    def test_dropout(self, rng):
        # mask must be identical across f() calls: rebuild the stream each time
        def f(x):
            return T.sum(T.dropout(x, 0.4, training=True, rng=stream(3, "fd/drop")))

        check_grad(f, rng.normal(size=(4, 4)))

    def test_batchnorm_train(self, rng):
        gamma = t64(rng.uniform(0.5, 1.5, size=3))
        beta = t64(rng.normal(size=3))
        w = t64(rng.normal(size=(5, 3)))

        def f(x):
            rm, rv = np.zeros(3), np.ones(3)  # fresh buffers so f is pure
            y = T.batchnorm_1d(x, gamma, beta, rm, rv, 0.1, 1e-5, training=True)
            return T.sum(T.mul(y, w))

        check_grad(f, rng.normal(size=(5, 3)))

    def test_batchnorm_gamma_beta_grads(self, rng):
        xdata = rng.normal(size=(5, 3))
        rm, rv = np.zeros(3), np.ones(3)
        w = t64(rng.normal(size=(5, 3)))

        def f_gamma(g):
            y = T.batchnorm_1d(t64(xdata), g, T.zeros(3, dtype=F64),
                               rm.copy(), rv.copy(), 0.1, 1e-5, training=True)
            return T.sum(T.mul(y, w))

        check_grad(f_gamma, rng.uniform(0.5, 1.5, size=3))

    def test_batchnorm_eval_mode(self, rng):
        gamma = t64(rng.uniform(0.5, 1.5, size=3))
        beta = t64(rng.normal(size=3))
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)
        w = t64(rng.normal(size=(4, 3)))

        def f(x):
            y = T.batchnorm_1d(x, gamma, beta, rm, rv, 0.1, 1e-5, training=False)
            return T.sum(T.mul(y, w))

        check_grad(f, rng.normal(size=(4, 3)))

    def test_composite_mlp_chain(self, rng):
        """Several ops chained: gather -> matmul -> softplus -> softmax -> log."""
        w = t64(rng.normal(size=(3, 4)))

        def f(x):
            h = T.gather_rows(x, [1, 0, 2, 1])
            h = T.matmul(h, w)
            h = T.softplus(h)
            p = T.softmax(h)
            return T.scale(T.sum(T.mul(p, T.log(T.add_scalar(p, 1e-10)))), -1.0)

        check_grad(f, rng.normal(size=(3, 3)))


class TestAdam:
    def test_single_step_closed_form(self):
        # one Adam step with grad g moves the parameter by -lr * sign-ish update:
        # m_hat = g, v_hat = g^2, so delta = -lr * g / (|g| + eps)
        p = T.Tensor(np.array([1.0, -2.0], dtype=F64), requires_grad=True)
        g = np.array([0.5, -0.25], dtype=F64)
        p.grad = g.copy()
        config = AdamConfig(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        opt = Adam([("p", p)], config)
        opt.step()
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, expected, rtol=1e-6)

    def test_missing_gradient_rejected(self):
        p = T.Tensor(np.zeros(2, dtype=F64), requires_grad=True)
        opt = Adam([("p", p)])
        with pytest.raises(ContractError, match="has no gradient"):
            opt.step()

    def test_zero_grad_resets(self):
        p = T.Tensor(np.zeros(2, dtype=F64), requires_grad=True)
        p.grad = np.ones(2)
        Adam([("p", p)]).zero_grad()
        assert p.grad is None

    def test_two_steps_match_reference_update(self):
        # replay the textbook update rule independently for two steps
        p = T.Tensor(np.array([0.3], dtype=F64), requires_grad=True)
        config = AdamConfig(lr=0.05)
        opt = Adam([("p", p)], config)
        ref, m, v = 0.3, 0.0, 0.0
        for step_i, g in enumerate([0.7, -0.2], start=1):
            p.grad = np.array([g], dtype=F64)
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** step_i)
            vhat = v / (1 - 0.999 ** step_i)
            ref -= 0.05 * mhat / (math.sqrt(vhat) + 1e-8)
            assert p.data[0] == pytest.approx(ref, rel=1e-12)


def loop_adam_step(opt):
    """The allocating `Adam.step` the in-place one replaced, kept as its
    reference: applies one update to `opt`'s parameters and moments."""
    c = opt.config
    opt.t += 1
    b1t = 1.0 - c.beta1 ** opt.t
    b2t = 1.0 - c.beta2 ** opt.t
    for i, (_, p) in enumerate(opt.params):
        g = p.grad
        opt.m[i] *= c.beta1
        opt.m[i] += (1.0 - c.beta1) * g
        opt.v[i] *= c.beta2
        opt.v[i] += (1.0 - c.beta2) * g * g
        m_hat = opt.m[i] / b1t
        v_hat = opt.v[i] / b2t
        p.data -= (c.lr * m_hat / (np.sqrt(v_hat) + c.eps)).astype(p.data.dtype)


def _adam_grads(kind, shape, dtype, step, gen):
    if kind == "zero":
        return np.zeros(shape, dtype=dtype)
    tiny = np.finfo(dtype).tiny
    if kind == "tiny":
        return (gen.choice([-1.0, 1.0], size=shape) * tiny * gen.uniform(0.01, 4.0, size=shape)
                ).astype(dtype)
    # mixed: normal scale, tiny, subnormal, zero and -0.0 entries, large entries
    g = gen.normal(size=shape) * 10.0 ** gen.integers(-12, 4, size=shape)
    pick = gen.integers(0, 6, size=shape)
    g[pick == 0] = 0.0
    g[pick == 1] = -0.0
    g[pick == 2] = tiny * 1e-3 * (step + 1)
    return g.astype(dtype)


class TestAdamMatchesLoopBitwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["zero", "tiny", "mixed"])
    def test_twenty_steps(self, dtype, kind):
        shapes = [(7, 5), (3,), (40, 6), (1, 1)]
        gen = np.random.default_rng(len(kind))
        init = [gen.normal(scale=0.05, size=s).astype(dtype) for s in shapes]
        config = AdamConfig(lr=0.02)
        mine = [T.Tensor(a.copy(), requires_grad=True) for a in init]
        ref = [T.Tensor(a.copy(), requires_grad=True) for a in init]
        opt, ref_opt = Adam(mine, config), Adam(ref, config)
        for step in range(20):
            for p, q in zip(mine, ref):
                p.grad = _adam_grads(kind, p.shape, dtype, step, gen)
                q.grad = p.grad.copy()
            opt.step()
            loop_adam_step(ref_opt)
            for i, (p, q) in enumerate(zip(mine, ref)):
                assert p.data.dtype == dtype
                assert p.data.tobytes() == q.data.tobytes(), (step, i)
                assert opt.m[i].tobytes() == ref_opt.m[i].tobytes()
                assert opt.v[i].tobytes() == ref_opt.v[i].tobytes()

    def test_mixed_dtypes_share_the_scratch(self):
        a = T.Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        b = T.Tensor(np.ones(20, dtype=np.float64), requires_grad=True)
        ra = T.Tensor(a.data.copy(), requires_grad=True)
        rb = T.Tensor(b.data.copy(), requires_grad=True)
        opt, ref_opt = Adam([a, b]), Adam([ra, rb])
        for step in range(3):
            for p, q in ((a, ra), (b, rb)):
                p.grad = np.full(p.shape, 0.3 - step, dtype=p.dtype)
                q.grad = p.grad.copy()
            opt.step()
            loop_adam_step(ref_opt)
        assert a.data.tobytes() == ra.data.tobytes()
        assert b.data.tobytes() == rb.data.tobytes()


@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12))
def test_softmax_is_simplex_for_any_row(values):
    y = T.softmax(t64([values]))
    assert np.all(y.data >= 0.0)
    assert y.data.sum() == pytest.approx(1.0, abs=1e-9)


@given(
    st.integers(2, 6), st.integers(2, 6),
    st.integers(0, 2 ** 31 - 1),
)
def test_matmul_gradient_property(n, m, seed):
    gen = np.random.default_rng(seed)
    b = t64(gen.normal(size=(m, n)))
    x = t64(gen.normal(size=(n, m)), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum(T.matmul(x, b))
        T.backward(tape, loss)
    # d sum(x@b) / dx = ones @ b.T, independent of x
    assert np.allclose(x.grad, np.ones((n, n)) @ b.data.T)


@given(
    st.integers(1, 4096), st.integers(1, 64), st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2 ** 31 - 1),
)
def test_batchnorm_statistics_equal_var_and_centered_quotient(n, d, dtype, seed):
    # training batchnorm computes x - mu once and takes its variance from
    # it; the results must be the bytes of x.var(0) and (x - mu) / s
    gen = np.random.default_rng(seed)
    x = (gen.normal(size=(n, d)) * 10.0 ** gen.integers(-3, 3, size=d)
         + gen.normal(size=d) * 10.0 ** gen.integers(-2, 4, size=d)).astype(dtype)
    gamma, beta = np.ones(d, dtype), np.zeros(d, dtype)
    running_var = np.zeros(d, dtype)
    out = T.batchnorm_1d(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), np.zeros(d, dtype),
                         running_var, 1.0, 1e-5, training=True).data
    var = x.var(axis=0)
    xhat = (x - x.mean(axis=0)) / np.sqrt(var + 1e-5)
    assert running_var.tobytes() == var.tobytes()
    assert out.tobytes() == (gamma * xhat + beta).tobytes()
