"""Dense tensors with tape-based reverse-mode automatic differentiation.

This is the numeric substrate for the whole toolkit.  A Tensor wraps a numpy
buffer; ops validate shapes, compute forward values, and append a record to
the active Tape; `backward` replays the tape in reverse, accumulating
gradients at fan-out.  Appending in execution order means the record list is
already topologically sorted, so one reversed traversal visits each node
exactly once.

float32 is the training default.  Gradient checking and other high-precision
work should run under ``default_dtype(np.float64)``.

Numerics contract: `backward` checks finiteness once per sweep, on the leaf
gradients (tensors that track gradients but were not produced on the tape).
Only if one is NaN/Inf does it replay the recorded backward rules to name
the op where the non-finite value arose; a non-finite gradient toward a
constant, or one that reaches no leaf, does not raise.  `softplus`'s
backward is the one place that flushes subnormals: below x = -87 (float32)
its g * sigmoid(x) falls under ``finfo.tiny`` and would slow every GEMM it
feeds several-fold, while the parameter step it could cause rounds away.

Design constraints kept deliberately tight so every backward rule stays
auditable:
  * ops are 1-D/2-D only,
  * no broadcasting beyond row-wise bias addition in `add`,
  * sparse matrices enter only through `spmm` with constant coefficients.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ContractError, NumericsError, ShapeError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_default_dtype = np.dtype(np.float32)


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors (float32 or float64)."""
    global _default_dtype
    dt = np.dtype(dtype)
    if dt not in _FLOAT_DTYPES:
        raise ConfigError(f"default dtype must be float32 or float64, got {dt}")
    _default_dtype = dt


def get_default_dtype() -> np.dtype:
    return _default_dtype


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the default dtype (used by the gradient checks)."""
    previous = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


class Tensor:
    """A dense float array plus an optional gradient buffer.

    `requires_grad` marks leaves (parameters).  Tensors produced by ops under
    an active tape inherit requires_grad from their inputs so the backward
    sweep knows where to accumulate.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
                dtype = data.dtype
            else:
                dtype = _default_dtype
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.dtype)

    # Operator sugar.  Constants should be wrapped explicitly; only Tensor
    # operands are accepted so nothing silently changes dtype.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad, dtype=dtype)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad, dtype=dtype)


@dataclass
class _Record:
    op: str
    output: Tensor
    inputs: tuple
    backward_fn: object  # callable(out_grad) -> tuple of grads aligned with inputs


@dataclass
class Tape:
    """Ordered list of recorded operations.

    Execution order is a topological order of the computation graph, so the
    backward sweep is a single reversed pass.  `backward` clears the tape so
    the object can be reused for the next step.
    """

    records: list = field(default_factory=list)
    _outputs: set = field(default_factory=set)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")

    def record(self, op: str, output: Tensor, inputs: tuple, backward_fn) -> None:
        self.records.append(_Record(op, output, inputs, backward_fn))
        self._outputs.add(id(output))

    def owns(self, t: Tensor) -> bool:
        return id(t) in self._outputs

    def backward(self, loss: Tensor) -> None:
        backward(self, loss)

    def clear(self) -> None:
        self.records.clear()
        self._outputs.clear()


_TAPE_STACK: list = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _result(op: str, out_data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """Wrap a forward result, recording it if any input tracks gradients."""
    tape = active_tape()
    needs = tape is not None and any(i.requires_grad for i in inputs if isinstance(i, Tensor))
    out = Tensor(out_data, requires_grad=needs, dtype=out_data.dtype)
    if needs:
        tape.record(op, out, tuple(i for i in inputs if isinstance(i, Tensor)), backward_fn)
    return out


def _accumulate(t: Tensor, g) -> None:
    if t.grad is None:
        # one pass, bitwise equal to zeros_like(t.data) += g (-0.0 becomes +0.0 either way)
        t.grad = np.add(g, 0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _nonfinite_op(records) -> str | None:
    """Replay the backward rules on their stored output grads, last record
    first, and name the first op that yields a non-finite gradient toward an
    input that tracks gradients."""
    for rec in reversed(records):
        if rec.output.grad is None:
            continue
        for inp, g in zip(rec.inputs, rec.backward_fn(rec.output.grad)):
            if g is not None and inp.requires_grad and not np.isfinite(g).all():
                return rec.op
    return None


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: populate .grad on every requires_grad tensor feeding `loss`.

    Raises ContractError if the loss is not a scalar produced on this tape,
    NumericsError (naming the op) if a leaf gradient ends up NaN/Inf.
    Finiteness is checked once per sweep, on the leaves; only then are the
    backward rules replayed to find the op where the non-finite value arose.
    """
    if loss.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    if not tape.owns(loss):
        raise ContractError("loss was not produced on this tape")
    loss.grad = np.ones_like(loss.data)
    leaves = {}
    for rec in reversed(tape.records):
        out_grad = rec.output.grad
        if out_grad is None:
            continue
        grads = rec.backward_fn(out_grad)
        for inp, g in zip(rec.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            _accumulate(inp, g)
            if not tape.owns(inp):
                leaves[id(inp)] = inp
    if not all(np.isfinite(t.grad).all() for t in leaves.values()):
        op = _nonfinite_op(tape.records)
        raise NumericsError(f"non-finite gradient in backward of '{op}'" if op else
                            "non-finite gradient on a leaf tensor")
    tape.clear()


def _check_dtype(op: str, *tensors: Tensor) -> None:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ShapeError(f"{op}: mixed dtypes {dt} and {t.dtype}")


# ---------------------------------------------------------------------------
# Primitive ops.  Each entry: shape validation, forward, closure backward.
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("matmul", a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _result("matmul", out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.shape}")
    out = np.ascontiguousarray(a.data.T)

    def bw(g):
        return (np.ascontiguousarray(g.T),)

    return _result("transpose", out, (a,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also accepts a row-wise bias: (n, d) + (d,)."""
    _check_dtype("add", a, b)
    if a.shape == b.shape:
        def bw(g):
            return g, g

        return _result("add", a.data + b.data, (a, b), bw)
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        def bw(g):
            return g, g.sum(axis=0)

        return _result("add", a.data + b.data, (a, b), bw)
    raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("mul", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ, {a.shape} vs {b.shape}")

    def bw(g):
        return g * b.data, g * a.data

    return _result("mul", a.data * b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        return (g * c,)

    return _result("scale", a.data * a.dtype.type(c), (a,), bw)


def add_scalar(a: Tensor, c: float) -> Tensor:
    def bw(g):
        return (g,)

    return _result("add_scalar", a.data + a.dtype.type(c), (a,), bw)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def bw(g):
        return (g / a.data,)

    return _result("log", out, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _result("exp", out, (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def bw(g):
        return (g * 0.5 / out,)

    return _result("sqrt", out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def bw(g):
        return (g * (a.data > 0),)

    return _result("relu", out, (a,), bw)


def softplus(a: Tensor) -> Tensor:
    """ln(1 + e^x), computed as max(x, 0) + log1p(e^-|x|) so large |x| cannot overflow."""
    x = a.data
    out = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    def bw(g):
        # derivative is the logistic sigmoid, same overflow-safe split
        pos = x >= 0
        s = np.empty_like(x)
        s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        s[~pos] = ex / (1.0 + ex)
        r = g * s
        # below x = -87 (float32) the product is subnormal, which slows every
        # GEMM it feeds several-fold: flush it to a zero of the same sign (a
        # parameter step it could cause rounds away); NaN/Inf pass through
        r *= np.abs(r) >= np.finfo(r.dtype).tiny
        return (r,)

    return _result("softplus", out, (a,), bw)


def softmax(a: Tensor) -> Tensor:
    """Row softmax over the last axis (1-D or 2-D), max-shifted for stability."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _result("softmax", out, (a,), bw)


def log_softmax(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _result("log_softmax", out, (a,), bw)


def sum(a: Tensor, axis=None) -> Tensor:  # noqa: A001 - numpy-style module namespace
    """Sum over all elements (axis=None), down columns (axis=0), or across rows (axis=1)."""
    if axis not in (None, 0, 1):
        raise ConfigError(f"sum: axis must be None, 0, or 1, got {axis}")
    if axis == 1 and a.ndim != 2:
        raise ShapeError(f"sum: axis=1 needs a 2-D tensor, got {a.shape}")
    out = a.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            return (np.full_like(a.data, g),)
        if axis == 0:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(g[:, None], a.shape).copy(),)

    return _result("sum", np.asarray(out, dtype=a.dtype), (a,), bw)


def mean(a: Tensor, axis=None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return scale(sum(a, axis=axis), 1.0 / n)


def concat_rows(tensors) -> Tensor:
    """Stack 2-D tensors along axis 0 (used to batch per-graph node matrices)."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat_rows: empty input list")
    _check_dtype("concat_rows", *tensors)
    cols = tensors[0].shape[-1]
    for t in tensors:
        if t.ndim != 2 or t.shape[1] != cols:
            raise ShapeError(f"concat_rows: expected (*, {cols}), got {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=0)
    offsets = np.cumsum([0] + [t.shape[0] for t in tensors])

    def bw(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(tensors)))

    return _result("concat_rows", out, tuple(tensors), bw)


def concat_cols(tensors) -> Tensor:
    """Concatenate 2-D tensors along axis 1 (feature concatenation)."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat_cols: empty input list")
    _check_dtype("concat_cols", *tensors)
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.ndim != 2 or t.shape[0] != rows:
            raise ShapeError(f"concat_cols: expected ({rows}, *), got {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

    def bw(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(tensors)))

    return _result("concat_cols", out, tuple(tensors), bw)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-D table; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-D, got {table.shape}")
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(
            f"gather_rows: index out of range for table with {table.shape[0]} rows"
        )
    out = table.data[idx]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _result("gather_rows", out, (table,), bw)


def segment_sum(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of `x` into `num_segments` buckets (per-graph readout)."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if x.ndim != 2 or seg.shape != (x.shape[0],):
        raise ShapeError(
            f"segment_sum: x {x.shape} needs 1-D segment ids of length {x.shape[0]}"
        )
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ContractError(f"segment_sum: segment id out of range [0, {num_segments})")
    out = np.zeros((num_segments, x.shape[1]), dtype=x.dtype)
    np.add.at(out, seg, x.data)

    def bw(g):
        return (g[seg],)

    return _result("segment_sum", out, (x,), bw)


class SparseMatrix:
    """Constant sparse coefficients for `spmm`; never receives gradients."""

    def __init__(self, csr):
        self.mat = csr.tocsr()
        self.matT = self.mat.T.tocsr()

    @classmethod
    def from_coo(cls, rows, cols, values, shape, dtype=None) -> "SparseMatrix":
        dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()
        m = sp.coo_matrix(
            (np.asarray(values, dtype=dtype), (np.asarray(rows), np.asarray(cols))),
            shape=shape,
        )
        return cls(m.tocsr())

    @property
    def shape(self):
        return self.mat.shape


def spmm(matrix: SparseMatrix, x: Tensor) -> Tensor:
    """matrix @ x with fixed sparse coefficients (neighborhood aggregation)."""
    if x.ndim != 2 or matrix.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm: incompatible shapes {matrix.shape} @ {x.shape}")
    if matrix.mat.dtype != x.dtype:
        raise ShapeError(f"spmm: matrix dtype {matrix.mat.dtype} vs tensor {x.dtype}")
    out = np.asarray(matrix.mat @ x.data)

    def bw(g):
        return (np.asarray(matrix.matT @ g),)

    return _result("spmm", out, (x,), bw)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Zero entries with probability p and rescale survivors by 1/(1-p).

    Identity when not training or p == 0.  The mask comes from the supplied
    stream, so a fixed (seed, stream) reproduces the mask exactly.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        def bw_id(g):
            return (g,)

        return _result("dropout", x.data.copy(), (x,), bw_id)
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype)
    scale_ = x.dtype.type(1.0 / (1.0 - p))
    out = x.data * keep * scale_

    def bw(g):
        return (g * keep * scale_,)

    return _result("dropout", out, (x,), bw)


def batchnorm_1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
) -> Tensor:
    """Per-feature batch normalization over axis 0 with learnable scale/shift.

    Training mode normalizes by the biased batch statistics and updates the
    running buffers in place (new = (1-momentum)*old + momentum*batch); eval
    mode applies the running statistics as a fixed affine map.
    """
    if x.ndim != 2:
        raise ShapeError(f"batchnorm_1d: expected 2-D input, got {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"batchnorm_1d: gamma/beta must be ({d},), got {gamma.shape}/{beta.shape}"
        )
    _check_dtype("batchnorm_1d", x, gamma, beta)
    if training:
        n = x.shape[0]
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)  # biased, matches the backward rule below
        s = np.sqrt(var + eps)
        xhat = (x.data - mu) / s
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
        out = gamma.data * xhat + beta.data

        def bw(g):
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            gx = (gamma.data / s) * (
                g - g.mean(axis=0) - xhat * (g * xhat).mean(axis=0)
            )
            return gx, dgamma, dbeta

        return _result("batchnorm_1d", out, (x, gamma, beta), bw)

    s = np.sqrt(running_var + eps).astype(x.data.dtype)
    rm = running_mean.astype(x.data.dtype)
    xhat = (x.data - rm) / s
    out = gamma.data * xhat + beta.data

    def bw_eval(g):
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        gx = g * (gamma.data / s)
        return gx, dgamma, dbeta

    return _result("batchnorm_1d", out, (x, gamma, beta), bw_eval)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class FiniteDifferenceReport:
    max_rel_err: float
    max_abs_err: float
    worst_index: tuple
    ad_grad: np.ndarray
    fd_grad: np.ndarray

    def passed(self, rel_tol: float) -> bool:
        return self.max_rel_err < rel_tol


def finite_difference_check(
    f, x: Tensor, rel_tol: float = 1e-5, step: float = 1e-5
) -> FiniteDifferenceReport:
    """Compare the taped gradient of scalar-valued `f` at `x` against central differences.

    Requires float64 input; float32 cannot separate true gradient error from
    round-off at these step sizes.  `f` must be deterministic (re-seed any
    internal randomness per call).  Relative error per coordinate uses
    denominator max(|ad|, |fd|, 1e-4), so coordinates that are numerically
    zero on both sides compare absolutely at rel_tol * 1e-4.
    """
    if x.dtype != np.dtype(np.float64):
        raise ContractError("finite_difference_check requires a float64 tensor")
    x.requires_grad = True
    x.grad = None
    with Tape() as tape:
        y = f(x)
        if not isinstance(y, Tensor) or y.size != 1:
            raise ContractError("finite_difference_check: f must return a scalar Tensor")
        backward(tape, y)
    ad = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = fd.reshape(-1)
    for i in range(flat.size):
        v = flat[i]
        flat[i] = v + step
        hi = f(x).item()
        flat[i] = v - step
        lo = f(x).item()
        flat[i] = v
        fd_flat[i] = (hi - lo) / (2.0 * step)

    abs_err = np.abs(ad - fd)
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-4)
    rel_err = abs_err / denom
    worst = np.unravel_index(int(np.argmax(rel_err)), rel_err.shape) if rel_err.size else ()
    return FiniteDifferenceReport(
        max_rel_err=float(rel_err.max()) if rel_err.size else 0.0,
        max_abs_err=float(abs_err.max()) if abs_err.size else 0.0,
        worst_index=worst,
        ad_grad=ad,
        fd_grad=fd,
    )
