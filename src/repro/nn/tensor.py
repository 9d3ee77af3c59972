"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  A ``Tensor`` wraps a ``numpy.ndarray`` and records
the operations applied to it so that gradients can be computed with a single
call to :meth:`Tensor.backward`.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray), matching
  the familiar PyTorch convention (``zero_grad`` between steps).
* All binary operations support NumPy broadcasting; the backward pass
  un-broadcasts gradients with :func:`_unbroadcast`.
* A module-level depth counter (:class:`no_grad`) disables graph
  construction for inference-only code paths.  Ops taken under ``no_grad``
  (or whose parents all have ``requires_grad=False``) go through a fast
  constructor that skips every piece of graph bookkeeping.
* Backward closures hand freshly-allocated gradient arrays to
  :meth:`Tensor._accumulate` with ``owned=True`` so the array itself becomes
  the gradient buffer — no defensive copy.  Arrays that may alias the
  incoming output gradient (pass-through grads in ``+``/``-``, reshapes,
  transposes, slices) are handed over with ``owned=False`` and copied once.
* ``float32`` is the default dtype; gradient-check tests use ``float64``.
  Scalar constants enter ops as *weak* Python scalars wherever possible so
  NumPy 2's promotion rules (NEP 50) cannot silently upcast a ``float32``
  pipeline to ``float64``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from . import profiler as _prof
from .erf import erf as _erf

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
]

DEFAULT_DTYPE = np.float32

# Depth of nested no_grad() contexts.  Grad is enabled iff the depth is 0.
# A counter (rather than a saved boolean) makes interleaved or out-of-order
# exits safe: suspended generators that entered no_grad() and are closed
# late can never leave gradients globally disabled (or re-enabled while
# another no_grad() is still active).
_NO_GRAD_DEPTH = 0


class no_grad:
    """Context manager that disables autograd graph construction.

    Re-entrant and exception-safe.  Each ``with no_grad():`` increments a
    module-level depth counter on entry and decrements it on exit, so any
    interleaving of entries and exits — including generators suspended
    inside the context and finalised out of order — restores the correct
    global state.

    Example
    -------
    >>> with no_grad():
    ...     y = model(x)  # no backward graph is recorded
    """

    __slots__ = ("_entered",)

    def __init__(self):
        self._entered = 0

    def __enter__(self) -> "no_grad":
        global _NO_GRAD_DEPTH
        _NO_GRAD_DEPTH += 1
        self._entered += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _NO_GRAD_DEPTH
        if self._entered > 0:
            self._entered -= 1
            if _NO_GRAD_DEPTH > 0:
                _NO_GRAD_DEPTH -= 1
        return False


def is_grad_enabled() -> bool:
    """Return whether autograd graph construction is currently enabled."""
    return _NO_GRAD_DEPTH == 0


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing NumPy broadcasting.

    Broadcasting can (a) prepend new axes and (b) stretch axes of size one.
    Both effects are inverted by summing.  When no reduction is needed the
    input array is returned as-is, so callers can detect pass-through
    gradients with an identity check (see ``owned`` in ``_accumulate``).
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra_axes = grad.ndim - len(shape)
    if extra_axes > 0:
        grad = grad.sum(axis=tuple(range(extra_axes)))
    # Sum over stretched axes (original size 1).
    squeeze_axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, dtype=None) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, or sequence) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


def _result_tensor(data) -> "Tensor":
    """Fast constructor for op results that carry no graph state.

    Skips all of ``Tensor.__init__`` (dtype policy, flag plumbing): the
    payload is already an ndarray produced by a NumPy op on validated
    inputs.  This is the ``no_grad`` fast path.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.requires_grad = False
    out.grad = None
    out._backward = None
    out._prev = ()
    out.name = ""
    return out


def _make_node(data, parents: tuple) -> "Tensor":
    """Create an op-result tensor, recording ``parents`` when grad is on.

    Callers attach a backward closure iff ``out.requires_grad``.
    """
    if not _NO_GRAD_DEPTH:
        for parent in parents:
            if parent.requires_grad:
                out = Tensor.__new__(Tensor)
                out.data = data if type(data) is np.ndarray else np.asarray(data)
                out.requires_grad = True
                out.grad = None
                out._backward = None
                out._prev = parents
                out.name = ""
                return out
    return _result_tensor(data)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Integer/bool payloads are kept as-is (useful for
        index tensors); floats are coerced to ``dtype``.
    requires_grad:
        If True, operations involving this tensor are recorded so that
        :meth:`backward` can populate ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=None,
        _prev: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        was_ndarray = isinstance(data, (np.ndarray, np.generic))
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype, copy=False)
        elif array.dtype.kind == "f":
            # Preserve explicit ndarray dtypes (float64 grad checks rely on
            # this); coerce Python floats/lists to the library default.
            if not was_ndarray or array.dtype.itemsize < np.dtype(DEFAULT_DTYPE).itemsize:
                array = array.astype(DEFAULT_DTYPE, copy=False)
        elif array.dtype.kind not in "iub":
            array = array.astype(DEFAULT_DTYPE, copy=False)
        self.data: np.ndarray = array
        self.requires_grad = bool(requires_grad) and not _NO_GRAD_DEPTH
        self.grad: np.ndarray | None = None
        self._backward = _backward
        self._prev = tuple(_prev) if self.requires_grad or _backward else ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
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

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def astype(self, dtype) -> "Tensor":
        out = self._make(self.data.astype(dtype), (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad.astype(self.data.dtype), owned=True)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    def _make(self, data, parents: tuple) -> "Tensor":
        return _make_node(data, parents)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Accumulate ``grad`` into ``self.grad``.

        ``owned=True`` asserts that ``grad`` is a freshly-allocated array
        (or a view of one) that no other tensor references: it is adopted
        directly as the gradient buffer instead of being copied.  This is
        the buffer-reuse fast path of the backward pass.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and type(grad) is np.ndarray and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_unbroadcast(self, grad: np.ndarray) -> None:
        """Un-broadcast then accumulate a possibly pass-through gradient.

        ``_unbroadcast`` allocates a fresh array iff it reduces, so the
        result is owned exactly when it is not the input array.
        """
        reduced = _unbroadcast(grad, self.data.shape)
        self._accumulate(reduced, owned=reduced is not grad)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def stop_gradient(self) -> "Tensor":
        """Alias for :meth:`detach`, named as in the TimeDRL paper (Eq. 16)."""
        return self.detach()

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ones (only valid for scalar outputs
            this is the conventional ``dL/dL = 1``).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        profiled = _prof._ACTIVE
        if profiled:
            _prof._profiler.push("Tensor.backward")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        try:
            self._accumulate(grad)
            for node in reversed(topo):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        finally:
            if profiled:
                _prof._profiler.pop()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make(self.data + other.data, (self, other))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate_unbroadcast(grad)
                other._accumulate_unbroadcast(grad)

            out._backward = _backward
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make(self.data - other.data, (self, other))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate_unbroadcast(grad)
                other._accumulate(_unbroadcast(-grad, other.shape), owned=True)

            out._backward = _backward
        return out

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make(self.data * other.data, (self, other))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(_unbroadcast(grad * other.data, self.shape), owned=True)
                other._accumulate(_unbroadcast(grad * self.data, other.shape), owned=True)

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make(self.data / other.data, (self, other))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(_unbroadcast(grad / other.data, self.shape), owned=True)
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape),
                    owned=True,
                )

            out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(-grad, owned=True)

            out._backward = _backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make(self.data**exponent, (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

            out._backward = _backward
        return out

    def __matmul__(self, other) -> "Tensor":
        """Matrix multiplication with batched-matmul support.

        Supported operand shapes: both operands >= 2-D (with broadcasting of
        batch dimensions), 1-D (.) 1-D dot products, 2-D @ 1-D, and 1-D @ 2-D.
        """
        other = as_tensor(other)
        if _prof._ACTIVE:
            t0 = _prof._now()
            data = np.matmul(self.data, other.data)
            _prof._profiler.record("Tensor.matmul", _prof._now() - t0,
                                   getattr(data, "nbytes", 0))
        else:
            data = np.matmul(self.data, other.data)
        out = self._make(data, (self, other))
        if out.requires_grad:
            a, b = self.data, other.data

            def _backward(grad):
                if _prof._ACTIVE:
                    t0 = _prof._now()
                if a.ndim == 1 and b.ndim == 1:  # dot product -> scalar
                    self._accumulate(grad * b, owned=True)
                    other._accumulate(grad * a, owned=True)
                elif a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                    self._accumulate(b @ grad, owned=True)
                    other._accumulate(np.outer(a, grad), owned=True)
                elif b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                    self._accumulate(
                        _unbroadcast(grad[..., None] * b, self.shape), owned=True
                    )
                    grad_b = (a * grad[..., None]).reshape(-1, b.shape[0]).sum(axis=0)
                    other._accumulate(grad_b, owned=True)
                else:  # (..., m, k) @ (..., k, n) -> (..., m, n)
                    grad_a = np.matmul(grad, np.swapaxes(b, -1, -2))
                    grad_b = np.matmul(np.swapaxes(a, -1, -2), grad)
                    self._accumulate(_unbroadcast(grad_a, self.shape), owned=True)
                    other._accumulate(_unbroadcast(grad_b, other.shape), owned=True)
                if _prof._ACTIVE:
                    _prof._profiler.record("Tensor.matmul.backward", _prof._now() - t0)

            out._backward = _backward
        return out

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).__matmul__(self)

    # ------------------------------------------------------------------
    # Comparisons (produce plain ndarrays; no gradient flows)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad.reshape(self.shape))

            out._backward = _backward
        return out

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes_arg = axes if axes else None
        out = self._make(np.transpose(self.data, axes_arg), (self,))
        if out.requires_grad:
            if axes_arg is None:
                inverse = None
            else:
                inverse = tuple(np.argsort(axes_arg))

            def _backward(grad):
                self._accumulate(np.transpose(grad, inverse))

            out._backward = _backward
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out = self._make(np.swapaxes(self.data, axis1, axis2), (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(np.swapaxes(grad, axis1, axis2))

            out._backward = _backward
        return out

    def broadcast_to(self, shape) -> "Tensor":
        """Differentiable ``numpy.broadcast_to`` (read-only view forward)."""
        shape = tuple(shape)
        out = self._make(np.broadcast_to(self.data, shape), (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate_unbroadcast(grad)

            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        out = self._make(self.data[index], (self,))
        if out.requires_grad:

            def _backward(grad):
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full, owned=True)

            out._backward = _backward
        return out

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows ``numpy.pad`` conventions."""
        out = self._make(np.pad(self.data, pad_width), (self,))
        if out.requires_grad:
            slices = tuple(
                slice(before, before + size)
                for (before, __), size in zip(pad_width, self.shape)
            )

            def _backward(grad):
                self._accumulate(grad[slices])

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:

            def _backward(grad):
                expanded = grad
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    axes = tuple(a % self.ndim for a in axes)
                    for a in sorted(axes):
                        expanded = np.expand_dims(expanded, a)
                self._accumulate(np.broadcast_to(expanded, self.shape))

            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        # float(count): a weak Python scalar, so a float32 pipeline is not
        # upcast to float64 by NumPy 2 promotion (an int tensor divisor
        # would be int64 and promote).
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(out_data, (self,))
        if out.requires_grad:

            def _backward(grad):
                expanded_out = self.data.max(axis=axis, keepdims=True)
                expanded_grad = grad
                if axis is not None and not keepdims:
                    expanded_grad = np.expand_dims(grad, axis)
                elif axis is None and not keepdims:
                    expanded_grad = np.full(self.shape, grad)
                mask = self.data == expanded_out
                counts = mask.sum(axis=axis, keepdims=True)
                self._accumulate(mask * expanded_grad / counts, owned=True)

            out._backward = _backward
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = self._make(out_data, (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * out_data, owned=True)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad / self.data, owned=True)

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        out = self._make(out_data, (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * 0.5 / out_data, owned=True)

            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * np.sign(self.data), owned=True)

            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = self._make(out_data, (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * (1.0 - out_data**2), owned=True)

            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(out_data, (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make(self.data * mask, (self,))
        if out.requires_grad:

            def _backward(grad):
                self._accumulate(grad * mask, owned=True)

            out._backward = _backward
        return out

    def erf(self) -> "Tensor":
        out = self._make(_erf(self.data), (self,))
        if out.requires_grad:
            # float(): keep the coefficient a weak scalar so float32 inputs
            # do not promote the gradient chain to float64 under NEP 50.
            coeff = float(2.0 / np.sqrt(np.pi))

            def _backward(grad):
                self._accumulate(grad * coeff * np.exp(-self.data**2), owned=True)

            out._backward = _backward
        return out


# ----------------------------------------------------------------------
# Module-level multi-tensor operations
# ----------------------------------------------------------------------
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``numpy.concatenate`` over a sequence of tensors."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _make_node(data, tuple(tensors))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward(grad):
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                indexer = [slice(None)] * grad.ndim
                indexer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(indexer)])

        out._backward = _backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``numpy.stack``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = _make_node(data, tuple(tensors))
    if out.requires_grad:

        def _backward(grad):
            slabs = np.moveaxis(grad, axis, 0)
            for tensor, slab in zip(tensors, slabs):
                tensor._accumulate(slab)

        out._backward = _backward
    return out


def where(condition, a, b) -> Tensor:
    """Differentiable ``numpy.where`` (no gradient flows to ``condition``)."""
    condition = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a, b = as_tensor(a), as_tensor(b)
    data = np.where(condition, a.data, b.data)
    out = _make_node(data, (a, b))
    if out.requires_grad:

        def _backward(grad):
            a._accumulate(_unbroadcast(grad * condition, a.shape), owned=True)
            b._accumulate(_unbroadcast(grad * (~condition), b.shape), owned=True)

        out._backward = _backward
    return out


def maximum(a, b) -> Tensor:
    """Differentiable elementwise maximum (ties send gradient to ``a``)."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data >= b.data, a, b)


def minimum(a, b) -> Tensor:
    """Differentiable elementwise minimum (ties send gradient to ``a``)."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data <= b.data, a, b)
