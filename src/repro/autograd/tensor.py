"""Reverse-mode autodiff tensor built on numpy.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it in a dynamically built computational graph.  Calling
:meth:`Tensor.backward` walks the graph in reverse topological order and
accumulates gradients into every reachable leaf that has ``requires_grad``.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects stored on ``Tensor.grad``;
  they always have exactly the shape of ``Tensor.data``.
* Broadcasting is handled by :func:`unbroadcast`, which sums a gradient back
  down to the shape the operand originally had.
* A module-level switch (:func:`no_grad`) disables graph recording, matching
  the PyTorch inference idiom the paper's evaluation loops use.
* Only float64 data participates in differentiation; integer tensors may be
  created for indexing but never require gradients.

Capture & replay support
------------------------
Every op carries a *forward thunk* — a pure function from parent arrays to
the output array (``_fwd``).  Under :func:`graph_capture` each produced node
also retains its parents (even inside ``no_grad``), which lets
:class:`repro.autograd.graph.CapturedGraph` record the op sequence of one
eager epoch and replay later epochs as a flat loop over numpy kernels
writing into the *same* preallocated output buffers.  Two invariants make
replay bit-identical to eager:

* backward closures reference the parent/output ``ndarray`` *objects*, and
  replay updates those arrays in place, so the closures recorded during the
  capture epoch stay valid (closures must never cache *derived* arrays —
  see ``relu``/``clip``/``abs``/``max``, which recompute inside backward);
* values that are data-dependent but non-differentiable (branch masks,
  straight-through corrections, implicit-solve results) are wrapped in
  :func:`constant_of` nodes whose recompute function reruns at replay.
  Their inputs live in ``_deps`` — a replay-only edge list that
  :meth:`Tensor.backward` never traverses, so gradient accumulation order
  (and therefore every float) is identical with capture on or off.
"""

from __future__ import annotations

import contextlib
import threading
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_capturing() -> bool:
    """Whether ops currently retain replay structure (parents + thunks)."""
    return getattr(_GRAD_STATE, "capturing", False)


@contextlib.contextmanager
def graph_capture():
    """Record replay structure on every op created inside the block.

    Orthogonal to :func:`no_grad`: an inference forward can be captured
    (parents and forward thunks are retained) without any gradient
    bookkeeping.  Values and gradients are unaffected — capture only keeps
    extra references.
    """
    previous = is_capturing()
    _GRAD_STATE.capturing = True
    try:
        yield
    finally:
        _GRAD_STATE.capturing = previous


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can (a) prepend axes and (b) stretch axes of size one.  The
    gradient of a broadcast operand is the sum of the output gradient over all
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size one.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def tensor(value, requires_grad: bool = False) -> "Tensor":
    """Create a :class:`Tensor` from any array-like value."""
    return Tensor(value, requires_grad=requires_grad)


def matmul_transposed(g: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``g @ wᵀ`` (into ``out`` when given), with the bits of the GEMM.

    With one column in ``g`` (K = 1, the gradient entering a one-output
    layer) the GEMM is one rounded product per element, the broadcast
    multiply's bits, except that it writes +0 where the product is -0; the
    ``+ 0.0`` restores that.  OpenBLAS runs such an outer product about
    twice as slow as the two passes (204 against 108 µs for a float64
    1024 × 64 gradient, 139 against 47 µs for float32 756 × 64, on a 2-vCPU
    x86-64 host).
    """
    w_t = np.swapaxes(w, -1, -2)
    if g.shape[-1] == 1:
        out = np.multiply(g, w_t, out=out)
        return np.add(out, 0.0, out=out)
    return np.matmul(g, w_t, out=out)


# ----------------------------------------------------------------------
# Module-level forward kernels (shared by eager compute and graph replay;
# the numpy ufuncs among them additionally support buffer donation via
# ``out=`` during replay).
# ----------------------------------------------------------------------

def _sigmoid_kernel(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(a, -500, 500)))


def _relu_kernel(a: np.ndarray) -> np.ndarray:
    return a * (a > 0)


def _topo_order(root: "Tensor") -> list["Tensor"]:
    """Reverse-topological DFS order over ``_parents`` (iterative)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _run_backward(
    root: "Tensor",
    order: Sequence["Tensor"],
    grad: np.ndarray,
    timings: list[float] | None = None,
) -> None:
    """Propagate ``grad`` from ``root`` along a precomputed topo ``order``.

    Shared by :meth:`Tensor.backward` (fresh order per call) and
    :class:`~repro.autograd.graph.CapturedGraph` (cached order), so replayed
    backward passes accumulate in exactly the eager order.

    With ``timings`` (len(order) floats), the inter-reading interval per
    visited node is accumulated into ``timings[i]``, ``i`` being the
    position in the reversed order — the per-kernel attribution used by
    ``repro profile --kernels``.  Skipped nodes (no gradient reached them)
    fold into the next visited kernel's interval.
    """
    grads: dict[int, np.ndarray] = {id(root): grad}
    if timings is None:
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad
                node._accumulate(node_grad)
            if node._backward is not None:
                node._push_parent_grads(node_grad, grads)
        return
    t_prev = perf_counter()
    for i, node in enumerate(reversed(order)):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if node.requires_grad and node._backward is None:
            node._accumulate(node_grad)
        if node._backward is not None:
            node._push_parent_grads(node_grad, grads)
        t_now = perf_counter()
        timings[i] += t_now - t_prev
        t_prev = t_now


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_deps", "_fwd", "name")
    __array_priority__ = 100.0  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._deps: tuple[Tensor, ...] = ()
        self._fwd: Callable[..., np.ndarray] | None = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
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
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def item(self) -> float:
        """Return the scalar payload of a single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    @staticmethod
    def _raise_item() -> float:
        raise ValueError("item() only valid for single-element tensors")

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying array (detached from the graph)."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph.

        The result shares ``self``'s array, so under replay (which updates
        arrays in place) a captured detached node tracks its source with no
        recompute — it is skipped as an aliasing node by the scheduler.
        """
        out = Tensor(self.data, requires_grad=False)
        if is_capturing():
            out._deps = (self,)
            out._fwd = _identity
        return out

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        fwd: Callable[..., np.ndarray] | None = None,
    ) -> "Tensor":
        """Create a graph node if gradients are enabled and needed.

        ``fwd`` is the pure forward thunk ``fwd(*parent_arrays) -> array``
        used by graph replay; it must produce bit-identical values to the
        eager computation that produced ``data``.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        if is_capturing():
            if not requires:
                out._parents = tuple(parents)
            out._fwd = fwd
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Incoming gradient; defaults to ones (required to be omitted only
            for scalar outputs, mirroring PyTorch).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        _run_backward(self, _topo_order(self), grad)

    def _push_parent_grads(self, node_grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Invoke the local backward fn, routing parent grads via ``grads``."""
        parent_grads = self._backward(node_grad)
        if parent_grads is None:
            return
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not parent.requires_grad:
                continue
            pgrad = unbroadcast(np.asarray(pgrad, dtype=np.float64), parent.data.shape)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pgrad
            else:
                grads[key] = pgrad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data
        return Tensor._make(data, (self, other_t), lambda g: (g, g), fwd=np.add)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,), fwd=np.negative)

    def __sub__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data
        return Tensor._make(data, (self, other_t), lambda g: (g, -g), fwd=np.subtract)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    # The binary ops below compute an operand's gradient only when that
    # operand requires one (``_push_parent_grads`` would drop it anyway): a
    # product with frozen surrogate weights pays for one side only.
    def __mul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data
        a, b = self.data, other_t.data

        def backward(g: np.ndarray):
            return (
                g * b if self.requires_grad else None,
                g * a if other_t.requires_grad else None,
            )

        return Tensor._make(data, (self, other_t), backward, fwd=np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other_t.data
        data = a / b

        def backward(g: np.ndarray):
            return (
                g / b if self.requires_grad else None,
                -g * a / (b * b) if other_t.requires_grad else None,
            )

        return Tensor._make(data, (self, other_t), backward, fwd=np.true_divide)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self.data
        data = a**exponent
        return Tensor._make(
            data,
            (self,),
            lambda g: (g * exponent * a ** (exponent - 1),),
            fwd=lambda x: x**exponent,
        )

    def __matmul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other_t.data
        data = a @ b

        def backward(g: np.ndarray):
            need_a, need_b = self.requires_grad, other_t.requires_grad
            if a.ndim == 1 and b.ndim == 1:
                return (g * b if need_a else None, g * a if need_b else None)
            if a.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                return (g @ b.T if need_a else None, np.outer(a, g) if need_b else None)
            if b.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                return (np.outer(g, b) if need_a else None, a.T @ g if need_b else None)
            ga = matmul_transposed(g, b) if need_a else None
            gb = np.swapaxes(a, -1, -2) @ g if need_b else None
            return (ga, gb)

        return Tensor._make(data, (self, other_t), backward, fwd=np.matmul)

    def __rmatmul__(self, other) -> "Tensor":
        return Tensor(other) @ self

    # Comparisons return plain numpy bool arrays (no gradient flows).
    def __gt__(self, other):
        return self.data > _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        target = shape
        data = self.data.reshape(target)
        return Tensor._make(
            data, (self,), lambda g: (g.reshape(original),), fwd=lambda a: a.reshape(target)
        )

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        """Read-only broadcast view: no kernel under replay, it tracks its source."""
        shape = tuple(shape)
        original = self.data.shape
        return Tensor._make(
            np.broadcast_to(self.data, shape),
            (self,),
            lambda g: (unbroadcast(g, original),),
            fwd=lambda a: np.broadcast_to(a, shape),
        )

    def transpose(self, axes: Iterable[int] | None = None) -> "Tensor":
        axes_t = tuple(axes) if axes is not None else None
        data = np.transpose(self.data, axes_t)
        if axes_t is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes_t))

        def backward(g: np.ndarray):
            return (np.transpose(g, inverse),)

        return Tensor._make(data, (self,), backward, fwd=lambda a: np.transpose(a, axes_t))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape

        def backward(g: np.ndarray):
            out = np.zeros(shape, dtype=np.float64)
            np.add.at(out, index, g)
            return (out,)

        return Tensor._make(data, (self,), backward, fwd=lambda a: a[index])

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, shape).copy(),)

        return Tensor._make(
            data, (self,), backward, fwd=lambda a: a.sum(axis=axis, keepdims=keepdims)
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        source = self.data

        # The argmax mask is recomputed inside backward from the *current*
        # input array, never cached — required for graph replay, where the
        # same closure runs against in-place-updated buffers.
        def backward(g: np.ndarray):
            current = source.max(axis=axis, keepdims=keepdims)
            if axis is None:
                mask = (source == current).astype(np.float64)
                mask /= mask.sum()
                return (mask * g,)
            expanded = current if keepdims else np.expand_dims(current, axis)
            mask = (source == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (mask * np.broadcast_to(g_expanded, source.shape),)

        return Tensor._make(
            data, (self,), backward, fwd=lambda a: a.max(axis=axis, keepdims=keepdims)
        )

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    # NOTE on the ops below, whose backward closure references the *output*
    # value: ``data`` must be normalized to a float64 ndarray before the
    # closure captures it.  For 0-d inputs numpy arithmetic yields an
    # immutable ``np.float64`` scalar; ``Tensor.__init__``'s asarray would
    # then allocate a fresh 0-d array for ``node.data``, and graph replay
    # (which writes into ``node.data`` in place) could never reach the
    # frozen scalar inside the closure.  Normalizing first makes the closure
    # cell *be* ``node.data``.
    def exp(self) -> "Tensor":
        data = np.asarray(np.exp(self.data), dtype=np.float64)
        return Tensor._make(data, (self,), lambda g: (g * data,), fwd=np.exp)

    def log(self) -> "Tensor":
        a = self.data
        return Tensor._make(np.log(a), (self,), lambda g: (g / a,), fwd=np.log)

    def sqrt(self) -> "Tensor":
        data = np.asarray(np.sqrt(self.data), dtype=np.float64)
        return Tensor._make(data, (self,), lambda g: (g * 0.5 / data,), fwd=np.sqrt)

    def abs(self) -> "Tensor":
        a = self.data
        return Tensor._make(
            np.abs(self.data), (self,), lambda g: (g * np.sign(a),), fwd=np.absolute
        )

    def tanh(self) -> "Tensor":
        data = np.asarray(np.tanh(self.data), dtype=np.float64)
        return Tensor._make(data, (self,), lambda g: (g * (1.0 - data * data),), fwd=np.tanh)

    def sigmoid(self) -> "Tensor":
        data = np.asarray(_sigmoid_kernel(self.data), dtype=np.float64)
        return Tensor._make(
            data, (self,), lambda g: (g * data * (1.0 - data),), fwd=_sigmoid_kernel
        )

    def relu(self) -> "Tensor":
        a = self.data
        return Tensor._make(
            _relu_kernel(a), (self,), lambda g: (g * (a > 0),), fwd=_relu_kernel
        )

    def clip(self, low: float, high: float) -> "Tensor":
        a = self.data
        data = np.clip(a, low, high)
        return Tensor._make(
            data,
            (self,),
            lambda g: (g * ((a >= low) & (a <= high)),),
            fwd=lambda x: np.clip(x, low, high),
        )

    def where(self, condition: "np.ndarray | Tensor", other: "Tensor") -> "Tensor":
        """Select ``self`` where ``condition`` else ``other``.

        ``condition`` carries no gradient.  A plain ndarray condition is
        baked into the node (static mask); a :class:`Tensor` condition is
        recorded as a replay dependency, so data-dependent masks (e.g. a
        sign test on a trained parameter) are re-evaluated on every replay.
        """
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        if isinstance(condition, Tensor):
            cond_node = condition
            data = np.where(cond_node.data != 0.0, self.data, other_t.data)

            def backward_dyn(g: np.ndarray):
                cond = cond_node.data != 0.0
                return (np.where(cond, g, 0.0), np.where(cond, 0.0, g))

            out = Tensor._make(
                data,
                (self, other_t),
                backward_dyn,
                fwd=lambda a, b, c: np.where(c != 0.0, a, b),
            )
            if is_capturing():
                out._deps = out._deps + (cond_node,)
            return out

        cond = np.asarray(condition, dtype=bool)
        data = np.where(cond, self.data, other_t.data)

        def backward(g: np.ndarray):
            return (np.where(cond, g, 0.0), np.where(cond, 0.0, g))

        return Tensor._make(
            data, (self, other_t), backward, fwd=lambda a, b: np.where(cond, a, b)
        )


def _identity(a: np.ndarray) -> np.ndarray:
    return a


def constant_of(fn: Callable[..., np.ndarray], *inputs: Tensor) -> Tensor:
    """A gradient-free node recomputed from ``inputs`` on graph replay.

    Replaces the ``Tensor(derived_numpy_value)`` idiom (straight-through
    corrections, branch masks, implicit-function solutions) wherever the
    derived value depends on tensors that change between epochs.  Outside
    capture this is exactly ``Tensor(fn(*[t.data for t in inputs]))``; under
    capture the inputs are recorded as replay-only dependencies (``_deps``),
    which the backward DFS never walks — eager gradient accumulation order
    is untouched by capture mode.
    """
    value = fn(*[t.data for t in inputs])
    out = Tensor(np.asarray(value, dtype=np.float64))
    if is_capturing():
        out._deps = tuple(inputs)
        out._fwd = fn
    return out


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    arrays = [t.data for t in tensors]
    data = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        slices = []
        for i in range(len(arrays)):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            slices.append(g[tuple(idx)])
        return tuple(slices)

    return Tensor._make(
        data, tuple(tensors), backward, fwd=lambda *parts: np.concatenate(parts, axis=axis)
    )


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(
        data, tuple(tensors), backward, fwd=lambda *parts: np.stack(parts, axis=axis)
    )
