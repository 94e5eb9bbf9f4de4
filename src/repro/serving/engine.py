"""Fixed-shape captured-graph inference engine.

The serving forward is one forward-only :class:`repro.autograd.graph.Program`
(kernel label ``serving.replay``): the network's forward is recorded once
over a preallocated ``(B, in_features)`` input buffer and every subsequent
request replays the flat kernel schedule — no Tensor boxes, no graph
construction, no Python autograd overhead per request.  The program
re-records itself after a structural change (e.g. ``set_masks``).  The input
buffer is a declared input, so every kernel that reads it replays; kernels
that read only frozen parameters (a loaded artifact's) fold out of the
replay.

**The fixed-shape invariant.**  BLAS matmul kernels choose different
instruction schedules for different matrix shapes, so the low-order bits of a
row's logits can depend on *how many other rows shared its batch*.  That
would make a batching server non-deterministic: the same row could yield
different bits depending on which concurrent requests it was coalesced with.
The engine therefore evaluates **every** row at one constant micro-batch
shape ``B``, zero-padding partial chunks.  Zero pad rows do not perturb the
real rows' bits (matmul row independence), so

    run(rows A) ++ run(rows B)  ==  run(rows A ++ B)   (bitwise)

for any grouping of rows into requests — the property the batched HTTP
server relies on to return exactly the outputs a serial client would see.

If capture is impossible (an op without a forward thunk), the program
permanently falls back to an eager forward **over the same fixed-shape
buffer**, preserving the invariant at reduced speed.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.autograd.graph import Program
from repro.autograd.tensor import Tensor
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.observability.metrics import get_registry

_ENGINE_ROWS = get_registry().counter(
    "serving_engine_rows", "feature rows evaluated by the inference engine"
)
_ENGINE_REPLAYS = get_registry().counter(
    "serving_engine_replays", "fixed-shape graph replays executed by the inference engine"
)

#: Default micro-batch shape.  Large enough that batched serving amortizes
#: per-replay overhead, small enough that single-row latency (one padded
#: replay) stays cheap for the paper's tiny classifiers.
DEFAULT_MICRO_BATCH = 32


class InferenceEngine:
    """Forward-only replay of a frozen pNC at one constant batch shape.

    Parameters
    ----------
    net:
        An inference-mode network (``net.eval()``, analytic power mode) —
        typically the product of :func:`repro.serving.artifact.load_artifact`.
    micro_batch:
        The fixed shape ``B``; requests are chunked/padded to it.
    """

    def __init__(self, net: PrintedNeuralNetwork, micro_batch: int = DEFAULT_MICRO_BATCH):
        if micro_batch < 2:
            # B == 1 would hit numpy's GEMV path, whose bits differ from the
            # GEMM path used at B >= 2 — the one shape that breaks grouping
            # invariance.
            raise ValueError("micro_batch must be at least 2")
        self.net = net
        self.micro_batch = int(micro_batch)
        self._buffer = Tensor(np.zeros((self.micro_batch, net.in_features)))
        self._lock = threading.Lock()
        self._capture()

    # ------------------------------------------------------------------
    def _capture(self) -> None:
        self._program = Program(self.net.forward, "serving.replay", inputs=(self._buffer,))
        self._program.capture(self._buffer)

    @property
    def n_ops(self) -> int:
        """Kernels per replay (0 when running eager)."""
        return self._program.n_ops

    @property
    def is_captured(self) -> bool:
        return self._program.captured

    # ------------------------------------------------------------------
    def _forward_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Evaluate ``chunk`` (≤ B rows) at the fixed shape; return its logits."""
        n = len(chunk)
        self._buffer.data[:n] = chunk
        if n < self.micro_batch:
            self._buffer.data[n:] = 0.0
        (logits,) = self._program.run(self._buffer)
        if self._program.captured:
            _ENGINE_REPLAYS.inc()
        return logits.data[:n].copy()

    def run(self, x: np.ndarray) -> np.ndarray:
        """Logits ``(n, out_features)`` for ``x`` of shape ``(n, in_features)``.

        Thread-safe (one replay at a time — the buffers are shared state);
        results are bitwise independent of how rows are split across calls.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.net.in_features:
            raise ValueError(
                f"expected (n, {self.net.in_features}) feature rows, got shape {x.shape}"
            )
        outputs = np.empty((len(x), self.net.out_features))
        with self._lock:
            for start in range(0, len(x), self.micro_batch):
                chunk = x[start:start + self.micro_batch]
                outputs[start:start + len(chunk)] = self._forward_chunk(chunk)
        _ENGINE_ROWS.inc(len(x))
        return outputs
