"""Monte-Carlo robustness analysis of trained printed circuits.

Printing scatters every component (see :mod:`repro.pdk.variation`); a design
that only works at the nominal corner is not manufacturable.  This module
samples printed instances of a trained :class:`PrintedNeuralNetwork`,
re-evaluates accuracy and power per instance, and reports distributional
statistics plus *parametric yield*: the fraction of instances that both stay
within the power budget and clear an accuracy floor.

Two execution paths produce bit-identical per-instance results:

- the serial loop (:func:`evaluate_instances`) — one eager forward per
  instance, perturbing the network in place;
- the vectorized engine (:func:`evaluate_instances_vectorized`) — instances
  stacked on a leading axis and evaluated in fixed-shape chunks by the
  captured-graph :class:`~repro.circuits.ensemble.EnsembleProgram`.

Both compose with the process pool (``n_jobs``): workers shard *chunks of
instances*, and because every instance draws from its own pre-spawned
``SeedSequence``, the report does not depend on chunking, job count, or
which path evaluated an instance.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd import functional as F
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.observability.metrics import get_registry
from repro.observability.tracing import trace_span
from repro.pdk.variation import VariationSpec, perturb_q, perturb_theta, perturb_model_card

logger = logging.getLogger(__name__)

_MC_INSTANCES = get_registry().counter(
    "montecarlo_instances_total", "Monte-Carlo printed instances evaluated"
)
_MC_CHUNK_SECONDS = get_registry().histogram(
    "montecarlo_chunk_seconds", "wall time per evaluated Monte-Carlo chunk"
)


def _record_chunk(
    run_logger,
    instances: int,
    duration_s: float,
    vectorized: bool,
    chunk_index: int,
    start: int,
) -> None:
    """Count one evaluated chunk in metrics and (optionally) the run log."""
    _MC_INSTANCES.inc(instances)
    _MC_CHUNK_SECONDS.observe(duration_s)
    if run_logger is not None:
        run_logger.emit(
            "montecarlo",
            instances=int(instances),
            duration_s=float(duration_s),
            vectorized=bool(vectorized),
            chunk_index=int(chunk_index),
            start=int(start),
        )


@dataclass
class MonteCarloReport:
    """Result of a variation analysis run."""

    accuracies: np.ndarray
    powers: np.ndarray
    nominal_accuracy: float
    nominal_power: float
    power_budget: float | None
    accuracy_floor: float

    @property
    def n_samples(self) -> int:
        return len(self.accuracies)

    @property
    def accuracy_mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def accuracy_std(self) -> float:
        return float(self.accuracies.std())

    @property
    def power_mean(self) -> float:
        return float(self.powers.mean())

    @property
    def power_std(self) -> float:
        return float(self.powers.std())

    def quantile(self, q: float, what: str = "accuracy") -> float:
        values = self.accuracies if what == "accuracy" else self.powers
        if len(values) == 0:
            raise ValueError(
                f"cannot take a {what} quantile of an empty Monte-Carlo report "
                "(no instances were evaluated)"
            )
        return float(np.quantile(values, q))

    @property
    def parametric_yield(self) -> float:
        """Fraction of instances meeting both the budget and the floor.

        NaN-poisoned instances (e.g. from a crashed worker whose slots were
        never filled) compare false and therefore count as failures; an
        empty report yields 0.0.
        """
        if len(self.accuracies) == 0:
            return 0.0
        ok = self.accuracies >= self.accuracy_floor
        if self.power_budget is not None:
            ok &= self.powers <= self.power_budget
        return float(ok.mean())

    def summary(self) -> str:
        lines = [
            f"Monte-Carlo over {self.n_samples} printed instances",
            f"  nominal: acc {self.nominal_accuracy * 100:.2f}%, power {self.nominal_power * 1e3:.4f} mW",
            f"  accuracy: mean {self.accuracy_mean * 100:.2f}% ± {self.accuracy_std * 100:.2f}, "
            f"p5 {self.quantile(0.05) * 100:.2f}%",
            f"  power   : mean {self.power_mean * 1e3:.4f} mW ± {self.power_std * 1e3:.4f}, "
            f"p95 {self.quantile(0.95, 'power') * 1e3:.4f} mW",
        ]
        if self.power_budget is not None:
            lines.append(f"  budget  : {self.power_budget * 1e3:.4f} mW")
        lines.append(
            f"  yield   : {self.parametric_yield * 100:.1f}% "
            f"(acc ≥ {self.accuracy_floor * 100:.0f}%"
            + (", power ≤ budget)" if self.power_budget is not None else ")")
        )
        return "\n".join(lines)


#: Single-slot cache of the last (fingerprint, EnsembleProgram) built by
#: :func:`evaluate_instances_vectorized`.  Capturing the stacked graph is the
#: dominant one-time cost of the vectorized path (the eager capture forward
#: allocates every intermediate it records), so repeated runs against the same
#: network state — the CLI's single-net loop, warm benchmark iterations, pool
#: workers evaluating several chunk tasks — must not pay it again.  Matching
#: is by content fingerprint, not object identity: two unpickled copies of the
#: same network hash equal and can share one program (the program carries its
#: own parameter/base-θ copies, so results stay bit-identical).  One slot
#: bounds retained memory; a new fingerprint simply rebuilds.
_PROGRAM_CACHE: tuple | None = None


def _program_fingerprint(net: PrintedNeuralNetwork, x: np.ndarray, chunk: int) -> str:
    """Hash of everything an :class:`EnsembleProgram` bakes in at build time.

    ``state_dict`` covers only the learnable parameters (θ and the activation
    u's); the fine-tuning masks, negation design, logit scale, per-activation
    EGT model cards, the config and the training flag all shape the captured
    computation too and are hashed explicitly.  Any mismatch — masks installed,
    θ trained further, a different input matrix or chunk size — invalidates the
    cached program.
    """
    h = hashlib.sha1()
    digest = h.update

    def _arr(a: np.ndarray) -> None:
        digest(str(a.shape).encode())
        digest(np.ascontiguousarray(a).tobytes())

    digest(f"chunk={int(chunk)};training={bool(net.training)};".encode())
    digest(repr(net.config).encode())
    _arr(np.asarray(x))
    for name, value in sorted(net.state_dict().items()):
        digest(name.encode())
        _arr(value)
    for crossbar in net.crossbars():
        for mask in (crossbar._keep_mask, crossbar._positive_mask):
            digest(b"none" if mask is None else np.packbits(mask).tobytes())
    _arr(np.asarray(net.neg_q))
    digest(repr(float(net.logit_scale)).encode())
    for activation in net.activations():
        card = activation.transfer.model
        digest(repr((card.vth, card.k, card.n, card.phi)).encode())
    return h.hexdigest()


def _cached_program(net: PrintedNeuralNetwork, x: np.ndarray, chunk: int):
    """Return a cached :class:`EnsembleProgram` for ``net`` or build one."""
    global _PROGRAM_CACHE
    from repro.circuits.ensemble import EnsembleProgram

    fingerprint = _program_fingerprint(net, x, chunk)
    if _PROGRAM_CACHE is not None and _PROGRAM_CACHE[0] == fingerprint:
        return _PROGRAM_CACHE[1]
    program = EnsembleProgram(net, x, chunk)
    _PROGRAM_CACHE = (fingerprint, program)
    return program


def picklable_network(net: PrintedNeuralNetwork) -> PrintedNeuralNetwork:
    """Prepare ``net`` for shipping to worker processes (in place).

    After a grad-enabled or captured forward (an :class:`EnsembleProgram`
    build runs one) the network caches graph tensors (``signal_health``,
    ``soft_device_count``) whose closures are unpicklable; reset them to
    leaves.  Parameters and buffers are plain
    arrays and pickle fine.  Returns ``net`` for chaining.
    """
    net.signal_health = Tensor(0.0)
    net.soft_device_count = Tensor(0.0)
    return net


def evaluate_instances(
    net: PrintedNeuralNetwork,
    x: np.ndarray,
    y: np.ndarray,
    spec: VariationSpec,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one printed instance of ``net`` per generator in ``rngs``.

    The worker-side core of the Monte-Carlo loop: each instance perturbs
    crossbar conductances, activation-circuit parameters and the shared EGT
    model card with *its own* generator, so results depend only on the
    per-instance seed — not on which process or chunk evaluates it.  The
    network is restored to its entry state before returning.

    The keep/positive masks are shared across instances (only the variation
    draws differ), so the masked effective θ is materialized **once** per
    crossbar and the per-instance perturbation is applied to that base —
    observable via the ``effective_theta_computes`` counter, which ticks
    ``n_layers`` times per call instead of ``n_layers × n_instances``.
    Perturbing the effective θ is bitwise equal to masking the perturbed raw
    θ: noise is drawn full-shape either way, ``|θ·noise|`` shares magnitude
    bits with ``|θ|·noise``, and keep-masked zeros never exceed the prune
    threshold so they never vary.
    """
    state = net.state_dict()
    x_t = Tensor(x)
    threshold = net.config.pdk.prune_threshold_us
    accuracies = np.empty(len(rngs))
    powers = np.empty(len(rngs))
    nominal_models = [activation.transfer.model for activation in net.activations()]
    base_thetas = [crossbar.effective_theta().data.copy() for crossbar in net.crossbars()]
    try:
        for sample, rng in enumerate(rngs):
            net.load_state_dict(state)
            thetas = [
                Tensor(perturb_theta(base, spec, rng, prune_threshold=threshold))
                for base in base_thetas
            ]
            for activation, nominal_model in zip(net.activations(), nominal_models):
                varied_q = perturb_q(activation.q_values(), activation.space, spec, rng)
                # set_q clips into the design-space box; printing can land
                # slightly outside, which the box mapping saturates — an
                # acceptable approximation for bounded sigmas.
                activation.set_q(varied_q)
                activation.transfer.model = perturb_model_card(nominal_model, spec, rng)
            with no_grad():
                logits, breakdown = net.forward_with_power(x_t, thetas=thetas)
            accuracies[sample] = F.accuracy(logits, y)
            powers[sample] = float(breakdown.total.data)
    finally:
        net.load_state_dict(state)
        for activation, nominal_model in zip(net.activations(), nominal_models):
            activation.transfer.model = nominal_model
    return accuracies, powers


def evaluate_instances_vectorized(
    net: PrintedNeuralNetwork,
    x: np.ndarray,
    y: np.ndarray,
    spec: VariationSpec,
    rngs: list[np.random.Generator],
    instance_chunk: int = 64,
    run_logger=None,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Instance-stacked twin of :func:`evaluate_instances`.

    Builds one fixed-shape :class:`~repro.circuits.ensemble.EnsembleProgram`
    of ``min(instance_chunk, n)`` instances and streams the generators
    through it chunk by chunk; a short tail chunk is padded with the nominal
    base instance and only its real slots are read back.  Per-instance
    accuracies and powers are bit-identical to the serial loop for any
    chunk size (grouping invariance, like the serving engine).

    The program is reused across calls through a fingerprint-keyed cache
    (see :data:`_PROGRAM_CACHE`): building it replays an eager capture
    forward whose cost dwarfs a chunk's replay, so warm calls against an
    unchanged network skip straight to load/run.

    ``start`` offsets the ``start`` field of emitted chunk events so pool
    workers report global instance positions.
    """
    from repro.circuits.ensemble import sample_instance_stack

    if instance_chunk < 1:
        raise ValueError("instance_chunk must be positive")
    n = len(rngs)
    accuracies = np.empty(n)
    powers = np.empty(n)
    if n == 0:
        return accuracies, powers
    chunk = min(instance_chunk, n)
    program = _cached_program(net, x, chunk)
    base_thetas = program._base_thetas
    for chunk_index, chunk_start in enumerate(range(0, n, chunk)):
        t0 = time.perf_counter()
        with trace_span(
            "montecarlo.chunk",
            "montecarlo",
            args={"chunk_index": chunk_index, "start": start + chunk_start},
        ):
            chunk_rngs = rngs[chunk_start:chunk_start + chunk]
            stack = sample_instance_stack(net, spec, chunk_rngs, base_thetas=base_thetas)
            k = program.load(stack)
            logits, total = program.run()
            accuracies[chunk_start:chunk_start + k] = F.instance_accuracy(logits[:k], y)
            powers[chunk_start:chunk_start + k] = total[:k]
        _record_chunk(
            run_logger,
            instances=k,
            duration_s=time.perf_counter() - t0,
            vectorized=True,
            chunk_index=chunk_index,
            start=start + chunk_start,
        )
    return accuracies, powers


def run_monte_carlo(
    net: PrintedNeuralNetwork,
    x: np.ndarray,
    y: np.ndarray,
    spec: VariationSpec,
    n_samples: int = 100,
    seed: int = 0,
    power_budget: float | None = None,
    accuracy_floor: float = 0.0,
    n_jobs: int = 1,
    progress=None,
    on_error: str = "continue",
    vectorized: bool = False,
    instance_chunk: int = 64,
    run_logger=None,
) -> MonteCarloReport:
    """Sample ``n_samples`` printed instances of ``net`` and evaluate each.

    The network's parameters are perturbed in place per instance and restored
    afterwards; the caller's ``net`` is untouched on return.  Each instance
    perturbs crossbar conductances, activation-circuit parameters, and the
    shared EGT model card.

    Each instance draws from its own generator spawned from one
    ``SeedSequence(seed)``, so the report is identical for any ``n_jobs``,
    any chunking of instances across worker processes, and either execution
    path (``vectorized=True`` stacks ``instance_chunk`` instances per
    captured-graph replay; the default loops them serially).
    """
    x_t = Tensor(x)
    logger.info(
        "monte carlo: %d printed instances, seed %d, %d jobs%s",
        n_samples, seed, n_jobs, ", vectorized" if vectorized else "",
    )

    with no_grad():
        logits, breakdown = net.forward_with_power(x_t)
    nominal_accuracy = F.accuracy(logits, y)
    nominal_power = float(breakdown.total.data)

    seed_seqs = np.random.SeedSequence(seed).spawn(n_samples)
    if n_jobs <= 1:
        rngs = [np.random.default_rng(ss) for ss in seed_seqs]
        if vectorized:
            accuracies, powers = evaluate_instances_vectorized(
                net, x, y, spec, rngs,
                instance_chunk=instance_chunk, run_logger=run_logger,
            )
        else:
            t0 = time.perf_counter()
            with trace_span("montecarlo.serial", "montecarlo", args={"instances": len(rngs)}):
                accuracies, powers = evaluate_instances(net, x, y, spec, rngs)
            _record_chunk(
                run_logger,
                instances=len(rngs),
                duration_s=time.perf_counter() - t0,
                vectorized=False,
                chunk_index=0,
                start=0,
            )
    else:
        from repro.parallel import MonteCarloChunkTask, collect_values, map_tasks

        payload = picklable_network(net)
        chunk = max(1, -(-n_samples // n_jobs))  # ceil division
        tasks = [
            MonteCarloChunkTask(
                net=payload,
                x=x,
                y=y,
                variation=spec,
                seed_seqs=tuple(seed_seqs[start:start + chunk]),
                start=start,
                vectorized=vectorized,
                instance_chunk=instance_chunk,
            )
            for start in range(0, n_samples, chunk)
        ]
        chunks = collect_values(
            map_tasks(tasks, n_jobs=n_jobs, progress=progress, on_error=on_error)
        )
        accuracies = np.concatenate([acc for acc, _ in chunks])
        powers = np.concatenate([pow_ for _, pow_ in chunks])

    return MonteCarloReport(
        accuracies=accuracies,
        powers=powers,
        nominal_accuracy=nominal_accuracy,
        nominal_power=nominal_power,
        power_budget=power_budget,
        accuracy_floor=accuracy_floor,
    )
