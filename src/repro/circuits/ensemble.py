"""Instance-stacked (ensemble) execution of a printed network.

Monte-Carlo yield analysis evaluates N *printed instances* of one trained
network — same topology, different variation draws.  The serial loop in
:mod:`repro.evaluation.montecarlo` pays N full eager forwards for that.
:class:`EnsembleProgram` evaluates a whole chunk of instances as **one**
captured call of the network's own
:meth:`~repro.circuits.pnc.PrintedNeuralNetwork.forward_with_power` over
stacked leaves:

- every crossbar's effective θ becomes an ``(instances, M+2, N)`` stack,
- every activation's unconstrained design parameters ``u_i`` become
  ``(instances, 1, 1)`` stacks,
- the perturbed EGT model card becomes an ``(instances, 1, 1)`` V_th/K pair
  shared between a numpy card (read by the Newton closures at call time)
  and a :class:`Tensor` card (recorded into the graph expressions), carried
  by one transfer model per layer.

The program is one forward-only :class:`repro.autograd.graph.Program`
(kernel label ``mc.forward``), recorded when the ensemble is built and
replayed per chunk: only the leaf stacks change.
Chunks are fixed-shape — a short tail chunk is padded with nominal
(base) instances, never zeros, so the padded elements stay physical and the
real elements' bits cannot depend on the padding (per-element Newton
freezing, per-slice GEMMs; see ``docs/architecture.md`` §1.2).

Bit-identity contract: every per-instance accuracy/power equals the serial
``evaluate_instances`` loop *bit for bit* — the network's forward acts
elementwise or per slice on the instance axis, so instance ``j``'s slice
sees exactly the arithmetic the serial path runs with instance ``j``'s
values (asserted by ``tests/test_ensemble.py`` and the benchmark gate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import Tensor
from repro.autograd.graph import Program
from repro.circuits.activations import units_from_q
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.pdk.transfer import TransferModel
from repro.pdk.variation import (
    VariationSpec,
    perturb_model_card,
    perturb_q,
    perturb_theta,
)
from repro.spice.egt import EGTModel


@dataclass
class InstanceStack:
    """One chunk of sampled printed instances as stacked arrays.

    ``thetas[l]`` is the ``(k, M+2, N)`` perturbed *effective* conductance
    stack of crossbar ``l``; ``units[l]`` the ``(k, dim)`` unconstrained
    activation parameters of layer ``l``; ``vths[l]`` / ``ks[l]`` the
    ``(k,)`` perturbed model-card values.
    """

    thetas: list[np.ndarray]
    units: list[np.ndarray]
    vths: list[np.ndarray]
    ks: list[np.ndarray]

    @property
    def n_instances(self) -> int:
        if self.vths:
            return len(self.vths[0])
        return len(self.thetas[0]) if self.thetas else 0


def sample_instance_stack(
    net: PrintedNeuralNetwork,
    spec: VariationSpec,
    rngs: list[np.random.Generator],
    base_thetas: list[np.ndarray] | None = None,
) -> InstanceStack:
    """Draw ``len(rngs)`` printed instances of ``net`` as one stack.

    Per-instance draw order is exactly the serial loop's — all crossbars'
    ``perturb_theta``, then per activation ``perturb_q`` followed by
    ``perturb_model_card`` — and each instance consumes only its own
    generator, so the stacked draws are bit-identical to the per-instance
    path regardless of chunking.

    ``base_thetas`` are the *effective* (mask-applied) conductance matrices
    to perturb; they default to one materialization per crossbar.
    Perturbing the effective θ equals masking the perturbed raw θ bitwise:
    the lognormal noise is drawn full-shape either way, ``|θ·noise|`` and
    ``|θ|·noise`` share magnitude bits, and keep-masked zeros are below any
    prune threshold so they never vary.
    """
    threshold = net.config.pdk.prune_threshold_us
    activations = net.activations()
    if base_thetas is None:
        base_thetas = [crossbar.effective_theta().data for crossbar in net.crossbars()]
    nominal_qs = [activation.q_values() for activation in activations]
    nominal_models = [activation.transfer.model for activation in activations]
    count = len(rngs)
    thetas = [np.empty((count, *base.shape)) for base in base_thetas]
    varied_qs = [
        np.empty((count, activation.space.dimension)) for activation in activations
    ]
    vths = [np.empty(count) for _ in activations]
    ks = [np.empty(count) for _ in activations]
    for j, rng in enumerate(rngs):
        for stack, base in zip(thetas, base_thetas):
            stack[j] = perturb_theta(base, spec, rng, prune_threshold=threshold)
        for l, (activation, q0, model0) in enumerate(zip(activations, nominal_qs, nominal_models)):
            varied_qs[l][j] = perturb_q(q0, activation.space, spec, rng)
            card = perturb_model_card(model0, spec, rng)
            vths[l][j] = card.vth
            ks[l][j] = card.k
    # The q → u inversion holds no randomness, so it batches over the whole
    # stack after the draws (elementwise per design axis — same bits as the
    # per-instance calls, amortizing the Python overhead across instances).
    units = [
        units_from_q(activation.space, varied)
        for activation, varied in zip(activations, varied_qs)
    ]
    return InstanceStack(thetas=thetas, units=units, vths=vths, ks=ks)


class EnsembleProgram:
    """A fixed-shape instance-stacked forward+power program over one net.

    Built for a fixed ``(instances, batch)`` shape; :meth:`load` copies a
    sampled :class:`InstanceStack` into the leaf buffers (padding a short
    chunk with the nominal base instance) and :meth:`run` evaluates them
    through the program (replayed, or eager when capture failed).
    """

    def __init__(self, net: PrintedNeuralNetwork, x: np.ndarray, instances: int):
        if instances < 1:
            raise ValueError("instances must be positive")
        self.net = net
        self.instances = int(instances)
        self._x = Tensor(np.asarray(x, dtype=np.float64))
        count = self.instances

        # θ leaves: one effective-θ materialization per crossbar for the
        # whole program (the serial loop's satellite saving, taken further).
        self._base_thetas = [
            crossbar.effective_theta().data.copy() for crossbar in net.crossbars()
        ]
        self._theta_leaves = [
            Tensor(np.broadcast_to(base, (count, *base.shape)).copy())
            for base in self._base_thetas
        ]

        # Activation leaves: u stacks plus the dual-view model card.  The
        # numpy card's arrays are the *same buffers* the Tensor card wraps
        # (Tensor construction does not copy float64 arrays), so one
        # in-place update refreshes both the Newton closures and the
        # recorded graph expressions.
        self._base_units: list[np.ndarray] = []
        self._unit_leaves: list[list[Tensor]] = []
        self._card_arrays: list[tuple[np.ndarray, np.ndarray]] = []
        self._base_cards: list[EGTModel] = []
        self._transfers: list[TransferModel] = []
        for activation in net.activations():
            dim = activation.space.dimension
            u0 = np.array(
                [float(getattr(activation, f"u_{i}").data) for i in range(dim)]
            )
            self._base_units.append(u0)
            self._unit_leaves.append(
                [Tensor(np.full((count, 1, 1), u0[i])) for i in range(dim)]
            )
            nominal = activation.transfer.model
            vth_arr = np.full((count, 1, 1), nominal.vth)
            k_arr = np.full((count, 1, 1), nominal.k)
            np_card = EGTModel(vth=vth_arr, k=k_arr, n=nominal.n, phi=nominal.phi)
            tensor_card = EGTModel(
                vth=Tensor(vth_arr), k=Tensor(k_arr), n=nominal.n, phi=nominal.phi
            )
            self._card_arrays.append((vth_arr, k_arr))
            self._base_cards.append(nominal)
            self._transfers.append(
                TransferModel(
                    activation.kind,
                    pdk=activation.transfer.pdk,
                    model=np_card,
                    tensor_card=tensor_card,
                    newton_iterations=activation.transfer.newton_iterations,
                )
            )

        x, thetas, units, transfers = self._x, self._theta_leaves, self._unit_leaves, self._transfers

        def evaluate() -> tuple[Tensor, Tensor]:
            # Closes over the leaves, not ``self``: the program must not keep
            # its owner (and every captured buffer) alive through a cycle.
            logits, breakdown = net.forward_with_power(
                x, thetas=thetas, units=units, transfers=transfers
            )
            return logits, breakdown.total

        self._program = Program(evaluate, "mc.forward")
        self._program.capture()

    # ------------------------------------------------------------------
    @property
    def captured(self) -> bool:
        """Whether the program replays a captured schedule (vs eager)."""
        return self._program.captured

    # ------------------------------------------------------------------
    def load(self, stack: InstanceStack) -> int:
        """Copy a sampled stack into the leaf buffers; returns its size.

        A stack shorter than the program's instance count pads the tail
        slots with the nominal base instance (never zeros — zero
        conductances and geometries are unphysical and would poison the
        shared Newton solves with non-finite intermediates).
        """
        k = stack.n_instances
        if k < 1 or k > self.instances:
            raise ValueError(
                f"stack holds {k} instances; program is built for 1..{self.instances}"
            )
        for leaf, base, theta in zip(self._theta_leaves, self._base_thetas, stack.thetas):
            leaf.data[:k] = theta
            if k < self.instances:
                leaf.data[k:] = base
        for unit_leaves, base_u, units in zip(self._unit_leaves, self._base_units, stack.units):
            for i, leaf in enumerate(unit_leaves):
                leaf.data[:k] = units[:, i].reshape(k, 1, 1)
                if k < self.instances:
                    leaf.data[k:] = base_u[i]
        for (vth_arr, k_arr), base, vths, ks in zip(
            self._card_arrays, self._base_cards, stack.vths, stack.ks
        ):
            vth_arr[:k] = vths.reshape(k, 1, 1)
            k_arr[:k] = ks.reshape(k, 1, 1)
            if k < self.instances:
                vth_arr[k:] = base.vth
                k_arr[k:] = base.k
        return k

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the loaded instances; return ``(logits, total_power)``.

        ``logits`` is the ``(instances, batch, out)`` buffer of the captured
        program (valid until the next :meth:`run`); ``total_power`` is a
        fresh ``(instances,)`` copy of the forward's ``PowerBreakdown.total``.
        """
        logits, total = self._program.run()
        return logits.data, total.data.reshape(self.instances).copy()
