"""The hoisted transfer residuals against the generic-partials oracle.

Every implicit solve in :mod:`repro.pdk.transfer` must return the ``V*`` and
``1/g'`` of :mod:`tests.transfer_oracle` bit for bit, in the same number of
residual evaluations, for every circuit and for both the 2-D layout and the
``(instances, 1, 1)`` instance stacks.  A captured activation must also see
its hoisted terms recomputed from the live buffers on every replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.graph import capture_forward
from repro.autograd.tensor import Tensor
from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.circuits.activations import q_tensor_from_u
from repro.datasets import load_dataset, train_val_test_split
from repro.observability.metrics import get_registry, snapshot_delta
from repro.pdk import transfer as transfer_mod
from repro.pdk.params import DEFAULT_PDK, ActivationKind, design_space, negation_design_space
from repro.pdk.transfer import NegationModel, TransferModel
from repro.spice.egt import DEFAULT_NEGT, EGTModel
from tests.transfer_oracle import oracle_solve

INSTANCES = 5
CIRCUITS = ["p-ReLU", "p-Clipped_ReLU", "p-sigmoid", "p-tanh", "negation"]


def _bits(a: np.ndarray) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def _model_and_space(name: str, card: EGTModel):
    if name == "negation":
        return NegationModel(model=card), negation_design_space()
    kind = ActivationKind.from_name(name)
    return TransferModel(kind, model=card), design_space(kind)


def _stage_circuits(name: str) -> list[tuple[str, float]]:
    """``(oracle circuit, vss)`` of each solve, in call order."""
    if name == "p-ReLU":
        return [("follower", 0.0)]
    if name == "p-Clipped_ReLU":
        return [("clipped", 0.0)]
    if name == "p-sigmoid":
        return [("inverter", 0.0)] * 2
    if name == "p-tanh":
        return [("inverter", DEFAULT_PDK.vss)] * 2
    return [("inverter", DEFAULT_PDK.vss)]


@pytest.fixture
def solves(monkeypatch):
    """Record the input and output values of every ``_implicit_solve``."""
    records: list[tuple[list[np.ndarray], np.ndarray, np.ndarray]] = []
    original = transfer_mod._implicit_solve

    def recording(residual, v0, iterations, inputs):
        v_star, inv_gp = original(residual, v0, iterations, inputs)
        records.append(([t.data.copy() for t in inputs], v_star.data.copy(), inv_gp.data.copy()))
        return v_star, inv_gp

    monkeypatch.setattr(transfer_mod, "_implicit_solve", recording)
    return records


def _draw(space, rng, lead: tuple[int, ...]) -> list[Tensor]:
    unit = rng.uniform(0.02, 0.98, size=lead + (space.dimension,))
    q = space.from_unit(unit)
    shape = lead + (1, 1) if lead else ()
    return [Tensor(np.array(q[..., i]).reshape(shape)) for i in range(space.dimension)]


def _stacked_card(rng) -> EGTModel:
    shape = (INSTANCES, 1, 1)
    return EGTModel(
        vth=DEFAULT_NEGT.vth + rng.normal(0.0, 0.03, shape),
        k=DEFAULT_NEGT.k * rng.uniform(0.8, 1.2, shape),
        n=DEFAULT_NEGT.n,
        phi=DEFAULT_NEGT.phi,
    )


LAYOUTS = {
    # name: (q leading axes, v_in shape, instance-stacked model card)
    "2d": ((), (24, 3), False),
    "instances": ((INSTANCES,), (24, 3), False),
    "instances_card": ((INSTANCES,), (INSTANCES, 24, 3), True),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("name", CIRCUITS)
def test_solves_match_oracle_bitwise(name, layout, solves):
    lead, v_shape, stacked = LAYOUTS[layout]
    rng = np.random.default_rng([CIRCUITS.index(name), list(LAYOUTS).index(layout)])
    card = _stacked_card(rng) if stacked else DEFAULT_NEGT
    model, space = _model_and_space(name, card)
    registry = get_registry()
    for trial in range(3):
        solves.clear()
        q = _draw(space, rng, lead)
        v_in = Tensor(rng.uniform(-1.2, 1.2, size=v_shape))
        before = registry.snapshot()
        model.output_and_power(v_in, q)
        delta = snapshot_delta(before, registry.snapshot())
        stages = _stage_circuits(name)
        assert len(solves) == len(stages)
        oracle_evals = 0
        for (circuit, vss), (inputs, v_star, inv_gp) in zip(stages, solves):
            want_v, want_inv, evals = oracle_solve(circuit, inputs, DEFAULT_PDK, card, vss=vss)
            oracle_evals += evals
            assert _bits(v_star) == _bits(want_v), (name, layout, trial, circuit)
            assert _bits(inv_gp) == _bits(want_inv), (name, layout, trial, circuit)
        assert delta.get("transfer_newton_evals_total", 0) == oracle_evals
        assert delta.get("transfer_newton_unconverged_total", 0) == 0


@pytest.mark.parametrize("name", CIRCUITS)
def test_replay_rehoists_from_live_buffers(name):
    """Replay after in-place writes to ``v_in`` and u equals a fresh eager call."""
    rng = np.random.default_rng(7)
    if name == "negation":
        space = negation_design_space()
        model = NegationModel()
    else:
        kind = ActivationKind.from_name(name)
        space = design_space(kind)
        model = TransferModel(kind)
    v_in = Tensor(rng.uniform(-1.0, 1.0, size=(16, 3)))
    units = [Tensor(np.array(rng.normal())) for _ in range(space.dimension)]

    def forward(v, *us):
        q = [q_tensor_from_u(space, i, u) for i, u in enumerate(us)]
        return model.output_and_power(v, q)

    graph = capture_forward(forward, v_in, *units)
    for _ in range(3):
        np.copyto(v_in.data, rng.uniform(-1.0, 1.0, size=v_in.data.shape))
        for u in units:
            np.copyto(u.data, rng.normal())
        graph.replay_forward()
        fresh = forward(Tensor(v_in.data.copy()), *[Tensor(u.data.copy()) for u in units])
        for replayed, eager in zip(graph.outputs, fresh):
            assert _bits(replayed.data) == _bits(eager.data)


def test_iteration_cap_reports_unconverged():
    rng = np.random.default_rng(0)
    space = design_space(ActivationKind.TANH)
    model = TransferModel(ActivationKind.TANH, newton_iterations=2)
    registry = get_registry()
    before = registry.snapshot()
    model.output_and_power(Tensor(rng.uniform(-1.0, 1.0, size=(32, 3))), _draw(space, rng, ()))
    delta = snapshot_delta(before, registry.snapshot())
    assert delta.get("transfer_newton_unconverged_total", 0) > 0
    assert delta.get("transfer_newton_evals_total", 0) == 4  # two stages, capped at 2 each


def test_nominal_forward_converges(af_surrogates, neg_surrogate):
    """A p-tanh pNC forward on seeds, as ``train seeds --af p-tanh`` runs it."""
    data = load_dataset("seeds")
    split = train_val_test_split(data, seed=2)
    net = PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
        np.random.default_rng(2), af_surrogates[ActivationKind.TANH], neg_surrogate,
    )
    registry = get_registry()
    before = registry.snapshot()
    net.forward_with_power(Tensor(split.x_train))
    delta = snapshot_delta(before, registry.snapshot())
    assert delta.get("transfer_newton_evals_total", 0) > 0
    assert delta.get("transfer_newton_unconverged_total", 0) == 0
