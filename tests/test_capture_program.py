"""One capture loop (:class:`repro.autograd.graph.Program`) for every caller.

The serial trainer, the vectorized fleet, the Monte-Carlo ensemble and the
serving engine all run their tensor programs through it.  These tests
drive the two paths no bit-identity suite reaches through each of the
four callers:

- **eager fallback**: when capture raises :class:`GraphCaptureError`, every
  program runs eagerly for good — outputs equal the eager reference bit for
  bit, ``graph_capture_fallbacks`` rises once per program, and no capture is
  attempted again;
- **recapture**: after :func:`bump_graph_version` each program re-records
  exactly once (``graph_recapture_total``) and outputs stay bit-identical.

Plus kernel attribution for the fleet and Monte-Carlo labels, and a check
that no program owner survives its last reference (a cycle through a
program's build would hold its captured buffers until the cyclic collector
runs).
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest

from repro.autograd.graph import CapturedGraph, GraphCaptureError, bump_graph_version
from repro.autograd.tensor import Tensor, no_grad
from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.circuits.ensemble import EnsembleProgram
from repro.datasets import load_dataset, train_val_test_split
from repro.evaluation import montecarlo
from repro.evaluation.montecarlo import evaluate_instances, evaluate_instances_vectorized
from repro.observability.metrics import get_registry, snapshot_delta
from repro.observability.tracing import disable_tracing, enable_tracing, get_kernel_profiler
from repro.pdk.variation import VariationSpec
from repro.serving.engine import InferenceEngine
from repro.training import PenaltyObjective, TrainerSettings, train_fleet, train_model
from repro.training.fleet import FleetProgram
from repro.training.trainer import _GraphEngine

EPOCHS = 8
BUMP_AT = 4


@pytest.fixture(scope="module")
def iris():
    return load_dataset("iris")


@pytest.fixture(scope="module")
def split(iris):
    return train_val_test_split(iris, seed=0)


def _net(iris, seed: int) -> PrintedNeuralNetwork:
    return PrintedNeuralNetwork(
        iris.n_features, iris.n_classes, PNCConfig(power_mode="analytic"),
        np.random.default_rng(seed),
    )


def _settings(capture: bool) -> TrainerSettings:
    return TrainerSettings(epochs=EPOCHS, patience=EPOCHS, capture_graph=capture)


def _result_bytes(result) -> tuple:
    state = tuple(value.tobytes() for _, value in sorted(result.state.items()))
    return (
        tuple(result.loss_trace), tuple(result.power_trace),
        tuple(result.val_accuracy_trace), result.test_accuracy, result.power, state,
    )


@dataclass
class Caller:
    """One program owner: how to run it captured and eagerly.

    ``run(capture)`` returns comparable outputs; ``bump`` names the method
    (class, attribute, call index) before whose call the graph version is
    bumped; ``programs`` is how many programs the caller holds.
    """

    run: Callable[[bool], object]
    bump: tuple[type, str, int]
    programs: int


def _trainer(iris, split) -> Caller:
    def run(capture: bool):
        net = _net(iris, seed=3)
        result = train_model(net, split, PenaltyObjective(alpha=0.3), _settings(capture))
        return _result_bytes(result)

    # The val program exists only when val is not the training set.
    programs = 1 if split.x_val is split.x_train else 2
    return Caller(run, (_GraphEngine, "run_step", BUMP_AT), programs)


def _fleet(iris, split) -> Caller:
    def run(capture: bool):
        nets = [_net(iris, seed) for seed in (0, 1, 2)]
        objectives = [PenaltyObjective(alpha=alpha) for alpha in (0.1, 0.3, 0.5)]
        results = train_fleet(nets, split, objectives, settings=_settings(capture))
        return [_result_bytes(result) for result in results]

    programs = 1 if split.x_val is split.x_train else 2
    return Caller(run, (_GraphEngine, "run_step", BUMP_AT), programs)


def _ensemble(iris, split) -> Caller:
    net = _net(iris, seed=5)
    net.eval()
    spec = VariationSpec()

    def rngs():
        return [np.random.default_rng(s) for s in np.random.SeedSequence(9).spawn(7)]

    def run(capture: bool):
        if not capture:
            accuracies, powers = evaluate_instances(net, split.x_test, split.y_test, spec, rngs())
        else:
            accuracies, powers = evaluate_instances_vectorized(
                net, split.x_test, split.y_test, spec, rngs(), instance_chunk=3
            )
        return accuracies.tobytes(), powers.tobytes()

    return Caller(run, (EnsembleProgram, "run", 1), 1)


def _serving(iris, split) -> Caller:
    net = _net(iris, seed=7)
    net.eval()
    x = split.x_test[:12]

    def run(capture: bool):
        if not capture:
            with no_grad():
                return net.forward(Tensor(x)).data.tobytes()
        return InferenceEngine(net, micro_batch=8).run(x).tobytes()

    return Caller(run, (InferenceEngine, "_forward_chunk", 1), 1)


def _val_is_train(split):
    return replace(split, x_val=split.x_train, y_val=split.y_train)


CALLERS = {
    "trainer": lambda iris, split: _trainer(iris, _val_is_train(split)),
    "trainer-val": _trainer,
    "fleet": lambda iris, split: _fleet(iris, _val_is_train(split)),
    "fleet-val": _fleet,
    "ensemble": _ensemble,
    "serving": _serving,
}


@pytest.fixture(params=sorted(CALLERS))
def caller(request, iris, split, monkeypatch) -> Caller:
    # A fresh ensemble program per test: the Monte-Carlo cache would
    # otherwise hand one test's program (captured or eager) to the next.
    monkeypatch.setattr(montecarlo, "_PROGRAM_CACHE", None)
    return CALLERS[request.param](iris, split)


def _delta(fn):
    registry = get_registry()
    before = registry.snapshot()
    out = fn()
    return out, snapshot_delta(before, registry.snapshot())


class TestEagerFallback:
    def test_failed_capture_runs_eagerly_and_bit_identical(self, caller, monkeypatch):
        reference = caller.run(False)
        attempts = []

        def failing_init(self, *args, **kwargs):
            attempts.append(1)
            raise GraphCaptureError("capture disabled for this test")

        monkeypatch.setattr(CapturedGraph, "__init__", failing_init)
        out, delta = _delta(lambda: caller.run(True))
        assert out == reference
        assert delta.get("graph_capture_fallbacks", 0) == caller.programs
        assert len(attempts) == caller.programs  # never retried
        assert delta.get("graph_replay_epochs", 0) == 0


class TestRecapture:
    def test_version_bump_recaptures_once_per_program(self, caller, monkeypatch):
        reference = caller.run(False)
        cls, name, at_call = caller.bump
        original = cls.__dict__[name]
        calls = []

        def bumping(self, *args, **kwargs):
            if len(calls) == at_call:
                bump_graph_version()
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, bumping)
        out, delta = _delta(lambda: caller.run(True))
        assert len(calls) > at_call  # the bump happened mid-run
        assert out == reference
        assert delta.get("graph_recapture_total", 0) == caller.programs
        assert delta.get("graph_capture_fallbacks", 0) == 0


class TestKernelLabels:
    @pytest.fixture(autouse=True)
    def _clean_profiler(self):
        get_kernel_profiler().reset()
        yield
        disable_tracing()
        get_kernel_profiler().reset()

    def test_traced_fleet_is_bit_identical_and_labelled(self, iris, split):
        fleet = _fleet(iris, split)
        untraced = fleet.run(True)
        enable_tracing()
        traced = fleet.run(True)
        disable_tracing()
        assert traced == untraced
        labels = get_kernel_profiler().as_json()["labels"]
        assert {"fleet.step.forward", "fleet.step.backward",
                "fleet.eval.forward", "fleet.val.forward"} <= set(labels)
        assert not any(label.startswith("train.") for label in labels)

    def test_kernel_counts_match_program_ops(self, iris, split):
        nets = [_net(iris, seed) for seed in (0, 1, 2)]
        enable_tracing()
        program = FleetProgram(
            nets, [PenaltyObjective(alpha=0.2) for _ in nets], split, _settings(True)
        )
        for epoch in range(3):
            program.run_step(epoch)
            logits, _power = program.run_eval()
            program.val_accuracies(logits)
        ensemble = EnsembleProgram(nets[0], split.x_test, 4)
        ensemble.run()
        disable_tracing()

        engine = program._engine
        expected = {
            "fleet.step.forward": engine.step.n_ops,
            "fleet.eval.forward": engine.step.head.n_ops,
            "fleet.step.backward": len(engine.step.graph.backward_order),
            "fleet.val.forward": engine.val.n_ops,
            "mc.forward": ensemble._program.n_ops,
        }
        labels = get_kernel_profiler().as_json()["labels"]
        for label, n_ops in expected.items():
            assert n_ops > 0
            assert len(labels[label]["kernels"]) == n_ops, label


def test_owners_are_freed_by_reference_counting(iris, split, monkeypatch):
    engines = []
    original = _GraphEngine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(_GraphEngine, "__init__", init)
    net = _net(iris, seed=5)
    net.eval()
    gc.collect()
    gc.disable()
    try:
        _trainer(iris, split).run(True)
        _fleet(iris, split).run(True)
        owners = [
            weakref.ref(EnsembleProgram(net, split.x_test, 2)),
            weakref.ref(InferenceEngine(net, micro_batch=4)),
        ]
        alive = [ref() is not None for ref in engines + owners]
    finally:
        gc.enable()
    assert len(engines) == 2
    assert not any(alive)
