"""``train_model`` (the fleet loop with one instance) == the serial loop.

:mod:`tests.serial_oracle` keeps the serial epoch loop and the objectives'
pre-stacking losses.  Every case trains two identical networks — one through
:func:`repro.training.train_model`, one through the oracle — and requires the
same bits everywhere a caller can look: traces, restored ``state``, every
``TrainResult`` field, and the event streams of an
:class:`~repro.observability.callbacks.EventLogCallback` and a
:class:`~repro.observability.health.HealthMonitor` riding along.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.datasets import load_dataset, train_val_test_split
from repro.observability.callbacks import EventLogCallback
from repro.observability.events import ListSink, RunLogger
from repro.observability.health import HealthMonitor
from repro.pdk.params import ActivationKind
from repro.training import (
    AugmentedLagrangianObjective,
    PenaltyObjective,
    TrainerSettings,
    generate_masks,
    train_model,
)
from repro.training.multi_constraint import PowerAreaObjective
from tests import serial_oracle
from tests.test_graph_replay import _MaskFlip, _NudgeTheta

#: event fields that are wall-clock readings, not training state
_TIMING = ("ts", "step_time_s", "eval_time_s")


@pytest.fixture(scope="module")
def iris_split():
    return train_val_test_split(load_dataset("iris"), seed=0)


def _net(af_surrogates, neg_surrogate, seed=11):
    data = load_dataset("iris")
    return PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
        np.random.default_rng(seed), af_surrogates[ActivationKind.TANH], neg_surrogate,
    )


def _al(net):
    return AugmentedLagrangianObjective(
        power_budget=2.5e-4, mu=5.0, multiplier_every=3, mu_growth=1.2,
        warmup_epochs=4, anneal_epochs=3,
    )


def _masked_al(net):
    theta = np.concatenate([np.abs(c.theta.data).ravel() for c in net.crossbars()])
    masks = generate_masks(net, threshold=float(np.quantile(theta, 0.3)))
    for crossbar, keep, force in zip(net.crossbars(), masks.keep, masks.force_positive):
        crossbar.set_masks(keep, force)
    return AugmentedLagrangianObjective(power_budget=3.5e-4, mu=2.0)


def _power_area(net):
    return PowerAreaObjective(
        net=net, power_budget=2e-3, device_budget=0.8 * net.device_count(),
        warmup_epochs=3, multiplier_every=2,
    )


#: name → (objective(net), extra callbacks(net), epochs)
CASES = {
    "al-warmup-anneal": (_al, lambda net: [], 24),
    "penalty-alpha-0": (lambda net: PenaltyObjective(alpha=0.0), lambda net: [], 24),
    "penalty-alpha-0.5": (lambda net: PenaltyObjective(alpha=0.5), lambda net: [], 24),
    "masked-finetune": (_masked_al, lambda net: [], 24),
    "power-area": (_power_area, lambda net: [], 24),
    "nudge-theta": (_al, lambda net: [_NudgeTheta(net)], 24),
    "mask-flip": (_al, lambda net: [_MaskFlip(net, at_epoch=7)], 24),
    "no-epochs": (_al, lambda net: [], 0),
}


def _run(train, net, split, case, capture):
    make_objective, make_callbacks, epochs = CASES[case]
    objective = make_objective(net)
    events, alerts = ListSink(), ListSink()
    monitor = HealthMonitor(RunLogger(alerts))
    callbacks = [EventLogCallback(RunLogger(events)), monitor, *make_callbacks(net)]
    settings = TrainerSettings(
        epochs=epochs, lr=0.05, patience=4, min_lr=0.0125, early_stop_stale=14,
        capture_graph=capture,
    )
    result = train(net, split, objective, settings=settings, callbacks=callbacks)
    streams = [
        [{k: v for k, v in event.items() if k not in _TIMING} for event in sink.events]
        for sink in (events, alerts)
    ]
    return result, streams, monitor.alerts


@pytest.mark.parametrize("capture", [True, False], ids=["capture", "eager"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_train_model_equals_serial_oracle(case, capture, af_surrogates, neg_surrogate, iris_split):
    new, new_streams, new_alerts = _run(
        train_model, _net(af_surrogates, neg_surrogate), iris_split, case, capture
    )
    old, old_streams, old_alerts = _run(
        serial_oracle.train_model, _net(af_surrogates, neg_surrogate), iris_split, case, capture
    )
    for field in dataclasses.fields(new):
        got, want = getattr(new, field.name), getattr(old, field.name)
        if field.name == "state":
            assert got.keys() == want.keys()
            for key in got:
                assert got[key].tobytes() == want[key].tobytes(), f"state[{key}]"
        elif field.name == "epochs_run" and case == "no-epochs":
            # the serial loop reported one epoch when none ran
            assert (got, want) == (0, 1)
        else:
            assert got == want, field.name
    assert new_streams == old_streams
    assert new_alerts == old_alerts
    if case == "no-epochs":
        assert new.loss_trace == [] and new.best_epoch == -1
    else:
        assert len(new.loss_trace) == new.epochs_run


def test_negative_epochs_rejected():
    with pytest.raises(ValueError, match="epochs"):
        TrainerSettings(epochs=-1)


@pytest.mark.parametrize("epochs", ["-1", "0"])
def test_cli_rejects_epoch_counts_below_one(epochs, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["train", "iris", "--epochs", epochs])
    assert exit_info.value.code == 2
    assert "epochs must be >= 1" in capsys.readouterr().err


def test_objective_without_structure_key_trains_alone(af_surrogates, neg_surrogate, iris_split):
    from repro.training import train_fleet

    net = _net(af_surrogates, neg_surrogate)
    with pytest.raises(ValueError, match="trains alone"):
        train_fleet([net], iris_split, [_power_area(net)], instances=2)
