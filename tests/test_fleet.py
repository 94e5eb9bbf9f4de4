"""Vectorized fleet training: per-instance results must be bit-identical.

The fleet engine's contract (:mod:`repro.training.fleet`) is that stacking
N (network, objective) instances behind a leading instance axis changes
*how many* trainings one replayed schedule advances per epoch, never *what*
any of them computes: every trace float, checkpoint array and final metric
of instance ``i`` must equal a serial :func:`~repro.training.trainer
.train_model` run of the same (net, objective) pair exactly — including
when the fleet is padded to a fixed width and when sweep chunks shard
across pool workers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.datasets import load_dataset, train_val_test_split
from repro.observability.events import ListSink, RunLogger
from repro.observability.metrics import get_registry, snapshot_delta
from repro.pdk.params import ActivationKind
from repro.training import (
    AugmentedLagrangianObjective,
    PenaltyObjective,
    TrainerSettings,
    train_fleet,
)
from repro.training.fleet import FleetProgram, fleet_structure_key
from tests.serial_oracle import train_model

EPOCHS = 12
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def iris_split():
    return train_val_test_split(load_dataset("iris"), seed=0)


def _net(af_surrogates, neg_surrogate, seed):
    data = load_dataset("iris")
    return PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
        np.random.default_rng(seed), af_surrogates[ActivationKind.TANH], neg_surrogate,
    )


def _settings(**overrides):
    base = dict(epochs=EPOCHS, lr=0.05, patience=2, early_stop_stale=4)
    base.update(overrides)
    return TrainerSettings(**base)


def _assert_result_pairs_identical(serial, fleet):
    assert len(serial) == len(fleet)
    for i, (a, b) in enumerate(zip(serial, fleet)):
        assert a.loss_trace == b.loss_trace, f"instance {i}: loss trace diverged"
        assert a.power_trace == b.power_trace, f"instance {i}: power trace diverged"
        assert a.val_accuracy_trace == b.val_accuracy_trace, f"instance {i}: val trace diverged"
        assert a.multiplier_trace == b.multiplier_trace, f"instance {i}: λ trace diverged"
        for name in ("train_accuracy", "val_accuracy", "test_accuracy", "power",
                     "best_epoch", "epochs_run", "feasible", "device_count"):
            assert getattr(a, name) == getattr(b, name), f"instance {i}: {name} diverged"
        assert set(a.state) == set(b.state)
        for key in a.state:
            np.testing.assert_array_equal(a.state[key], b.state[key],
                                          err_msg=f"instance {i}: state[{key}]")


class TestFleetBitIdentity:
    """Fleet traces == serial traces, per instance, with a padded tail."""

    def test_penalty_fleet_matches_serial(self, af_surrogates, neg_surrogate, iris_split):
        alphas = [0.1, 0.3, 0.5]
        serial = [
            train_model(
                _net(af_surrogates, neg_surrogate, seed), iris_split,
                PenaltyObjective(alpha=alpha), settings=_settings(),
            )
            for alpha, seed in zip(alphas, SEEDS)
        ]
        fleet = train_fleet(
            [_net(af_surrogates, neg_surrogate, seed) for seed in SEEDS],
            iris_split,
            [PenaltyObjective(alpha=alpha) for alpha in alphas],
            settings=_settings(),
            instances=4,  # 3 real + 1 pad slot
        )
        _assert_result_pairs_identical(serial, fleet)

    def test_augmented_lagrangian_fleet_matches_serial(
        self, af_surrogates, neg_surrogate, iris_split
    ):
        def objective():
            return AugmentedLagrangianObjective(
                power_budget=2e-4, mu=5.0, multiplier_every=3,
                mu_growth=1.2, warmup_epochs=4, anneal_epochs=5,
            )

        serial = [
            train_model(
                _net(af_surrogates, neg_surrogate, seed), iris_split,
                objective(), settings=_settings(),
            )
            for seed in SEEDS
        ]
        fleet = train_fleet(
            [_net(af_surrogates, neg_surrogate, seed) for seed in SEEDS],
            iris_split,
            [objective() for _ in SEEDS],
            settings=_settings(),
            instances=4,
        )
        _assert_result_pairs_identical(serial, fleet)

    @pytest.mark.parametrize("objective_kind", ["penalty", "al"])
    def test_soft_count_mode_matches_serial(
        self, objective_kind, af_surrogates, neg_surrogate, iris_split
    ):
        data = load_dataset("iris")

        def make_net(seed):
            return PrintedNeuralNetwork(
                data.n_features, data.n_classes,
                PNCConfig(kind=ActivationKind.TANH, count_mode="soft"),
                np.random.default_rng(seed),
                af_surrogates[ActivationKind.TANH], neg_surrogate,
            )

        def objective(alpha):
            if objective_kind == "penalty":
                return PenaltyObjective(alpha=alpha)
            return AugmentedLagrangianObjective(
                power_budget=2e-4, mu=5.0, multiplier_every=3, warmup_epochs=2,
            )

        alphas = [0.1, 0.4]
        serial = [
            train_model(make_net(seed), iris_split, objective(alpha), settings=_settings())
            for alpha, seed in zip(alphas, SEEDS)
        ]
        fleet = train_fleet(
            [make_net(seed) for seed in SEEDS[:2]], iris_split,
            [objective(alpha) for alpha in alphas],
            settings=_settings(), instances=3,
        )
        _assert_result_pairs_identical(serial, fleet)

    def test_analytic_power_mode_matches_serial(self, iris_split):
        data = load_dataset("iris")

        def make_net(seed):
            return PrintedNeuralNetwork(
                data.n_features, data.n_classes,
                PNCConfig(power_mode="analytic"), np.random.default_rng(seed),
            )

        serial = [
            train_model(make_net(seed), iris_split, PenaltyObjective(alpha=0.2),
                        settings=_settings(epochs=6))
            for seed in SEEDS
        ]
        fleet = train_fleet(
            [make_net(seed) for seed in SEEDS], iris_split,
            [PenaltyObjective(alpha=0.2) for _ in SEEDS],
            settings=_settings(epochs=6),
        )
        _assert_result_pairs_identical(serial, fleet)


class TestFleetStructure:
    def test_structure_key_splits_zero_alpha(self):
        assert fleet_structure_key(PenaltyObjective(alpha=0.0)) != \
            fleet_structure_key(PenaltyObjective(alpha=0.5))
        assert fleet_structure_key(PenaltyObjective(alpha=0.2)) == \
            fleet_structure_key(PenaltyObjective(alpha=0.9))
        assert fleet_structure_key(AugmentedLagrangianObjective(
            power_budget=1e-4, warmup_epochs=3,
        )) == ("al", 3)

    def test_mixed_structure_keys_rejected(self, iris_split):
        data = load_dataset("iris")
        nets = [
            PrintedNeuralNetwork(data.n_features, data.n_classes,
                                 PNCConfig(power_mode="analytic"),
                                 np.random.default_rng(seed))
            for seed in (0, 1)
        ]
        objectives = [PenaltyObjective(alpha=0.0), PenaltyObjective(alpha=0.5)]
        with pytest.raises(ValueError, match="structure key"):
            FleetProgram(nets, objectives, iris_split, _settings())

    def test_fleet_event_and_metrics(self, iris_split):
        data = load_dataset("iris")
        nets = [
            PrintedNeuralNetwork(data.n_features, data.n_classes,
                                 PNCConfig(power_mode="analytic"),
                                 np.random.default_rng(seed))
            for seed in (0, 1)
        ]
        sink = ListSink()
        registry = get_registry()
        before = registry.snapshot()
        train_fleet(
            nets, iris_split, [PenaltyObjective(alpha=0.2) for _ in nets],
            settings=_settings(epochs=3), instances=3,
            run_logger=RunLogger(sink), chunk_index=7,
        )
        delta = snapshot_delta(before, registry.snapshot())
        events = [e for e in sink.events if e["type"] == "fleet"]
        assert len(events) == 1
        event = events[0]
        assert event["instances"] == 2  # real instances only, pad excluded
        assert event["epoch"] == 3
        assert event["chunk_index"] == 7
        assert event["duration_s"] > 0
        assert delta.get("fleet_instances_total", 0) == 2
        assert delta.get("fleet_step_seconds", {}).get("count", 0) == 3


class TestVectorizedSweep:
    """`penalty_pareto_sweep(vectorized=True)` == the per-point serial sweep."""

    def _sweep(self, **kwargs):
        from repro.parallel import NetworkSpec
        from repro.training.penalty import penalty_pareto_sweep
        from tests.conftest import TEST_SURROGATE_EPOCHS, TEST_SURROGATE_NQ

        spec = NetworkSpec("iris", ActivationKind.TANH,
                           surrogate_n_q=TEST_SURROGATE_NQ,
                           surrogate_epochs=TEST_SURROGATE_EPOCHS)
        return penalty_pareto_sweep(
            None, spec.split(), n_alphas=4, n_seeds=1,
            settings=_settings(epochs=5), net_spec=spec, **kwargs,
        )

    def test_vectorized_matches_serial_with_padded_tail_and_sharding(
        self, af_surrogates, neg_surrogate, monkeypatch
    ):
        import repro.training.penalty as penalty_module

        # the serial side runs each point through the serial oracle in-process
        with monkeypatch.context() as patch:
            patch.setattr(penalty_module, "train_model", train_model)
            serial = self._sweep(n_jobs=1)
        # chunk=2 over the α>0 group of 3 → one full chunk + a tail padded
        # to the fixed width; α=0 trains as its own single-instance fleet
        vectorized = self._sweep(n_jobs=1, vectorized=True, instance_chunk=2)
        sharded = self._sweep(n_jobs=2, vectorized=True, instance_chunk=2)
        assert not serial.errors and not vectorized.errors and not sharded.errors
        _assert_result_pairs_identical(serial.results, vectorized.results)
        _assert_result_pairs_identical(serial.results, sharded.results)

    def test_vectorized_requires_net_spec(self, iris_split):
        from repro.training.penalty import penalty_pareto_sweep

        with pytest.raises(ValueError, match="net_spec"):
            penalty_pareto_sweep(None, iris_split, n_alphas=2, n_seeds=1,
                                 vectorized=True)


class TestSweepChunkBuild:
    """A fleet chunk builds each distinct seed once and clones the repeats."""

    @staticmethod
    def _spec():
        from repro.parallel import NetworkSpec
        from tests.conftest import TEST_SURROGATE_EPOCHS, TEST_SURROGATE_NQ

        return NetworkSpec("iris", ActivationKind.TANH,
                           surrogate_n_q=TEST_SURROGATE_NQ,
                           surrogate_epochs=TEST_SURROGATE_EPOCHS)

    def test_repeated_seeds_equal_independent_builds(self, monkeypatch):
        import repro.training.fleet as fleet_module
        from repro.parallel import FleetSweepChunkTask

        spec = self._spec()
        pairs = ((0.2, 0), (0.2, 1), (0.6, 0), (0.6, 1), (0.9, 0))
        members = []

        def capture(nets, *args, **kwargs):
            members.extend(nets)
            return []

        monkeypatch.setattr(fleet_module, "train_fleet", capture)
        FleetSweepChunkTask(spec=spec, pairs=pairs, indices=tuple(range(len(pairs)))).run()

        assert len({id(net) for net in members}) == len(pairs)
        af, neg = spec.surrogates()
        for (_alpha, seed), net in zip(pairs, members):
            reference = spec.build(seed)
            state, expected = net.state_dict(), reference.state_dict()
            assert state.keys() == expected.keys()
            for name in state:
                assert state[name].tobytes() == expected[name].tobytes(), name
            assert net.logit_scale == reference.logit_scale
            assert net.neg_q.tobytes() == reference.neg_q.tobytes()
            for crossbar, ref_crossbar in zip(net.crossbars(), reference.crossbars()):
                assert crossbar._keep_mask is None and ref_crossbar._keep_mask is None
                assert crossbar._positive_mask is None and ref_crossbar._positive_mask is None
            assert net.neg_surrogate is neg
            assert all(activation.surrogate is af for activation in net.activations())

    def test_traced_sweep_builds_each_seed_once_and_matches_untraced(self):
        from repro.observability.tracing import (
            disable_tracing, enable_tracing, get_kernel_profiler, get_tracer,
        )
        from repro.training.penalty import penalty_pareto_sweep

        spec = self._spec()

        def sweep():
            return penalty_pareto_sweep(
                None, spec.split(), n_alphas=2, n_seeds=2, alpha_range=(0.2, 0.6),
                settings=_settings(epochs=3), net_spec=spec,
                vectorized=True, instance_chunk=4,
            )

        untraced = sweep()
        enable_tracing()
        get_tracer().reset()  # drop spans an earlier traced run left in the ring
        try:
            traced = sweep()
            builds = [r for r in get_tracer().drain() if r["name"] == "pnc.build"]
        finally:
            disable_tracing()
            get_tracer().reset()
            get_kernel_profiler().reset()
        assert not untraced.errors and not traced.errors
        assert len(builds) == 2
        assert all(r["cat"] == "circuits" for r in builds)
        assert all(r["args"] == {"layers": 2, "candidates": 4 * 64} for r in builds)
        _assert_result_pairs_identical(untraced.results, traced.results)
