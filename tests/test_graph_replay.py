"""Captured-graph execution engine: replay must be bit-identical to eager.

The engine's whole contract is that ``capture_graph=True`` changes *when*
kernels run (a flat replay loop into reused buffers) but never *what* they
compute — every trace float must match the eager loop exactly, across all
three objectives and across structural boundaries (AL warmup end, mask
installation) that force a mid-run recapture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.graph import (
    CapturedGraph,
    GraphCaptureError,
    bump_graph_version,
)
from repro.autograd.nn import Parameter
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor, graph_capture
from repro.circuits import PrintedNeuralNetwork, PNCConfig
from repro.datasets import load_dataset, train_val_test_split
from repro.observability.callbacks import TrainerCallback
from repro.observability.metrics import get_registry, snapshot_delta
from repro.pdk.params import ActivationKind
from repro.training import (
    TrainerSettings,
    train_penalty,
    train_power_constrained,
    train_unconstrained,
)

EPOCHS = 30


@pytest.fixture(scope="module", params=["iris", "seeds"])
def split(request):
    return request.param, train_val_test_split(load_dataset(request.param), seed=0)


def _net(af_surrogates, neg_surrogate, dataset, seed):
    data = load_dataset(dataset)
    return PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
        np.random.default_rng(seed), af_surrogates[ActivationKind.TANH], neg_surrogate,
    )


def _traces(result):
    return {
        "loss": result.loss_trace,
        "power": result.power_trace,
        "val": result.val_accuracy_trace,
        "multiplier": result.multiplier_trace,
    }


def _run(train, capture: bool):
    """One training run + the metrics delta it produced."""
    registry = get_registry()
    before = registry.snapshot()
    result = train(TrainerSettings(epochs=EPOCHS, patience=EPOCHS, capture_graph=capture))
    return result, snapshot_delta(before, registry.snapshot())


class TestBitIdenticalTraces:
    """Eager and replay runs must produce *exactly* equal traces."""

    def _check_pair(self, make_train):
        eager, eager_delta = _run(make_train(), capture=False)
        replay, replay_delta = _run(make_train(), capture=True)
        assert _traces(eager) == _traces(replay)
        assert eager.test_accuracy == replay.test_accuracy
        assert eager.power == replay.power
        assert eager_delta.get("graph_replay_epochs", 0) == 0
        # first epoch records; nearly every later epoch replays
        assert replay_delta.get("graph_replay_epochs", 0) >= EPOCHS - 3

    def test_augmented_lagrangian(self, af_surrogates, neg_surrogate, split):
        dataset, data_split = split

        def make_train():
            net = _net(af_surrogates, neg_surrogate, dataset, seed=3)
            return lambda settings: train_power_constrained(
                net, data_split, power_budget=2e-4, mu=5.0,
                warmup_epochs=8, anneal_epochs=0, settings=settings,
            )

        self._check_pair(make_train)

    def test_penalty(self, af_surrogates, neg_surrogate, split):
        dataset, data_split = split

        def make_train():
            net = _net(af_surrogates, neg_surrogate, dataset, seed=4)
            return lambda settings: train_penalty(
                net, data_split, alpha=0.5, settings=settings
            )

        self._check_pair(make_train)

    def test_unconstrained(self, af_surrogates, neg_surrogate, split):
        dataset, data_split = split

        def make_train():
            net = _net(af_surrogates, neg_surrogate, dataset, seed=5)
            return lambda settings: train_unconstrained(net, data_split, settings=settings)

        self._check_pair(make_train)


class _MaskFlip(TrainerCallback):
    """Install (empty) masks mid-run — a structural graph invalidation."""

    def __init__(self, net, at_epoch: int):
        self.net = net
        self.at_epoch = at_epoch

    def on_epoch(self, event) -> None:
        if event.epoch == self.at_epoch:
            self.net.crossbar_0.set_masks(None, None)


class _NudgeTheta(TrainerCallback):
    """Edit one θ entry between epochs, after the post-step eval ran."""

    def __init__(self, net, every: int = 3):
        self.net = net
        self.every = every

    def on_epoch(self, event) -> None:
        if event.epoch % self.every == 1:
            self.net.crossbar_0.theta.data[0, 0] += 1e-3


class TestHeadFreshness:
    """A step may skip the head only while the head's leaves are unchanged."""

    def test_callback_edit_between_epochs_matches_eager(self, af_surrogates, neg_surrogate):
        data_split = train_val_test_split(load_dataset("iris"), seed=0)

        def run(capture: bool):
            net = _net(af_surrogates, neg_surrogate, "iris", seed=7)
            return train_power_constrained(
                net, data_split, power_budget=2e-4, mu=5.0, warmup_epochs=5,
                anneal_epochs=0, callbacks=[_NudgeTheta(net)],
                settings=TrainerSettings(epochs=20, patience=20, capture_graph=capture),
            )

        eager, replay = run(capture=False), run(capture=True)
        assert _traces(eager) == _traces(replay)
        assert eager.power == replay.power


class TestRecapture:
    def test_structural_change_forces_recapture(self, af_surrogates, neg_surrogate):
        data_split = train_val_test_split(load_dataset("iris"), seed=0)

        def run(with_flip: bool):
            net = _net(af_surrogates, neg_surrogate, "iris", seed=6)
            callbacks = [_MaskFlip(net, at_epoch=12)] if with_flip else None
            registry = get_registry()
            before = registry.snapshot()
            result = train_power_constrained(
                net, data_split, power_budget=2e-4, warmup_epochs=5, anneal_epochs=0,
                settings=TrainerSettings(epochs=25, patience=25, capture_graph=True),
                callbacks=callbacks,
            )
            return result, snapshot_delta(before, registry.snapshot())

        plain, plain_delta = run(with_flip=False)
        flipped, flip_delta = run(with_flip=True)
        # the mask flip adds at least one re-record on top of the AL
        # warmup-boundary recapture both runs share
        assert flip_delta.get("graph_recapture_total", 0) >= \
            plain_delta.get("graph_recapture_total", 0) + 1
        # empty masks are a no-op on values: the runs stay identical
        assert _traces(plain) == _traces(flipped)

    def test_warmup_boundary_changes_epoch_key(self, af_surrogates, neg_surrogate):
        from repro.training.augmented_lagrangian import AugmentedLagrangianObjective

        objective = AugmentedLagrangianObjective(power_budget=1e-4, warmup_epochs=10)
        keys = {objective.graph_epoch_key(e) for e in range(9)}
        assert len(keys) == 1
        assert objective.graph_epoch_key(15) not in keys


class TestFleetRecapture:
    """`set_masks` mid-fleet must invalidate the stacked effective-θ graph."""

    FLIP_EPOCH = 4

    def _run_fleet(self, masks_for=None):
        """Drive a 2-instance fleet; at FLIP_EPOCH install masks per member.

        ``masks_for`` maps member index → (keep, force_positive) masks;
        members not listed get empty masks so the fleet's mask-presence
        uniformity holds.  Returns per-epoch per-instance loss bytes and
        the metrics delta.
        """
        from repro.circuits import PNCConfig
        from repro.training import TrainerSettings
        from repro.training.fleet import FleetProgram
        from repro.training.penalty import PenaltyObjective
        from repro.autograd.optim import Adam
        from repro.datasets import load_dataset, train_val_test_split

        data = load_dataset("iris")
        data_split = train_val_test_split(data, seed=0)
        nets = [
            PrintedNeuralNetwork(
                data.n_features, data.n_classes, PNCConfig(power_mode="analytic"),
                np.random.default_rng(seed),
            )
            for seed in (0, 1)
        ]
        program = FleetProgram(
            nets, [PenaltyObjective(alpha=0.3) for _ in nets], data_split,
            TrainerSettings(epochs=8, capture_graph=True),
        )
        optimizer = Adam(program.parameters(), lr=1.0)
        registry = get_registry()
        before = registry.snapshot()
        losses: list[list[bytes]] = [[], []]
        for epoch in range(8):
            if masks_for is not None and epoch == self.FLIP_EPOCH:
                for index, net in enumerate(nets):
                    keep, positive = masks_for.get(index, (None, None))
                    net.crossbar_0.set_masks(keep, positive)
            optimizer.zero_grad()
            task, _total = program.run_step(epoch)
            optimizer.step()
            program.project_()
            for i in range(2):
                losses[i].append(task.data[i].tobytes())
        return losses, snapshot_delta(before, registry.snapshot())

    def test_empty_masks_force_recapture_without_value_change(self):
        plain, plain_delta = self._run_fleet(masks_for=None)
        flipped, flip_delta = self._run_fleet(masks_for={})
        # the flip invalidates the stacked effective-θ program: at least
        # one extra re-record on top of whatever the plain run needed
        assert flip_delta.get("graph_recapture_total", 0) >= \
            plain_delta.get("graph_recapture_total", 0) + 1
        # empty masks are a values no-op: both instances' traces unchanged
        assert plain == flipped

    def test_pruning_mask_changes_only_the_masked_instance(self):
        plain, _ = self._run_fleet(masks_for=None)
        shape = (6, 3)  # iris crossbar_0 θ: (n_features + bias + neg rows, classes)
        prune = np.ones(shape, dtype=bool)
        prune[0, :] = False  # drop the first input row of member 0 only
        flipped, flip_delta = self._run_fleet(
            masks_for={0: (prune, None), 1: (np.ones(shape, dtype=bool), None)}
        )
        assert flip_delta.get("graph_recapture_total", 0) >= 1
        # per-instance effective-θ stacks re-baked: the pruned member's loss
        # moves from the flip epoch on, the all-keep member's never does
        assert plain[0][:self.FLIP_EPOCH] == flipped[0][:self.FLIP_EPOCH]
        assert plain[0][self.FLIP_EPOCH:] != flipped[0][self.FLIP_EPOCH:]
        assert plain[1] == flipped[1]


class TestCapturedGraphUnit:
    def _program(self):
        with graph_capture():
            a = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
            b = Tensor(np.array([1.5, 0.25, -0.75]), requires_grad=True)
            out = ((a * b).sigmoid() + (a + b).tanh() * a.exp()).sum()
        return a, b, out

    def test_replay_tracks_leaf_updates(self):
        a, b, out = self._program()
        graph = CapturedGraph((out,), backward_root=out)
        rng = np.random.default_rng(0)
        for _ in range(4):
            np.copyto(a.data, rng.normal(size=3))
            np.copyto(b.data, rng.normal(size=3))
            graph.replay_forward()
            # fresh eager reference on the same leaf values
            ra = Tensor(a.data.copy(), requires_grad=True)
            rb = Tensor(b.data.copy(), requires_grad=True)
            ref = ((ra * rb).sigmoid() + (ra + rb).tanh() * ra.exp()).sum()
            assert float(out.data) == float(ref.data)
            a.zero_grad(); b.zero_grad()
            graph.replay_backward()
            ref.backward()
            np.testing.assert_array_equal(a.grad, ra.grad)
            np.testing.assert_array_equal(b.grad, rb.grad)

    def test_is_valid_checks_version_key_and_shapes(self):
        a, b, out = self._program()
        graph = CapturedGraph((out,), epoch_key="warmup")
        assert graph.is_valid("warmup")
        assert not graph.is_valid("main")
        bump_graph_version()
        assert not graph.is_valid("warmup")

    def test_uncapturable_program_raises(self):
        # built OUTSIDE graph_capture: no replay structure was recorded
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = a.sigmoid().sum()
        with pytest.raises(GraphCaptureError):
            CapturedGraph((out,), backward_root=out)

    def test_scalar_output_closure_tracks_buffer(self):
        # regression: 0-d numpy arithmetic yields immutable scalars; the
        # backward closures of sigmoid/tanh/exp/sqrt must still see the
        # replayed buffer, not a frozen copy from the capture epoch
        with graph_capture():
            x = Tensor(np.array(0.3), requires_grad=True)
            out = x.sigmoid() * x.exp() + x.tanh()
        graph = CapturedGraph((out,), backward_root=out)
        for value in (0.3, -1.2, 0.9):
            np.copyto(x.data, value)
            graph.replay_forward()
            x.zero_grad()
            graph.replay_backward()
            rx = Tensor(np.array(value), requires_grad=True)
            ref = rx.sigmoid() * rx.exp() + rx.tanh()
            ref.backward()
            assert float(out.data) == float(ref.data)
            np.testing.assert_array_equal(x.grad, rx.grad)


class TestSplit:
    """``CapturedGraph.split``: a head/tail partition of one forward schedule."""

    @staticmethod
    def _forward(w, x, lam):
        logits = (w * x).tanh() + w.exp()
        power = (logits * logits).sum()
        total = logits.sigmoid().sum() + power * lam
        return logits, power, total

    def _program(self):
        with graph_capture():
            w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
            x = Tensor(np.array([1.5, 0.25, -0.75]))
            lam = Tensor(np.array(0.3))  # read by the tail only, like AL's λ
            logits, power, total = self._forward(w, x, lam)
        graph = CapturedGraph((total, logits, power), backward_root=total)
        head, tail = graph.split((logits, power))
        return w, x, lam, (logits, power, total), graph, head, tail

    def test_parts_partition_the_schedule(self):
        _w, x, lam, _outs, graph, head, tail = self._program()
        head_ids = [id(entry) for entry in head._schedule]
        tail_ids = [id(entry) for entry in tail._schedule]
        assert head_ids and tail_ids
        assert set(head_ids).isdisjoint(tail_ids)
        assert sorted(head_ids + tail_ids) == sorted(id(e) for e in graph._schedule)
        assert head.n_ops + tail.n_ops == graph.n_ops
        # each part keeps the recorded order and its kernel names
        order = {id(entry): i for i, entry in enumerate(graph._schedule)}
        for part in (head, tail):
            positions = [order[id(entry)] for entry in part._schedule]
            assert positions == sorted(positions)
            assert part.kernel_names() == [graph.kernel_names()[i] for i in positions]
        head_leaves = {id(leaf) for leaf, _shape in head._leaf_shapes}
        assert id(x) in head_leaves and id(lam) not in head_leaves

    def test_head_then_tail_equals_full_replay(self):
        w, _x, _lam, _outs, graph, head, tail = self._program()
        np.copyto(w.data, [0.1, 0.7, -0.3])
        graph.replay_forward()
        expected = [out.copy() for _mode, _fwd, _srcs, out in graph._schedule]
        np.copyto(w.data, [-2.0, 0.4, 1.1])
        graph.replay_forward()  # every buffer now holds other values
        np.copyto(w.data, [0.1, 0.7, -0.3])
        head.replay_forward()
        tail.replay_forward()
        for want, (_mode, _fwd, _srcs, out) in zip(expected, graph._schedule):
            assert want.tobytes() == out.tobytes()

    def test_tail_alone_after_tail_leaf_change_matches_eager(self):
        w, x, lam, (logits, power, total), _graph, head, tail = self._program()
        assert not head.leaves_unchanged()  # never stamped
        np.copyto(w.data, [0.9, -0.2, 0.6])
        head.replay_forward()
        head.stamp_leaves()
        np.copyto(lam.data, 1.7)
        assert head.leaves_unchanged()
        tail.replay_forward()
        ref = self._forward(Tensor(w.data.copy()), Tensor(x.data.copy()), Tensor(lam.data.copy()))
        for got, want in zip((logits, power, total), ref):
            assert got.data.tobytes() == want.data.tobytes()
        w.data[0] += 1e-9
        assert not head.leaves_unchanged()


class TestFusedAdamParity:
    def test_fused_matches_loop_bitwise(self):
        rng = np.random.default_rng(42)
        shapes = [(4, 3), (3,), ()]  # matrix, vector, and a 0-d scalar

        def make_params():
            return [
                Parameter(rng_copy[i].copy(), name=f"p{i}")
                for i in range(len(shapes))
            ]

        rng_copy = [rng.normal(size=s) for s in shapes]
        fused_params = make_params()
        loop_params = make_params()
        fused_opt = Adam(fused_params, lr=0.05, fused=True)
        loop_opt = Adam(loop_params, lr=0.05, fused=False)

        for step in range(6):
            grads = [rng.normal(size=s) for s in shapes]
            for params in (fused_params, loop_params):
                for p, g in zip(params, grads):
                    # first two steps: drop one param from the active set,
                    # then re-add it (exercises the fused-layout rebuild)
                    p.grad = None if (step < 2 and p.name == "p1") else np.asarray(g)
            fused_opt.step()
            loop_opt.step()
            for pf, pl in zip(fused_params, loop_params):
                np.testing.assert_array_equal(np.asarray(pf.data), np.asarray(pl.data))
