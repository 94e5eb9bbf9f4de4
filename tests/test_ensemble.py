"""Instance-axis vectorization: the ensemble engine and Monte-Carlo paths.

The contract under test is *bit-identity*: stacking printed instances on a
leading tensor axis and replaying them through the captured graph must
reproduce the serial per-instance loop exactly — same accuracies, same
powers, for any chunk size, any job count, and both power modes.  These
tests are the license for routing yield analysis through
:class:`repro.circuits.ensemble.EnsembleProgram`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.circuits import PrintedNeuralNetwork, PNCConfig
from repro.circuits.ensemble import EnsembleProgram, sample_instance_stack
from repro.evaluation.montecarlo import (
    MonteCarloReport,
    evaluate_instances,
    evaluate_instances_vectorized,
    run_monte_carlo,
)
from repro.observability.events import ListSink, RunLogger
from repro.observability.metrics import get_registry
from repro.pdk.params import ActivationKind
from repro.pdk.variation import NOMINAL, VariationSpec


def _make_net(kind, af_surrogates, neg_surrogate, seed=3, power_mode="surrogate",
              count_mode="straight_through"):
    net = PrintedNeuralNetwork(
        4, 3, PNCConfig(kind=kind, power_mode=power_mode, count_mode=count_mode),
        np.random.default_rng(seed),
        af_surrogates[kind], neg_surrogate,
    )
    net.eval()
    return net


def _rngs(seed, n):
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n)]


@pytest.fixture
def xy(rng):
    x = rng.random((24, 4))
    y = rng.integers(0, 3, size=24)
    return x, y


# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("kind", [ActivationKind.RELU, ActivationKind.TANH])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_vectorized_matches_serial(self, kind, seed, af_surrogates, neg_surrogate, xy):
        """Stacked chunks (with a padded tail: 7 instances, chunk 3)
        reproduce the serial loop bit for bit."""
        x, y = xy
        net = _make_net(kind, af_surrogates, neg_surrogate)
        spec = VariationSpec()
        acc_s, pow_s = evaluate_instances(net, x, y, spec, _rngs(seed, 7))
        acc_v, pow_v = evaluate_instances_vectorized(
            net, x, y, spec, _rngs(seed, 7), instance_chunk=3
        )
        np.testing.assert_array_equal(acc_s, acc_v)
        np.testing.assert_array_equal(pow_s, pow_v)

    def test_analytic_power_mode(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate,
                        power_mode="analytic")
        spec = VariationSpec()
        acc_s, pow_s = evaluate_instances(net, x, y, spec, _rngs(5, 5))
        acc_v, pow_v = evaluate_instances_vectorized(
            net, x, y, spec, _rngs(5, 5), instance_chunk=2
        )
        np.testing.assert_array_equal(acc_s, acc_v)
        np.testing.assert_array_equal(pow_s, pow_v)

    @pytest.mark.parametrize("power_mode", ["surrogate", "analytic"])
    def test_soft_count_mode(self, power_mode, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate,
                        power_mode=power_mode, count_mode="soft")
        spec = VariationSpec()
        acc_s, pow_s = evaluate_instances(net, x, y, spec, _rngs(8, 5))
        acc_v, pow_v = evaluate_instances_vectorized(
            net, x, y, spec, _rngs(8, 5), instance_chunk=3
        )
        np.testing.assert_array_equal(acc_s, acc_v)
        np.testing.assert_array_equal(pow_s, pow_v)

    def test_distinct_layer_surrogates(self, af_surrogates, neg_surrogate, xy):
        """A hand-assembled net whose activation layers hold distinct
        surrogate objects takes the per-layer P^AF path; stacked still
        equals serial."""
        import copy

        x, y = xy
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        last = net.activations()[-1]
        last.surrogate = copy.deepcopy(last.surrogate)
        assert net.activations()[0].surrogate is not last.surrogate
        spec = VariationSpec()
        acc_s, pow_s = evaluate_instances(net, x, y, spec, _rngs(4, 5))
        acc_v, pow_v = evaluate_instances_vectorized(
            net, x, y, spec, _rngs(4, 5), instance_chunk=2
        )
        np.testing.assert_array_equal(acc_s, acc_v)
        np.testing.assert_array_equal(pow_s, pow_v)

    def test_chunk_size_invariance(self, af_surrogates, neg_surrogate, xy):
        """Any chunking — including chunk 1 and chunk > n — gives the same
        bits (grouping invariance of the per-element solves and GEMMs)."""
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        spec = VariationSpec()
        reference = evaluate_instances_vectorized(net, x, y, spec, _rngs(2, 6),
                                                  instance_chunk=6)
        for chunk in (1, 2, 4, 13):
            acc, pw = evaluate_instances_vectorized(net, x, y, spec, _rngs(2, 6),
                                                    instance_chunk=chunk)
            np.testing.assert_array_equal(reference[0], acc)
            np.testing.assert_array_equal(reference[1], pw)

    def test_nominal_spec_matches_nominal_forward(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        report = run_monte_carlo(net, x, y, NOMINAL, n_samples=4, vectorized=True,
                                 instance_chunk=4)
        np.testing.assert_allclose(report.accuracies, report.nominal_accuracy)
        np.testing.assert_allclose(report.powers, report.nominal_power, rtol=1e-12)

    def test_run_monte_carlo_vectorized_flag(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        spec = VariationSpec()
        kwargs = dict(n_samples=6, seed=9, power_budget=1e-3, accuracy_floor=0.3)
        serial = run_monte_carlo(net, x, y, spec, **kwargs)
        vector = run_monte_carlo(net, x, y, spec, vectorized=True, instance_chunk=4,
                                 **kwargs)
        np.testing.assert_array_equal(serial.accuracies, vector.accuracies)
        np.testing.assert_array_equal(serial.powers, vector.powers)
        assert serial.parametric_yield == vector.parametric_yield

    def test_vectorized_with_process_pool(self, af_surrogates, neg_surrogate, xy):
        """Workers shard chunks of stacks; results equal the serial loop."""
        x, y = xy
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        spec = VariationSpec()
        kwargs = dict(n_samples=6, seed=4, power_budget=1e-3, accuracy_floor=0.3)
        serial = run_monte_carlo(net, x, y, spec, n_jobs=1, **kwargs)
        pooled = run_monte_carlo(net, x, y, spec, n_jobs=2, vectorized=True,
                                 instance_chunk=2, **kwargs)
        np.testing.assert_array_equal(serial.accuracies, pooled.accuracies)
        np.testing.assert_array_equal(serial.powers, pooled.powers)

    def test_net_restored_after_vectorized_run(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        before = net.state_dict()
        evaluate_instances_vectorized(net, x, y, VariationSpec(), _rngs(1, 3))
        after = net.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


# ----------------------------------------------------------------------
class TestEnsembleProgram:
    def test_captures_graph(self, af_surrogates, neg_surrogate, xy):
        x, _ = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        program = EnsembleProgram(net, x, 4)
        assert program.captured

    def test_load_validates_stack_size(self, af_surrogates, neg_surrogate, xy):
        x, _ = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        program = EnsembleProgram(net, x, 2)
        oversized = sample_instance_stack(net, VariationSpec(), _rngs(0, 3))
        with pytest.raises(ValueError):
            program.load(oversized)

    def test_padded_tail_slots_hold_nominal_instance(
        self, af_surrogates, neg_surrogate, xy
    ):
        """A short stack pads the spare slots with the unperturbed base, so
        the padded replay stays physical (no zero conductances) and the
        real slots keep their bits."""
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        program = EnsembleProgram(net, x, 4)
        stack = sample_instance_stack(net, VariationSpec(), _rngs(6, 2),
                                      base_thetas=program._base_thetas)
        k = program.load(stack)
        assert k == 2
        logits, total = program.run()
        acc_s, pow_s = evaluate_instances(net, x, y, VariationSpec(), _rngs(6, 2))
        import repro.autograd.functional as F

        np.testing.assert_array_equal(F.instance_accuracy(logits[:k], y), acc_s)
        np.testing.assert_array_equal(total[:k], pow_s)

    def test_instance_chunk_must_be_positive(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        with pytest.raises(ValueError):
            evaluate_instances_vectorized(net, x, y, NOMINAL, _rngs(0, 2),
                                          instance_chunk=0)

    def test_zero_instances(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        acc, pw = evaluate_instances_vectorized(net, x, y, NOMINAL, [])
        assert acc.shape == (0,) and pw.shape == (0,)


# ----------------------------------------------------------------------
class TestEffectiveThetaReuse:
    def test_serial_loop_materializes_theta_once_per_crossbar(
        self, af_surrogates, neg_surrogate, xy
    ):
        """evaluate_instances computes one masked effective θ per crossbar
        and perturbs that base per instance — n_layers materializations per
        call, not n_layers × n_instances."""
        x, y = xy
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        counter = get_registry().counter("effective_theta_computes", "")
        t0 = counter.value
        evaluate_instances(net, x, y, VariationSpec(), _rngs(0, 5))
        assert counter.value - t0 == net.n_layers


# ----------------------------------------------------------------------
class TestReportEdgeCases:
    def _report(self, accuracies, powers, budget=1e-3, floor=0.5):
        return MonteCarloReport(
            accuracies=np.asarray(accuracies, dtype=float),
            powers=np.asarray(powers, dtype=float),
            nominal_accuracy=0.9,
            nominal_power=5e-4,
            power_budget=budget,
            accuracy_floor=floor,
        )

    def test_single_instance(self):
        report = self._report([0.8], [5e-4])
        assert report.n_samples == 1
        assert report.parametric_yield == 1.0
        assert report.quantile(0.05) == 0.8
        assert report.quantile(0.95, "power") == 5e-4
        assert report.accuracy_std == 0.0

    def test_all_pass(self):
        report = self._report([0.9, 0.8, 0.7], [1e-4, 2e-4, 3e-4])
        assert report.parametric_yield == 1.0

    def test_all_fail(self):
        report = self._report([0.1, 0.2], [5e-3, 6e-3])
        assert report.parametric_yield == 0.0

    def test_nan_counts_as_failure(self):
        """NaN-poisoned slots (e.g. a crashed worker) never pass the floor
        or the budget, and never poison the yield itself."""
        report = self._report([0.9, np.nan, 0.8], [1e-4, np.nan, 2e-4])
        assert report.parametric_yield == pytest.approx(2 / 3)

    def test_empty_quantile_raises(self):
        report = self._report([], [])
        with pytest.raises(ValueError, match="empty Monte-Carlo report"):
            report.quantile(0.05)
        with pytest.raises(ValueError, match="power"):
            report.quantile(0.95, "power")

    def test_empty_yield_is_zero(self):
        assert self._report([], []).parametric_yield == 0.0


# ----------------------------------------------------------------------
class TestChunkTelemetry:
    def test_vectorized_emits_per_chunk_events(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        sink = ListSink()
        logger = RunLogger(sink)
        instances = get_registry().counter("montecarlo_instances_total", "")
        i0 = instances.value
        evaluate_instances_vectorized(net, x, y, NOMINAL, _rngs(0, 5),
                                      instance_chunk=2, run_logger=logger, start=10)
        events = [e for e in sink.events if e["type"] == "montecarlo"]
        assert [e["instances"] for e in events] == [2, 2, 1]
        assert [e["start"] for e in events] == [10, 12, 14]
        assert all(e["vectorized"] is True for e in events)
        assert all(e["duration_s"] >= 0 for e in events)
        assert instances.value - i0 == 5

    def test_serial_run_emits_one_event(self, af_surrogates, neg_surrogate, xy):
        x, y = xy
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        sink = ListSink()
        seconds = get_registry().histogram("montecarlo_chunk_seconds", "")
        c0 = seconds.count
        run_monte_carlo(net, x, y, NOMINAL, n_samples=3, run_logger=RunLogger(sink))
        events = [e for e in sink.events if e["type"] == "montecarlo"]
        assert len(events) == 1
        assert events[0]["instances"] == 3
        assert events[0]["vectorized"] is False
        assert seconds.count - c0 == 1
