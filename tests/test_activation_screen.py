"""The batched activation init screen equals the per-candidate loop bit for bit.

:meth:`PrintedActivation._screen_units` solves all q candidates in one
broadcast transfer call.  The oracle below is the per-candidate loop it
replaced — one ``output_and_power`` solve per draw — kept here only as the
reference: the chosen unit, its score, the generator state afterwards and
every network built from either screen must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.circuits import PNCConfig, PrintedActivation, PrintedNeuralNetwork
from repro.circuits.crossbar import CrossbarLayer
from repro.pdk.params import ALL_ACTIVATIONS, ActivationKind

SEEDS = range(8)
INIT_PROBE = np.linspace(-0.6, 0.6, 13)


def _oracle_screen(self, rng, probe, attempts):
    """One transfer solve per candidate — the reference the batched screen must equal."""
    probe = np.sort(np.asarray(probe, dtype=np.float64).reshape(-1))
    best_unit, best_score = None, -np.inf
    for _ in range(attempts):
        unit = 0.1 + 0.8 * rng.random(self._dim)
        q = self.space.from_unit(unit)
        with no_grad():
            v_out, _ = self.transfer.output_and_power(Tensor(probe), [Tensor(v) for v in q])
        values = v_out.data
        gaps = np.diff(probe)
        slopes = np.abs(np.diff(values)) / np.where(gaps < 1e-12, 1e-12, gaps)
        responsive = float((slopes > 0.05).sum())
        score = responsive + 0.1 * float(np.std(values))
        if score > best_score:
            best_unit, best_score = unit, score
    return best_unit, best_score


def _calibration_probe() -> np.ndarray:
    """The probe shape construction calibrates against: rounded crossbar outputs."""
    rng = np.random.default_rng(7)
    crossbar = CrossbarLayer(4, 3, rng=rng)
    with no_grad():
        v_z = crossbar(Tensor(rng.random((64, 4))))
    return np.unique(np.round(v_z.data.reshape(-1), 4))


PROBES = {"init": INIT_PROBE, "calibration": _calibration_probe()}


@pytest.mark.parametrize("probe_name", sorted(PROBES))
@pytest.mark.parametrize("kind", ALL_ACTIVATIONS, ids=lambda kind: kind.name)
def test_batched_screen_matches_per_candidate_loop(kind, probe_name):
    probe = PROBES[probe_name]
    layer = PrintedActivation(kind, np.random.default_rng(0), power_mode="analytic")
    for seed in SEEDS:
        rng_batched, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        unit, score = layer._screen_units(rng_batched, probe, 64)
        expected_unit, expected_score = _oracle_screen(layer, rng_oracle, probe, 64)
        assert unit.tobytes() == expected_unit.tobytes(), f"seed {seed}: unit"
        assert score == expected_score, f"seed {seed}: score"
        assert rng_batched.random() == rng_oracle.random(), f"seed {seed}: rng state"


@pytest.mark.parametrize("calibrate", [True, False])
@pytest.mark.parametrize("kind", ALL_ACTIVATIONS, ids=lambda kind: kind.name)
def test_network_build_matches_per_candidate_loop(
    kind, calibrate, af_surrogates, neg_surrogate, monkeypatch
):
    def build():
        return PrintedNeuralNetwork(
            4, 3, PNCConfig(kind=kind), np.random.default_rng(3),
            af_surrogates[kind], neg_surrogate, calibrate=calibrate,
        )

    batched = build()
    monkeypatch.setattr(PrintedActivation, "_screen_units", _oracle_screen)
    oracle = build()
    state, expected = batched.state_dict(), oracle.state_dict()
    assert state.keys() == expected.keys()
    for name in state:
        assert state[name].tobytes() == expected[name].tobytes(), name
    assert batched.logit_scale == oracle.logit_scale


def test_screen_is_one_transfer_solve(monkeypatch):
    layer = PrintedActivation(ActivationKind.TANH, np.random.default_rng(0), power_mode="analytic")
    calls = []
    solve = layer.transfer.output_and_power

    def counting(v_in, q):
        calls.append((v_in.shape, [column.shape for column in q]))
        return solve(v_in, q)

    monkeypatch.setattr(layer.transfer, "output_and_power", counting)
    layer._screen_units(np.random.default_rng(1), INIT_PROBE, 64)
    assert calls == [((1, 13), [(64, 1)] * layer.space.dimension)]
