"""Measure vectorized vs serial Monte-Carlo throughput; write ``BENCH_montecarlo.json``.

Builds an analytic-mode network, samples 256 printed instances (the
:class:`~repro.pdk.variation.VariationSpec` defaults), and evaluates them
two ways in one process:

- **serial**: :func:`~repro.evaluation.montecarlo.evaluate_instances` — one
  eager forward per instance, perturbing the network in place (the
  reference oracle of the stacked path);
- **vectorized**: :func:`~repro.evaluation.montecarlo.evaluate_instances_vectorized`
  — instances stacked 64 per chunk and replayed through the captured-graph
  :class:`~repro.circuits.ensemble.EnsembleProgram`.

Reported numbers:

- instances/s for both paths and their ratio (``vectorized_vs_serial``,
  measured warm — the program cache hit, the steady state of every run past
  the first chunk shape) — the number the PR's >=5x claim is about;
- ``cold_vectorized_vs_serial`` — first-call ratio including the one-time
  graph capture, so the amortization cost stays visible;
- **bit-identity**: per-instance accuracies and powers from the stacked
  path must equal the serial loop exactly (the engine's contract).

Modes:

    PYTHONPATH=src python benchmarks/bench_montecarlo.py           # measure + write
    PYTHONPATH=src python benchmarks/bench_montecarlo.py --check   # CI regression gate

``--check`` re-measures on the current host and fails (exit 1) when

- vectorized and serial per-instance results are not bit-identical;
- the ensemble program fell back to eager execution (capture failed);
- ``vectorized_vs_serial`` falls below the absolute 3.0x floor.  Unlike
  the serving gate there is no baseline-relative clamp: the ratio's
  denominator (the serial per-instance loop) is Python-overhead bound and
  swings hard with host load, so a committed >=10x baseline would turn
  ordinary runner noise into false failures.  The committed baseline
  still records the measured >=5x headline number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "BENCH_montecarlo.json"

IN_FEATURES = 4
N_CLASSES = 3
N_ROWS = 30
SEED = 7
SAMPLE_SEED = 11
N_INSTANCES = 256
INSTANCE_CHUNK = 64
MIN_VECTORIZED_SPEEDUP = 3.0


def _make_problem():
    import numpy as np

    from repro.circuits import PNCConfig, PrintedNeuralNetwork

    rng = np.random.default_rng(SEED)
    net = PrintedNeuralNetwork(
        IN_FEATURES, N_CLASSES,
        PNCConfig(power_mode="analytic"),
        rng,
    )
    net.eval()
    x = rng.uniform(-0.6, 0.6, size=(N_ROWS, IN_FEATURES))
    y = rng.integers(0, N_CLASSES, size=N_ROWS)
    return net, x, y


def _instance_rngs():
    import numpy as np

    seqs = np.random.SeedSequence(SAMPLE_SEED).spawn(N_INSTANCES)
    return [np.random.default_rng(seq) for seq in seqs]


def measure() -> dict:
    import numpy as np

    from repro.evaluation import montecarlo as mc
    from repro.pdk.variation import VariationSpec

    net, x, y = _make_problem()
    spec = VariationSpec()

    t0 = time.perf_counter()
    serial_acc, serial_pow = mc.evaluate_instances(net, x, y, spec, _instance_rngs())
    serial_s = time.perf_counter() - t0
    serial_inst_per_s = N_INSTANCES / serial_s

    # Cold: first call pays the one-time eager capture of the stacked graph.
    mc._PROGRAM_CACHE = None
    t0 = time.perf_counter()
    vec_acc, vec_pow = mc.evaluate_instances_vectorized(
        net, x, y, spec, _instance_rngs(), instance_chunk=INSTANCE_CHUNK
    )
    cold_s = time.perf_counter() - t0

    # Warm: the program cache hits — the steady state of a long Monte-Carlo
    # run and of every run after the first against the same trained network.
    t0 = time.perf_counter()
    vec_acc, vec_pow = mc.evaluate_instances_vectorized(
        net, x, y, spec, _instance_rngs(), instance_chunk=INSTANCE_CHUNK
    )
    warm_s = time.perf_counter() - t0
    warm_inst_per_s = N_INSTANCES / warm_s

    identical = bool(
        np.array_equal(serial_acc, vec_acc) and np.array_equal(serial_pow, vec_pow)
    )
    captured = mc._PROGRAM_CACHE is not None and mc._PROGRAM_CACHE[1].captured

    return {
        "benchmark": "montecarlo",
        "command": "python -m repro.cli montecarlo <dataset>",
        "net": {"in_features": IN_FEATURES, "n_classes": N_CLASSES, "seed": SEED},
        "n_instances": N_INSTANCES,
        "instance_chunk": INSTANCE_CHUNK,
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "serial": {
            "total_s": serial_s,
            "instances_per_s": serial_inst_per_s,
        },
        "vectorized_cold": {
            "total_s": cold_s,
            "instances_per_s": N_INSTANCES / cold_s,
        },
        "vectorized_warm": {
            "total_s": warm_s,
            "instances_per_s": warm_inst_per_s,
        },
        "vectorized_vs_serial": warm_inst_per_s / serial_inst_per_s,
        "cold_vectorized_vs_serial": (N_INSTANCES / cold_s) / serial_inst_per_s,
        "program_captured": bool(captured),
        "results_bit_identical": identical,
    }


def check(fresh: dict) -> int:
    """Gate a fresh measurement against the committed baseline; 0 = pass."""
    if not OUT.exists():
        print(f"FAIL: no baseline {OUT.name}; run without --check first", file=sys.stderr)
        return 1
    baseline = json.loads(OUT.read_text())
    failures: list[str] = []

    if not fresh["results_bit_identical"]:
        failures.append("vectorized and serial per-instance results diverged (bit-identity broken)")
    if not fresh["program_captured"]:
        failures.append("ensemble program fell back to eager execution (capture failed)")

    ratio = fresh["vectorized_vs_serial"]
    base_ratio = baseline.get("vectorized_vs_serial")
    if ratio < MIN_VECTORIZED_SPEEDUP:
        failures.append(
            f"throughput regression: vectorized_vs_serial {ratio:.2f}x < "
            f"{MIN_VECTORIZED_SPEEDUP}x floor "
            f"(committed baseline {base_ratio and f'{base_ratio:.2f}x'})"
        )
    else:
        print(
            f"vectorized_vs_serial {ratio:.2f}x "
            f"(floor {MIN_VECTORIZED_SPEEDUP}x, baseline "
            f"{base_ratio and f'{base_ratio:.2f}x'}) — ok"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("benchmark gate passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed BENCH_montecarlo.json instead of rewriting it")
    args = parser.parse_args()

    payload = measure()
    print(json.dumps(payload, indent=2, default=float))
    if args.check:
        return check(payload)
    OUT.write_text(json.dumps(payload, indent=2, default=float) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
