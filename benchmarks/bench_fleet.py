"""Measure fleet vs serial training throughput; write ``BENCH_fleet.json``.

Trains a 64-seed iris sweep (analytic power mode, one fixed penalty α)
two ways in one process:

- **serial**: one :func:`~repro.training.trainer.train_model` call per
  seed — the pre-vectorization path, still the bit-identity reference;
- **fleet**: a single :func:`~repro.training.fleet.train_fleet` call —
  all 64 instances stacked behind a leading instance axis, one captured
  forward+backward+Adam schedule replayed per epoch.

Reported numbers:

- wall-clock for both paths and their ratio (``fleet_vs_serial``) — the
  number the PR's >=4x claim is about;
- **bit-identity**: every per-instance trace (loss, power, validation
  accuracy), checkpoint state and final metric from the fleet must equal
  the serial run exactly (the fleet's contract);
- capture health: the run must execute by captured-graph replay — the
  ``graph_capture_fallbacks`` counter must not move.

Modes:

    PYTHONPATH=src python benchmarks/bench_fleet.py           # measure + write
    PYTHONPATH=src python benchmarks/bench_fleet.py --check   # CI regression gate

``--check`` re-measures on the current host and fails (exit 1) when

- any fleet trace or final metric diverges from its serial twin;
- the fleet program abandoned capture (eager fallback);
- ``fleet_vs_serial`` falls below the absolute 3.0x floor.  As with the
  Monte-Carlo gate there is no baseline-relative clamp: the serial
  denominator is Python-overhead bound and swings with host load, so the
  committed >=4x headline would turn runner noise into false failures.
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
OUT = REPO / "BENCH_fleet.json"

DATASET = "iris"
N_INSTANCES = 64
ALPHA = 0.2
EPOCHS = 8
SPLIT_SEED = 0
MIN_FLEET_SPEEDUP = 3.0


def _make_problem():
    import numpy as np

    from repro.circuits import PNCConfig, PrintedNeuralNetwork
    from repro.datasets.registry import load_dataset
    from repro.datasets.splits import train_val_test_split
    from repro.training.trainer import TrainerSettings

    data = load_dataset(DATASET)
    split = train_val_test_split(data, seed=SPLIT_SEED)
    settings = TrainerSettings(epochs=EPOCHS, lr=0.05, patience=2, early_stop_stale=4)

    def make_net(seed: int):
        return PrintedNeuralNetwork(
            data.n_features, data.n_classes,
            PNCConfig(power_mode="analytic"),
            np.random.default_rng(seed),
        )

    return make_net, split, settings


def _results_identical(serial, fleet) -> bool:
    import numpy as np

    for a, b in zip(serial, fleet):
        if (
            a.loss_trace != b.loss_trace
            or a.power_trace != b.power_trace
            or a.val_accuracy_trace != b.val_accuracy_trace
            or a.multiplier_trace != b.multiplier_trace
        ):
            return False
        for name in ("train_accuracy", "val_accuracy", "test_accuracy", "power",
                     "best_epoch", "epochs_run", "feasible", "device_count"):
            if getattr(a, name) != getattr(b, name):
                return False
        if set(a.state) != set(b.state):
            return False
        if any(not np.array_equal(a.state[k], b.state[k]) for k in a.state):
            return False
    return True


def measure() -> dict:
    from repro.observability.metrics import get_registry
    from repro.training.fleet import train_fleet
    from repro.training.penalty import PenaltyObjective
    from repro.training.trainer import train_model

    make_net, split, settings = _make_problem()
    seeds = list(range(N_INSTANCES))

    t0 = time.perf_counter()
    serial = [
        train_model(make_net(seed), split, PenaltyObjective(alpha=ALPHA), settings=settings)
        for seed in seeds
    ]
    serial_s = time.perf_counter() - t0

    registry = get_registry()
    fallbacks_before = registry.get("graph_capture_fallbacks").value
    replays_before = registry.get("graph_replay_epochs").value
    nets = [make_net(seed) for seed in seeds]
    objectives = [PenaltyObjective(alpha=ALPHA) for _ in seeds]
    t0 = time.perf_counter()
    fleet = train_fleet(nets, split, objectives, settings=settings)
    fleet_s = time.perf_counter() - t0
    captured = (
        registry.get("graph_capture_fallbacks").value == fallbacks_before
        and registry.get("graph_replay_epochs").value > replays_before
    )

    return {
        "benchmark": "fleet",
        "command": "python -m repro.cli sweep <dataset>",
        "dataset": DATASET,
        "n_instances": N_INSTANCES,
        "alpha": ALPHA,
        "epochs": EPOCHS,
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "serial": {
            "total_s": serial_s,
            "instances_per_s": N_INSTANCES / serial_s,
        },
        "fleet": {
            "total_s": fleet_s,
            "instances_per_s": N_INSTANCES / fleet_s,
        },
        "fleet_vs_serial": serial_s / fleet_s,
        "program_captured": bool(captured),
        "results_bit_identical": _results_identical(serial, fleet),
    }


def check(fresh: dict) -> int:
    """Gate a fresh measurement against the committed baseline; 0 = pass."""
    if not OUT.exists():
        print(f"FAIL: no baseline {OUT.name}; run without --check first", file=sys.stderr)
        return 1
    baseline = json.loads(OUT.read_text())
    failures: list[str] = []

    if not fresh["results_bit_identical"]:
        failures.append("fleet and serial per-instance results diverged (bit-identity broken)")
    if not fresh["program_captured"]:
        failures.append("fleet program fell back to eager execution (capture failed)")

    ratio = fresh["fleet_vs_serial"]
    base_ratio = baseline.get("fleet_vs_serial")
    if ratio < MIN_FLEET_SPEEDUP:
        failures.append(
            f"throughput regression: fleet_vs_serial {ratio:.2f}x < "
            f"{MIN_FLEET_SPEEDUP}x floor "
            f"(committed baseline {base_ratio and f'{base_ratio:.2f}x'})"
        )
    else:
        print(
            f"fleet_vs_serial {ratio:.2f}x "
            f"(floor {MIN_FLEET_SPEEDUP}x, baseline "
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
                        help="gate against the committed BENCH_fleet.json instead of rewriting it")
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
