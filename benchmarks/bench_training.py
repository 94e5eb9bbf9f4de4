"""Measure captured-graph replay vs eager training; write ``BENCH_training.json``.

Runs the same 40-epoch augmented-Lagrangian iris training in one process,
alternating ``capture_graph=False`` (every epoch eager) with the default
capture-and-replay engine ``SPEEDUP_PAIRS`` times, and compares:

- **per-epoch step time** (each epoch's ``epoch_step_time_s``): the step
  speedup is the ratio of the two modes' *medians* over every epoch but
  the first (the replay run's capture epoch, left out on both sides),
  pooled over ``SPEEDUP_PAIRS`` alternating eager/replay trainings, so
  neither one slow epoch nor one slow stretch of the host moves it;
- **per-epoch eval time** (``epoch_eval_time_s`` histogram mean);
- **op counts** of the captured programs — the structural fingerprint of
  the execution engine.  The step's forward is split in two:
  ``graph_eval_ops`` counts the head (logits + power), which the post-step
  eval replays; ``graph_step_ops`` counts the tail (loss and objective
  terms), which the next step replays before its backward.
  ``graph_val_ops`` counts the separate validation forward;
- **trace bit-identity**: loss / power / multiplier / validation-accuracy
  traces must be *exactly* equal between the two modes.

Modes:

    PYTHONPATH=src python benchmarks/bench_training.py           # measure + write
    PYTHONPATH=src python benchmarks/bench_training.py --check   # CI regression gate

``--check`` re-measures on the current host and fails (exit 1) when

- any captured-graph op count differs from the committed baseline (an op
  crept into the hot loop — always a real regression, host-independent);
- the measured step-time speedup (ratio of per-epoch medians) is missing
  or falls below baseline/1.25 (a >25% relative wall-time regression;
  comparing *ratios* keeps the gate host-independent);
- the replay run replays fewer epochs, or re-records more often, than the
  baseline (an engine that stops replaying cannot pass on its medians);
- the eager and replay traces are not bit-identical;
- tracing misbehaves: an --trace training's traces differ from the
  untraced run (bit-identity), the per-kernel interval scheme attributes
  <95% of replay wall time, or the tracing-*disabled* replay path costs
  >2% over the pre-tracing loop (measured as an interleaved min-of-trials
  A/B on one captured graph — same-host ratio, so host-independent).
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
OUT = REPO / "BENCH_training.json"
DATASET = "iris"
EPOCHS = 40
BUDGET_FRACTION = 0.4
WALL_TIME_TOLERANCE = 1.25
#: eager/replay training pairs pooled into the step-speedup medians
SPEEDUP_PAIRS = 5
#: The tracing-disabled replay path may cost at most 2% over the bare loop.
TRACING_OVERHEAD_TOLERANCE = 1.02
#: The interval scheme must attribute at least this share of replay wall.
KERNEL_COVERAGE_FLOOR = 0.95

#: op-count gauges that must match the committed baseline exactly
OP_GAUGES = ("graph_step_ops", "graph_eval_ops", "graph_val_ops")


def _setup():
    from repro.datasets import load_dataset, train_val_test_split
    from repro.pdk.params import ActivationKind
    from repro.power.surrogate import get_cached_surrogate

    data = load_dataset(DATASET)
    split = train_val_test_split(data, seed=0)
    af = get_cached_surrogate(ActivationKind.TANH, n_q=800, epochs=60)
    neg = get_cached_surrogate("negation", n_q=500, epochs=60)
    return data, split, af, neg


def _make_net(data, af, neg, seed):
    import numpy as np

    from repro.circuits import PNCConfig, PrintedNeuralNetwork
    from repro.pdk.params import ActivationKind

    return PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
        np.random.default_rng(seed), af, neg,
    )


def _hist_mean_ms(delta: dict, name: str) -> float | None:
    hist = delta.get(name)
    if not isinstance(hist, dict) or not hist.get("count"):
        return None
    return hist["sum"] / hist["count"] * 1e3


def _step_times_callback():
    """A trainer callback recording each epoch's step time."""
    from repro.observability.callbacks import TrainerCallback

    class StepTimes(TrainerCallback):
        def __init__(self):
            self.step_s: list[float] = []

        def on_epoch(self, event) -> None:
            self.step_s.append(event.epoch_step_time_s)

    return StepTimes()


def _median_ms(runs: list[dict], epochs: list[int]) -> float | None:
    """Median step time over ``epochs`` of every run, pooled, in ms."""
    import statistics

    times = [run["step_s"][i] for run in runs for i in epochs]
    return statistics.median(times) * 1e3 if times else None


def _train_once(capture: bool, data, split, af, neg, budget: float) -> dict:
    from repro.observability.metrics import get_registry, snapshot_delta
    from repro.training import TrainerSettings, train_power_constrained

    settings = TrainerSettings(epochs=EPOCHS, patience=EPOCHS, capture_graph=capture)
    net = _make_net(data, af, neg, seed=1)
    steps = _step_times_callback()
    registry = get_registry()
    before = registry.snapshot()
    t0 = time.perf_counter()
    result = train_power_constrained(
        net, split, power_budget=budget, mu=5.0, settings=settings, callbacks=[steps]
    )
    total_s = time.perf_counter() - t0
    delta = snapshot_delta(before, registry.snapshot())
    stats = {
        "mode": "replay" if capture else "eager",
        "total_s": total_s,
        "step_time_mean_ms": _hist_mean_ms(delta, "epoch_step_time_s"),
        "eval_time_mean_ms": _hist_mean_ms(delta, "epoch_eval_time_s"),
        "replay_epochs": int(delta.get("graph_replay_epochs", 0)),
        "recaptures": int(delta.get("graph_recapture_total", 0)),
        "capture_fallbacks": int(delta.get("graph_capture_fallbacks", 0)),
    }
    if capture:
        for gauge in OP_GAUGES:
            stats[gauge] = int(registry.gauge(gauge).value)
    traces = {
        "loss": result.loss_trace,
        "power": result.power_trace,
        "multiplier": result.multiplier_trace,
        "val_accuracy": result.val_accuracy_trace,
    }
    return {"stats": stats, "traces": traces, "step_s": steps.step_s,
            "test_accuracy": result.test_accuracy, "power_w": result.power}


def _bench_disabled_overhead(pairs: int = 21, replays: int = 300) -> dict:
    """A/B the tracing-disabled ``replay_forward`` against the bare loop.

    The only cost tracing may add to an untraced replay is the
    ``timings is None`` branch; this measures it directly by re-running
    one captured graph's schedule through ``replay_forward()`` and through
    an inlined copy of the pre-tracing loop.  Estimator: the two sides run
    back to back in each pair, and the reported ratio is the *median* of
    the per-pair ratios — adjacent-in-time pairing cancels the machine
    noise (frequency scaling, co-tenants) that makes min-of-trials flaky.
    """
    import statistics

    import numpy as np

    from repro.autograd.graph import _MODE_UFUNC, capture_forward
    from repro.autograd.tensor import Tensor

    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(16, 24)))
    w2 = Tensor(rng.normal(size=(24, 8)))
    x = Tensor(rng.normal(size=(64, 16)))

    def forward(inp):
        return ((inp @ w1).tanh() @ w2).sum()

    graph = capture_forward(forward, x)
    replay = graph.replay_forward

    def bare_replay(g):
        # Verbatim copy of the pre-tracing replay_forward body: same
        # attribute lookup, same loop — minus the ``timings`` branch.
        for mode, fwd, srcs, out in g._schedule:
            if mode == _MODE_UFUNC:
                fwd(*[s.data for s in srcs], out=out)
            else:
                result = fwd(*[s.data for s in srcs])
                if result is not out:
                    np.copyto(out, result, casting="unsafe")

    def bare_loop():
        bare_replay(graph)

    def timed(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(replays):
            fn()
        return time.perf_counter() - t0

    def paired_trial() -> float:
        """One trial: single calls alternated A/B/A/B in a tight loop.

        Pairing at the single-call level (~tens of µs apart) means both
        sides see the same instantaneous machine state; summing over many
        alternations averages out the per-call timer jitter.
        """
        t_bare = t_disabled = 0.0
        clock = time.perf_counter
        for _ in range(replays):
            t0 = clock()
            bare_loop()
            t1 = clock()
            replay()
            t2 = clock()
            replay()
            t3 = clock()
            bare_loop()
            t4 = clock()
            t_bare += (t1 - t0) + (t4 - t3)
            t_disabled += (t2 - t1) + (t3 - t2)
        return t_disabled / t_bare

    timed(bare_loop), timed(replay)  # warm up
    ratios = [paired_trial() for _ in range(pairs)]
    return {
        "pairs": pairs,
        "replays": replays,
        "n_ops": graph.n_ops,
        "disabled_overhead_ratio": statistics.median(ratios),
    }


def _train_traced(data, split, af, neg, budget: float) -> tuple[dict, float | None]:
    """One replay-mode training under --trace; returns (run, min coverage)."""
    from repro.observability.tracing import (
        disable_tracing,
        enable_tracing,
        get_kernel_profiler,
        get_tracer,
    )

    enable_tracing()
    try:
        traced = _train_once(True, data, split, af, neg, budget)
        kernels = get_kernel_profiler().as_json()
    finally:
        disable_tracing()
        get_tracer().reset()
        get_kernel_profiler().reset()
    coverages = [
        entry["attributed_s"] / entry["wall_s"]
        for entry in kernels["labels"].values()
        if entry["wall_s"] > 0
    ]
    return traced, (min(coverages) if coverages else None)


def measure() -> dict:
    from repro.training import TrainerSettings, train_unconstrained

    data, split, af, neg = _setup()
    reference = train_unconstrained(
        _make_net(data, af, neg, seed=0), split,
        settings=TrainerSettings(epochs=EPOCHS, patience=EPOCHS),
    )
    budget = BUDGET_FRACTION * max(reference.power_trace)

    # Alternate the modes so both sample the same spread of host states.
    pairs = [
        (_train_once(False, data, split, af, neg, budget),
         _train_once(True, data, split, af, neg, budget))
        for _ in range(SPEEDUP_PAIRS)
    ]
    eager, replay = pairs[0]
    traced, kernel_coverage = _train_traced(data, split, af, neg, budget)

    identical = all(e["traces"] == r["traces"] == eager["traces"] for e, r in pairs)
    # Both sides over the same epochs: all but the replay run's capture epoch.
    steady = list(range(1, len(replay["step_s"])))
    eager_ms = eager["stats"]["step_time_median_ms"] = _median_ms([e for e, _ in pairs], steady)
    replay_ms = replay["stats"]["step_time_median_ms"] = _median_ms([r for _, r in pairs], steady)
    return {
        "benchmark": "training",
        "command": f"python -m repro.cli train {DATASET} --epochs {EPOCHS} --profile",
        "dataset": DATASET,
        "epochs": EPOCHS,
        "budget_fraction": BUDGET_FRACTION,
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "eager": eager["stats"],
        "replay": replay["stats"],
        "step_time_speedup": eager_ms / replay_ms if replay_ms else None,
        "eval_time_speedup": (
            eager["stats"]["eval_time_mean_ms"] / replay["stats"]["eval_time_mean_ms"]
            if replay["stats"]["eval_time_mean_ms"] else None
        ),
        "traces_bit_identical": identical,
        "tracing": {
            "traced_traces_bit_identical": replay["traces"] == traced["traces"],
            "kernel_coverage_min": kernel_coverage,
            "disabled_overhead": _bench_disabled_overhead(),
        },
    }


def check(fresh: dict) -> int:
    """Gate a fresh measurement against the committed baseline; 0 = pass."""
    if not OUT.exists():
        print(f"FAIL: no baseline {OUT.name}; run without --check first", file=sys.stderr)
        return 1
    baseline = json.loads(OUT.read_text())
    failures: list[str] = []

    if not fresh["traces_bit_identical"]:
        failures.append("eager and replay traces diverged (bit-identity broken)")

    for gauge in OP_GAUGES:
        was, now = baseline["replay"].get(gauge), fresh["replay"].get(gauge)
        if was is not None and now != was:
            failures.append(f"op-count regression: {gauge} {was} -> {now}")

    tracing = fresh.get("tracing") or {}
    if not tracing.get("traced_traces_bit_identical", True):
        failures.append("--trace training diverged from the untraced run (bit-identity broken)")
    coverage = tracing.get("kernel_coverage_min")
    if coverage is not None and coverage < KERNEL_COVERAGE_FLOOR:
        failures.append(
            f"kernel attribution covers {coverage:.1%} of replay wall "
            f"(< {KERNEL_COVERAGE_FLOOR:.0%} floor)"
        )
    overhead = (tracing.get("disabled_overhead") or {}).get("disabled_overhead_ratio")
    if overhead is not None:
        if overhead > TRACING_OVERHEAD_TOLERANCE:
            failures.append(
                f"tracing-disabled replay path costs {(overhead - 1):.1%} over the "
                f"bare loop (> {TRACING_OVERHEAD_TOLERANCE - 1:.0%} gate)"
            )
        else:
            suffix = f", kernel coverage {coverage:.1%}" if coverage is not None else ""
            print(f"tracing-disabled overhead {(overhead - 1):+.1%} "
                  f"(gate {TRACING_OVERHEAD_TOLERANCE - 1:.0%}){suffix} — ok")

    was, now = baseline["replay"]["replay_epochs"], fresh["replay"]["replay_epochs"]
    if now < was:
        failures.append(f"replay regression: replay_epochs {was} -> {now}")
    was, now = baseline["replay"]["recaptures"], fresh["replay"]["recaptures"]
    if now > was:
        failures.append(f"replay regression: recaptures {was} -> {now}")

    base_speedup, now_speedup = baseline.get("step_time_speedup"), fresh.get("step_time_speedup")
    if not now_speedup:
        failures.append("no step-time speedup measured")
    elif base_speedup:
        floor = base_speedup / WALL_TIME_TOLERANCE
        if now_speedup < floor:
            failures.append(
                f"wall-time regression: step speedup {now_speedup:.2f}x < "
                f"{floor:.2f}x (baseline {base_speedup:.2f}x / {WALL_TIME_TOLERANCE})"
            )
        else:
            print(f"step speedup {now_speedup:.2f}x (baseline {base_speedup:.2f}x, "
                  f"floor {floor:.2f}x) — ok")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("benchmark gate passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed BENCH_training.json instead of rewriting it")
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
