"""Per-layer metrics: which calls are traced, and how spans become numbers.

Layers are named by ``repro`` subpackage.  Every ``*_ms`` metric is the
summed *self time* of one span name (its calls minus the traced calls they
make).  ``trace.coverage`` is the share of the traced wall time in the
self time of the module layers; what no span covers and the self time of
the ``cli.main`` wrapper, which spans the whole ``train`` command, count as
``trace.unattributed_ms``.  Counts come from the wrappers or from the
program's own metrics registry; the ``*_p50`` rows are per-epoch medians.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

#: (metric name, unit, better) for every per-layer metric, in report order.
#: The traced run emits exactly these names on every workload; a layer a
#: workload does not exercise reports 0.
PER_LAYER: list[tuple[str, str, str]] = [
    ("datasets.load_ms", "ms", "lower"),
    ("power.surrogate_load_ms", "ms", "lower"),
    ("power.surrogate_fit_ms", "ms", "lower"),
    ("power.dataset_gen_ms", "ms", "lower"),
    ("power.surrogate_fits", "count", "lower"),
    ("circuits.build_ms", "ms", "lower"),
    ("autograd.capture_ms", "ms", "lower"),
    ("autograd.captures", "count", "lower"),
    ("autograd.capture_failures", "count", "lower"),
    ("autograd.replay_fwd_ms", "ms", "lower"),
    ("autograd.replay_bwd_ms", "ms", "lower"),
    ("autograd.replays", "count", "higher"),
    ("autograd.step_ops", "count", "lower"),
    ("autograd.eval_ops", "count", "lower"),
    ("autograd.val_ops", "count", "lower"),
    ("optim.adam_ms", "ms", "lower"),
    ("optim.adam_steps", "count", "lower"),
    ("training.loop_ms", "ms", "lower"),
    ("training.step_ms_p50", "ms", "lower"),
    ("training.eval_ms_p50", "ms", "lower"),
    ("training.host_ms_p50", "ms", "lower"),
    ("training.epochs", "count", "lower"),
    ("training.fleet_build_ms", "ms", "lower"),
    ("training.fleet_loop_ms", "ms", "lower"),
    ("training.fleet_step_ms", "ms", "lower"),
    ("training.fleet_eval_ms", "ms", "lower"),
    ("training.fleet_step_ms_p50", "ms", "lower"),
    ("training.fleet_eval_ms_p50", "ms", "lower"),
    ("training.fleet_host_ms_p50", "ms", "lower"),
    ("training.fleet_finalize_ms", "ms", "lower"),
    ("training.fleet_pad_fraction", "fraction", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.map_overhead_ms", "ms", "lower"),
    ("observability.events", "count", "lower"),
    ("observability.emit_ms", "ms", "lower"),
    ("observability.create_ms", "ms", "lower"),
    ("observability.finalize_ms", "ms", "lower"),
    ("serving.export_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("evaluation.mc_nominal_ms", "ms", "lower"),
    ("evaluation.mc_build_ms", "ms", "lower"),
    ("evaluation.mc_sample_ms", "ms", "lower"),
    ("evaluation.mc_load_ms", "ms", "lower"),
    ("evaluation.mc_run_ms", "ms", "lower"),
    ("evaluation.mc_collect_ms", "ms", "lower"),
    ("evaluation.mc_chunks", "count", "lower"),
    ("evaluation.mc_pad_fraction", "fraction", "lower"),
    ("serving.artifact_load_ms", "ms", "lower"),
    ("serving.engine_capture_ms", "ms", "lower"),
    ("serving.engine_run_ms", "ms", "lower"),
    ("serving.replays", "count", "lower"),
    ("serving.pad_fraction", "fraction", "lower"),
    ("compile.place_ms", "ms", "lower"),
    ("compile.netlist_ms", "ms", "lower"),
    ("compile.bundle_ms", "ms", "lower"),
    ("compile.verify_ms", "ms", "lower"),
    ("compile.tiles", "count", "lower"),
    ("spice.solves", "count", "lower"),
    ("spice.solve_ms", "ms", "lower"),
    ("spice.newton_iters", "count", "lower"),
    ("spice.failures", "count", "lower"),
    ("circuits.crossbar0.replay_us", "us", "lower"),
    ("circuits.crossbar1.replay_us", "us", "lower"),
    ("pdk.activation0.replay_us", "us", "lower"),
    ("pdk.activation1.replay_us", "us", "lower"),
    ("circuits.crossbar_power.replay_us", "us", "lower"),
    ("power.counts.replay_us", "us", "lower"),
    ("power.surrogate_af.replay_us", "us", "lower"),
    ("power.surrogate_neg.replay_us", "us", "lower"),
    ("training.loss.replay_us", "us", "lower"),
    ("training.eval_replay_vs_eager", "ratio", "higher"),
    ("trace.untraced_wall_ms", "ms", "lower"),
    ("trace.traced_wall_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.coverage", "fraction", "higher"),
]
UNITS = {name: unit for name, unit, _better in PER_LAYER}

#: Spans that wrap a whole command rather than one layer: their self time
#: is reported but not counted as attributed.
CATCH_ALL = ("cli.main",)


def _count(name, amount=lambda args, result: 1.0):
    return lambda tracer, args, result: tracer.count(name, amount(args, result))


def _on_emit(tracer, args, result):
    if args[0].enabled:  # a disabled RunLogger drops the event
        tracer.count("observability.events")


def _on_fleet_build(tracer, args, result):
    program = args[0]
    tracer.count("fleet.slots", program.instances)
    tracer.count("fleet.real", program.n_real)


def _on_mc_load(tracer, args, result):
    tracer.count("mc.slots", args[0].instances)
    tracer.count("mc.real", result)


def _on_solve(tracer, args, result):
    tracer.count("spice.solves")
    tracer.count("spice.newton_iters", result.iterations)


def _on_solve_error(tracer, exc):
    from repro.spice.solver import SolverError

    if isinstance(exc, SolverError):
        tracer.count("spice.failures")


def _on_capture_error(tracer, exc):
    from repro.autograd.graph import GraphCaptureError

    if isinstance(exc, GraphCaptureError):
        tracer.count("autograd.capture_failures")


def install_all(tracer: Tracer) -> None:
    """Wrap every traced call; each target is resolved where callers look."""
    add = tracer.install
    add("cli.main", "repro.cli:main")
    add("datasets.load", "repro.datasets.registry:load_dataset")
    add("datasets.load", "repro.datasets.splits:train_val_test_split")
    add("power.surrogate_load", "repro.power.surrogate:get_cached_surrogate")
    add("power.surrogate_fit", "repro.power.surrogate:fit_surrogate",
        on_result=_count("power.surrogate_fits"))
    add("power.dataset_gen", "repro.power.dataset:generate_power_dataset")
    add("power.dataset_gen", "repro.power.dataset:generate_negation_dataset")
    add("circuits.build", "repro.circuits.pnc:PrintedNeuralNetwork.__init__")
    add("autograd.capture", "repro.autograd.tensor:graph_capture", context=True)
    add("autograd.capture", "repro.autograd.graph:capture_forward")
    add("autograd.capture", "repro.autograd.graph:CapturedGraph.__init__",
        on_result=_count("autograd.captures"), on_error=_on_capture_error)
    add("autograd.replay_fwd", "repro.autograd.graph:CapturedGraph.replay_forward",
        on_result=_count("autograd.replays"))
    add("autograd.replay_bwd", "repro.autograd.graph:CapturedGraph.replay_backward")
    add("optim.adam", "repro.autograd.optim:Adam.step", on_result=_count("optim.adam_steps"))
    add("training.loop", "repro.training.trainer:train_model")
    add("training.fleet_loop", "repro.training.fleet:train_fleet")
    add("training.fleet_build", "repro.training.fleet:FleetProgram.__init__",
        on_result=_on_fleet_build)
    add("training.fleet_step", "repro.training.fleet:FleetProgram.run_step")
    add("training.fleet_eval", "repro.training.fleet:FleetProgram.run_eval")
    add("training.fleet_eval", "repro.training.fleet:FleetProgram.val_accuracies")
    # The fleet's per-instance serial finalize; the serial trainer's own
    # bindings of these helpers stay unwrapped (they are its final eval).
    add("training.fleet_finalize", "repro.training.fleet:evaluate_model", everywhere=False)
    add("training.fleet_finalize", "repro.training.fleet:_accuracy_only", everywhere=False)
    add("parallel.map_overhead", "repro.parallel.engine:map_tasks",
        on_result=_count("parallel.tasks", lambda args, result: len(args[0])))
    add("observability.emit", "repro.observability.events:RunLogger.emit", on_result=_on_emit)
    add("observability.create", "repro.observability.runs:RunContext.create")
    add("observability.finalize", "repro.observability.runs:RunContext.finalize")
    add("serving.export", "repro.serving.artifact:export_artifact")
    add("evaluation.mc_nominal", "repro.evaluation.montecarlo:run_monte_carlo")
    add("evaluation.mc_collect", "repro.evaluation.montecarlo:evaluate_instances_vectorized")
    add("evaluation.mc_build", "repro.circuits.ensemble:EnsembleProgram.__init__")
    add("evaluation.mc_sample", "repro.circuits.ensemble:sample_instance_stack")
    add("evaluation.mc_load", "repro.circuits.ensemble:EnsembleProgram.load", on_result=_on_mc_load)
    add("evaluation.mc_run", "repro.circuits.ensemble:EnsembleProgram.run",
        on_result=_count("evaluation.mc_chunks"))
    add("serving.artifact_load", "repro.serving.artifact:load_artifact")
    add("serving.engine_capture", "repro.serving.engine:InferenceEngine._capture")
    add("serving.engine_run", "repro.serving.engine:InferenceEngine.run")
    add("serving.engine_run", "repro.serving.artifact:InferenceModel.predict")
    # compile_model's phases are the trace_span blocks it already opens.
    add("compile", "repro.compile.compiler:trace_span", everywhere=False,
        context=True, name_from_arg=True)
    add("spice.solve", "repro.spice.solver:solve_dc", on_result=_on_solve, on_error=_on_solve_error)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _fleet_epochs(tracer: Tracer) -> tuple[list[float], list[float], list[float]]:
    """Per-fleet-epoch (step, eval, host) wall times in ms.

    An epoch runs from one ``run_step`` start to the next; host time is
    what the epoch spends outside step, eval and Adam — the per-instance
    Python bookkeeping of ``train_fleet``.
    """
    steps, evals, hosts = [], [], []
    current = None
    for span in tracer.spans:
        if span.name == "training.fleet_step":
            if current is not None:
                epoch_ms = (span.start - current["start"]) * 1e3
                steps.append(current["step"])
                evals.append(current["eval"])
                hosts.append(epoch_ms - current["step"] - current["eval"] - current["adam"])
            current = {"start": span.start, "step": span.duration * 1e3, "eval": 0.0, "adam": 0.0}
        elif current is not None and span.name == "training.fleet_eval":
            current["eval"] += span.duration * 1e3
        elif current is not None and span.name == "optim.adam":
            current["adam"] += span.duration * 1e3
        elif span.name == "training.fleet_finalize":
            current = None  # the last epoch of a fleet has no successor
    return steps, evals, hosts


def compute(tracer: Tracer, registry_delta: dict, layer_samples: dict,
            untraced_wall_s: float, traced_wall_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced iteration."""
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    self_ms = tracer.self_ms()
    for span_name, total in self_ms.items():
        key = f"{span_name}_ms"
        if key not in values:
            raise KeyError(f"span {span_name!r} has no per-layer metric {key!r}")
        values[key] = total
    for name, amount in tracer.counts.items():
        if name in values:
            values[name] = amount

    def gauge(name: str) -> float:
        value = registry_delta.get(name, 0.0)
        return float(value) if isinstance(value, (int, float)) else 0.0

    values["autograd.step_ops"] = gauge("graph_step_ops")
    values["autograd.eval_ops"] = gauge("graph_eval_ops")
    values["autograd.val_ops"] = gauge("graph_val_ops")
    values["compile.tiles"] = gauge("compile_tiles_total")
    replays, rows = gauge("serving_engine_replays"), gauge("serving_engine_rows")
    values["serving.replays"] = replays
    micro_batch = layer_samples.get("serving.micro_batch", 0)
    if replays and micro_batch:
        values["serving.pad_fraction"] = (replays * micro_batch - rows) / (replays * micro_batch)
    slots = tracer.counts.get("fleet.slots", 0.0)
    if slots:
        values["training.fleet_pad_fraction"] = (slots - tracer.counts["fleet.real"]) / slots
    slots = tracer.counts.get("mc.slots", 0.0)
    if slots:
        values["evaluation.mc_pad_fraction"] = (slots - tracer.counts["mc.real"]) / slots

    for key in ("training.step_ms", "training.eval_ms", "training.host_ms"):
        values[f"{key}_p50"] = _p50(layer_samples.get(key, []))
    values["training.epochs"] = float(len(layer_samples.get("training.step_ms", [])))
    steps, evals, hosts = _fleet_epochs(tracer)
    values["training.fleet_step_ms_p50"] = _p50(steps)
    values["training.fleet_eval_ms_p50"] = _p50(evals)
    values["training.fleet_host_ms_p50"] = _p50(hosts)

    for name, value in layer_samples.get("probe", {}).items():
        values[name] = value

    attributed = sum(ms for name, ms in self_ms.items() if name not in CATCH_ALL)
    values["trace.untraced_wall_ms"] = untraced_wall_s * 1e3
    values["trace.traced_wall_ms"] = traced_wall_s * 1e3
    values["trace.overhead_ms"] = (traced_wall_s - untraced_wall_s) * 1e3
    values["trace.unattributed_ms"] = traced_wall_s * 1e3 - attributed
    values["trace.coverage"] = attributed / (traced_wall_s * 1e3) if traced_wall_s else 0.0
    return values
