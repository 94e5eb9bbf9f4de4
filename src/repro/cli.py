"""Command-line interface.

Exposes the main workflows as subcommands::

    python -m repro.cli datasets                      # list the benchmarks
    python -m repro.cli train iris --af p-tanh --budget-fraction 0.4
    python -m repro.cli sweep seeds --n-alphas 6 --n-seeds 2
    python -m repro.cli grid iris seeds --budgets 0.2 0.8
    python -m repro.cli circuits                      # AF transfer/power table
    python -m repro.cli montecarlo iris --af p-ReLU --samples 50
    python -m repro.cli report run.jsonl              # replay a recorded run
    python -m repro.cli runs list                     # enumerate run directories
    python -m repro.cli runs query --sort accuracy --desc --limit 10
    python -m repro.cli runs compare latest RUN_B     # diff two recorded runs
    python -m repro.cli dashboard --runs-dir runs     # web run browser + JSON API
    python -m repro.cli export --run latest -o m.pnz  # freeze a trained model
    python -m repro.cli serve m.pnz --port 8080       # batched HTTP inference
    python -m repro.cli predict m.pnz --input x.csv   # offline per-row predict
    python -m repro.cli compile --run latest --tile-rows 8 --tile-cols 4
    python -m repro.cli compile --verify-only compiled  # re-verify a bundle

Every command prints plain text (tables / ASCII charts) and is deterministic
given its ``--seed``.

Observability flags (available on every subcommand)::

    --log-json PATH     write a structured JSONL event stream of the run
    --run-dir BASE      record the run under BASE/<run_id>/ (manifest,
                        merged event timeline, metrics, profile)
    --health-abort      let critical training-health watchdogs abort the
                        run (exit code 3 + diagnostic.json)
    --profile           enable the span tracer; prints its span profile at exit
    --trace             record spans + per-kernel replay timings (needs
                        --run-dir or --trace-out to persist anything)
    --trace-out PATH    export the trace as Chrome trace-event JSON
                        (load in Perfetto / chrome://tracing)
    --metrics-out PATH  write a Prometheus textfile of the metrics registry
    -v / -q             raise / lower log verbosity (INFO / ERROR; -vv DEBUG)

With none of them passed, output is byte-identical to the
pre-observability CLI and nothing extra is computed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

logger = logging.getLogger(__name__)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--log-json", metavar="PATH", default=None,
                       help="write a JSONL structured event log of this run")
    group.add_argument("--run-dir", metavar="BASE", default=None,
                       help="record this run under BASE/<run_id>/ (manifest, events, metrics)")
    group.add_argument("--health-abort", action="store_true",
                       help="abort on critical training-health alerts (exit 3 + diagnostic dump)")
    group.add_argument("--profile", action="store_true",
                       help="time instrumented spans; print the breakdown at exit")
    group.add_argument("--trace", action="store_true",
                       help="record trace spans and per-kernel replay timings "
                            "(written to the run directory; see also --trace-out)")
    group.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the trace as Chrome trace-event JSON "
                            "(implies --trace; open in Perfetto or chrome://tracing)")
    group.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write a Prometheus textfile of the metrics registry at exit")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="more logging (-v INFO, -vv DEBUG)")
    group.add_argument("-q", "--quiet", action="count", default=0,
                       help="less logging (errors only)")


def _add_abort_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--on-task-error", choices=("continue", "cancel"), default="continue",
        help="parallel abort policy: keep going past failed tasks (default) or "
             "cancel all not-yet-started tasks after the first failure",
    )


def _positive(what: str):
    """An argparse ``type`` parsing an int >= 1 (``what`` names it in errors)."""

    def parse(value: str) -> int:
        number = int(value)
        if number < 1:
            raise argparse.ArgumentTypeError(f"{what} must be >= 1")
        return number

    parse.__name__ = what
    return parse


# Every command derives its budget or report from the trained epochs.
_epoch_count = _positive("epochs")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--epochs", type=_epoch_count, default=300, help="training epochs")
    parser.add_argument(
        "--af",
        default="p-tanh",
        help="activation circuit: p-ReLU | p-Clipped_ReLU | p-sigmoid | p-tanh",
    )
    parser.add_argument("--no-capture", action="store_true",
                        help="disable captured-graph replay; run every epoch eagerly")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-constrained printed neuromorphic hardware training (DAC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list the 13 benchmark datasets")

    train = sub.add_parser("train", help="one augmented-Lagrangian run under a hard budget")
    train.add_argument("dataset")
    train.add_argument("--budget-fraction", type=float, default=0.4,
                       help="budget as a fraction of the unconstrained maximum power")
    train.add_argument("--budget-mw", type=float, default=None,
                       help="absolute budget in mW (overrides --budget-fraction)")
    train.add_argument("--mu", type=float, default=5.0)
    _add_common(train)

    sweep = sub.add_parser("sweep", help="penalty-baseline Pareto sweep vs AL points (Fig. 5)")
    sweep.add_argument("dataset")
    sweep.add_argument("--n-alphas", type=_positive("n-alphas"), default=6)
    sweep.add_argument("--n-seeds", type=_positive("n-seeds"), default=2)
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep chunks (results identical to --jobs 1)")
    sweep.add_argument("--instance-chunk", type=_positive("instance-chunk"), default=64,
                       metavar="N",
                       help="(α, seed) points per instance-stacked fleet: one captured graph "
                            "steps a whole chunk per epoch (default 64)")
    sweep.add_argument("--json-out", default=None, metavar="FILE",
                       help="also write the per-point sweep results as JSON "
                            "(atomic temp-file + rename)")
    _add_abort_flag(sweep)
    _add_common(sweep)

    grid = sub.add_parser("grid", help="Table I / Fig. 4 grid over datasets")
    grid.add_argument("datasets", nargs="+")
    grid.add_argument("--budgets", type=float, nargs="+", default=[0.2, 0.4, 0.6, 0.8])
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--epochs", type=_epoch_count, default=300,
                      help="training epochs per grid cell; the fine-tune pass runs "
                           "min(EPOCHS, 150) epochs (default: 300)")
    grid.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the grid cells (results identical to --jobs 1)")
    grid.add_argument("--no-capture", action="store_true",
                      help="disable captured-graph replay; run every epoch eagerly")
    grid.add_argument("--json-out", default=None, metavar="FILE",
                      help="also write the per-cell grid results as JSON "
                           "(atomic temp-file + rename)")
    _add_abort_flag(grid)

    circuits = sub.add_parser("circuits", help="print the printed-AF circuit summary table")

    mc = sub.add_parser("montecarlo", help="process-variation robustness of a trained circuit")
    mc.add_argument("dataset")
    mc.add_argument("--samples", type=_positive("samples"), default=50)
    mc.add_argument("--sigma-scale", type=float, default=1.0,
                    help="scale all variation sigmas by this factor")
    mc.add_argument("--budget-fraction", type=float, default=0.6)
    mc.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the Monte-Carlo instances (results identical to --jobs 1)")
    mc.add_argument("--instance-chunk", type=_positive("instance-chunk"), default=64,
                    metavar="K",
                    help="instances per stacked chunk of the captured-graph ensemble "
                         "engine (default 64)")
    mc.add_argument("--json-out", default=None, metavar="FILE",
                    help="write the per-instance accuracies/powers and summary to FILE as JSON")
    _add_abort_flag(mc)
    _add_common(mc)

    report = sub.add_parser("report", help="render the summary of a recorded run (JSONL)")
    report.add_argument("run_file",
                        help="event log written by --log-json, or a --run-dir run directory")

    profile_cmd = sub.add_parser(
        "profile", help="hot-kernel attribution of a traced run (requires --trace data)"
    )
    profile_cmd.add_argument("--kernels", action="store_true",
                             help="per-kernel self-time table of the captured-graph replays")
    profile_cmd.add_argument("--run", default="latest",
                             help="run directory, run id, unique id prefix, or 'latest'")
    profile_cmd.add_argument("--diff", default=None, metavar="RUN_B",
                             help="compare against a second traced run and name the kernel "
                                  "driving the step-time regression")
    profile_cmd.add_argument("--dir", default="runs", metavar="BASE",
                             help="run registry base directory (default: runs)")
    profile_cmd.add_argument("--top", type=int, default=15, metavar="N",
                             help="rows in the hot-kernel table (default 15)")

    runs = sub.add_parser("runs", help="inspect run directories recorded with --run-dir")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="one line per recorded run")
    runs_list.add_argument("--limit", type=_positive("limit"), default=None, metavar="N",
                           help="only the N most recent runs")
    runs_list.add_argument("--status", default=None,
                           help="only runs with this manifest status (e.g. completed)")
    runs_query = runs_sub.add_parser("query", help="filtered/sorted run listing")
    runs_query.add_argument("--command", dest="command_filter", default=None, metavar="CMD",
                            help="only runs of this command (train, sweep, ...)")
    runs_query.add_argument("--status", default=None,
                            help="only runs with this manifest status")
    runs_query.add_argument("--dataset", default=None,
                            help="only runs whose config names this dataset")
    runs_query.add_argument("--seed", type=int, default=None,
                            help="only runs with this config seed")
    runs_query.add_argument("--sort", default="created",
                            choices=("created", "accuracy", "power", "duration", "epochs", "alerts"),
                            help="sort key (default: created)")
    runs_query.add_argument("--desc", action="store_true", help="sort descending")
    runs_query.add_argument("--limit", type=_positive("limit"), default=None, metavar="N",
                            help="at most N rows after sorting")
    runs_query.add_argument("--json", action="store_true", dest="as_json",
                            help="emit JSON instead of the table")
    runs_show = runs_sub.add_parser("show", help="manifest header + event report of one run")
    runs_show.add_argument("run", help="run directory, run id, or unique id prefix")
    runs_compare = runs_sub.add_parser(
        "compare", help="diff two runs: config, outcome, accuracy/power/λ trajectories"
    )
    runs_compare.add_argument("run_a", help="first run (directory, id, or unique prefix)")
    runs_compare.add_argument("run_b", help="second run (directory, id, or unique prefix)")
    runs_prune = runs_sub.add_parser(
        "prune", help="retention GC over the run registry (dry-run by default)"
    )
    runs_prune.add_argument("--keep-last", type=int, default=None, metavar="N",
                            help="keep the N most recent runs, prune the rest")
    runs_prune.add_argument("--older-than", default=None, metavar="AGE",
                            help="prune runs older than AGE (e.g. 30d, 12h, 45m, 90s)")
    runs_prune.add_argument("--status", default=None,
                            help="only prune runs with this manifest status (e.g. failed)")
    runs_prune.add_argument("--yes", action="store_true",
                            help="actually delete; without it the selection is only printed")
    for subparser in (runs_list, runs_query, runs_show, runs_compare, runs_prune):
        subparser.add_argument("--dir", default="runs", metavar="BASE",
                               help="run registry base directory (default: runs)")

    export = sub.add_parser(
        "export", help="copy a recorded run's frozen model artifact (verified) out of the registry"
    )
    export.add_argument("--run", required=True,
                        help="run directory, run id, unique id prefix, or 'latest'")
    export.add_argument("--dir", default="runs", metavar="BASE",
                        help="run registry base directory (default: runs)")
    export.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="destination file (default: <run_id>.pnz in the current directory)")

    serve = sub.add_parser("serve", help="serve a frozen artifact over HTTP with request batching")
    serve.add_argument("artifact", help="a .pnz bundle written by 'repro export' or a train run")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks an ephemeral port, printed at startup)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="flush a coalesced batch at this many pending rows")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="flush a coalesced batch at this age even if small")
    serve.add_argument("--max-requests", type=int, default=None, metavar="N",
                       help="shut down cleanly after N requests (smoke tests)")

    dashboard = sub.add_parser(
        "dashboard", help="read-only web dashboard over the run registry (browser + JSON API)"
    )
    dashboard.add_argument("--runs-dir", default="runs", metavar="BASE",
                           help="run registry base directory (default: runs)")
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, default=8764,
                           help="bind port (0 picks an ephemeral port, printed at startup)")
    dashboard.add_argument("--max-requests", type=int, default=None, metavar="N",
                           help="shut down cleanly after N requests (smoke tests)")

    compile_p = sub.add_parser(
        "compile",
        help="compile a trained model onto constrained crossbar tiles with "
             "per-tile SPICE sign-off and test-vector export",
    )
    source = compile_p.add_mutually_exclusive_group()
    source.add_argument("--run", default=None,
                        help="run directory, run id, unique id prefix, or 'latest' "
                             "(uses the run's frozen model.pnz)")
    source.add_argument("--artifact", default=None, metavar="PATH",
                        help="a .pnz bundle written by 'repro export' or a train run")
    source.add_argument("--verify-only", default=None, metavar="DIR",
                        help="re-verify an existing compiled bundle instead of compiling")
    compile_p.add_argument("--dir", default="runs", metavar="BASE",
                           help="run registry base directory (default: runs)")
    compile_p.add_argument("--tile-rows", type=int, default=8, metavar="N",
                           help="max extended crossbar rows per tile (default 8)")
    compile_p.add_argument("--tile-cols", type=int, default=4, metavar="N",
                           help="max crossbar columns per tile (default 4)")
    compile_p.add_argument("--tile-power", type=float, default=None, metavar="W",
                           help="max estimated dissipation per tile in watts")
    compile_p.add_argument("--tile-devices", type=int, default=None, metavar="N",
                           help="max printed components per tile")
    compile_p.add_argument("--out", default="compiled", metavar="DIR",
                           help="bundle output directory (default: compiled)")
    compile_p.add_argument("--vectors", type=int, default=8, metavar="N",
                           help="test vectors to export per tile (default 8)")
    compile_p.add_argument("--negation", choices=("ideal", "circuit"), default="ideal",
                           help="negation circuit model in the tile netlists")
    compile_p.add_argument("--tolerance", type=float, default=None, metavar="V",
                           help="max |dV| on activation outputs (default 0.05; "
                                "--verify-only defaults to the bundle's compiled value)")
    compile_p.add_argument("--dataset", default=None,
                           help="stimulus dataset (default: the artifact's training dataset)")
    compile_p.add_argument("--seed", type=int, default=0,
                           help="stimulus split/RNG seed when the artifact has none")

    predict = sub.add_parser("predict", help="offline per-row prediction from a frozen artifact")
    predict.add_argument("artifact", help="a .pnz bundle written by 'repro export' or a train run")
    predict.add_argument("--input", default="-", metavar="PATH",
                         help="feature rows as CSV or JSON ('-' reads stdin; default)")
    predict.add_argument("--format", choices=("auto", "csv", "json"), default="auto",
                         help="input format (auto sniffs JSON by a leading '[' or '{')")

    for subparser in (datasets, train, sweep, grid, circuits, mc, report, profile_cmd,
                      runs_list, runs_query, runs_show, runs_compare, runs_prune,
                      export, serve, predict, dashboard, compile_p):
        _add_obs_flags(subparser)

    return parser


# ----------------------------------------------------------------------
def _git_sha() -> str:
    """Short revision of the source tree (best effort; 'unknown' offline)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _run_config(args) -> dict:
    """JSON-safe view of the parsed arguments (observability flags excluded)."""
    skip = {"command", "log_json", "run_dir", "health_abort", "profile",
            "trace", "trace_out", "metrics_out", "verbose", "quiet"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _train_callbacks(run_logger, phase: str, health_abort: bool = False) -> list:
    """Stock callbacks for a CLI-driven training run.

    Always includes the :class:`HealthMonitor` watchdogs — they only
    observe unless ``health_abort`` arms the critical-kind abort.
    """
    from repro.observability import EventLogCallback, HealthMonitor, ProgressReporter

    callbacks = [ProgressReporter(every=25, log=logger)]
    if run_logger is not None and run_logger.enabled:
        callbacks.append(EventLogCallback(run_logger, phase=phase))
    callbacks.append(HealthMonitor(run_logger, abort=health_abort, phase=phase))
    return callbacks


# ----------------------------------------------------------------------
def cmd_datasets() -> int:
    from repro.datasets import DATASET_NAMES, dataset_info

    print(f"{'name':22s} {'samples':>8s} {'features':>9s} {'classes':>8s}")
    for name in DATASET_NAMES:
        spec = dataset_info(name)
        print(f"{name:22s} {spec.n_samples:8d} {spec.n_features:9d} {spec.n_classes:8d}")
    return 0


def _prepare(dataset_name: str, af_name: str, seed: int, epochs: int, capture: bool = True):
    from repro.datasets import load_dataset, train_val_test_split
    from repro.pdk.params import ActivationKind
    from repro.power.surrogate import get_cached_surrogate
    from repro.training import TrainerSettings

    kind = ActivationKind.from_name(af_name)
    data = load_dataset(dataset_name)
    split = train_val_test_split(data, seed=seed)
    af = get_cached_surrogate(kind, n_q=800, epochs=60)
    neg = get_cached_surrogate("negation", n_q=500, epochs=60)
    settings = TrainerSettings(
        epochs=epochs, patience=max(40, epochs // 4), capture_graph=capture
    )
    return kind, data, split, af, neg, settings


def _make_net(data, kind, seed, af, neg):
    from repro.circuits import PrintedNeuralNetwork, PNCConfig

    return PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(kind=kind),
        np.random.default_rng(seed), af, neg,
    )


def cmd_train(args, run_logger=None, run_ctx=None) -> int:
    from repro.training import train_power_constrained, train_unconstrained

    kind, data, split, af, neg, settings = _prepare(
        args.dataset, args.af, args.seed, args.epochs, capture=not args.no_capture
    )
    if args.budget_mw is not None:
        budget = args.budget_mw * 1e-3
        print(f"hard budget: {args.budget_mw:.4f} mW (absolute)")
    else:
        reference = train_unconstrained(
            _make_net(data, kind, args.seed, af, neg), split, settings=settings,
            callbacks=_train_callbacks(run_logger, phase="reference", health_abort=args.health_abort),
        )
        max_power = max(reference.power_trace)
        budget = args.budget_fraction * max_power
        print(f"unconstrained: acc {reference.test_accuracy * 100:.1f}%  P_max {max_power * 1e3:.4f} mW")
        print(f"hard budget: {budget * 1e3:.4f} mW ({args.budget_fraction:.0%} of P_max)")

    net = _make_net(data, kind, args.seed + 1, af, neg)
    result = train_power_constrained(
        net, split, power_budget=budget, mu=args.mu, settings=settings,
        callbacks=_train_callbacks(run_logger, phase="constrained", health_abort=args.health_abort),
    )
    print(f"result: acc {result.test_accuracy * 100:.2f}%  P {result.power * 1e3:.4f} mW  "
          f"feasible={result.feasible}  devices={result.device_count}")
    if run_ctx is not None:
        # Freeze the trained circuit next to its run record; 'repro export
        # --run <id>' verifies and copies it out later.
        from repro.serving.artifact import RUN_ARTIFACT_NAME, export_artifact

        artifact = export_artifact(
            net,
            run_ctx.directory / RUN_ARTIFACT_NAME,
            run_dir=run_ctx.directory,
            power_summary={
                "power_w": result.power,
                "budget_w": budget,
                "test_accuracy": result.test_accuracy,
                "feasible": result.feasible,
                "device_count": result.device_count,
            },
        )
        print(f"artifact: {artifact}")
    return 0 if result.feasible else 1


def _write_json_atomic(path: str | Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace``.

    Readers polling the file (CI gates, dashboards) never observe a
    half-written document — the same convention the surrogate cache uses.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _task_progress(run_logger):
    """The per-task progress callback wired into parallel experiment runs."""
    from repro.parallel import TaskProgressReporter

    return TaskProgressReporter(run_logger=run_logger, log=logger)


def cmd_sweep(args, run_logger=None) -> int:
    from repro.evaluation.experiments import ExperimentConfig, run_pareto_comparison
    from repro.evaluation.figures import fig5_canvas
    from repro.evaluation.reporting import render_fig5_rows
    from repro.pdk.params import ActivationKind

    config = ExperimentConfig(epochs=args.epochs, patience=max(40, args.epochs // 4),
                              seed=args.seed, surrogate_n_q=800, surrogate_epochs=60,
                              capture_graph=not args.no_capture)
    comparison = run_pareto_comparison(
        args.dataset, kind=ActivationKind.from_name(args.af),
        n_alphas=args.n_alphas, n_seeds=args.n_seeds, config=config,
        n_jobs=args.jobs, progress=_task_progress(run_logger),
        on_error=args.on_task_error, instance_chunk=args.instance_chunk,
    )
    print(render_fig5_rows(comparison))
    budgets_mw = [r.budget_w * 1e3 for r in comparison.al_records]
    print(fig5_canvas(comparison.front, comparison.al_points(), budgets_mw))
    if args.json_out:
        sweep_result = comparison.sweep
        # (α, seed) labels pair positionally with results; with dropped
        # (errored) points the alignment is unknown, so label as None.
        pairs = [(float(a), s) for a in sweep_result.alphas for s in sweep_result.seeds]
        if len(pairs) != len(sweep_result.results):
            pairs = [(None, None)] * len(sweep_result.results)
        payload = {
            "dataset": args.dataset,
            "seed": args.seed,
            "n_alphas": args.n_alphas,
            "n_seeds": args.n_seeds,
            "n_runs": sweep_result.n_runs,
            "n_errors": len(sweep_result.errors),
            "points": [
                {
                    "alpha": alpha,
                    "seed": seed,
                    "test_accuracy": r.test_accuracy,
                    "power_w": r.power,
                    "epochs_run": r.epochs_run,
                }
                for (alpha, seed), r in zip(pairs, sweep_result.results)
            ],
        }
        _write_json_atomic(args.json_out, payload)
    return 0


def cmd_grid(args, run_logger=None) -> int:
    from repro.evaluation.experiments import ExperimentConfig, run_dataset_grid
    from repro.evaluation.reporting import render_table1, render_fig4_rows

    config = ExperimentConfig(epochs=args.epochs, patience=max(40, args.epochs // 4),
                              finetune_epochs=min(args.epochs, ExperimentConfig.finetune_epochs),
                              seed=args.seed, surrogate_n_q=800, surrogate_epochs=60,
                              capture_graph=not args.no_capture)
    records = run_dataset_grid(args.datasets, budget_fractions=tuple(args.budgets), config=config,
                               n_jobs=args.jobs, progress=_task_progress(run_logger),
                               on_error=args.on_task_error)
    print(render_table1(records))
    print(render_fig4_rows(records))
    if args.json_out:
        payload = {
            "datasets": list(args.datasets),
            "budgets": [float(b) for b in args.budgets],
            "seed": args.seed,
            "records": [
                {
                    "dataset": r.dataset,
                    "kind": r.kind.value,
                    "budget_fraction": r.budget_fraction,
                    "budget_w": r.budget_w,
                    "max_power_w": r.max_power_w,
                    "test_accuracy": r.result.test_accuracy,
                    "power_w": r.result.power,
                    "feasible": r.result.feasible,
                    "device_count": r.result.device_count,
                    "epochs_run": r.result.epochs_run,
                }
                for r in records
            ],
        }
        _write_json_atomic(args.json_out, payload)
    return 0


def cmd_circuits() -> int:
    from repro.autograd.tensor import Tensor
    from repro.pdk.circuits import activation_device_count
    from repro.pdk.params import ActivationKind, design_space
    from repro.pdk.transfer import TransferModel

    print(f"{'circuit':16s} {'devices':>7s} {'params':>6s}  parameter names")
    for kind in ActivationKind:
        space = design_space(kind)
        print(f"{kind.value:16s} {activation_device_count(kind):7d} {space.dimension:6d}  "
              f"{', '.join(space.names)}")
    print("\ntransfer at the design-space centre (V_in → V_out):")
    v = np.linspace(-1, 1, 9)
    header = "  ".join(f"{x:+.2f}" for x in v)
    print(f"{'':16s} {header}")
    for kind in ActivationKind:
        space = design_space(kind)
        model = TransferModel(kind)
        out, _ = model.output_and_power(Tensor(v), [Tensor(x) for x in space.center()])
        row = "  ".join(f"{x:+.2f}" for x in out.data)
        print(f"{kind.value:16s} {row}")
    return 0


def cmd_montecarlo(args, run_logger=None) -> int:
    from repro.evaluation.montecarlo import run_monte_carlo
    from repro.pdk.variation import VariationSpec
    from repro.training import train_power_constrained, train_unconstrained

    kind, data, split, af, neg, settings = _prepare(
        args.dataset, args.af, args.seed, args.epochs, capture=not args.no_capture
    )
    reference = train_unconstrained(
        _make_net(data, kind, args.seed, af, neg), split, settings=settings,
        callbacks=_train_callbacks(run_logger, phase="reference", health_abort=args.health_abort),
    )
    budget = args.budget_fraction * max(reference.power_trace)
    net = _make_net(data, kind, args.seed + 1, af, neg)
    result = train_power_constrained(
        net, split, power_budget=budget, settings=settings,
        callbacks=_train_callbacks(run_logger, phase="constrained", health_abort=args.health_abort),
    )
    print(f"trained: acc {result.test_accuracy * 100:.1f}%  P {result.power * 1e3:.4f} mW  "
          f"feasible={result.feasible}")
    net.eval()
    spec = VariationSpec().scaled(args.sigma_scale)
    report = run_monte_carlo(
        net, split.x_test, split.y_test, spec, n_samples=args.samples,
        seed=args.seed, power_budget=budget, accuracy_floor=0.5,
        n_jobs=args.jobs, progress=_task_progress(run_logger),
        on_error=args.on_task_error, instance_chunk=args.instance_chunk,
        run_logger=run_logger,
    )
    print(report.summary())
    if args.json_out:
        payload = {
            "dataset": args.dataset,
            "seed": args.seed,
            "n_samples": report.n_samples,
            "nominal_accuracy": report.nominal_accuracy,
            "nominal_power": report.nominal_power,
            "power_budget": report.power_budget,
            "accuracy_floor": report.accuracy_floor,
            "parametric_yield": report.parametric_yield,
            "accuracies": report.accuracies.tolist(),
            "powers": report.powers.tolist(),
        }
        _write_json_atomic(args.json_out, payload)
    return 0


def cmd_report(args) -> int:
    from repro.observability import (
        load_run_kernels,
        read_run_events,
        render_report,
        render_report_file,
    )

    try:
        path = Path(args.run_file)
        if path.is_dir():
            # A --run-dir run directory: merged event timeline, plus the
            # hot-kernel section when the run was traced.
            print(render_report(
                read_run_events(path), source=str(path), kernels=load_run_kernels(path)
            ))
        else:
            print(render_report_file(args.run_file))
    except OSError as exc:
        print(f"error: cannot read {args.run_file}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_profile(args) -> int:
    from repro.observability import (
        load_run_kernels,
        render_kernel_diff,
        render_kernel_report,
        resolve_run,
    )

    def _kernels(ref: str):
        run_dir = resolve_run(ref, args.dir)
        kernels = load_run_kernels(run_dir)
        if kernels is None:
            raise ValueError(
                f"{run_dir} has no kernel trace data — re-run with --trace"
            )
        return run_dir, kernels

    try:
        run_dir, kernels = _kernels(args.run)
        if args.diff:
            other_dir, after = _kernels(args.diff)
            print(f"kernel diff: {run_dir.name} -> {other_dir.name}")
            print(render_kernel_diff(kernels, after, top=args.top))
        else:
            print(f"run: {run_dir.name}")
            print(render_kernel_report(kernels, top=args.top))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read run data: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_runs(args) -> int:
    from repro.observability import (
        load_summaries,
        parse_age,
        prune_runs,
        render_prune_report,
        render_run_compare,
        render_run_show,
        render_runs_table,
        resolve_run,
        summary_to_dict,
    )

    try:
        if args.runs_command == "list":
            summaries = load_summaries(
                args.dir, status=args.status, descending=True, limit=args.limit
            )
            summaries.reverse()  # --limit keeps the most recent N; display oldest-first
            print(render_runs_table(args.dir, summaries=summaries))
        elif args.runs_command == "query":
            summaries = load_summaries(
                args.dir,
                command=args.command_filter,
                status=args.status,
                dataset=args.dataset,
                seed=args.seed,
                sort=args.sort,
                descending=args.desc,
                limit=args.limit,
            )
            if args.as_json:
                print(json.dumps([summary_to_dict(s) for s in summaries], indent=2))
            else:
                print(render_runs_table(args.dir, summaries=summaries))
                print(f"({len(summaries)} run(s))")
        elif args.runs_command == "show":
            print(render_run_show(resolve_run(args.run, args.dir)))
        elif args.runs_command == "prune":
            older_than_s = parse_age(args.older_than) if args.older_than else None
            decisions = prune_runs(
                args.dir,
                keep_last=args.keep_last,
                older_than_s=older_than_s,
                status=args.status,
                dry_run=not args.yes,
            )
            print(render_prune_report(decisions, dry_run=not args.yes))
        else:
            print(render_run_compare(
                resolve_run(args.run_a, args.dir), resolve_run(args.run_b, args.dir)
            ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read run data: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_export(args) -> int:
    import shutil

    from repro.observability import resolve_run
    from repro.serving.artifact import ArtifactError, RUN_ARTIFACT_NAME, load_artifact

    try:
        run_dir = resolve_run(args.run, args.dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    source = run_dir / RUN_ARTIFACT_NAME
    if not source.is_file():
        print(f"error: {run_dir.name} has no {RUN_ARTIFACT_NAME} "
              "(only 'train --run-dir' runs freeze a model)", file=sys.stderr)
        return 2
    try:
        model = load_artifact(source)  # full verification before copying
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    destination = Path(args.output) if args.output else Path(f"{run_dir.name}.pnz")
    shutil.copyfile(source, destination)
    meta = model.meta["model"]
    print(f"exported {destination} ({meta['in_features']}→{meta['out_features']} "
          f"{meta['kind']}, run {run_dir.name})")
    return 0


def _compile_stimulus(meta: dict, dataset_override: str | None, seed: int,
                      in_features: int) -> tuple[np.ndarray, dict]:
    """Stimulus rows for compilation: the model's test split, or random rows.

    Prefers ``--dataset``, then the dataset recorded in the artifact's
    provenance config; falls back to seeded uniform rows when neither names
    a loadable dataset.  Returns ``(rows, stimulus_info)``.
    """
    config = meta.get("provenance", {}).get("config", {}) or {}
    dataset = dataset_override or config.get("dataset")
    seed = config.get("seed", seed) if dataset_override is None else seed
    if dataset is not None:
        from repro.datasets import load_dataset, train_val_test_split

        try:
            data = load_dataset(dataset)
        except (KeyError, ValueError) as exc:
            if dataset_override is not None:
                raise ValueError(f"unknown stimulus dataset {dataset!r}") from exc
        else:
            if data.n_features == in_features:
                split = train_val_test_split(data, seed=int(seed or 0))
                return split.x_test, {"dataset": dataset, "split": "test",
                                      "seed": int(seed or 0)}
            logger.warning("artifact dataset %s has %d features, model wants %d; "
                           "using random stimulus", dataset, data.n_features, in_features)
    rng = np.random.default_rng(seed or 0)
    return rng.random((64, in_features)), {"dataset": None, "split": "random",
                                           "seed": int(seed or 0)}


def cmd_compile(args, run_logger=None) -> int:
    from repro.compile import (
        BundleError,
        InfeasibleError,
        TileConstraints,
        compile_model,
        verify_bundle,
    )

    # --verify-only: sign off an existing bundle from disk, nothing else.
    if args.verify_only:
        try:
            report = verify_bundle(args.verify_only, tolerance_v=args.tolerance)
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if run_logger is not None:
                run_logger.emit("compile", phase="verify", tiles=0, duration_s=0.0,
                                status="failed", error=str(exc))
            return 5
        print(report.summary())
        if run_logger is not None:
            run_logger.emit("compile", phase="verify", tiles=report.n_tiles,
                            duration_s=report.duration_s,
                            status="ok" if report.ok else "failed",
                            vectors=report.n_vectors)
        return 0 if report.ok else 5

    from repro.serving.artifact import ArtifactError, RUN_ARTIFACT_NAME, load_artifact

    if args.artifact:
        source = Path(args.artifact)
    else:
        from repro.observability import resolve_run

        try:
            run_dir = resolve_run(args.run or "latest", args.dir)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        source = run_dir / RUN_ARTIFACT_NAME
        if not source.is_file():
            print(f"error: {run_dir.name} has no {RUN_ARTIFACT_NAME} "
                  "(only 'train --run-dir' runs freeze a model)", file=sys.stderr)
            return 2
    try:
        model = load_artifact(source)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        constraints = TileConstraints(
            max_rows=args.tile_rows,
            max_cols=args.tile_cols,
            max_devices=args.tile_devices,
            max_power_w=args.tile_power,
        )
        stimulus, stimulus_info = _compile_stimulus(
            model.meta, args.dataset, args.seed, model.in_features
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    provenance = {
        "artifact": str(source),
        "artifact_provenance": model.meta.get("provenance", {}),
        "power": model.meta.get("power", {}),
        "stimulus": stimulus_info,
    }
    print(f"compiling {source} "
          f"(tile {args.tile_rows}x{args.tile_cols}"
          + (f", {args.tile_devices} devices" if args.tile_devices else "")
          + (f", {args.tile_power:g} W" if args.tile_power else "") + ")")
    try:
        result = compile_model(
            model.net,
            constraints,
            stimulus,
            args.out,
            n_vectors=args.vectors,
            negation=args.negation,
            tolerance_v=0.05 if args.tolerance is None else args.tolerance,
            provenance=provenance,
            run_logger=run_logger,
        )
    except InfeasibleError as exc:
        print("error: constraints are infeasible", file=sys.stderr)
        json.dump(exc.diagnostic, sys.stderr, indent=2)
        print(file=sys.stderr)
        if run_logger is not None:
            run_logger.emit("compile", phase="place", tiles=0, duration_s=0.0,
                            status="infeasible", error=str(exc))
        return 4

    print(f"{'tile':10s} {'rows':>9s} {'cols':>7s} {'owner':>5s} "
          f"{'devices':>7s} {'est power':>11s}")
    for tile in result.layout.tiles:
        print(f"{tile.id:10s} {tile.row_start:4d}-{tile.row_end:<4d} "
              f"{tile.col_start:3d}-{tile.col_end:<3d} {'yes' if tile.owner else 'no':>5s} "
              f"{tile.devices:7d} {tile.est_power_w * 1e6:8.2f} µW")
    routes = result.layout.routes
    print(f"{result.layout.n_tiles} tiles, {len(routes)} inter-tile routes "
          f"({sum(1 for r in routes if r.kind == 'summing')} summing, "
          f"{sum(1 for r in routes if r.kind == 'signal')} signal)")
    print(f"bundle: {result.bundle_dir}")
    print(result.report.summary())
    return 0 if result.report.ok else 5


def _read_feature_rows(path: str, fmt: str) -> np.ndarray:
    """Feature rows from CSV or JSON text ('-' = stdin); shape (n, features)."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty input")
    if fmt == "auto":
        fmt = "json" if stripped[0] in "[{" else "csv"
    if fmt == "json":
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = payload["rows"]
        rows = np.asarray(payload, dtype=np.float64)
    else:
        parsed: list[list[float]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parsed.append([float(cell) for cell in line.split(",")])
            except ValueError:
                if lineno == 1 and not parsed:
                    continue  # header row
                raise ValueError(f"line {lineno}: not a numeric CSV row: {line!r}")
        rows = np.asarray(parsed, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    return rows


def cmd_predict(args, run_logger=None) -> int:
    from repro.serving.artifact import ArtifactError, load_artifact

    started = perf_counter()
    try:
        model = load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = _read_feature_rows(args.input, args.format)
        labels, confidence = model.predict_labels(rows)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if run_logger is not None:
            run_logger.emit("serve", endpoint="predict-cli", status=400, rows=0,
                            duration_s=perf_counter() - started, error=str(exc))
        return 2
    print(f"{'row':>4s} {'label':>5s} {'confidence':>10s}")
    for index, (label, conf) in enumerate(zip(labels, confidence)):
        print(f"{index:4d} {int(label):5d} {conf:10.4f}")
    if run_logger is not None:
        run_logger.emit("serve", endpoint="predict-cli", status=200, rows=len(rows),
                        duration_s=perf_counter() - started)
    return 0


def _serve_until_stopped(server) -> int:
    """Block in ``serve_forever`` with SIGINT/SIGTERM mapped to clean shutdown.

    Shared by ``repro serve`` and ``repro dashboard`` — any
    :class:`repro.serving.httpbase.AppServer` works.
    """
    import signal
    import threading

    def _stop(signum, frame):
        logger.info("signal %d: shutting down", signum)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _stop)
        except ValueError:
            # Not the main thread (e.g. a test driving main() from a worker
            # thread); --max-requests remains the only shutdown path there.
            break
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.close()
    print("server stopped")
    return 0


def cmd_serve(args, run_logger=None) -> int:
    from repro.serving.artifact import ArtifactError, load_artifact
    from repro.serving.server import ServingServer

    try:
        model = load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = ServingServer(
        model,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1000.0,
        run_logger=run_logger,
        max_requests=args.max_requests,
    )
    print(f"serving {args.artifact} on {server.url} "
          f"(max_batch={args.max_batch}, max_delay={args.max_delay_ms:g}ms)", flush=True)
    return _serve_until_stopped(server)


def cmd_dashboard(args) -> int:
    from repro.observability.dashboard import DashboardServer

    server = DashboardServer(
        base_dir=args.runs_dir,
        host=args.host,
        port=args.port,
        max_requests=args.max_requests,
    )
    print(f"dashboard over {args.runs_dir} on {server.url}", flush=True)
    return _serve_until_stopped(server)


def _dispatch(args, run_logger, run_ctx=None) -> int:
    if args.command == "datasets":
        return cmd_datasets()
    if args.command == "train":
        return cmd_train(args, run_logger, run_ctx)
    if args.command == "sweep":
        return cmd_sweep(args, run_logger)
    if args.command == "grid":
        return cmd_grid(args, run_logger)
    if args.command == "circuits":
        return cmd_circuits()
    if args.command == "montecarlo":
        return cmd_montecarlo(args, run_logger)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "runs":
        return cmd_runs(args)
    if args.command == "export":
        return cmd_export(args)
    if args.command == "serve":
        return cmd_serve(args, run_logger)
    if args.command == "dashboard":
        return cmd_dashboard(args)
    if args.command == "predict":
        return cmd_predict(args, run_logger)
    if args.command == "compile":
        return cmd_compile(args, run_logger)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    from repro.observability import (
        JsonlSink,
        RunContext,
        RunLogger,
        TeeSink,
        TrainingHealthError,
        configure_logging,
        disable_tracing,
        enable_tracing,
        get_kernel_profiler,
        get_registry,
        get_tracer,
        render_profile,
    )

    configure_logging(args.verbose - args.quiet)

    trace_enabled = bool(args.trace or args.trace_out)
    if trace_enabled:
        enable_tracing()
    elif args.profile:
        get_tracer().enable()  # spans only: no kernel timing, no trace export

    run_ctx: RunContext | None = None
    if args.run_dir:
        run_ctx = RunContext.create(
            args.run_dir, args.command, _run_config(args),
            argv=list(argv) if argv is not None else sys.argv[1:],
            git_sha=_git_sha(),
        )
        if args.log_json:
            # Fan the single validated stream out to both destinations.
            run_ctx.logger.close()
            run_ctx.logger = RunLogger(
                TeeSink(JsonlSink(run_ctx.events_path), JsonlSink(args.log_json))
            )
        run_logger = run_ctx.logger
        # Pool workers of this run append worker-attributed event shards
        # next to the parent timeline; finalize() merges them.
        from repro.parallel.telemetry import WorkerTelemetry, set_default_telemetry

        set_default_telemetry(
            WorkerTelemetry(run_dir=str(run_ctx.directory), trace=trace_enabled)
        )
    else:
        run_logger = RunLogger(JsonlSink(args.log_json)) if args.log_json else RunLogger()

    started = perf_counter()
    run_logger.emit(
        "run_start",
        command=args.command,
        config=_run_config(args),
        git_sha=_git_sha(),
    )
    code = 1
    try:
        code = _dispatch(args, run_logger, run_ctx)
        return code
    except TrainingHealthError as exc:
        code = 3
        print(f"aborted by health watchdog: {exc}", file=sys.stderr)
        if run_ctx is not None:
            path = run_ctx.write_diagnostic(exc.diagnostic)
            print(f"diagnostic dump: {path}", file=sys.stderr)
        else:
            json.dump(exc.diagnostic, sys.stderr, indent=2)
            print(file=sys.stderr)
        return code
    finally:
        profile = None
        if args.profile:
            profile = get_tracer().profile()
            run_logger.emit("profile", spans=profile)
            print("\nspan breakdown:")
            print(render_profile(profile))
        if args.metrics_out:
            Path(args.metrics_out).write_text(get_registry().render_prometheus(), encoding="utf-8")
        run_logger.emit(
            "run_end",
            exit_code=code,
            duration_s=perf_counter() - started,
            metrics=get_registry().snapshot(),
        )
        run_logger.close()
        if trace_enabled:
            # Drain the in-process tracer before finalize() so the merged
            # trace.jsonl (parent records + worker shards, deduped by span
            # id) is complete when the manifest counts it.
            from repro.observability.tracing import (
                KERNELS_NAME,
                TRACE_NAME,
                read_trace,
                write_chrome_trace,
                write_kernels_json,
                write_trace_jsonl,
            )

            records = get_tracer().drain()
            if run_ctx is not None:
                write_trace_jsonl(run_ctx.directory / TRACE_NAME, records, append=True)
                write_kernels_json(run_ctx.directory / KERNELS_NAME)
        if run_ctx is not None:
            run_ctx.finalize(code, perf_counter() - started, profile=profile)
            set_default_telemetry(None)
        if trace_enabled and args.trace_out:
            if run_ctx is not None:
                # Export the merged timeline (includes worker shards).
                records = read_trace(run_ctx.directory / TRACE_NAME)
            n = write_chrome_trace(args.trace_out, records)
            print(f"chrome trace: {args.trace_out} ({n} events)")
        if trace_enabled or args.profile:
            disable_tracing()
            get_tracer().reset()  # a later run in this process starts empty
            get_kernel_profiler().reset()


if __name__ == "__main__":
    sys.exit(main())
