"""The three workloads: ``train_al``, ``sweep_fleet`` and ``deploy``.

Each workload is a closed loop: one client in one process, ``n_jobs=1``,
the next operation issued when the previous one returns.  An *iteration*
is one complete user-visible job with its own set-up; it returns its
samples, its deferred output checks (run by the caller after timing and
tracing stop) and a digest of its deterministic outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


def source_hash(root: Path) -> str:
    """SHA-256 over ``src/repro`` and this file: the code that makes the inputs."""
    h = hashlib.sha256()
    files = sorted(p for p in (root / "src" / "repro").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in [*files, Path(__file__).resolve()]:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Context:
    """Benchmark-owned paths inside the checkout.

    Generated inputs (the warm surrogate cache and the deploy artifact) live
    under a directory named by :func:`source_hash`, so each version of the
    code makes its own before timing and never times another's.
    ``REPRO_CACHE_DIR`` points at :attr:`warm_cache` for the whole run;
    only the cold surrogate fit swaps in an empty directory.
    """

    work: Path  # <checkout>/.perfbench
    source: str  # source_hash of the checkout

    @property
    def inputs(self) -> Path:
        return self.work / "inputs" / self.source

    @property
    def warm_cache(self) -> Path:
        return self.inputs / "cache"

    @property
    def scratch(self) -> Path:
        return self.work / "tmp" / str(os.getpid())

    def fresh_dir(self, label: str) -> Path:
        path = self.scratch / f"{label}-{len(list(self.scratch.glob(label + '-*')))}"
        path.mkdir(parents=True)
        return path


@dataclass
class Iteration:
    """Outcome of one iteration of a workload."""

    wall_s: float
    run_s: float
    latencies_ms: dict[str, list[float]]
    samples: dict[str, list[float]]
    checks: Callable[[], list[tuple[str, bool]]]
    digest: str
    info: dict = field(default_factory=dict)
    layer_samples: dict = field(default_factory=dict)


def reset_process_state() -> None:
    """Drop every in-process cache an earlier iteration could leave behind."""
    import gc

    import repro.datasets.registry as registry
    import repro.evaluation.montecarlo as montecarlo
    import repro.power.surrogate as surrogate
    from repro.observability.metrics import get_registry

    montecarlo._PROGRAM_CACHE = None
    surrogate._MEMORY_CACHE.clear()
    registry._CACHE.clear()
    get_registry().reset()
    gc.collect()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _arrays_digest(source) -> str:
    h = hashlib.sha256()
    with np.load(source, allow_pickle=False) as arrays:
        for key in sorted(arrays.files):
            value = arrays[key]
            h.update(f"{key} {value.dtype.str} {value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def input_digests(ctx: Context) -> dict[str, str]:
    """Digest of every generated input's array values, by file name.

    The values, not the file bytes: the zip members of ``.npz`` and
    ``.pnz`` files carry write timestamps.
    """
    from repro.serving.artifact import ARRAYS_NAME

    digests = {}
    for path in sorted(ctx.inputs.rglob("*")):
        if path.suffix == ".npz":
            digests[path.name] = _arrays_digest(path)
        elif path.suffix == ".pnz":
            with zipfile.ZipFile(path) as bundle:
                digests[path.name] = _arrays_digest(io.BytesIO(bundle.read(ARRAYS_NAME)))
    return digests


def _cache_files(path: Path) -> dict[str, int]:
    return {p.name: p.stat().st_mtime_ns for p in path.glob("*.npz")} if path.is_dir() else {}


@contextlib.contextmanager
def _cache_dir(path: Path):
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def _quiet_cli(argv: list[str]) -> int:
    """``repro.cli.main`` in process, its stdout kept off the result line."""
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# ----------------------------------------------------------------------
class TrainAL:
    """``repro train seeds --af p-tanh --budget-fraction 0.4`` at 300 epochs."""

    name = "train_al"
    #: iterations per run, fixed so that faster code does not get more draws
    iterations = 1
    #: the gated unit: an AL epoch past warmup (the method's own epoch;
    #: pooling both trainings mixes two cost levels, so their joint median
    #: flips between them from run to run)
    unit_key = "al_epoch_ms"
    unit_window = 25  # about a second of AL epochs
    dataset = "seeds"
    af = "p-tanh"
    #: the CLI's surrogate fits for training (see repro.cli._prepare)
    surrogates = (("tanh", 800, 60), ("negation", 500, 60))
    #: Training seeds the benchmark seed selects from.  At 300 epochs the
    #: AL run on ``seeds`` ends feasible with test accuracy >= 0.5 for
    #: these seeds and not for every seed (1, 3 and 8 end infeasible, 0
    #: near chance), so the output checks below would fail on the rest.
    train_seeds = (2, 4, 5, 6, 7, 9, 10, 11)
    accuracy_floor = 0.5
    epochs = 300
    warmup_epochs = 80  # train_power_constrained's default
    #: sizes for the benchmark's smoke test (``--tiny``)
    tiny = {"epochs": 4, "warmup_epochs": 0}

    def train_seed(self, seed: int) -> int:
        return self.train_seeds[seed % len(self.train_seeds)]

    def _load_surrogates(self) -> None:
        from repro.power.surrogate import get_cached_surrogate

        for kind, n_q, epochs in self.surrogates:
            get_cached_surrogate(kind, n_q=n_q, epochs=epochs)

    def prepare(self, ctx: Context) -> None:
        self._load_surrogates()

    def setup(self, ctx: Context, seed: int) -> None:
        from repro.datasets import load_dataset, train_val_test_split

        train_val_test_split(load_dataset(self.dataset), seed=self.train_seed(seed))
        self._load_surrogates()

    def iterate(self, ctx: Context, seed: int) -> Iteration:
        from repro.serving.artifact import read_metadata

        start = perf_counter()
        cold = ctx.fresh_dir("cold-cache")
        with _cache_dir(cold):
            self._load_surrogates()
        fit_s = perf_counter() - start
        shutil.rmtree(cold, ignore_errors=True)
        reset_process_state()

        warm_before = _cache_files(ctx.warm_cache)
        t0 = perf_counter()
        self.setup(ctx, seed)
        setup_s = perf_counter() - t0
        run_base = ctx.fresh_dir("train")
        argv = ["train", self.dataset, "--af", self.af, "--budget-fraction", "0.4",
                "--epochs", str(self.epochs), "--seed", str(self.train_seed(seed)),
                "--run-dir", str(run_base), "-q"]
        t0 = perf_counter()
        code = _quiet_cli(argv)
        train_s = perf_counter() - t0
        warm_fits = _cache_files(ctx.warm_cache) != warm_before

        run_dir = next(run_base.iterdir())
        events = _read_events(run_dir / "events.jsonl")
        epochs = [e for e in events if e["type"] == "epoch"]
        walls, steps, evals, hosts = _epoch_times(epochs)
        al_walls = [wall for wall, event in zip(walls, _timed(epochs))
                    if event["phase"] == "constrained" and event["multiplier"] is not None
                    and event["epoch"] >= self.warmup_epochs]
        power = read_metadata(run_dir / "model.pnz")["power"]
        lam = [e["multiplier"] for e in epochs if e["phase"] == "constrained"]
        digest = _digest(
            [(e["phase"], e["epoch"], e["loss"], e["power_w"], e["val_accuracy"],
              e["multiplier"], e["feasible"], e["lr"]) for e in epochs],
            sorted(power.items()),
        )

        def checks() -> list[tuple[str, bool]]:
            return [
                ("train exits 0 (feasible)", code == 0 and bool(power["feasible"])),
                (f"test accuracy >= {self.accuracy_floor}",
                 power["test_accuracy"] >= self.accuracy_floor),
                ("power <= budget", power["power_w"] <= power["budget_w"] * (1 + 1e-3)),
                ("no surrogate fit on the warm path", not warm_fits),
                ("both trainings ran every epoch", len(epochs) == 2 * self.epochs),
            ]

        return Iteration(
            wall_s=fit_s + setup_s + train_s,
            run_s=train_s,
            latencies_ms={"epoch_ms": walls, "al_epoch_ms": al_walls},
            samples={"setup_s": [setup_s], "surrogate_fit_s": [fit_s], "train_s": [train_s]},
            checks=checks,
            digest=digest,
            info={
                "train_seed": self.train_seed(seed),
                "test_accuracy": power["test_accuracy"],
                "power_over_budget": power["power_w"] / power["budget_w"],
                "feasible": bool(power["feasible"]),
                "device_count": power["device_count"],
                "final_lambda": lam[-1] if lam else None,
                "epochs": len(epochs),
            },
            layer_samples={
                "training.step_ms": steps,
                "training.eval_ms": evals,
                "training.host_ms": hosts,
            },
        )

    def probe(self, ctx: Context, seed: int) -> dict[str, float]:
        """Component replay costs on this workload's AL network and batch."""
        from repro.circuits import PNCConfig, PrintedNeuralNetwork
        from repro.datasets import load_dataset, train_val_test_split
        from repro.pdk.params import ActivationKind
        from repro.power.surrogate import get_cached_surrogate

        from probe import run_probe

        kind = ActivationKind.from_name(self.af)
        data = load_dataset(self.dataset)
        split = train_val_test_split(data, seed=self.train_seed(seed))
        (af_kind, af_q, af_e), (_neg, neg_q, neg_e) = self.surrogates
        net = PrintedNeuralNetwork(
            data.n_features, data.n_classes, PNCConfig(kind=kind),
            np.random.default_rng(self.train_seed(seed) + 1),
            get_cached_surrogate(af_kind, n_q=af_q, epochs=af_e),
            get_cached_surrogate("negation", n_q=neg_q, epochs=neg_e),
        )
        return run_probe(net, split)


def _read_events(path: Path) -> list[dict]:
    import json

    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _timed(epochs: list[dict]) -> list[dict]:
    """Epoch events with a predecessor in the same training (a wall time)."""
    return [e for p, e in zip(epochs, epochs[1:]) if p["phase"] == e["phase"]]


def _epoch_times(epochs: list[dict]):
    """Per-epoch (wall, step, eval, host) ms from consecutive epoch events.

    An epoch's wall time runs from its predecessor's event to its own, so
    the first epoch of each training has none; step and eval times are the
    trainer's own per-epoch readings.
    """
    steps = [e["step_time_s"] * 1e3 for e in epochs]
    evals = [e["eval_time_s"] * 1e3 for e in epochs]
    walls, hosts = [], []
    for previous, event in zip(epochs, epochs[1:]):
        if previous["phase"] == event["phase"]:
            wall = (event["ts"] - previous["ts"]) * 1e3
            walls.append(wall)
            hosts.append(wall - (event["step_time_s"] + event["eval_time_s"]) * 1e3)
    return walls, steps, evals, hosts


# ----------------------------------------------------------------------
class SweepFleet:
    """The penalty half of ``repro sweep seeds --vectorized``: one 16-wide fleet."""

    name = "sweep_fleet"
    iterations = 2
    unit_key = "fleet_epoch_ms"
    unit_window = 1  # a fleet epoch takes about a second
    dataset = "seeds"
    n_alphas = 4
    n_seeds = 4
    epochs = 12
    tiny = {"iterations": 1, "n_alphas": 2, "n_seeds": 2, "epochs": 2}

    def _config(self, seed: int):
        from repro.evaluation.experiments import ExperimentConfig, network_spec
        from repro.pdk.params import ActivationKind

        config = ExperimentConfig(
            epochs=self.epochs, patience=max(40, self.epochs // 4), seed=seed,
            surrogate_n_q=800, surrogate_epochs=60,
        )
        return config, network_spec(self.dataset, ActivationKind.TANH, config)

    def prepare(self, ctx: Context) -> None:
        self._config(0)[1].surrogates()

    def setup(self, ctx: Context, seed: int):
        config, spec = self._config(seed)
        split = spec.split()
        spec.surrogates()
        return config, spec, split

    def iterate(self, ctx: Context, seed: int) -> Iteration:
        from repro.training.fleet import FleetProgram
        from repro.training.penalty import penalty_pareto_sweep

        warm_before = _cache_files(ctx.warm_cache)
        t0 = perf_counter()
        config, spec, split = self.setup(ctx, seed)
        setup_s = perf_counter() - t0

        starts: list[float] = []
        original = FleetProgram.__dict__["run_step"]

        def run_step(program, epoch):
            starts.append(perf_counter())
            return original(program, epoch)

        FleetProgram.run_step = run_step
        try:
            t0 = perf_counter()
            sweep = penalty_pareto_sweep(
                spec.build, split, n_alphas=self.n_alphas, n_seeds=self.n_seeds,
                alpha_range=(1.0 / self.n_alphas, 1.0), settings=config.trainer_settings(),
                net_spec=spec, vectorized=True, instance_chunk=64,
            )
            sweep_s = perf_counter() - t0
        finally:
            FleetProgram.run_step = original
        warm_fits = _cache_files(ctx.warm_cache) != warm_before
        epoch_ms = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
        results = sweep.results
        digest = _digest(
            [(r.test_accuracy, r.power, r.epochs_run, tuple(r.loss_trace), tuple(r.power_trace))
             for r in results]
        )
        expected = self.n_alphas * self.n_seeds

        def checks() -> list[tuple[str, bool]]:
            return [
                (f"sweep returns all {expected} points", len(results) == expected),
                ("sweep reports no errors", not sweep.errors),
                ("every point finite", all(np.isfinite([r.test_accuracy, r.power]).all()
                                           for r in results)),
                ("no surrogate fit on the warm path", not warm_fits),
            ]

        accuracies = [r.test_accuracy for r in results]
        return Iteration(
            wall_s=setup_s + sweep_s,
            run_s=sweep_s,
            latencies_ms={"fleet_epoch_ms": epoch_ms},
            samples={"setup_s": [setup_s], "sweep_s": [sweep_s]},
            checks=checks,
            digest=digest,
            info={
                "points": len(results),
                "fleet_epochs": len(starts),
                "best_accuracy": max(accuracies, default=None),
                "median_accuracy": statistics.median(accuracies) if accuracies else None,
            },
        )


# ----------------------------------------------------------------------
class Deploy:
    """Frozen ``.pnz`` → Monte-Carlo → serving → compile with SPICE sign-off."""

    name = "deploy"
    iterations = 12
    unit_key = "serve_ms"
    dataset = "seeds"
    #: The frozen circuit: a p-ReLU AL run on ``seeds`` (its compiled tiles
    #: pass SPICE sign-off; p-tanh input loading flips tile decisions).
    artifact_argv = ["train", "seeds", "--af", "p-relu", "--budget-fraction", "0.5",
                     "--seed", "1"]
    split_seed = 1
    mc_instances = 256
    mc_chunk = 64
    mc_floor = 0.75
    requests = 300
    #: request sizes, drawn with equal weights: no request traffic is
    #: recorded for this model, so the mix is an assumption
    request_sizes = (1, 8, 64)
    tile = (8, 4)
    tiny = {"iterations": 2, "mc_instances": 64, "requests": 20}

    def __init__(self):
        self._serial_mc: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def unit_window(self) -> int:
        return self.requests  # one iteration's requests

    def artifact(self, ctx: Context) -> Path:
        return ctx.inputs / "deploy.pnz"

    def prepare(self, ctx: Context) -> None:
        path = self.artifact(ctx)
        if path.is_file():
            return
        run_base = ctx.fresh_dir("artifact")
        _quiet_cli([*self.artifact_argv, "--run-dir", str(run_base), "-q"])
        made = next(run_base.iterdir()) / "model.pnz"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}")
        shutil.copyfile(made, tmp)
        os.replace(tmp, path)

    def setup(self, ctx: Context, seed: int):
        from repro.datasets import load_dataset, train_val_test_split
        from repro.serving.artifact import load_artifact

        model = load_artifact(self.artifact(ctx))
        model.engine  # the fixed-shape capture happens here
        data = load_dataset(self.dataset)
        return model, data, train_val_test_split(data, seed=self.split_seed)

    def iterate(self, ctx: Context, seed: int) -> Iteration:
        from repro.compile import TileConstraints, compile_model
        from repro.compile.bundle import load_manifest
        from repro.evaluation.montecarlo import evaluate_instances, run_monte_carlo
        from repro.pdk.variation import VariationSpec

        t0 = perf_counter()
        model, data, split = self.setup(ctx, seed)
        setup_s = perf_counter() - t0
        net = model.net
        budget = model.meta["power"]["budget_w"]
        spec = VariationSpec()

        t0 = perf_counter()
        report = run_monte_carlo(
            net, split.x_test, split.y_test, spec, n_samples=self.mc_instances, seed=seed,
            power_budget=budget, accuracy_floor=self.mc_floor, vectorized=True,
            instance_chunk=self.mc_chunk,
        )
        mc_s = perf_counter() - t0

        rng = np.random.default_rng(seed)
        features = data.features
        requests = [
            features[rng.integers(0, len(features),
                                  int(rng.choice(self.request_sizes)))]
            for _ in range(self.requests)
        ]
        latencies, outputs = [], []
        t0 = perf_counter()
        for rows in requests:
            t = perf_counter()
            outputs.append(model.predict(rows))
            latencies.append((perf_counter() - t) * 1e3)
        serve_s = perf_counter() - t0
        n_rows = sum(len(rows) for rows in requests)

        out_dir = ctx.fresh_dir("compiled")
        t0 = perf_counter()
        compiled = compile_model(
            net, TileConstraints(max_rows=self.tile[0], max_cols=self.tile[1]),
            split.x_test, out_dir, n_vectors=8, verify=True,
        )
        signoff_s = perf_counter() - t0
        run_s = mc_s + serve_s + signoff_s

        verify = compiled.report
        checksums = sorted(load_manifest(out_dir)["checksums"].items())
        logits = np.concatenate(outputs)
        digest = _digest(report.accuracies, report.powers, logits, checksums)
        model_power = compiled.manifest["model"]["model_power_w"]
        tile_power = sum(t.mean_power_w for t in verify.tiles)

        def checks() -> list[tuple[str, bool]]:
            if seed not in self._serial_mc:  # the serial oracle is deterministic per seed
                seqs = np.random.SeedSequence(seed).spawn(self.mc_instances)[: self.mc_chunk]
                self._serial_mc[seed] = evaluate_instances(
                    net, split.x_test, split.y_test, spec,
                    [np.random.default_rng(s) for s in seqs],
                )
            accuracies, powers = self._serial_mc[seed]
            results = [
                ("vectorized Monte-Carlo == serial on the first chunk",
                 np.array_equal(accuracies, report.accuracies[: self.mc_chunk])
                 and np.array_equal(powers, report.powers[: self.mc_chunk])),
                ("verify_bundle ok", bool(verify.ok)),
            ]
            eager = model.eager_logits(np.concatenate(requests))
            offset = 0
            for index, (rows, out) in enumerate(zip(requests, outputs)):
                reference = eager[offset:offset + len(rows)]
                offset += len(rows)
                results.append((f"predict == eager_logits (request {index})",
                                np.array_equal(out, reference)))
            return results

        return Iteration(
            wall_s=setup_s + run_s,
            run_s=run_s,
            latencies_ms={"serve_ms": latencies},
            samples={
                "setup_s": [setup_s],
                "mc_instances_per_s": [self.mc_instances / mc_s],
                "serve_rows_per_s": [n_rows / serve_s],
                "signoff_s": [signoff_s],
            },
            checks=checks,
            digest=digest,
            info={
                "mc_yield": report.parametric_yield,
                "mc_p5_accuracy": report.quantile(0.05),
                "nominal_accuracy": report.nominal_accuracy,
                "tile_spice_power_over_model": tile_power / model_power,
                "tiles": compiled.layout.n_tiles,
                "rows_served": n_rows,
            },
            layer_samples={"serving.micro_batch": model.engine.micro_batch},
        )


WORKLOADS = {w.name: w for w in (TrainAL(), SweepFleet(), Deploy())}
