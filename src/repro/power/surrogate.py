"""Data-driven surrogate power models P^AF and P^N (paper §III-A).

Each surrogate is an MLP mapping the physical activation parameters ``q``
plus the input voltage to dissipated power.  Following the paper: inputs are
normalized (log-transform for resistance-type parameters whose design space
is log-scaled, then z-scoring), the network regresses log-power (powers span
several decades), and hyperparameters are mild — the default is a 6-layer
MLP; ``paper_depth=True`` requests the paper's 15-layer configuration.

Surrogates are differentiable end-to-end through :mod:`repro.autograd`, so
the constrained training loop backpropagates power gradients into the
learnable circuit parameters q.  Fitted surrogates are cached on disk
(keyed by activation kind + sample budget) so repeated experiment runs skip
refitting.
"""

from __future__ import annotations

import contextlib
import logging
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.autograd.tensor import Tensor, concatenate, no_grad
from repro.autograd import nn, optim
from repro.autograd import functional as F
from repro.observability.metrics import get_registry
from repro.observability.tracing import trace_span
from repro.pdk.params import ActivationKind, DesignSpace, design_space, negation_design_space
from repro.power.dataset import PowerDataset, generate_power_dataset, generate_negation_dataset

logger = logging.getLogger(__name__)

_SURROGATE_EVALS = get_registry().counter(
    "surrogate_evals", "surrogate power-model evaluations (predict_numpy + predict_tensor calls)"
)

LN10 = float(np.log(10.0))
POWER_FLOOR_W = 1.0e-12


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR", "")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro-pnc"


@dataclass
class Normalization:
    """Feature transform: optional log10 per dimension, then z-score."""

    log_mask: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray, log_mask: np.ndarray) -> "Normalization":
        transformed = cls._log_transform(features, log_mask)
        mean = transformed.mean(axis=0)
        std = transformed.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(log_mask=log_mask.astype(bool), mean=mean, std=std)

    @staticmethod
    def _log_transform(features: np.ndarray, log_mask: np.ndarray) -> np.ndarray:
        out = features.astype(np.float64).copy()
        out[:, log_mask] = np.log10(np.maximum(out[:, log_mask], 1e-300))
        return out

    def apply_numpy(self, features: np.ndarray) -> np.ndarray:
        transformed = self._log_transform(features, self.log_mask)
        return (transformed - self.mean) / self.std

    def apply_tensor_columns(self, columns: list[Tensor]) -> list[Tensor]:
        """Normalize per-column tensors (each ``(n, 1)``), preserving grads."""
        if len(columns) != self.mean.size:
            raise ValueError("column count does not match normalization")
        out: list[Tensor] = []
        for i, col in enumerate(columns):
            if self.log_mask[i]:
                col = col.log() * (1.0 / LN10)
            out.append((col - float(self.mean[i])) * (1.0 / float(self.std[i])))
        return out


@dataclass
class FitReport:
    """Quality metrics of a surrogate fit (log10-power space)."""

    train_mae_log: float
    test_mae_log: float
    test_r2: float
    epochs: int
    n_samples: int


@dataclass
class SurrogatePowerModel:
    """MLP surrogate ``(q, v_in) → power``.

    Use :meth:`predict_numpy` for evaluation and :meth:`predict_tensor`
    inside training graphs.  Powers are returned in watts.
    """

    network: nn.Sequential
    normalization: Normalization
    space: DesignSpace
    report: FitReport | None = None
    label: str = ""

    # ------------------------------------------------------------------
    def predict_numpy(self, q: np.ndarray, v_in: np.ndarray) -> np.ndarray:
        """Predict power for ``(n, d)`` q and ``(n,)`` v_in arrays."""
        _SURROGATE_EVALS.inc()
        with trace_span("surrogate.predict_numpy", "power"):
            return self._predict_numpy(q, v_in)

    def _predict_numpy(self, q: np.ndarray, v_in: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        v_in = np.asarray(v_in, dtype=np.float64).reshape(-1)
        if q.shape[0] == 1 and v_in.size > 1:
            q = np.repeat(q, v_in.size, axis=0)
        features = np.column_stack([q, v_in])
        with no_grad():
            log_power = self.network(Tensor(self.normalization.apply_numpy(features))).data
        return 10.0 ** log_power.reshape(-1)

    def predict_tensor(self, q_columns: list[Tensor], v_in: Tensor) -> Tensor:
        """Differentiable prediction.

        Parameters
        ----------
        q_columns:
            One scalar (or ``(n, 1)``) tensor per design-space parameter.
        v_in:
            ``(n, 1)`` tensor of input voltages.

        Returns
        -------
        Tensor
            ``(n, 1)`` powers in watts, differentiable w.r.t. q and v.
        """
        _SURROGATE_EVALS.inc()
        with trace_span("surrogate.predict_tensor", "power"):
            return self._predict_tensor(q_columns, v_in)

    def predict_tensor_batched(self, groups: list[tuple[list[Tensor], Tensor]]) -> list[Tensor]:
        """Differentiable prediction of several ``(q_columns, v_in)`` groups
        through **one** stacked MLP evaluation.

        The groups' feature rows are concatenated along axis 0, the network
        runs once on the stack, and the output is sliced back per group —
        numerically identical to calling :meth:`predict_tensor` per group
        (row-wise ops throughout the MLP) but paying the Python/op overhead
        of the ~10-layer network a single time.  All groups must target this
        surrogate, i.e. share its design space.

        Returns one ``(n_i, 1)`` power tensor per input group.
        """
        if len(groups) == 1:
            return [self.predict_tensor(*groups[0])]
        _SURROGATE_EVALS.inc()
        with trace_span("surrogate.predict_tensor", "power"):
            per_group: list[list[Tensor]] = []
            sizes: list[int] = []
            for q_columns, v_in in groups:
                per_group.append(self._expand_columns(q_columns, v_in))
                sizes.append(v_in.shape[-2])
            n_columns = len(per_group[0])
            if any(len(cols) != n_columns for cols in per_group):
                raise ValueError("batched groups disagree on feature count")
            stacked = [
                concatenate([cols[i] for cols in per_group], axis=-2)
                for i in range(n_columns)
            ]
            normalized = self.normalization.apply_tensor_columns(stacked)
            features = concatenate(normalized, axis=-1)
            power = (self.network(features) * LN10).exp()
            outputs: list[Tensor] = []
            offset = 0
            for size in sizes:
                outputs.append(power[(Ellipsis, slice(offset, offset + size), slice(None))])
                offset += size
            return outputs

    def _expand_columns(self, q_columns: list[Tensor], v_in: Tensor) -> list[Tensor]:
        """The ``(n, 1)`` feature columns (q..., v) of one prediction group.

        ``v_in`` may carry leading axes (an ``(instances, n, 1)`` stack);
        feature columns then get the same lead.  Instance-stacked q columns
        arrive as ``(instances, 1, 1)`` tensors and broadcast against the
        ones column — multiplying by 1.0 is a bitwise identity, so every
        instance slice matches the scalar-q path exactly.
        """
        lead = v_in.shape[:-2]
        n = v_in.shape[-2]
        ones = Tensor(np.ones((*lead, n, 1)))
        expanded = []
        for col in q_columns:
            if col.ndim == 0:
                expanded.append(ones * col)
            elif col.ndim >= 3:
                expanded.append(ones * col)
            elif col.size == 1:
                expanded.append(ones * col.reshape(1, 1))
            else:
                expanded.append(col.reshape(n, 1))
        expanded.append(v_in.reshape(*lead, n, 1))
        return expanded

    def _predict_tensor(self, q_columns: list[Tensor], v_in: Tensor) -> Tensor:
        expanded = self._expand_columns(q_columns, v_in)
        normalized = self.normalization.apply_tensor_columns(expanded)
        features = concatenate(normalized, axis=-1)
        log_power = self.network(features)
        return (log_power * LN10).exp()

    # ------------------------------------------------------------------
    def save(self, path: Path) -> None:
        """Serialize the surrogate (weights + normalization) to ``.npz``.

        The write is atomic: the payload goes to a temp file in the same
        directory which is then ``os.replace``d onto ``path``, so a
        concurrent reader sees either the old file, the new file, or no
        file — never a partial one.
        """
        payload: dict[str, np.ndarray] = {}
        for name, param in self.network.named_parameters():
            payload[f"param::{name}"] = param.data
        payload["norm::log_mask"] = self.normalization.log_mask
        payload["norm::mean"] = self.normalization.mean
        payload["norm::std"] = self.normalization.std
        payload["meta::layers"] = np.array(self._layer_sizes())
        if self.report is not None:
            payload["meta::report"] = np.array(
                [
                    self.report.train_mae_log,
                    self.report.test_mae_log,
                    self.report.test_r2,
                    float(self.report.epochs),
                    float(self.report.n_samples),
                ]
            )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # np.savez appends ".npz" to bare paths; writing through an open file
        # handle keeps the temp name exactly as chosen.
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _layer_sizes(self) -> list[int]:
        sizes = []
        for layer in self.network:
            if isinstance(layer, nn.Linear):
                if not sizes:
                    sizes.append(layer.in_features)
                sizes.append(layer.out_features)
        return sizes


def _build_network(layer_sizes: list[int], rng: np.random.Generator) -> nn.Sequential:
    return nn.mlp(layer_sizes[0], layer_sizes[1:-1], layer_sizes[-1], rng=rng, activation=nn.TanhLayer)


#: Keys every saved surrogate must contain; used to validate cache files.
_REQUIRED_KEYS = ("meta::layers", "norm::log_mask", "norm::mean", "norm::std")


def load_surrogate(path: Path, space: DesignSpace, label: str = "") -> SurrogatePowerModel:
    """Load a surrogate previously written by :meth:`SurrogatePowerModel.save`.

    Raises ``ValueError`` when the file exists but lacks the expected
    payload (e.g. a truncated write from a crashed process); I/O-level
    corruption surfaces as the underlying ``OSError``/``zipfile`` error.
    """
    with np.load(path) as payload:
        missing = [key for key in _REQUIRED_KEYS if key not in payload.files]
        if missing:
            raise ValueError(f"surrogate file {path} is missing keys: {missing}")
        layer_sizes = [int(x) for x in payload["meta::layers"]]
        rng = np.random.default_rng(0)
        network = _build_network(layer_sizes, rng)
        state = {
            name[len("param::"):]: payload[name]
            for name in payload.files
            if name.startswith("param::")
        }
        network.load_state_dict(state)
        normalization = Normalization(
            log_mask=payload["norm::log_mask"].astype(bool),
            mean=payload["norm::mean"],
            std=payload["norm::std"],
        )
        report = None
        if "meta::report" in payload.files:
            r = payload["meta::report"]
            report = FitReport(float(r[0]), float(r[1]), float(r[2]), int(r[3]), int(r[4]))
    return SurrogatePowerModel(network, normalization, space, report, label)


def fit_surrogate(
    dataset: PowerDataset,
    hidden: list[int] | None = None,
    paper_depth: bool = False,
    epochs: int = 150,
    batch_size: int = 1024,
    lr: float = 3e-3,
    seed: int = 0,
    label: str = "",
) -> SurrogatePowerModel:
    """Fit an MLP surrogate to a :class:`PowerDataset`.

    ``paper_depth=True`` selects the paper's 15-layer network (14 hidden
    layers); the default 6-layer model reaches comparable log-space accuracy
    on these smooth power surfaces in a fraction of the time.
    """
    rng = np.random.default_rng(seed)
    d = dataset.q.shape[1] + 1
    if hidden is None:
        hidden = [48] * 14 if paper_depth else [64, 64, 64, 64]

    features = np.column_stack([dataset.q, dataset.v_in])
    log_mask = np.concatenate([np.array(dataset.space.log_scale, dtype=bool), [False]])
    normalization = Normalization.fit(features, log_mask)
    x = normalization.apply_numpy(features)
    y = np.log10(np.maximum(dataset.power, POWER_FLOOR_W)).reshape(-1, 1)

    train_ds, test_ds = dataset.split(train_fraction=0.85, seed=seed)
    x_train = normalization.apply_numpy(np.column_stack([train_ds.q, train_ds.v_in]))
    y_train = np.log10(np.maximum(train_ds.power, POWER_FLOOR_W)).reshape(-1, 1)
    x_test = normalization.apply_numpy(np.column_stack([test_ds.q, test_ds.v_in]))
    y_test = np.log10(np.maximum(test_ds.power, POWER_FLOOR_W)).reshape(-1, 1)

    network = _build_network([d] + hidden + [1], rng)
    optimizer = optim.Adam(network.parameters(), lr=lr)
    n_train = x_train.shape[0]

    logger.info(
        "fitting surrogate %s: %d samples, %d hidden layers, %d epochs",
        label or "(unlabelled)", len(dataset), len(hidden), epochs,
    )
    for epoch in range(epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            idx = order[start:start + batch_size]
            optimizer.zero_grad()
            prediction = network(Tensor(x_train[idx]))
            loss = F.mse_loss(prediction, y_train[idx])
            loss.backward()
            optimizer.step()

    with no_grad():
        pred_train = network(Tensor(x_train)).data
        pred_test = network(Tensor(x_test)).data
    train_mae = float(np.abs(pred_train - y_train).mean())
    test_mae = float(np.abs(pred_test - y_test).mean())
    ss_res = float(((pred_test - y_test) ** 2).sum())
    ss_tot = float(((y_test - y_test.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / max(ss_tot, 1e-30)
    report = FitReport(train_mae, test_mae, r2, epochs, len(dataset))
    logger.info(
        "surrogate %s fitted: test MAE %.4f log10-W, R² %.4f",
        label or "(unlabelled)", test_mae, r2,
    )
    return SurrogatePowerModel(network, normalization, dataset.space, report, label)


# ----------------------------------------------------------------------
# Cached access — experiments share one surrogate per activation kind
# ----------------------------------------------------------------------

_MEMORY_CACHE: dict[str, SurrogatePowerModel] = {}

#: Errors that mean "this cache file is unusable, refit instead of crashing":
#: truncated zip archives, missing keys, wrong shapes, half-written headers.
_CACHE_READ_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


def _load_cached(path: Path, space: DesignSpace, label: str) -> SurrogatePowerModel | None:
    """Load a cache file, or ``None`` when absent or unreadable."""
    if not path.exists():
        return None
    try:
        model = load_surrogate(path, space, label=label)
    except _CACHE_READ_ERRORS as exc:
        logger.warning("discarding unreadable surrogate cache %s (%s: %s)", path, type(exc).__name__, exc)
        return None
    logger.debug("surrogate cache hit on disk: %s", path)
    return model


@contextlib.contextmanager
def _surrogate_lock(key: str):
    """Advisory inter-process lock for fitting the surrogate ``key``.

    Uses ``fcntl.flock`` on a sidecar ``.lock`` file so N workers that miss
    the cache simultaneously fit once, not N times.  On platforms without
    ``fcntl`` the lock degrades to a no-op — the atomic write in
    :meth:`SurrogatePowerModel.save` keeps that safe (merely wasteful).
    """
    lock_path = _cache_dir() / f"surrogate-{key}.lock"
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "w") as fh:
        try:
            import fcntl

            fcntl.flock(fh, fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass
        yield  # closing fh releases the flock


def get_cached_surrogate(
    kind: ActivationKind | str,
    n_q: int = 1500,
    epochs: int = 120,
    seed: int = 0,
    refresh: bool = False,
) -> SurrogatePowerModel:
    """Fetch (memory → disk-with-lock → fit) the surrogate for a kind.

    Pass ``kind="negation"`` for the negation-circuit surrogate P^N.

    Safe under concurrent callers across processes: a fit is guarded by an
    advisory file lock (re-checking the disk cache after acquiring it, so
    lock waiters load the winner's file instead of refitting), and the
    cache file itself is written atomically, so readers never see a
    partial ``.npz``.
    """
    if isinstance(kind, ActivationKind):
        key_name = kind.name.lower()
    else:
        key_name = str(kind).lower()
    key = f"{key_name}-q{n_q}-e{epochs}-s{seed}-v4"
    if not refresh and key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]

    path = _cache_dir() / f"surrogate-{key}.npz"
    if key_name == "negation":
        space = negation_design_space()
    else:
        space = design_space(ActivationKind.from_name(key_name) if not isinstance(kind, ActivationKind) else kind)

    if not refresh:
        model = _load_cached(path, space, key_name)
        if model is not None:
            _MEMORY_CACHE[key] = model
            return model

    with _surrogate_lock(key):
        # Double-check under the lock: another process may have fitted and
        # published the file while this one waited.
        if not refresh:
            model = _load_cached(path, space, key_name)
            if model is not None:
                _MEMORY_CACHE[key] = model
                return model
        logger.debug("surrogate cache miss for %s; fitting from scratch", key)
        if key_name == "negation":
            dataset = generate_negation_dataset(n_q=n_q, seed=seed)
        else:
            enum_kind = kind if isinstance(kind, ActivationKind) else ActivationKind.from_name(key_name)
            dataset = generate_power_dataset(enum_kind, n_q=n_q, seed=seed)
        model = fit_surrogate(dataset, epochs=epochs, seed=seed, label=key_name)
        model.save(path)
    _MEMORY_CACHE[key] = model
    return model
