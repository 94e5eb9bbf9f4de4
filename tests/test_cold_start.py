"""Start-up guard: a process imports only what its command runs.

No command needs scipy: the Sobol points a surrogate is fitted on come from
a numpy generator, so even a cold-cache fit runs on numpy alone (scipy is a
test oracle).  The stdlib HTTP stack is needed only by ``repro serve`` and
remote clients; importing it at module level would cost every ``repro``
process start-up time, so it is imported at its call sites.  No command
needs the SQLite module: the run registry is indexed by its manifests.  Each
test runs a fresh interpreter and inspects its ``sys.modules``; nothing here
is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.serving import export_artifact

# The modules the benchmark harness imports before it times anything.
BENCHMARK_MODULES = (
    "numpy",
    "repro.cli",
    "repro.compile",
    "repro.evaluation.experiments",
    "repro.evaluation.montecarlo",
    "repro.serving",
    "repro.training.fleet",
)
_EXACT = {"http.server", "repro.serving.server", "repro.serving.client"}
# A surrogate small enough to fit in about a second.
_FIT_NQ, _FIT_EPOCHS = 32, 2


def _cold_only(modules: list[str]) -> list[str]:
    """The loaded modules that no command or only ``repro serve`` needs."""
    return sorted(
        name for name in modules
        if name == "scipy" or name.startswith("scipy.") or name in _EXACT
    )


def _loaded_modules(body: str, env: dict[str, str] | None = None) -> list[str]:
    """Run ``body`` in a fresh interpreter; return its ``sys.modules`` keys."""
    src = str(Path(repro.__file__).resolve().parents[1])
    child_env = dict(os.environ if env is None else env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, child_env.get("PYTHONPATH", "")) if p
    )
    script = textwrap.dedent(body) + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_modules_skip_scipy_and_http():
    modules = _loaded_modules("\n".join(f"import {name}" for name in BENCHMARK_MODULES))
    assert "repro.serving" in modules
    assert _cold_only(modules) == []


@pytest.fixture(scope="module")
def cold_fit(tmp_path_factory):
    """A surrogate fitted into an empty cache: ``(cache env, child's modules)``."""
    cache = tmp_path_factory.mktemp("surrogate-cache")
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    modules = _loaded_modules(f"""
        from repro.power.surrogate import get_cached_surrogate
        get_cached_surrogate("negation", n_q={_FIT_NQ}, epochs={_FIT_EPOCHS})
    """, env=env)
    assert list(cache.glob("*.npz")), "the cold fit wrote no cache entry"
    return env, modules


def test_warm_surrogate_and_artifact_predict_skip_scipy_and_http(cold_fit, tmp_path):
    env, _ = cold_fit
    net = PrintedNeuralNetwork(4, 3, PNCConfig(power_mode="analytic"), np.random.default_rng(7))
    net.eval()
    artifact = export_artifact(net, tmp_path / "model.pnz")
    modules = _loaded_modules(f"""
        import numpy as np
        from repro.power.surrogate import get_cached_surrogate
        from repro.serving import load_artifact
        get_cached_surrogate("negation", n_q={_FIT_NQ}, epochs={_FIT_EPOCHS})
        model = load_artifact({str(artifact)!r})
        assert model.predict(np.zeros((2, 4))).shape == (2, 3)
    """, env=env)
    assert "repro.power.surrogate" in modules
    assert _cold_only(modules) == []


def test_registry_commands_skip_sqlite(tmp_path):
    # Record a run, then list and query the registry, all in one process.
    modules = _loaded_modules(f"""
        import repro.observability
        from repro.cli import main
        base = {str(tmp_path / "runs")!r}
        assert main(["datasets", "--run-dir", base]) == 0
        assert main(["runs", "list", "--dir", base]) == 0
        assert main(["runs", "query", "--sort", "accuracy", "--json", "--dir", base]) == 0
    """)
    assert "repro.observability.runs" in modules
    assert [name for name in modules if "sqlite" in name] == []


def test_cold_fit_loads_no_scipy(cold_fit):
    _, modules = cold_fit
    assert "repro.power.sobol" in modules
    assert [name for name in modules if name == "scipy" or name.startswith("scipy.")] == []


def test_cold_fit_runs_with_scipy_blocked(tmp_path):
    # ``sys.modules["scipy"] = None`` makes any ``import scipy`` raise.
    cache = tmp_path / "surrogate-cache"
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    modules = _loaded_modules(f"""
        import sys
        sys.modules["scipy"] = None
        from repro.power.surrogate import get_cached_surrogate
        get_cached_surrogate("relu", n_q={_FIT_NQ}, epochs={_FIT_EPOCHS})
    """, env=env)
    assert "repro.power.sobol" in modules
    assert list(cache.glob("*.npz")), "the cold fit wrote no cache entry"
