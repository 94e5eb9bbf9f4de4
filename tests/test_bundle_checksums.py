"""A bundle's checksums do not depend on the host CPU's SIMD dispatch.

Vector files store their voltages at the precision the tile netlists print
theirs, so compiling one net with every dispatched SIMD group of numpy
disabled gives the same bytes, and the same manifest checksums, as the
default dispatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

COMPILE = """
import json, tempfile
from pathlib import Path

import numpy as np

from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.compile import TileConstraints, compile_model, load_manifest
from repro.pdk.params import ActivationKind

net = PrintedNeuralNetwork(
    4, 3, PNCConfig(kind=ActivationKind.TANH, power_mode="analytic"), np.random.default_rng(7)
)
net.eval()
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "bundle"
    compile_model(
        net, TileConstraints(max_rows=4, max_cols=2), np.random.default_rng(3).random((8, 4)),
        out, n_vectors=4, negation="circuit", verify=False,
    )
    print(json.dumps(load_manifest(out)["checksums"], sort_keys=True))
"""


def _dispatched_groups() -> list[str]:
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return list(_multiarray_umath.__cpu_dispatch__)


def _checksums(disabled: list[str]) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", COMPILE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_checksums_hold_on_baseline_simd():
    groups = _dispatched_groups()
    if not groups:
        pytest.skip("numpy dispatches no SIMD group on this host")
    default = _checksums([])
    assert any(path.startswith("vectors/") for path in default)
    assert _checksums(groups) == default
