"""Newton–Raphson modified nodal analysis (MNA) DC solver.

Solves for the DC operating point of a :class:`~repro.spice.netlist.Circuit`
containing resistors, ideal voltage sources, and nEGTs.  The unknown vector
stacks the non-ground node voltages and the branch currents of voltage
sources.  The linear elements are stamped once per solve into ``G·x = b``:

- resistors into the conductance block,
- voltage sources and VCVS into the border blocks, source voltages into ``b``.

Each Newton iteration then evaluates every transistor in one vectorized EKV
call (:func:`repro.spice.egt.drain_current`) and scatters its linearized
companion model: the residual ``G·x − b`` gets the drain currents, the
Jacobian ``G`` gets ``dI/dVg``, ``dI/dVd``, ``dI/dVs``.

Robustness: damped Newton with step limiting, and automatic *gmin stepping*
(a shunt conductance from every node to ground, relaxed geometrically) when
plain Newton fails to converge — the standard SPICE fallback.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.observability.metrics import get_registry
from repro.observability.tracing import trace_span
from repro.spice.egt import drain_current
from repro.spice.netlist import Circuit, GROUND_NAMES

logger = logging.getLogger(__name__)

_SPICE_ITERATIONS = get_registry().counter(
    "spice_iterations", "Newton iterations spent by the MNA DC solver (incl. gmin stepping)"
)
_SPICE_SOLVES = get_registry().counter("spice_solves", "DC operating-point solves")


class SolverError(RuntimeError):
    """Raised when the DC operating point cannot be found."""


@dataclass
class OperatingPoint:
    """Solved DC operating point.

    Attributes
    ----------
    node_voltages:
        Mapping node name → voltage (ground fixed at 0 V, included).
    source_currents:
        Mapping source name → branch current flowing from ``node_pos``
        through the source to ``node_neg`` (positive = source delivering
        current out of its + terminal into the circuit... sign follows the
        MNA convention: current *into* the positive terminal).
    iterations:
        Newton iterations spent (including gmin-stepping passes).
    """

    node_voltages: dict[str, float]
    source_currents: dict[str, float]
    iterations: int

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` (ground aliases return 0)."""
        if node in GROUND_NAMES:
            return 0.0
        return self.node_voltages[node]


def _two_terminal(matrix: np.ndarray, a: np.ndarray, b: np.ndarray, g: np.ndarray) -> None:
    """Stamp conductances ``g`` between the slot arrays ``a`` and ``b``.

    Element by element, in order: ``(a, a)`` and ``(b, b)`` gain ``g``,
    ``(a, b)`` and ``(b, a)`` lose it.  Resistors and the transient
    integrator's capacitor companions share this stamp.
    """
    rows = np.stack([a, b, a, b], axis=-1).ravel()
    cols = np.stack([a, b, b, a], axis=-1).ravel()
    np.add.at(matrix, (rows, cols), np.stack([g, g, -g, -g], axis=-1).ravel())


class _MNA:
    """One circuit's MNA system: the linear part stamped once, the EGTs as arrays.

    The unknowns stack the node voltages, then the branch currents of the
    voltage sources, then those of the VCVS (``dim`` in all).  The linear
    elements make ``G·x = b``: resistors fill the conductance block, each
    source or VCVS borders its branch row, and ``b`` holds the source
    voltages.  Matrices and vectors carry one more slot, index ``dim``,
    that stands for ground: stamps write to it without a ground test, the
    solve never reads it, and ``x[dim]`` stays 0 V.
    """

    def __init__(self, circuit: Circuit, node_index: dict[str, int]):
        n_nodes, n_src = len(node_index), len(circuit.sources)
        self.n_nodes = n_nodes
        self.dim = dim = n_nodes + n_src + len(circuit.vcvs)
        self._node_index = node_index

        matrix = np.zeros((dim + 1, dim + 1))
        rs = circuit.resistors
        _two_terminal(
            matrix,
            self.slots(r.node_a for r in rs),
            self.slots(r.node_b for r in rs),
            np.array([r.conductance for r in rs]),
        )
        branches = circuit.sources + circuit.vcvs
        rows = np.arange(n_nodes, dim)
        pos = self.slots(e.node_pos for e in branches)
        neg = self.slots(e.node_neg for e in branches)
        for i, j, sign in ((pos, rows, 1.0), (rows, pos, 1.0), (neg, rows, -1.0), (rows, neg, -1.0)):
            np.add.at(matrix, (i, j), sign)
        gain = np.array([e.gain for e in circuit.vcvs])
        np.add.at(matrix, (rows[n_src:], self.slots(e.ctrl_pos for e in circuit.vcvs)), -gain)
        np.add.at(matrix, (rows[n_src:], self.slots(e.ctrl_neg for e in circuit.vcvs)), gain)
        self.matrix = matrix
        self.rhs = np.zeros(dim + 1)
        self.rhs[n_nodes : n_nodes + n_src] = [s.voltage for s in circuit.sources]

        ts = circuit.transistors
        self.drain = self.slots(t.drain for t in ts)
        self.gate = self.slots(t.gate for t in ts)
        self.source = self.slots(t.source for t in ts)
        self.i_s = np.array([t.model.specific_current(t.width, t.length) for t in ts])
        self.vth = np.array([t.model.vth for t in ts])
        self.n = np.array([t.model.n for t in ts])
        self.phi = np.array([t.model.phi for t in ts])
        # Each EGT's drain row gains I and (∂I/∂Vg, ∂I/∂Vd, ∂I/∂Vs) in the
        # gate/drain/source columns; its source row loses them.
        d, g, s = self.drain, self.gate, self.source
        self.kcl_rows = np.concatenate([d, s])
        self.jac_rows = np.concatenate([d, d, d, s, s, s])
        self.jac_cols = np.concatenate([g, d, s, g, d, s])

    def slots(self, nodes) -> np.ndarray:
        """Unknown indices of ``nodes``; ground maps to the ground slot."""
        return np.array(
            [self.dim if node in GROUND_NAMES else self._node_index[node] for node in nodes],
            dtype=np.intp,
        )


def _newton(
    mna: _MNA,
    x0: np.ndarray,
    gmin: float,
    max_iter: int,
    tol: float,
    v_limit: float,
    matrix: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
) -> tuple[np.ndarray, int] | None:
    """Run damped Newton from ``x0``; returns (solution, iters) or None.

    The residual is ``G·x − b`` of the stamped linear part (plus a ``gmin``
    shunt from every node to ground) with every EGT's drain current
    scattered onto its drain and source rows; the Jacobian is ``G`` with the
    EGTs' partials scattered the same way.  ``matrix`` and ``rhs`` replace
    ``mna.matrix`` and ``mna.rhs`` — the backward-Euler integrator passes
    its capacitor companions there.
    """
    dim, n_nodes = mna.dim, mna.n_nodes
    linear = (mna.matrix if matrix is None else matrix).copy()
    nodes = np.arange(n_nodes)
    linear[nodes, nodes] += gmin
    b = mna.rhs if rhs is None else rhs

    x = np.append(x0, 0.0)
    for iteration in range(1, max_iter + 1):
        ids, d_vg, d_vd, d_vs = drain_current(
            x[mna.gate], x[mna.drain], x[mna.source], mna.i_s, mna.vth, mna.n, mna.phi
        )
        residual = linear @ x - b
        np.add.at(residual, mna.kcl_rows, np.concatenate([ids, -ids]))
        residual = residual[:dim]
        if np.abs(residual).max() < tol:
            return x[:dim], iteration

        jacobian = linear.copy()
        partials = np.concatenate([d_vg, d_vd, d_vs, -d_vg, -d_vd, -d_vs])
        np.add.at(jacobian, (mna.jac_rows, mna.jac_cols), partials)
        try:
            step = np.linalg.solve(jacobian[:dim, :dim], -residual)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None

        # Voltage step limiting keeps the exponential model in range.
        max_step = np.abs(step[:n_nodes]).max() if n_nodes else 0.0
        damping = 1.0 if max_step <= v_limit else v_limit / max_step
        x[:dim] += damping * step

    return None


def solve_dc(
    circuit: Circuit,
    max_iter: int = 200,
    tol: float = 1e-13,
    v_limit: float = 0.5,
) -> OperatingPoint:
    """Find the DC operating point of ``circuit``.

    Raises
    ------
    SolverError
        If Newton (with gmin-stepping fallback) fails to converge.
    """
    with trace_span("spice.solve_dc", "spice"):
        return _solve_dc(circuit, max_iter=max_iter, tol=tol, v_limit=v_limit)


def _solve_dc(
    circuit: Circuit,
    max_iter: int = 200,
    tol: float = 1e-13,
    v_limit: float = 0.5,
) -> OperatingPoint:
    if circuit.is_empty():
        raise SolverError("cannot solve an empty circuit")
    nodes = circuit.nodes()
    node_index = {node: i for i, node in enumerate(nodes)}
    n_nodes, n_src = len(nodes), len(circuit.sources)

    # Initial guess: every node at the mean source voltage (or 0).
    v_init = 0.0
    if circuit.sources:
        v_init = float(np.mean([s.voltage for s in circuit.sources])) / 2.0
    x0 = np.concatenate([np.full(n_nodes, v_init), np.zeros(n_src + len(circuit.vcvs))])

    mna = _MNA(circuit, node_index)
    total_iters = 0
    result = _newton(mna, x0, gmin=1e-12, max_iter=max_iter, tol=tol, v_limit=v_limit)
    if result is None:
        # gmin stepping: start with a heavy shunt, relax geometrically,
        # warm-starting each stage from the previous solution.
        logger.debug("plain Newton failed on circuit %r; engaging gmin stepping", circuit.name)
        x = x0
        for gmin in (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
            result = _newton(mna, x, gmin=gmin, max_iter=max_iter, tol=tol, v_limit=v_limit)
            if result is None:
                raise SolverError(
                    f"gmin stepping diverged at gmin={gmin:g} for circuit '{circuit.name}'"
                )
            x, iters = result
            total_iters += iters
        result = (x, 0)

    x, iters = result
    total_iters += iters
    # Polish with the shunts removed so the reported operating point carries
    # no fictitious gmin currents (they would break Tellegen's theorem at
    # the 1e-12 W level).  Falls back to the shunted solution for circuits
    # whose Jacobian is singular without gmin (truly floating nodes).
    polished = _newton(mna, x, gmin=0.0, max_iter=20, tol=tol, v_limit=v_limit)
    if polished is not None:
        x, iters = polished
        total_iters += iters
    _SPICE_SOLVES.inc()
    _SPICE_ITERATIONS.inc(total_iters)
    return _package(circuit, node_index, x, total_iters)


def _package(circuit: Circuit, node_index: dict[str, int], x: np.ndarray, iterations: int) -> OperatingPoint:
    n_nodes = len(node_index)
    node_voltages = {node: float(x[i]) for node, i in node_index.items()}
    node_voltages["0"] = 0.0
    source_currents = {s.name: float(x[n_nodes + k]) for k, s in enumerate(circuit.sources)}
    return OperatingPoint(node_voltages, source_currents, iterations)
