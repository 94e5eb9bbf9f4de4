"""The per-element MNA Newton, kept as a test oracle.

:mod:`repro.spice.solver` stamps a circuit's linear part once into
``G·x = b`` and evaluates every EGT of an iteration in one vectorized EKV
call.  This module keeps the solver it replaced — :func:`_newton`, which
re-walks every resistor, source and VCVS for the residual and stamps each
transistor through :meth:`EGTModel.ids_and_derivatives` in a Python loop —
verbatim, with the ``solve_dc`` loop around it (plain Newton, gmin
stepping, the shunt-free polish), so tests can hold the library's operating
points to it.
"""

from __future__ import annotations

import numpy as np

from repro.spice.netlist import Circuit, GROUND_NAMES
from repro.spice.solver import OperatingPoint, SolverError, _package


def _newton(
    circuit: Circuit,
    node_index: dict[str, int],
    x0: np.ndarray,
    gmin: float,
    max_iter: int,
    tol: float,
    v_limit: float,
    extra_conductance: np.ndarray | None = None,
    extra_current: np.ndarray | None = None,
) -> tuple[np.ndarray, int] | None:
    """Run damped Newton from ``x0``; returns (solution, iters) or None.

    ``extra_conductance`` (n_nodes × n_nodes) and ``extra_current``
    (n_nodes) stamp additional linear conductances / current injections —
    the hooks the backward-Euler transient integrator uses to add capacitor
    companion models without the DC solver knowing about time.
    """
    n_nodes = len(node_index)
    n_src = len(circuit.sources)
    n_vcvs = len(circuit.vcvs)
    dim = n_nodes + n_src + n_vcvs

    def idx(node: str) -> int | None:
        if node in GROUND_NAMES:
            return None
        return node_index[node]

    # Pre-stamp the constant (linear) part of the Jacobian.
    j_lin = np.zeros((dim, dim))
    for i in range(n_nodes):
        j_lin[i, i] += gmin
    if extra_conductance is not None:
        j_lin[:n_nodes, :n_nodes] += extra_conductance
    for r in circuit.resistors:
        g = r.conductance
        ia, ib = idx(r.node_a), idx(r.node_b)
        if ia is not None:
            j_lin[ia, ia] += g
        if ib is not None:
            j_lin[ib, ib] += g
        if ia is not None and ib is not None:
            j_lin[ia, ib] -= g
            j_lin[ib, ia] -= g
    for k, s in enumerate(circuit.sources):
        row = n_nodes + k
        ip, im = idx(s.node_pos), idx(s.node_neg)
        if ip is not None:
            j_lin[ip, row] += 1.0
            j_lin[row, ip] += 1.0
        if im is not None:
            j_lin[im, row] -= 1.0
            j_lin[row, im] -= 1.0
    for k, e in enumerate(circuit.vcvs):
        row = n_nodes + n_src + k
        ip, im = idx(e.node_pos), idx(e.node_neg)
        icp, icm = idx(e.ctrl_pos), idx(e.ctrl_neg)
        if ip is not None:
            j_lin[ip, row] += 1.0
            j_lin[row, ip] += 1.0
        if im is not None:
            j_lin[im, row] -= 1.0
            j_lin[row, im] -= 1.0
        if icp is not None:
            j_lin[row, icp] -= e.gain
        if icm is not None:
            j_lin[row, icm] += e.gain

    x = x0.copy()
    for iteration in range(1, max_iter + 1):
        residual = np.zeros(dim)
        jacobian = j_lin.copy()

        def volt(node: str) -> float:
            i = idx(node)
            return 0.0 if i is None else x[i]

        # KCL residuals from linear elements.
        for i in range(n_nodes):
            residual[i] += gmin * x[i]
        if extra_conductance is not None:
            residual[:n_nodes] += extra_conductance @ x[:n_nodes]
        if extra_current is not None:
            residual[:n_nodes] += extra_current
        for r in circuit.resistors:
            g = r.conductance
            current = g * (volt(r.node_a) - volt(r.node_b))
            ia, ib = idx(r.node_a), idx(r.node_b)
            if ia is not None:
                residual[ia] += current
            if ib is not None:
                residual[ib] -= current
        for k, s in enumerate(circuit.sources):
            row = n_nodes + k
            i_src = x[row]
            ip, im = idx(s.node_pos), idx(s.node_neg)
            if ip is not None:
                residual[ip] += i_src
            if im is not None:
                residual[im] -= i_src
            residual[row] += volt(s.node_pos) - volt(s.node_neg) - s.voltage
        for k, e in enumerate(circuit.vcvs):
            row = n_nodes + n_src + k
            i_branch = x[row]
            ip, im = idx(e.node_pos), idx(e.node_neg)
            if ip is not None:
                residual[ip] += i_branch
            if im is not None:
                residual[im] -= i_branch
            residual[row] += (
                volt(e.node_pos)
                - volt(e.node_neg)
                - e.gain * (volt(e.ctrl_pos) - volt(e.ctrl_neg))
            )

        # Nonlinear transistor stamps.
        for t in circuit.transistors:
            vg, vd, vs = volt(t.gate), volt(t.drain), volt(t.source)
            ids, d_vg, d_vd, d_vs = t.model.ids_and_derivatives(vg, vd, vs, t.width, t.length)
            i_d, i_g, i_s = idx(t.drain), idx(t.gate), idx(t.source)
            if i_d is not None:
                residual[i_d] += ids
                if i_g is not None:
                    jacobian[i_d, i_g] += d_vg
                jacobian[i_d, i_d] += d_vd
                if i_s is not None:
                    jacobian[i_d, i_s] += d_vs
            if i_s is not None:
                residual[i_s] -= ids
                if i_g is not None:
                    jacobian[i_s, i_g] -= d_vg
                if i_d is not None:
                    jacobian[i_s, i_d] -= d_vd
                jacobian[i_s, i_s] -= d_vs

        residual_norm = np.abs(residual).max()
        if residual_norm < tol:
            return x, iteration

        try:
            step = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None

        # Voltage step limiting keeps the exponential model in range.
        max_step = np.abs(step[:n_nodes]).max() if n_nodes else 0.0
        damping = 1.0 if max_step <= v_limit else v_limit / max_step
        x = x + damping * step

    return None


def oracle_solve_dc(
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

    total_iters = 0
    result = _newton(circuit, node_index, x0, gmin=1e-12, max_iter=max_iter, tol=tol, v_limit=v_limit)
    if result is None:
        # gmin stepping: start with a heavy shunt, relax geometrically,
        # warm-starting each stage from the previous solution.
        x = x0
        for gmin in (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
            result = _newton(circuit, node_index, x, gmin=gmin, max_iter=max_iter, tol=tol, v_limit=v_limit)
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
    polished = _newton(circuit, node_index, x, gmin=0.0, max_iter=20, tol=tol, v_limit=v_limit)
    if polished is not None:
        x, iters = polished
        total_iters += iters
    return _package(circuit, node_index, x, total_iters)
