"""Lightweight SPICE-like nonlinear DC circuit simulator.

The paper generates surrogate-power training data with SPICE and the printed
PDK (pPDK [29]), neither of which is available offline.  This subpackage is
the substitution: a modified-nodal-analysis (MNA) DC operating-point solver
with Newton–Raphson iteration and a compact model of the printed inorganic
n-type electrolyte-gated transistor (nEGT) that pPDK targets.

Components
----------
- :mod:`repro.spice.egt` — EKV-style smooth compact model for sub-1 V nEGTs,
- :mod:`repro.spice.netlist` — circuit/netlist builder (resistors, sources,
  transistors) and the re-stimulus primitive (:func:`rebuild_with_sources`),
- :mod:`repro.spice.solver` — Newton–Raphson MNA with damping and gmin
  stepping,
- :mod:`repro.spice.power` — per-element and total dissipation from a solved
  operating point.
"""

from repro.spice.egt import EGTModel
from repro.spice.netlist import Circuit, Resistor, VoltageSource, Transistor, rebuild_with_sources
from repro.spice.solver import OperatingPoint, solve_dc, SolverError
from repro.spice.power import element_powers, total_power, source_power

__all__ = [
    "EGTModel",
    "Circuit",
    "Resistor",
    "VoltageSource",
    "Transistor",
    "rebuild_with_sources",
    "OperatingPoint",
    "solve_dc",
    "SolverError",
    "element_powers",
    "total_power",
    "source_power",
]
