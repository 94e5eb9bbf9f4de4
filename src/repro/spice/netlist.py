"""Circuit/netlist builder for the DC solver.

A :class:`Circuit` is a flat bag of two- and three-terminal elements between
named nodes.  Node ``"0"`` (alias ``"gnd"``) is ground.  The builder performs
light validation (positive resistances, known nodes at solve time) and assigns
each element a unique name usable for per-element power queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.spice.egt import EGTModel, DEFAULT_NEGT

GROUND_NAMES = ("0", "gnd", "GND")


@dataclass(frozen=True)
class Resistor:
    """Linear resistor between ``node_a`` and ``node_b``."""

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self):
        if self.resistance <= 0:
            raise ValueError(f"resistor {self.name}: resistance must be positive")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclass(frozen=True)
class Capacitor:
    """Linear capacitor between ``node_a`` and ``node_b``.

    Open circuit in DC analysis; integrated by backward Euler in
    :func:`repro.spice.transient.solve_transient`.  Printed EGT gates carry
    nanofarad-scale electrolyte double-layer capacitances, which dominate
    the (millisecond-scale) dynamics of printed circuits.
    """

    name: str
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self):
        if self.capacitance <= 0:
            raise ValueError(f"capacitor {self.name}: capacitance must be positive")


@dataclass(frozen=True)
class VoltageSource:
    """Ideal DC voltage source: ``V(node_pos) - V(node_neg) = voltage``."""

    name: str
    node_pos: str
    node_neg: str
    voltage: float


@dataclass(frozen=True)
class VCVS:
    """Voltage-controlled voltage source (ideal, SPICE 'E' element).

    Enforces ``V(node_pos) − V(node_neg) = gain · (V(ctrl_pos) − V(ctrl_neg))``
    with zero input current at the control nodes.  Used to model ideal
    negation (gain −1) when exporting trained networks for verification.
    """

    name: str
    node_pos: str
    node_neg: str
    ctrl_pos: str
    ctrl_neg: str
    gain: float


@dataclass(frozen=True)
class Transistor:
    """Printed nEGT instance with drain/gate/source terminals."""

    name: str
    drain: str
    gate: str
    source: str
    width: float
    length: float
    model: EGTModel = DEFAULT_NEGT

    def __post_init__(self):
        if self.width <= 0 or self.length <= 0:
            raise ValueError(f"transistor {self.name}: geometry must be positive")


_GROUPS = {
    Resistor: "resistors",
    VoltageSource: "sources",
    Transistor: "transistors",
    VCVS: "vcvs",
    Capacitor: "capacitors",
}


@dataclass
class Circuit:
    """A DC circuit under construction.

    Example
    -------
    >>> c = Circuit("divider")
    >>> c.add_vsource("vdd", "vdd", "0", 1.0)
    >>> c.add_resistor("r1", "vdd", "out", 10e3)
    >>> c.add_resistor("r2", "out", "0", 10e3)

    Element names are unique across all kinds.  Add elements through the
    ``add_*`` builders or :meth:`add`, which keep the circuit's name set;
    appending to the lists directly bypasses the check.
    """

    name: str = "circuit"
    resistors: list[Resistor] = field(default_factory=list)
    sources: list[VoltageSource] = field(default_factory=list)
    transistors: list[Transistor] = field(default_factory=list)
    vcvs: list[VCVS] = field(default_factory=list)
    capacitors: list[Capacitor] = field(default_factory=list)

    #: Every element name, across kinds: kept as elements are added, so
    #: the uniqueness check costs O(1) and building a netlist stays linear.
    _names: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self):
        for group in (self.resistors, self.sources, self.transistors, self.vcvs, self.capacitors):
            for element in group:
                self._claim(element.name)

    def _claim(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate element name: {name}")
        self._names.add(name)

    def element_names(self) -> set[str]:
        return set(self._names)

    def add(self, element):
        """Append a built element to its kind's list; returns it."""
        self._claim(element.name)
        getattr(self, _GROUPS[type(element)]).append(element)
        return element

    def add_resistor(self, name: str, node_a: str, node_b: str, resistance: float) -> Resistor:
        """Add a resistor; returns the created element."""
        return self.add(Resistor(name, node_a, node_b, float(resistance)))

    def add_vsource(self, name: str, node_pos: str, node_neg: str, voltage: float) -> VoltageSource:
        """Add an ideal voltage source; returns the created element."""
        return self.add(VoltageSource(name, node_pos, node_neg, float(voltage)))

    def add_egt(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        width: float,
        length: float,
        model: EGTModel = DEFAULT_NEGT,
    ) -> Transistor:
        """Add a printed nEGT; returns the created element."""
        return self.add(Transistor(name, drain, gate, source, float(width), float(length), model))

    def add_capacitor(self, name: str, node_a: str, node_b: str, capacitance: float) -> Capacitor:
        """Add a capacitor; returns the created element."""
        return self.add(Capacitor(name, node_a, node_b, float(capacitance)))

    def add_vcvs(
        self,
        name: str,
        node_pos: str,
        node_neg: str,
        ctrl_pos: str,
        ctrl_neg: str,
        gain: float,
    ) -> VCVS:
        """Add an ideal voltage-controlled voltage source."""
        return self.add(VCVS(name, node_pos, node_neg, ctrl_pos, ctrl_neg, float(gain)))

    def nodes(self) -> list[str]:
        """All non-ground node names, in first-appearance order."""
        seen: dict[str, None] = {}

        def visit(node: str) -> None:
            if node not in GROUND_NAMES:
                seen.setdefault(node)

        for r in self.resistors:
            visit(r.node_a)
            visit(r.node_b)
        for s in self.sources:
            visit(s.node_pos)
            visit(s.node_neg)
        for t in self.transistors:
            visit(t.drain)
            visit(t.gate)
            visit(t.source)
        for e in self.vcvs:
            visit(e.node_pos)
            visit(e.node_neg)
            visit(e.ctrl_pos)
            visit(e.ctrl_neg)
        for cap in self.capacitors:
            visit(cap.node_a)
            visit(cap.node_b)
        return list(seen)

    def is_empty(self) -> bool:
        return not (self.resistors or self.sources or self.transistors or self.vcvs)


def rebuild_with_sources(circuit: Circuit, overrides: dict[str, float]) -> Circuit:
    """Copy ``circuit`` with the named source voltages replaced.

    The copy shares every element but the sources, so re-driving one built
    circuit solves exactly like a fresh build at the new voltages.  Every
    override must name an existing source: a stimulus that misses the
    netlist is an error, not a silent no-op.
    """
    missing = set(overrides) - {s.name for s in circuit.sources}
    if missing:
        raise ValueError(f"unknown stimulus sources: {sorted(missing)}")
    rebuilt = Circuit(
        name=circuit.name,
        resistors=list(circuit.resistors),
        transistors=list(circuit.transistors),
        vcvs=list(circuit.vcvs),
        capacitors=list(circuit.capacitors),
    )
    for s in circuit.sources:
        rebuilt.add_vsource(s.name, s.node_pos, s.node_neg, overrides.get(s.name, s.voltage))
    return rebuilt
