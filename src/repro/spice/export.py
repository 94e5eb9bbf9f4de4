"""SPICE-format text export of circuits.

Writes a :class:`~repro.spice.netlist.Circuit` as a standard ``.cir``
netlist so designs can be inspected, archived, or re-simulated in external
SPICE engines.  Elements map to their conventional cards:

- resistors → ``Rname n+ n- value``
- voltage sources → ``Vname n+ n- DC value``
- VCVS → ``Ename n+ n- nc+ nc- gain``
- printed EGTs → ``Mname d g s s <model>`` plus one ``.model`` card per
  distinct model card; the EKV-like parameters are carried as a comment
  (external simulators will need a compatible EGT model — the card records
  V_th, K, n and φ so one can be constructed).

Node names are sanitized to SPICE-friendly identifiers (alphanumerics and
underscores; ground stays ``0``).
"""

from __future__ import annotations

import re

from repro.spice.egt import EGTModel
from repro.spice.netlist import Circuit, GROUND_NAMES


def _node(name: str) -> str:
    if name in GROUND_NAMES:
        return "0"
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _format(value: float) -> str:
    return f"{value:.6g}"


def at_netlist_precision(value: float) -> float:
    """``value`` rounded to the precision a netlist prints it at.

    Numbers stored beside a netlist (a bundle's stimulus and expected
    voltages) round the same way, so their bytes do not follow the last bits
    of the host's SIMD math.
    """
    return float(_format(value))


def to_spice_text(circuit: Circuit, title: str | None = None) -> str:
    """Render the circuit as a SPICE netlist string."""
    lines = [f"* {title or circuit.name}"]

    model_cards: dict[EGTModel, str] = {}

    def model_name(model: EGTModel) -> str:
        if model not in model_cards:
            model_cards[model] = f"negt{len(model_cards)}"
        return model_cards[model]

    for r in circuit.resistors:
        lines.append(f"R{_node(r.name)} {_node(r.node_a)} {_node(r.node_b)} {_format(r.resistance)}")
    for s in circuit.sources:
        lines.append(f"V{_node(s.name)} {_node(s.node_pos)} {_node(s.node_neg)} DC {_format(s.voltage)}")
    for e in circuit.vcvs:
        lines.append(
            f"E{_node(e.name)} {_node(e.node_pos)} {_node(e.node_neg)} "
            f"{_node(e.ctrl_pos)} {_node(e.ctrl_neg)} {_format(e.gain)}"
        )
    for t in circuit.transistors:
        lines.append(
            f"M{_node(t.name)} {_node(t.drain)} {_node(t.gate)} {_node(t.source)} "
            f"{_node(t.source)} {model_name(t.model)} W={_format(t.width)} L={_format(t.length)}"
        )

    for model, name in model_cards.items():
        lines.append(
            f".model {name} nmos (* printed nEGT, EKV-like: "
            f"vth={_format(model.vth)} k={_format(model.k)} "
            f"n={_format(model.n)} phi={_format(model.phi)} *)"
        )
    lines.append(".op")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def save_spice_file(circuit: Circuit, path, title: str | None = None) -> None:
    """Write :func:`to_spice_text` output to ``path``."""
    from pathlib import Path

    Path(path).write_text(to_spice_text(circuit, title=title))
