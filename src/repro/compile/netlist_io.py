"""Read side of the ``.cir`` dialect: parse and merge.

:func:`repro.spice.export.to_spice_text` writes a small, regular SPICE
dialect (R/V/E/M cards plus commented EKV-parameter ``.model`` cards).
Verification must start from the **files on disk** — the artifact being
signed off — not from in-memory circuits, so this module provides the exact
inverse: :func:`parse_spice_text` rebuilds a
:class:`~repro.spice.netlist.Circuit` from the text, and round-trips
bit-identically through ``to_spice_text`` (values are re-parsed from their
``%.6g`` rendering, so re-export reproduces the same text).

:func:`merge_circuits` unions the tiles of one column group into the
solvable group circuit (shared rail sources deduplicate by identical
definition; conflicting same-name elements are an error).
"""

from __future__ import annotations

import re

from repro.compile.constraints import CompileError
from repro.spice.egt import EGTModel
from repro.spice.netlist import Circuit

_MODEL_RE = re.compile(
    r"^\.model\s+(?P<name>\S+)\s+nmos\s+\(\*.*"
    r"vth=(?P<vth>\S+)\s+k=(?P<k>\S+)\s+n=(?P<n>\S+)\s+phi=(?P<phi>\S+)\s*\*\)\s*$"
)
_EGT_RE = re.compile(
    r"^M(?P<name>\S+)\s+(?P<d>\S+)\s+(?P<g>\S+)\s+(?P<s>\S+)\s+(?P<b>\S+)"
    r"\s+(?P<model>\S+)\s+W=(?P<w>\S+)\s+L=(?P<l>\S+)\s*$"
)


class NetlistParseError(CompileError):
    """A ``.cir`` line the dialect parser does not understand."""


def parse_spice_text(text: str) -> Circuit:
    """Parse a netlist written by :func:`repro.spice.export.to_spice_text`."""
    lines = [line.strip() for line in text.splitlines()]

    # Pass 1 — model cards (they follow the element cards in the file).
    models: dict[str, EGTModel] = {}
    title = "parsed"
    for lineno, line in enumerate(lines, start=1):
        if line.startswith(".model"):
            match = _MODEL_RE.match(line)
            if not match:
                raise NetlistParseError(f"line {lineno}: unparseable .model card: {line}")
            models[match["name"]] = EGTModel(
                vth=float(match["vth"]),
                k=float(match["k"]),
                n=float(match["n"]),
                phi=float(match["phi"]),
            )
        elif line.startswith("*") and lineno == 1:
            title = line[1:].strip() or title

    # Pass 2 — element cards.
    circuit = Circuit(name=title)
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("*") or line.startswith("."):
            continue
        kind = line[0].upper()
        parts = line.split()
        try:
            if kind == "R":
                name, node_a, node_b, value = parts
                circuit.add_resistor(name[1:], node_a, node_b, float(value))
            elif kind == "V":
                name, pos, neg, dc, value = parts
                if dc.upper() != "DC":
                    raise ValueError(f"expected DC source, got {dc!r}")
                circuit.add_vsource(name[1:], pos, neg, float(value))
            elif kind == "E":
                name, pos, neg, cpos, cneg, gain = parts
                circuit.add_vcvs(name[1:], pos, neg, cpos, cneg, float(gain))
            elif kind == "M":
                match = _EGT_RE.match(line)
                if not match:
                    raise ValueError("unparseable transistor card")
                if match["b"] != match["s"]:
                    raise ValueError("EGT bulk must tie to source")
                model = models.get(match["model"])
                if model is None:
                    raise ValueError(f"undefined model {match['model']!r}")
                circuit.add_egt(
                    match["name"],
                    match["d"],
                    match["g"],
                    match["s"],
                    float(match["w"]),
                    float(match["l"]),
                    model=model,
                )
            else:
                raise ValueError(f"unknown element card {kind!r}")
        except (ValueError, TypeError) as exc:
            raise NetlistParseError(f"line {lineno}: {exc}: {line}") from exc
    return circuit


def merge_circuits(circuits: list[Circuit], name: str = "merged") -> Circuit:
    """Union several tile circuits into one solvable group circuit.

    Same-name elements must be identical (the shared vdd/vss rail sources);
    the merged circuit keeps one copy.  Same-name elements with *different*
    definitions indicate corrupted or mismatched tiles and raise.
    """
    merged = Circuit(name=name)
    seen: dict[str, object] = {}

    def add(elements, target: list) -> None:
        for element in elements:
            existing = seen.get(element.name)
            if existing is not None:
                if existing != element:
                    raise CompileError(
                        f"conflicting definitions for element {element.name!r} while merging"
                    )
                continue
            seen[element.name] = element
            target.append(element)

    for circuit in circuits:
        add(circuit.resistors, merged.resistors)
        add(circuit.sources, merged.sources)
        add(circuit.transistors, merged.transistors)
        add(circuit.vcvs, merged.vcvs)
        add(circuit.capacitors, merged.capacitors)
    return merged
