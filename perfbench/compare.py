#!/usr/bin/env python3
"""Compare the result records of two checkouts (e.g. a parent and a change).

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the ``.perfbench/results/*.json`` records that
``run.py`` wrote in one checkout.  For every workload the script prints the
median of each end-to-end metric over the seeds both sides ran, the
relative change and whether it stays within the bound ``BENCHMARK.json``
fixes, and it flags every seed whose result digest differs: a speed-only
change must leave the simulated outputs bit-identical.  Each checkout makes
its own generated inputs (surrogate fits, deploy artifact) from its own
source; the script names the inputs whose values differ between the two,
which explains a digest change that follows from them.  Exits 1 when a
digest differs or a metric worsens past its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _load(directory: Path) -> dict[tuple[str, int], dict]:
    records = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        for name, result in record["results"].items():
            if "end_to_end" in result:
                records[(name, record["seed"])] = {**result, "source": record["source"]}
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(Path(arg)) for arg in argv)
    shared = sorted(set(base) & set(new))
    if not shared:
        print("error: the two directories share no (workload, seed) record", file=sys.stderr)
        return 2
    status = 0
    for side, records in (("base", base), ("new", new)):
        print(f"{side} source {', '.join(sorted({records[key]['source'] for key in shared}))}")
    for key in shared:
        a, b = base[key]["inputs"], new[key]["inputs"]
        changed = sorted(name for name in set(a) & set(b) if a[name] != b[name])
        if changed:
            print(f"INPUTS DIFFER   {key[0]} seed {key[1]}: {', '.join(changed)}")
        if base[key]["digest"] != new[key]["digest"]:
            print(f"DIGEST CHANGED  {key[0]} seed {key[1]}")
            status = 1
    for workload in sorted({name for name, _seed in shared}):
        seeds = [seed for name, seed in shared if name == workload]
        print(f"== {workload} ({len(seeds)} seeds)")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = statistics.median(base[(workload, s)]["end_to_end"][name] for s in seeds)
            b = statistics.median(new[(workload, s)]["end_to_end"][name] for s in seeds)
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            status = 1 if verdict != "ok" else status
            print(f"   {name:14s} {a:12.4f} -> {b:12.4f} {metric['unit']:4s} "
                  f"{change * 100:+7.2f}%  (bound {metric['bound'] * 100:.0f}%)  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
