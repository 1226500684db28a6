"""Record the fixed-seed solves that tests/test_reference_runs.py replays.

    python3 tests/data/record_reference_runs.py [OUT]
    python3 tests/data/record_reference_runs.py --check [REF]
    python3 tests/data/record_reference_runs.py --diff OLD NEW

Writes reference_runs.json (or OUT): for each run, the instance, the solver
config and what quper_solve returned (best permutation and value, every trace
record and every level), solved with the quper under ../../src.

The checked-in file was recorded with the tape gradient: every run sits at
q + m <= circuits.TAPE_MAX_QUBITS, so each gradient was contracted from the
row differences the forward pass recorded, not taken by the reverse sweep.
It also used one random-order stream per solve (default_rng([seed, 1]),
apart from the θ stream [seed]) and permutations costed from their maps;
recording today reproduces it byte for byte.
The replay's contract is: permutations, best values, levels and iteration
counters exact; every other float to a relative 1e-9.  Re-record only when a
change is meant to alter the solver's trajectory.

A change that must not move the trajectory shows it with --check: it
records into memory and exits 0 when the serialized runs are byte-identical
to reference_runs.json (or REF), else prints the --diff lines from REF to
the fresh recording and exits 1.  A change that is meant to move it shows
what moved with --diff: per run and per record field, how many records
differ and the largest relative change |new - old| / max(|old|, |new|),
then the best value and whether the best permutation or the levels moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_runs.json"

RUNS = [
    {
        "problem": {"kind": "gip", "n": 8, "seed": 4, "span_restricted": True},
        "config": {"ansatz": "bruhat", "m_max": 0, "iterations": 30, "seed": 4},
    },
    {
        "problem": {"kind": "qap", "n": 4, "seed": 4},
        "config": {"ansatz": "bruhat", "m_max": 1, "iterations": 10, "seed": 4},
    },
    # 100 iterates per level cross the boundary between two draws of random
    # orders at n = 16 (81 iterates per draw of optimizer.ORDER_DRAW_ENTRIES).
    {
        "problem": {"kind": "qap", "n": 16, "seed": 4},
        "config": {"ansatz": "bruhat", "m_max": 1, "iterations": 100, "seed": 4},
    },
]


def run(spec: dict) -> dict:
    """Solve one run spec; the result as it is stored in the reference file."""
    from quper.optimizer import QuperConfig, quper_solve
    from quper.problems import random_gip, random_qap

    prob = spec["problem"]
    if prob["kind"] == "gip":
        problem = random_gip(
            prob["n"], prob["seed"], span_restricted=prob["span_restricted"]
        )
    else:
        problem = random_qap(prob["n"], prob["seed"])
    best_p, best_v, trace = quper_solve(problem, QuperConfig(**spec["config"]))
    return {
        **spec,
        "best_permutation": list(best_p.map),
        "best_value": best_v,
        "records": trace.records,
        "levels": trace.levels,
    }


def _rel(old, new) -> float:
    """|new - old| relative to the larger magnitude; 0 when equal."""
    return 0.0 if old == new else abs(new - old) / max(abs(old), abs(new))


def diff(old_runs: list[dict], new_runs: list[dict]) -> list[str]:
    """One line per run and record field, then one per run for its result."""
    if [r["problem"] for r in old_runs] != [r["problem"] for r in new_runs]:
        raise ValueError("the two files hold different runs")
    lines = []
    for old, new in zip(old_runs, new_runs):
        name = f"{old['problem']['kind']}{old['problem']['n']}"
        pairs = list(zip(old["records"], new["records"]))
        for key in old["records"][0]:
            changes = [_rel(a[key], b[key]) for a, b in pairs if a[key] != b[key]]
            lines.append(
                f"{name} {key}: {len(changes)}/{len(pairs)} records moved, "
                f"max rel change {max(changes, default=0.0):.3g}"
            )
        moved = [
            key for key in ("best_permutation", "levels") if old[key] != new[key]
        ]
        lines.append(
            f"{name} best_value {old['best_value']!r} -> {new['best_value']!r}; "
            f"moved: {', '.join(moved) or 'nothing else'}"
        )
    return lines


def main(argv: list[str]) -> int:
    if argv[:1] == ["--diff"]:
        if len(argv) != 3:
            print("usage: record_reference_runs.py --diff OLD NEW", file=sys.stderr)
            return 2
        old, new = (json.loads(Path(p).read_text()) for p in argv[1:])
        print("\n".join(diff(old, new)))
        return 0
    check = argv[:1] == ["--check"]
    paths = argv[1:] if check else argv
    if len(paths) > 1:
        print("usage: record_reference_runs.py [--check] [FILE]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    path = Path(paths[0]) if paths else REFERENCE
    text = json.dumps([run(spec) for spec in RUNS], indent=1) + "\n"
    if not check:
        path.write_text(text)
        return 0
    if path.read_bytes() == text.encode():
        return 0
    print(f"{path} differs from a fresh recording:")
    print("\n".join(diff(json.loads(path.read_text()), json.loads(text))))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
