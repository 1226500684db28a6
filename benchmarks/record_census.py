"""Record the binary-census counts the span_census workload checks against.

    python3 benchmarks/record_census.py

Writes census_reference.json: for census seeds 0..K-1, the count that
`quper span` reports for the workload's binary phase.  Re-record only when a
change is meant to alter which permutations the ansatz spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = 256


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from checks import check_census, parse_census
    from quper import cli
    from workloads import CENSUS_REFERENCE, SpanCensus

    counts = []
    for seed in range(SEEDS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(SpanCensus.binary_argv(seed)) != 0:
                raise SystemExit(f"census failed for seed {seed}")
        row = parse_census(out.getvalue())
        check_census(row, SpanCensus.binary_samples)
        if row[1] != row[2]:
            raise SystemExit(f"binary census counts differ for seed {seed}")
        counts.append(row[1])
    ref = {"argv": SpanCensus.binary_argv(0), "counts": counts}
    CENSUS_REFERENCE.write_text(json.dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
