"""Output checks applied to every measured call.

Each check raises CheckError with a reason; the benchmark counts the call as
failed and exits non-zero.  The checks use only what a call returned and the
problem's own cost function, never the solver's internals.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9


class CheckError(Exception):
    pass


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_permutation(perm, n: int) -> None:
    if sorted(perm.map) != list(range(n)):
        raise CheckError(f"{list(perm.map)} is not a permutation of 0..{n - 1}")


def check_solve(cost, n, best_p, best_v, records, expected_iters, reference):
    """A quper_solve result: the returned value is the cost of the returned
    permutation, the trace's best never increases and ends at that value,
    every iteration is traced, and no value beats the known optimum."""
    check_permutation(best_p, n)
    recomputed = float(cost(best_p))
    if not _close(recomputed, best_v):
        raise CheckError(
            f"returned value {best_v} but its permutation costs {recomputed}"
        )
    bests = [r["best"] for r in records]
    if len(bests) != expected_iters:
        raise CheckError(f"{len(bests)} trace records, expected {expected_iters}")
    for k in range(1, len(bests)):
        if bests[k] > bests[k - 1]:
            raise CheckError(
                f"trace best rose from {bests[k - 1]} to {bests[k]} at record {k}"
            )
    if not _close(bests[-1], best_v):
        raise CheckError(f"trace ends at {bests[-1]}, solve returned {best_v}")
    if best_v < reference - REL_TOL * max(1.0, abs(reference)):
        raise CheckError(f"value {best_v} is below the known optimum {reference}")


def check_baseline(cost, n, base_p, base_v) -> None:
    check_permutation(base_p, n)
    recomputed = float(cost(base_p))
    if not _close(recomputed, base_v):
        raise CheckError(
            f"baseline value {base_v} but its permutation costs {recomputed}"
        )


CENSUS_HEADER = "params,count_hungarian,count_random_order,theoretical_cap"


def parse_census(text: str) -> tuple[int, int, int, int]:
    """The (params, count_hungarian, count_random_order, cap) row that
    ``quper span`` prints after its header line."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if len(lines) < 2 or lines[-2] != CENSUS_HEADER:
        raise CheckError(f"census output lacks its CSV header: {text!r}")
    try:
        row = tuple(int(v) for v in lines[-1].split(","))
    except ValueError as exc:
        raise CheckError(f"census row is not integers: {lines[-1]!r}") from exc
    if len(row) != 4:
        raise CheckError(f"census row has {len(row)} fields, expected 4")
    return row


def check_census(row, samples: int, expected: int | None = None) -> None:
    """Counts lie in 1..min(samples, cap); a binary (m = 0) census adds the
    same permutation to both sets, so its two counts are equal and must match
    the count recorded for the same arguments."""
    _, count_h, count_r, cap = row
    for label, count in (("hungarian", count_h), ("random-order", count_r)):
        if not 1 <= count <= min(samples, cap):
            raise CheckError(
                f"{label} count {count} outside 1..min({samples}, cap {cap})"
            )
    if expected is not None:
        if count_h != count_r:
            raise CheckError(f"binary census counts differ: {count_h} != {count_r}")
        if count_h != expected:
            raise CheckError(f"binary census count {count_h}, recorded {expected}")
