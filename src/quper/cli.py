"""Command-line interface: solve, span census, verification, compilation.

Exit codes: 0 success, 2 bad usage, 3 input error, 4 budget guard,
5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .circuits import (
    ANSATZ_KINDS,
    SOLVER_ANSATZE,
    QubitBudgetError,
    affine_images,
    build_ansatz,
    check_qubit_guard,
    circuit_from_text,
    circuit_stats,
    circuit_to_text,
    lower_to_linear_topology,
    solver_ansatz,
)
from .dsm import binary_dsms
from .gf2 import bruhat_span_size
from .optimizer import QuperConfig, quper_solve, random_baseline
from .problems import (
    GipInstance,
    QapInstance,
    attach_solution,
    parse_adjacency_csv,
    parse_edge_list,
    parse_qaplib,
    random_gip,
    random_qap,
    relative_optimality_gap,
)
from .projection import order_maps, project_hungarian, random_orders
from .verify import run_suites

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

# Bound on the array entries of one span census chunk.  With ancillas a
# setting is given 2^(2q+m), more than its basis map, the bincount cells of
# its DSM and the DSM take; without, its L bits and its q + 1 affine images.
SPAN_CHUNK_ENTRIES = 1 << 20


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ansatz", default="bruhat", choices=SOLVER_ANSATZE)
    p.add_argument("--ancilla", type=int, default=0, metavar="M")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--out", default=None, help="RunReport JSON path")
    p.add_argument("--trace", default=None, help="JSONL trace path")


def _parse(path: str, parse):
    """parse(text of the file at path), its errors prefixed with the path."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _check_min(args, **lowest) -> None:
    """Each named integer flag must be at least its lowest value."""
    for flag, low in lowest.items():
        value = getattr(args, flag)
        if value < low:
            raise ValueError(f"--{flag} must be >= {low}, got {value}")


def _power_of_two(n: int, what: str) -> int:
    """n, the size named by what; the solver takes powers of two >= 2."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"{what} must be a power of two >= 2, got {n}")
    return n


def _load_qap(args) -> QapInstance:
    if args.random:
        n, seed = args.random
        if seed < 0:
            raise ValueError(f"--random SEED must be >= 0, got {seed}")
        n = _power_of_two(n, "--random N")
        check_qubit_guard(n.bit_length() - 1 + args.ancilla)  # before n x n draws
        return random_qap(n, seed)
    name = Path(args.instance).stem
    inst = _parse(args.instance, lambda text: parse_qaplib(text, name))
    _power_of_two(inst.n, f"the size of {args.instance}")
    if args.sln:
        inst = _parse(args.sln, lambda text: attach_solution(inst, text))
    return inst


def _parse_graph(text: str) -> np.ndarray:
    """An adjacency CSV if the text has a comma, else an edge list."""
    return parse_adjacency_csv(text) if "," in text else parse_edge_list(text)


def _load_gip(args) -> GipInstance:
    if args.graphs:
        mats = [_parse(path, _parse_graph) for path in args.graphs]
        inst = GipInstance(mats[0], mats[1], name="files")
        _power_of_two(inst.n, f"the size of {args.graphs[0]} and {args.graphs[1]}")
        return inst
    n = _power_of_two(args.random, "--random N")
    check_qubit_guard(n.bit_length() - 1 + args.ancilla)  # before n x n draws
    return random_gip(n, args.seed, span_restricted=args.span_restricted)


def _run_solver(problem, args, known_optimum=None) -> int:
    cfg = QuperConfig(
        ansatz=args.ansatz,
        m_max=args.ancilla,
        iterations=args.iters,
        seed=args.seed,
        lr=args.lr,
    )
    t0 = time.perf_counter()
    best_p, best_v, trace = quper_solve(problem, cfg)
    t1 = time.perf_counter()
    base_p, base_v = random_baseline(problem, args.iters, args.seed)
    t2 = time.perf_counter()
    report = {
        "config": {
            "problem": getattr(problem, "name", ""),
            "n": problem.n,
            "ansatz": cfg.ansatz,
            "ancilla": cfg.m_max,
            "iters": cfg.iterations,
            "seed": cfg.seed,
            "lr": cfg.lr,
        },
        "levels": trace.levels,
        "best_value": best_v,
        "best_permutation": list(best_p.map),
        "random_baseline_value": base_v,
        "wall_time_s": t2 - t0,
        "solver_s": t1 - t0,
        "baseline_s": t2 - t1,
        "seed": cfg.seed,
    }
    if known_optimum is not None:
        gap = relative_optimality_gap(best_v, known_optimum)
        report["known_optimum"] = known_optimum
        report["relative_optimality_gap"] = gap
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        with open(args.trace, "w") as fh:
            for rec in trace.records:
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps(report))
    return EXIT_OK


def cmd_solve_qap(args) -> int:
    _check_min(args, ancilla=0, iters=1, seed=0)
    inst = _load_qap(args)
    return _run_solver(inst, args, known_optimum=inst.known_optimum)


def cmd_solve_gip(args) -> int:
    _check_min(args, ancilla=0, iters=1, seed=0)
    return _run_solver(_load_gip(args), args)


def _row_keys(a: np.ndarray) -> list[bytes]:
    """The bytes of each row of the 2-D array a, as census set keys."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel().tolist()


def cmd_span(args) -> int:
    _check_min(args, q=1, ancilla=0, seed=0, budget=0)
    q, m = args.q, args.ancilla
    circuit = solver_ansatz(args.ansatz, q + m)
    ell = args.params if args.params is not None else circuit.param_count
    if not 0 <= ell <= circuit.param_count:
        raise ValueError(f"--params must be in 0..{circuit.param_count}")
    cap = min(1 << ell, bruhat_span_size(q + m))
    if m > 0:  # at m = 0 the span is a subgroup of S_(2^q)
        check_qubit_guard(q + m)  # before (2^q)!, which takes seconds at q = 20
        cap = min(cap, math.factorial(1 << q))
    if args.mode == "exhaustive":
        if 1 << ell > args.budget:
            print(
                f"exhaustive enumeration of 2^{ell} settings exceeds "
                f"--budget {args.budget}",
                file=sys.stderr,
            )
            return EXIT_BUDGET
        total = 1 << ell
    else:
        _check_min(args, samples=1)
        rng = np.random.default_rng([args.seed])
        total = args.samples
    per_setting = circuit.param_count + q + 1 if m == 0 else 1 << (2 * q + m)
    rows = max(1, SPAN_CHUNK_ENTRIES // per_setting)
    seen_h: set = set()
    seen_r: set = set()
    if m > 0:
        order_rng = np.random.default_rng([args.seed, 1])  # apart from the θ stream
        key_dtype = np.min_scalar_type(1 << m)
        projected: set = set()  # keys of the DSMs whose Hungarian map is in seen_h
    for start in range(0, total, rows):
        idx = np.arange(start, min(start + rows, total))
        on = np.zeros((len(idx), circuit.param_count), bool)  # True: at pi
        if args.mode == "exhaustive":  # itertools.product order
            on[:, :ell] = (idx[:, None] >> np.arange(ell)[::-1]) & 1
        else:  # the stream of one rng.choice([0, pi], ell) per sample
            on[:, :ell] = rng.integers(0, 2, (len(idx), ell))
        if m == 0:  # an affine map and its basis map fix each other
            seen_h.update(_row_keys(affine_images(circuit, on)))
            seen_r = seen_h  # a basis map is its own projection
            continue
        ds = binary_dsms(circuit, m, on)
        # Entries are multiples of 2^-m: their 2^m multiples key equal DSMs.
        scaled = (ds.reshape(len(ds), -1) * (1 << m)).astype(key_dtype)
        fresh = dict(zip(_row_keys(scaled), range(len(ds))))
        for key in fresh.keys() - projected:
            seen_h.add(project_hungarian(ds[fresh[key]]).tobytes())
        projected.update(fresh)
        # Setting idx's one-trial order is row idx of one census-wide stream.
        orders = random_orders(order_rng, 1 << q, len(idx))
        seen_r.update(_row_keys(order_maps(ds, orders[:, None])[:, 0]))
    line = f"{ell},{len(seen_h)},{len(seen_r)},{cap}"
    out = "params,count_hungarian,count_random_order,theoretical_cap\n" + line
    if args.out:
        Path(args.out).write_text(out + "\n")
    print(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_min(args, q=1)
    results = run_suites(q=args.q)
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_compile(args) -> int:
    if args.circuit:
        circuit = _parse(args.circuit, circuit_from_text)
    else:
        circuit = build_ansatz(args.ansatz, args.q)
    lowered = lower_to_linear_topology(circuit)
    stats = circuit_stats(lowered)
    text = circuit_to_text(lowered)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    print(
        f"# params={stats.param_count} depth={stats.depth} "
        f"two_qubit={stats.two_qubit_gate_count}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quper")
    sub = ap.add_subparsers(dest="command", required=True)

    sq = sub.add_parser("solve-qap", help="run the heuristic on a QAP instance")
    src = sq.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", help="QAPLIB .dat file")
    src.add_argument("--random", nargs=2, type=int, metavar=("N", "SEED"))
    sq.add_argument("--sln", help="QAPLIB .sln file with the known optimum")
    _add_solver_flags(sq)
    sq.set_defaults(func=cmd_solve_qap)

    sg = sub.add_parser("solve-gip", help="run the heuristic on a GIP instance")
    src = sg.add_mutually_exclusive_group(required=True)
    src.add_argument("--random", type=int, metavar="N")
    src.add_argument("--graphs", nargs=2, metavar=("A", "B"))
    sg.add_argument("--span-restricted", action="store_true")
    _add_solver_flags(sg)
    sg.set_defaults(func=cmd_solve_gip)

    sp = sub.add_parser("span", help="census of spanned permutations")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--ancilla", type=int, default=0)
    sp.add_argument("--ansatz", default="bruhat", choices=SOLVER_ANSATZE)
    sp.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sample"])
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--params", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=1 << 22)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_span)

    sv = sub.add_parser("verify", help="run the self-check suites")
    sv.add_argument("--q", type=int, default=3)
    sv.set_defaults(func=cmd_verify)

    sc = sub.add_parser("compile", help="lower a circuit to linear topology")
    src = sc.add_mutually_exclusive_group(required=True)
    src.add_argument("--circuit", help="circuit text file")
    src.add_argument("--ansatz", choices=ANSATZ_KINDS)
    sc.add_argument("--q", type=int, default=3)
    sc.add_argument("--out", default=None)
    sc.set_defaults(func=cmd_compile)
    return ap


# One parser per process: building it costs about 16 times a parse.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except QubitBudgetError as exc:
        print(f"budget guard: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
