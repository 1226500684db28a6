"""The benchmark's workloads, run through quper's public API.

Each workload builds its inputs from the workload seed in ``setup`` and then
serves a closed loop with one caller: ``call(i)`` starts only when call i - 1
has returned.  Every call is checked before the next one starts; a failed
check raises ``checks.CheckError``.  Why each workload exists is recorded in
README.md and BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from checks import CheckError, check_baseline, check_census, check_solve, parse_census

HERE = Path(__file__).resolve().parent
CENSUS_REFERENCE = HERE / "census_reference.json"


def import_quper():
    """Import quper afresh, so that repeated set-ups each pay its import."""
    for name in [m for m in sys.modules if m == "quper" or m.startswith("quper.")]:
        del sys.modules[name]
    return {
        name: importlib.import_module(f"quper.{name}")
        for name in ("circuits", "cli", "gf2", "optimizer", "problems", "projection")
    }


def layer_targets(mods) -> list[tuple]:
    """(module, attribute, span name[, note]) for every layer boundary, named
    where the caller looks the function up so that the wrapper is the one
    called."""
    permutation = mods["gf2"].Permutation
    random_order = inspect.signature(mods["projection"].project_random_order)

    def amp_gates(args, kwargs, result):
        circuit = args[0]
        return {"amp_gates": len(circuit.gates) * 4**circuit.q}

    def distinct(args, kwargs, result):
        bound = random_order.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"distinct": len(result), "trials": bound.arguments["trials"]}

    def perm_calls(args, kwargs, result):
        return {"perm_calls": int(isinstance(args[1], permutation))}

    return [
        ("quper.dsm", "eval_unitary", "circuits.eval_unitary", amp_gates),
        ("quper.cli", "eval_permutation", "circuits.eval_permutation"),
        ("quper.optimizer", "extract_dsm", "dsm.extract_dsm"),
        ("quper.cli", "extract_dsm", "dsm.extract_dsm"),
        ("quper.optimizer", "fd_gradient", "optimizer.fd_gradient"),
        ("quper.optimizer", "loss_from_dsm", "optimizer.loss_from_dsm"),
        ("quper.optimizer", "adam_nesterov_step", "optimizer.adam_step"),
        ("quper.optimizer", "embed_theta", "optimizer.embed_theta"),
        ("quper.optimizer", "project_hungarian", "projection.hungarian"),
        ("quper.cli", "project_hungarian", "projection.hungarian"),
        ("quper.optimizer", "project_random_order", "projection.random_order", distinct),
        ("quper.cli", "project_random_order", "projection.random_order", distinct),
        ("quper.optimizer", "qap_cost", "problems.cost", perm_calls),
        ("quper.optimizer", "gip_cost", "problems.cost", perm_calls),
    ]


SOLVER_SPANS = {
    "optimizer.quper_solve",
    "optimizer.random_baseline",
    "optimizer.fd_gradient",
    "optimizer.loss_from_dsm",
    "optimizer.adam_step",
    "dsm.extract_dsm",
    "circuits.eval_unitary",
    "projection.hungarian",
    "projection.random_order",
    "problems.cost",
}


def _no_span(name):
    return contextlib.nullcontext()


class SolverWorkload:
    """quper_solve then random_baseline on each instance, as `quper solve-*`
    runs them; the baseline is timed apart from the solve."""

    kind = "solver"

    def __init__(self, seed: int):
        self.seed = seed

    def args(self) -> dict:
        return {"ansatz": "bruhat", "m_max": self.m_max, "iterations": self.iterations}

    def setup(self) -> None:
        self.mods = import_quper()
        self.instances = self.build_instances(np.random.default_rng([self.seed]))
        q = self.instances[0][1].n.bit_length() - 1
        # Built so that set-up pays for them; quper_solve builds its own.
        self.ansatze = [
            self.mods["circuits"].solver_ansatz("bruhat", q + m)
            for m in range(self.m_max + 1)
        ]

    def _solve(self, problem, seed, iterations, span=_no_span):
        opt = self.mods["optimizer"]
        cfg = opt.QuperConfig("bruhat", m_max=self.m_max, iterations=iterations, seed=seed)
        t0 = time.perf_counter()
        with span("optimizer.quper_solve"):
            best_p, best_v, trace = opt.quper_solve(problem, cfg)
        t1 = time.perf_counter()
        with span("optimizer.random_baseline"):
            base_p, base_v = opt.random_baseline(problem, iterations, seed)
        t2 = time.perf_counter()
        return best_p, best_v, trace, base_p, base_v, t1 - t0, t2 - t1

    def warmup(self) -> None:
        seed, problem = self.instances[-1]
        self._solve(problem, seed, 2)

    def call(self, i: int, span=_no_span) -> dict:
        seed, problem = self.instances[i % len(self.instances)]
        best_p, best_v, trace, base_p, base_v, solve_s, base_s = self._solve(
            problem, seed, self.iterations, span
        )
        cost = self.cost(problem)
        ref = self.reference(problem)
        levels = self.m_max + 1
        check_solve(
            cost, problem.n, best_p, best_v, trace.records,
            self.iterations * levels, ref,
        )
        check_baseline(cost, problem.n, base_p, base_v)
        hit = next(
            (k for k, r in enumerate(trace.records) if r["best"] <= ref), None
        )
        return {
            "seed": seed,
            "call_s": solve_s,
            "baseline_s": base_s,
            "work": len(trace.records),
            "value": best_v,
            "permutation": list(best_p.map),
            "baseline_value": base_v,
            "reference": ref,
            "iters_to_solution": None if hit is None else hit + 1,
        }


class Gip8Span(SolverWorkload):
    name = "gip8_span"
    expected_spans = SOLVER_SPANS
    m_max = 0
    iterations = 30
    pool = 128

    def build_instances(self, rng):
        gen = self.mods["problems"].random_gip
        seeds = rng.integers(0, 1 << 31, self.pool)
        return [(int(s), gen(8, int(s), span_restricted=True)) for s in seeds]

    def cost(self, problem):
        return lambda p: self.mods["problems"].gip_cost(problem, p)

    def reference(self, problem) -> float:
        return 0.0  # the planted isomorphism


class Esc16fAnc(SolverWorkload):
    name = "esc16f_anc"
    expected_spans = SOLVER_SPANS | {"optimizer.embed_theta"}
    m_max = 1
    iterations = 4
    pool = 128
    data = HERE.parent / "tests" / "data"

    def build_instances(self, rng):
        inst = self.mods["problems"].load_qaplib(
            (self.data / "esc16f.dat").read_text(),
            (self.data / "esc16f.sln").read_text(),
            name="esc16f",
        )
        return [(int(s), inst) for s in rng.integers(0, 1 << 31, self.pool)]

    def cost(self, problem):
        return lambda p: self.mods["problems"].qap_cost(problem, p)

    def reference(self, problem) -> float:
        return problem.known_optimum


class SpanCensus:
    """One call is a binary census (q=4, m=0) then an ancilla census (q=3,
    m=1) through the CLI, both sampled with the same census seed."""

    name = "span_census"
    kind = "census"
    expected_spans = {
        "cli.span",
        "circuits.eval_permutation",
        "circuits.eval_unitary",
        "dsm.extract_dsm",
        "projection.hungarian",
        "projection.random_order",
    }
    binary_samples = 2000
    ancilla_samples = 150

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def binary_argv(cls, census_seed: int) -> list[str]:
        return ["span", "--q", "4", "--mode", "sample",
                "--samples", str(cls.binary_samples), "--seed", str(census_seed)]

    @classmethod
    def ancilla_argv(cls, census_seed: int) -> list[str]:
        return ["span", "--q", "3", "--ancilla", "1", "--mode", "sample",
                "--samples", str(cls.ancilla_samples), "--seed", str(census_seed)]

    def args(self) -> dict:
        return {"binary": self.binary_argv(0)[:-2], "ancilla": self.ancilla_argv(0)[:-2]}

    def setup(self) -> None:
        self.mods = import_quper()
        ref = json.loads(CENSUS_REFERENCE.read_text())
        if ref["argv"] != self.binary_argv(0):
            raise ValueError(f"{CENSUS_REFERENCE.name} was recorded for other arguments")
        self.reference = ref["counts"]
        # Census seeds index the recorded counts; the workload seed orders them.
        rng = np.random.default_rng([self.seed])
        self.order = [int(c) for c in rng.permutation(len(self.reference))]
        # Both phases run the q + m = 4 solver ansatz; built so that set-up
        # pays for it, as cmd_span builds its own.
        self.ansatze = [self.mods["circuits"].solver_ansatz("bruhat", 4)]

    def _census(self, argv, span=_no_span) -> str:
        out = io.StringIO()
        with span("cli.span"), contextlib.redirect_stdout(out):
            rc = self.mods["cli"].main(argv)
        if rc != 0:
            raise CheckError(f"quper {' '.join(argv)} exited {rc}")
        return out.getvalue()

    def warmup(self) -> None:
        self.call(len(self.order) - 1)

    def call(self, i: int, span=_no_span) -> dict:
        c = self.order[i % len(self.order)]
        t0 = time.perf_counter()
        out_b = self._census(self.binary_argv(c), span)
        t1 = time.perf_counter()
        out_a = self._census(self.ancilla_argv(c), span)
        t2 = time.perf_counter()
        row_b, row_a = parse_census(out_b), parse_census(out_a)
        check_census(row_b, self.binary_samples, self.reference[c])
        check_census(row_a, self.ancilla_samples)
        return {
            "seed": c,
            "call_s": t2 - t0,
            "binary_s": t1 - t0,
            "ancilla_s": t2 - t1,
            "work": self.binary_samples + self.ancilla_samples,
            "binary": list(row_b),
            "ancilla": list(row_a),
        }


WORKLOADS = {w.name: w for w in (Gip8Span, Esc16fAnc, SpanCensus)}
