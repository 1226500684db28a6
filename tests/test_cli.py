"""CLI commands, exit codes, and the self-check suites."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quper
from quper import circuits, cli, verify
from quper.circuits import ANSATZ_KINDS, SOLVER_ANSATZE, solver_ansatz
from quper.cli import build_parser, main
from quper.dsm import binary_dsms, extract_dsm
from quper.projection import order_maps, project_hungarian, random_orders
from quper.verify import run_suites

DATA = Path(__file__).parent / "data"
CENSUS_REFERENCE = Path(__file__).parents[1] / "benchmarks" / "census_reference.json"


def census_row(capsys) -> list[str]:
    """The four fields of the row the last census printed."""
    return capsys.readouterr().out.strip().splitlines()[-1].split(",")


def serial_census(q, m, ell, settings, seed):
    """The ancilla census one setting at a time through dense DSMs: the
    reference for the chunked binary path of `quper span`.  Setting idx's
    one-trial order is row idx of the census stream, one generator seeded
    [seed, 1]."""
    circuit = solver_ansatz("bruhat", q + m)
    settings = list(settings)
    orders = random_orders([seed, 1], 1 << q, len(settings))
    seen_h, seen_r = set(), set()
    for idx, bits in enumerate(settings):
        theta = np.zeros(circuit.param_count)
        theta[:ell] = bits
        d = extract_dsm(circuit, m, theta)
        seen_h.add(tuple(project_hungarian(d).tolist()))
        cand = order_maps(d[None], orders[None, idx : idx + 1])[0, 0]
        seen_r.add(tuple(cand.tolist()))
    return [str(len(seen_h)), str(len(seen_r))]


def test_import_leaves_scipy_optimize_unloaded():
    # Only the Hungarian projection and the Birkhoff peeling need SciPy, and
    # importing scipy.optimize takes most of a cold `quper` start.
    env = {**os.environ, "PYTHONPATH": str(Path(quper.__file__).parents[1])}
    code = "import sys, quper.cli; print('scipy.optimize' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 8
        assert "PASS binary_agreement: 60 settings agree exactly" in out
        assert "PASS gradient_agreement: max deviation " in out

    def test_fault_injection_fails_gate_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "_X", np.array([[0.0, 1.0], [1.0, 0.1]]))
        results = run_suites()
        by_name = {name: ok for name, ok, _ in results}
        assert by_name["x_cx_relations"] is False
        assert by_name["noncommutation"] is True

    def test_x_cx_relations_read_the_kernels_cx(self, monkeypatch):
        # CX is the kernel's X block: at the identity it breaks every relation.
        monkeypatch.setattr(circuits, "_X", np.eye(2, dtype=complex))
        name, ok, detail = verify.suite_x_cx_relations()
        assert (name, ok) == ("x_cx_relations", False)
        assert detail.startswith("cx.(x@x) = (x@I).cx violated")

    def test_binary_agreement_fails_on_a_faulty_fast_path(self, monkeypatch):
        # Transposed DSMs differ from extract_dsm's wherever U is not symmetric.
        real = verify.binary_dsms
        monkeypatch.setattr(verify, "binary_dsms", lambda *a: real(*a).swapaxes(1, 2))
        name, ok, detail = verify.suite_binary_agreement()
        assert (name, ok) == ("binary_agreement", False)
        assert detail.startswith("DSMs differ at q=2, m=0, bits [")

    def test_gradient_agreement_fails_on_a_faulty_tape(self, monkeypatch, capsys):
        # One slot off by 1e-12 of the scale is past the sweep's 1e-13.
        real = verify.tape_gradient

        def shifted(*args):
            grad = real(*args)
            grad[-1] += 1e-12 * np.abs(args[2]).max()
            return grad

        monkeypatch.setattr(verify, "tape_gradient", shifted)
        name, ok, detail = verify.suite_gradient_agreement()
        assert (name, ok) == ("gradient_agreement", False)
        assert detail.startswith("gradients differ at q+m=3, m=0: ")
        assert main(["verify"]) == 5
        assert "FAIL gradient_agreement" in capsys.readouterr().out

    def test_exit_code_5_on_failure(self, monkeypatch, capsys):
        import quper.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "run_suites", lambda **kw: [("demo", False, "boom")]
        )
        assert main(["verify"]) == 5
        assert "FAIL demo" in capsys.readouterr().out


    @pytest.mark.parametrize("q", ["2", "3", "4", "5"])
    def test_q_dependent_suites_state_the_q_they_ran_at(self, q, capsys):
        # Borel enumeration runs at min(q, 4); Bruhat reassembly takes every
        # invertible matrix up to q = 3, else 500 seeded samples.
        borel_q, borel = {"2": (2, 2), "3": (3, 8)}.get(q, (4, 64))
        gl = {"2": 6, "3": 168}.get(q, 500)
        assert main(["verify", "--q", q]) == 0
        out = capsys.readouterr().out.splitlines()
        assert (f"PASS borel_enumeration: q={borel_q}: {borel} matrices"
                f" (expected {borel})") in out
        assert f"PASS bruhat_reassembly: q={q}: {gl} matrices reassembled" in out

    def test_deep_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--deep"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --deep" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["0", "-2"])
    def test_non_positive_q_is_input_error(self, q, capsys):
        assert main(["verify", "--q", q]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"input error: --q must be >= 1, got {q}\n"
        assert captured.out == ""


class TestSpanCommand:
    def test_q2_exhaustive_24(self, capsys):
        assert main(["span", "--q", "2"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        ell, count_h, count_r, cap = line.split(",")
        assert (ell, count_h, count_r) == ("5", "24", "24")
        assert int(cap) == 24

    def test_no_factorial_cap_without_ancillas(self, monkeypatch, capsys):
        # At m = 0 the span is the affine group, a subgroup of S_(2^q), so
        # (2^q)! never caps it; at q = 20 that factorial alone takes seconds.
        def no_factorial(n):
            raise AssertionError(f"factorial({n}) taken at m = 0")

        monkeypatch.setattr(math, "factorial", no_factorial)
        monkeypatch.delenv("QUPER_MAX_QUBITS", raising=False)
        for q, cap in [("2", "24"), ("3", "1344")]:
            assert main(["span", "--q", q]) == 0
            assert census_row(capsys)[3] == cap
        # With ancillas the qubit guard stops q = 20 before the factorial.
        sample = ["--mode", "sample", "--samples", "1"]
        assert main(["span", "--q", "20", "--ancilla", "1", *sample]) == 4
        assert "budget guard" in capsys.readouterr().err
        monkeypatch.undo()
        assert main(["span", "--q", "2", "--ancilla", "1", "--params", "8"]) == 0
        assert census_row(capsys)[3] == "24"

    def test_budget_guard(self, capsys):
        assert main(["span", "--q", "3", "--budget", "100"]) == 4

    def test_sampled_census_with_ancilla(self, capsys, tmp_path):
        out = tmp_path / "census.csv"
        code = main(
            [
                "span", "--q", "2", "--ancilla", "1", "--mode", "sample",
                "--samples", "50", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        header, line = out.read_text().strip().splitlines()
        assert header == "params,count_hungarian,count_random_order,theoretical_cap"
        _, count_h, count_r, cap = line.split(",")
        assert 1 <= int(count_h) <= int(cap)
        assert 1 <= int(count_r) <= int(cap)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_is_input_error(self, samples, capsys):
        code = main(["span", "--q", "2", "--mode", "sample", "--samples", samples])
        assert code == 3
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--q", "3", "--ancilla", "-1"], "--ancilla must be >= 0, got -1"),
            (["--q", "0"], "--q must be >= 1, got 0"),
        ],
    )
    def test_bad_q_or_ancilla_is_input_error(self, argv, message, capsys):
        assert main(["span", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"input error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed", "-1"], "--seed must be >= 0, got -1"),
            (["--budget", "-1"], "--budget must be >= 0, got -1"),
        ],
    )
    def test_negative_seed_or_budget_is_input_error(self, argv, message, capsys):
        assert main(["span", "--q", "3", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"input error: {message}\n"
        assert captured.out == ""

    def test_ancilla_census_keeps_the_qubit_guard(self, monkeypatch, capsys):
        monkeypatch.setenv("QUPER_MAX_QUBITS", "4")
        sample = ["--mode", "sample", "--samples", "5"]
        assert main(["span", "--q", "3", "--ancilla", "2", *sample]) == 4
        captured = capsys.readouterr()
        assert "budget guard" in captured.err
        assert captured.out == ""
        # The binary census builds no DSM, so the guard does not apply.
        assert main(["span", "--q", "5", *sample]) == 0

    def test_binary_census_above_64_qubits_is_input_error(self, capsys):
        # Affine images are packed in at most 64 bits.
        sample = ["--mode", "sample", "--samples", "3"]
        assert main(["span", "--q", "65", *sample]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "input error: affine images take at most 64 bits, got q = 65\n"
        )
        assert captured.out == ""
        assert main(["span", "--q", "64", *sample]) == 0
        assert census_row(capsys)[:3] == ["6112", "3", "3"]

    @pytest.mark.parametrize(
        "q, m, extra",
        [
            (3, 0, []),
            (3, 0, ["--mode", "sample", "--samples", "300", "--seed", "2"]),
            (2, 1, ["--params", "8"]),
            (2, 1, ["--mode", "sample", "--samples", "60", "--seed", "3"]),
            (3, 1, ["--mode", "sample", "--samples", "40", "--seed", "5"]),
        ],
    )
    def test_chunk_size_leaves_the_census_unchanged(
        self, q, m, extra, monkeypatch, capsys
    ):
        argv = ["span", "--q", str(q), "--ancilla", str(m), *extra]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        # Chunks of 7 settings; no count above divides evenly.  A setting
        # holds its parameters and q + 1 images at m = 0, else 2^(2q+m).
        ell = solver_ansatz("bruhat", q + m).param_count
        per_setting = ell + q + 1 if m == 0 else 1 << (2 * q + m)
        monkeypatch.setattr(cli, "SPAN_CHUNK_ENTRIES", 7 * per_setting)
        assert main(argv) == 0
        assert capsys.readouterr().out == whole

    def test_exhaustive_ancilla_census_matches_serial_reference(self, capsys):
        assert main(["span", "--q", "2", "--ancilla", "1", "--params", "8"]) == 0
        settings = itertools.product((0.0, math.pi), repeat=8)
        assert census_row(capsys)[1:3] == serial_census(2, 1, 8, settings, 0)

    def test_one_hungarian_projection_per_distinct_dsm(self, monkeypatch, capsys):
        # Once per census, not per chunk: 256 settings in chunks of 7.
        calls = []

        def counted(d):
            calls.append(d)
            return project_hungarian(d)

        monkeypatch.setattr(cli, "project_hungarian", counted)
        monkeypatch.setattr(cli, "SPAN_CHUNK_ENTRIES", 7 << 5)
        assert main(["span", "--q", "2", "--ancilla", "1", "--params", "8"]) == 0
        circuit = solver_ansatz("bruhat", 3)
        on = np.zeros((256, circuit.param_count), bool)
        on[:, :8] = list(itertools.product((False, True), repeat=8))
        ds = binary_dsms(circuit, 1, on)
        distinct = np.unique(ds.reshape(len(ds), -1), axis=0)
        assert len(distinct) > 1
        assert len(calls) == len(distinct)
        got = np.unique(np.reshape(calls, (len(calls), -1)), axis=0)
        assert np.array_equal(got, distinct)

    # At q = 2 count_random_order saturates at 4! = 24; only the q = 3 case
    # (cap 8! = 40,320) tells one random-order stream from another.
    @pytest.mark.parametrize("q, samples, seed", [(2, 80, 6), (3, 150, 5)])
    def test_sampled_ancilla_census_matches_serial_reference(
        self, q, samples, seed, capsys
    ):
        argv = ["span", "--q", str(q), "--ancilla", "1", "--mode", "sample"]
        assert main([*argv, "--samples", str(samples), "--seed", str(seed)]) == 0
        rng = np.random.default_rng([seed])
        ell = solver_ansatz("bruhat", q + 1).param_count
        settings = (rng.choice([0.0, math.pi], ell) for _ in range(samples))
        assert census_row(capsys)[1:3] == serial_census(q, 1, ell, settings, seed)

    @pytest.mark.parametrize("seed", [0, 5, 6, 101])
    @pytest.mark.parametrize("ell", [0, 1, 22])
    def test_bit_draws_are_the_angle_choice_stream(self, seed, ell):
        """The census draws bits where it once drew rng.choice([0, pi]):
        equally seeded, the streams agree whole, chunked and per sample."""
        def rng():
            return np.random.default_rng([seed])

        angles = rng().choice([0.0, math.pi], (11, ell))
        assert np.array_equal(angles, math.pi * rng().integers(0, 2, (11, ell)))
        bits = rng()
        chunks = [bits.integers(0, 2, (rows, ell)) for rows in (4, 1, 6)]
        assert np.array_equal(angles, math.pi * np.concatenate(chunks))
        each = rng()
        per_sample = [each.choice([0.0, math.pi], ell) for _ in range(11)]
        assert np.array_equal(angles, per_sample)

    def test_recorded_binary_census_counts(self, capsys):
        ref = json.loads(CENSUS_REFERENCE.read_text())
        argv = ref["argv"]
        assert argv[-2] == "--seed"
        for seed, count in enumerate(ref["counts"]):
            assert main([*argv[:-1], str(seed)]) == 0
            assert census_row(capsys)[1:3] == [str(count)] * 2

    def test_params_prefix_restriction(self, capsys):
        assert main(["span", "--q", "2", "--params", "0"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("0,1,1,")

    def test_calls_in_one_process_share_no_flags(self, tmp_path, capsys):
        # main reuses one parser: a flag of one call must not reach the next.
        out = tmp_path / "census.csv"
        assert main(["span", "--q", "2", "--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert out.read_text() == first
        assert main(["span", "--q", "2", "--params", "0"]) == 0
        assert census_row(capsys)[:3] == ["0", "1", "1"]
        assert main(["compile", "--ansatz", "Borel", "--q", "3"]) == 0
        assert main(["span", "--q", "2"]) == 0
        assert census_row(capsys)[:3] == ["5", "24", "24"]
        assert out.read_text() == first


class TestSolveCommands:
    def test_solve_qap_random(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "solve-qap", "--random", "4", "7", "--ansatz", "bruhat",
                "--ancilla", "0", "--iters", "5", "--seed", "1",
                "--out", str(out), "--trace", str(trace),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["n"] == 4
        assert len(report["best_permutation"]) == 4
        assert isinstance(report["random_baseline_value"], float)
        # The solver and baseline times, apart, sum to the wall time.
        parts = report["solver_s"] + report["baseline_s"]
        assert min(report["solver_s"], report["baseline_s"]) > 0
        assert parts == pytest.approx(report["wall_time_s"], rel=1e-12)
        records = [json.loads(ln) for ln in trace.read_text().splitlines()]
        assert len(records) == 5
        assert records[0]["iter"] == 0

    def test_solve_qap_instance_with_sln(self, capsys):
        code = main(
            [
                "solve-qap", "--instance", str(DATA / "esc16f.dat"),
                "--sln", str(DATA / "esc16f.sln"),
                "--iters", "2", "--seed", "0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["known_optimum"] == 0.0
        assert report["best_value"] == 0.0

    def test_solve_gip_random(self, capsys):
        code = main(
            [
                "solve-gip", "--random", "4", "--span-restricted",
                "--iters", "5", "--seed", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["n"] == 4

    def test_non_power_of_two_is_input_error(self, capsys):
        assert main(["solve-qap", "--random", "6", "1", "--iters", "1"]) == 3

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve-qap", "--instance", "nope.dat"]) == 3

    def test_ancillas_over_the_qubit_guard_exit_4_at_once(self, monkeypatch, capsys):
        # 3 + 20 qubits: the guard fires before the first level is built.
        import quper.optimizer as opt_mod

        def no_level(*args):
            pytest.fail("quper_solve built a level before checking the guard")

        monkeypatch.setattr(opt_mod, "solver_ansatz", no_level)
        argv = ["solve-gip", "--random", "8", "--ancilla", "20", "--iters", "2"]
        assert main(argv) == 4
        assert "budget guard" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, qubits",
        [
            (["solve-gip", "--random", "4096"], 12),
            (["solve-qap", "--random", "4096", "1"], 12),
            (["solve-gip", "--random", "8", "--ancilla", "1"], 4),
            (["solve-qap", "--random", "8", "1", "--ancilla", "1"], 4),
        ],
    )
    def test_random_instance_over_the_qubit_guard_is_never_built(
        self, argv, qubits, monkeypatch, capsys
    ):
        # log2 N + M qubits over the guard: exit 4 before the n x n draws.
        def no_instance(*args, **kwargs):
            pytest.fail("the instance was built before the guard was checked")

        monkeypatch.setenv("QUPER_MAX_QUBITS", "3")
        monkeypatch.setattr(cli, "random_qap", no_instance)
        monkeypatch.setattr(cli, "random_gip", no_instance)
        assert main([*argv, "--iters", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            f"budget guard: dense evaluation of {qubits} qubits exceeds the guard (3)\n"
        )
        assert captured.out == ""

    def test_nan_lr_is_input_error(self, capsys):
        code = main(["solve-gip", "--random", "4", "--iters", "1", "--lr", "nan"])
        assert code == 3
        assert "lr must be" in capsys.readouterr().err

    def test_graphs_of_different_sizes_are_input_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("4 0 1 1 2 2 3\n")
        b.write_text("5 0 1 1 2 2 3 3 4\n")
        code = main(["solve-gip", "--graphs", str(a), str(b), "--iters", "1"])
        assert code == 3
        assert "same number of vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_max_qubits_env_is_input_error(self, value, monkeypatch, capsys):
        monkeypatch.setenv("QUPER_MAX_QUBITS", value)
        code = main(["solve-qap", "--random", "4", "1", "--iters", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"input error: QUPER_MAX_QUBITS must be a positive integer, "
            f"got '{value}'\n"
        )

    def test_ragged_adjacency_csv_names_file_and_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0,1,0\n1,0,1\n0,1\n")
        b.write_text("0,1,0\n1,0,1\n0,1,0\n")
        code = main(["solve-gip", "--graphs", str(a), str(b), "--iters", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert str(a) in err
        assert "line 3 has 2 entries, expected 3" in err
        assert "inhomogeneous" not in err

    def test_non_integer_edge_list_names_file(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("4 0 1 1 2 2 3\n")
        b.write_text("4 0 1 1 two 2 3\n")
        code = main(["solve-gip", "--graphs", str(a), str(b), "--iters", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {b}: non-integer token in edge list")

    def test_non_integer_qaplib_dat_names_file(self, tmp_path, capsys):
        dat = tmp_path / "bad.dat"
        dat.write_text("2\n0 1\n1 x\n0 2\n2 0\n")
        assert main(["solve-qap", "--instance", str(dat), "--iters", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {dat}: non-integer token in QAPLIB data")

    def test_non_integer_sln_names_file(self, tmp_path, capsys):
        sln = tmp_path / "bad.sln"
        sln.write_text("16 0\n1 2 3 x\n")
        argv = ["solve-qap", "--instance", str(DATA / "esc16f.dat"), "--sln", str(sln)]
        assert main([*argv, "--iters", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {sln}: non-integer token in .sln data")

    def test_sln_matching_neither_role_names_file(self, tmp_path, capsys):
        sln = tmp_path / "wrong.sln"
        sln.write_text("16 5\n" + " ".join(str(i) for i in range(1, 17)) + "\n")
        argv = ["solve-qap", "--instance", str(DATA / "esc16f.dat"), "--sln", str(sln)]
        assert main([*argv, "--iters", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {sln}: .sln value 5 matches neither role")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--iters", "0"], "--iters must be >= 1, got 0"),
            (["--ancilla", "-1", "--iters", "1"], "--ancilla must be >= 0, got -1"),
        ],
    )
    def test_bad_iters_or_ancilla_is_input_error(self, flags, message, capsys):
        assert main(["solve-qap", "--random", "4", "1", *flags]) == 3
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve-qap", "--random", "4", "-1"], "--random SEED"),
            (["solve-qap", "--random", "4", "1", "--seed", "-1"], "--seed"),
            (["solve-gip", "--random", "4", "--seed", "-1"], "--seed"),
        ],
    )
    def test_negative_seed_is_input_error(self, argv, flag, capsys):
        assert main([*argv, "--iters", "1"]) == 3
        want = f"input error: {flag} must be >= 0, got -1\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("n", ["1", "6", "-4"])
    @pytest.mark.parametrize("command, seed", [("solve-qap", ["1"]), ("solve-gip", [])])
    def test_random_size_not_power_of_two_is_input_error(self, command, seed, n, capsys):
        assert main([command, "--random", n, *seed, "--iters", "1"]) == 3
        assert capsys.readouterr().err == (
            f"input error: --random N must be a power of two >= 2, got {n}\n"
        )

    def test_graph_files_not_power_of_two_name_both_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("6 0 1 1 2 2 3 3 4 4 5\n")
        b.write_text("6 0 1 1 2 2 3 3 4\n")
        code = main(["solve-gip", "--graphs", str(a), str(b), "--iters", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"input error: the size of {a} and {b} must be a power of two >= 2, got 6\n"
        )

    def test_qaplib_dat_not_power_of_two_names_file(self, tmp_path, capsys):
        dat = tmp_path / "q6.dat"
        dat.write_text("6\n" + " ".join(["1"] * 72) + "\n")
        assert main(["solve-qap", "--instance", str(dat), "--iters", "1"]) == 3
        assert capsys.readouterr().err == (
            f"input error: the size of {dat} must be a power of two >= 2, got 6\n"
        )

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_vertex_count_below_one_is_input_error(self, count, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(f"{count}\n")
        b.write_text("4 0 1 1 2 2 3\n")
        code = main(["solve-gip", "--graphs", str(a), str(b), "--iters", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"input error: {a}: vertex count must be >= 1, got {count}\n"
        )

    def test_non_integer_random_is_bad_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-qap", "--random", "x", "1"])
        assert exc.value.code == 2
        assert "--random: invalid int value: 'x'" in capsys.readouterr().err

    def test_ansatz_choices_come_from_circuits(self):
        parser = build_parser()
        for name in SOLVER_ANSATZE:
            for argv in (["solve-qap", "--random", "4", "0"], ["span", "--q", "2"]):
                assert parser.parse_args([*argv, "--ansatz", name]).ansatz == name
        for kind in ANSATZ_KINDS:
            assert parser.parse_args(["compile", "--ansatz", kind]).ansatz == kind
        with pytest.raises(SystemExit):
            parser.parse_args(["span", "--q", "2", "--ansatz", "LX"])

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve-qap"])
        assert exc.value.code == 2


class TestCompileCommand:
    def test_lowered_borel_is_linear(self, capsys):
        assert main(["compile", "--ansatz", "Borel", "--q", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "QUBITS 4"
        for ln in out[1:]:
            toks = ln.split()
            assert abs(int(toks[1]) - int(toks[2])) == 1

    def test_circuit_file_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "c.txt"
        src.write_text("PCX 3 0 0\n")
        assert main(["compile", "--circuit", str(src)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9 and lines[0] == "QUBITS 4"
        src.write_text("QUBITS 5\n" + "\n".join(lines[1:]))
        assert main(["compile", "--circuit", str(src)]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["QUBITS 5", *lines[1:]]

    def test_circuit_file_gate_past_its_width_is_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "c.txt"
        src.write_text("QUBITS 3\nPCX 3 0 0\n")
        assert main(["compile", "--circuit", str(src)]) == 3
        err = capsys.readouterr().err
        assert err == f"input error: {src}: qubit index out of range\n"
