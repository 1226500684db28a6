"""Fixed-seed solves replayed against tests/data/reference_runs.json.

The file was recorded by tests/data/record_reference_runs.py.  Permutations,
best values, levels and iteration counters must match exactly; the float trace
fields (losses, relaxed and projected costs) to a relative 1e-9.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "reference_runs.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "record_reference_runs", DATA / "record_reference_runs.py"
)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)


def _run_id(ref):
    return ref["problem"]["kind"] + str(ref["problem"]["n"])


@pytest.mark.parametrize("ref", REFERENCE, ids=_run_id)
def test_reference_run_reproduced(ref):
    got = recorder.run({"problem": ref["problem"], "config": ref["config"]})
    assert got["best_permutation"] == ref["best_permutation"]
    # The best value is also the last level's value, which must match exactly.
    assert got["best_value"] == ref["best_value"]
    assert got["levels"] == ref["levels"]
    assert len(got["records"]) == len(ref["records"])
    for rec, want in zip(got["records"], ref["records"]):
        assert rec.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, int):
                assert rec[key] == value, key
            else:
                assert rec[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key


def test_diff_counts_moved_records_per_field():
    old = REFERENCE[:1]
    new = json.loads(json.dumps(old))
    rec = new[0]["records"]
    rec[2]["loss"] = old[0]["records"][2]["loss"] * 1.5
    rec[3]["loss"] = old[0]["records"][3]["loss"] * 1.25
    new[0]["best_permutation"] = new[0]["best_permutation"][::-1]
    lines = recorder.diff(old, new)
    name = _run_id(old[0])
    n = len(rec)
    assert f"{name} loss: 2/{n} records moved, max rel change 0.333" in lines
    assert f"{name} raw_cost: 0/{n} records moved, max rel change 0" in lines
    assert lines[-1].endswith("moved: best_permutation")
    assert all(" 0/" in ln for ln in recorder.diff(old, old)[:-1])


def test_check_passes_on_the_file_and_lists_what_moved_in_a_doctored_copy(
    tmp_path, capsys
):
    # --check records into memory: 0 on an unchanged copy of the file, 1 on
    # one with a single loss moved, with the --diff lines naming that record.
    text = (DATA / "reference_runs.json").read_text()
    same = tmp_path / "same.json"
    same.write_text(text)
    assert recorder.main(["--check", str(same)]) == 0
    assert capsys.readouterr().out == ""
    runs = json.loads(text)
    runs[0]["records"][2]["loss"] *= 1.5
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(runs, indent=1) + "\n")
    assert recorder.main(["--check", str(doctored)]) == 1
    lines = capsys.readouterr().out.splitlines()
    n = len(runs[0]["records"])
    assert lines[0] == f"{doctored} differs from a fresh recording:"
    assert f"{_run_id(runs[0])} loss: 1/{n} records moved, max rel change 0.333" in lines
    assert same.read_text() == text  # --check writes nothing
