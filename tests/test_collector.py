"""Commands run with the cyclic garbage collector paused.

cli.main disables the collector around the command and gives the caller's
state back.  That is safe only because no command forms a reference cycle:
with the collector off, everything a command drops must already be freed by
reference counting, or it would stay allocated until the next collection.
"""

import gc
import json
import tracemalloc
from importlib import resources

import pytest

import confuse.cli
from confuse.cli import build_parser, main
from confuse.gallery import GALLERY


def write_table(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"m1": len(rows), "m2": len(rows[0]), "outputs": rows}))
    return str(path)


def garbage_after(capsys, argv) -> tuple[int, int]:
    """(exit code, objects the collector finds unreachable) after one command
    run with the collector off.  The parser is built first: argparse's help
    formatters form cycles once per process, while main still runs with the
    caller's collector state."""
    build_parser()
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = main(argv)
        found = gc.collect()
    finally:
        if collecting:
            gc.enable()
    capsys.readouterr()
    return code, found


NO_HIT_TABLE = [[2, 1, 2, 1, 2], [0, 1, 0, 1, 0]]  # no embedding on carriers up to 16


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_solve_leaves_no_cyclic_garbage(capsys, tmp_path, name):
    table = write_table(tmp_path, "t.json", [list(r) for r in GALLERY[name].table.outputs])
    assert garbage_after(capsys, ["solve", "--table", table, "--json"]) == (0, 0)
    assert garbage_after(capsys, ["solve", "--table", table, "--optimize-z", "--json"]) == (0, 0)


def test_solve_without_a_hit_leaves_no_cyclic_garbage(capsys, tmp_path):
    table = write_table(tmp_path, "none.json", NO_HIT_TABLE)
    assert garbage_after(capsys, ["solve", "--table", table]) == (3, 0)


def test_verify_and_baseline_leave_no_cyclic_garbage(capsys, tmp_path):
    table = write_table(tmp_path, "threshold.json", [[0, 0, 1], [0, 1, 1]])
    scheme = str(tmp_path / "scheme.json")
    argv = ["baseline", "--table", table, "--emit-scheme", scheme, "--json"]
    assert garbage_after(capsys, argv) == (0, 0)
    assert garbage_after(capsys, ["verify", "--scheme", scheme, "--table", table, "--json"]) == (0, 0)
    # negative control: one decoder cell flipped
    data = json.loads((resources.files("confuse.data") / "bespoke_row_reveal_2x3.json").read_text())
    data["dec"][0]["f"] = 4
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    reveal = write_table(tmp_path, "reveal.json", [[0, 0, 1], [2, 3, 4]])
    argv = ["verify", "--scheme", str(broken), "--table", reveal, "--json"]
    assert garbage_after(capsys, argv) == (2, 0)
    missing = str(tmp_path / "missing.json")
    assert garbage_after(capsys, ["verify", "--scheme", missing, "--table", table]) == (4, 0)


@pytest.mark.parametrize("argv", [
    ["catalog", "field", "--max", "64", "--reference", "--json"],
    ["catalog", "ring", "--max", "64", "--reference", "--json"],
    ["crt-equal", "--m", "6", "--check", "--json"],
], ids=["catalog-field", "catalog-ring", "crt-equal"])
def test_structure_commands_leave_no_cyclic_garbage(capsys, argv):
    assert garbage_after(capsys, argv) == (0, 0)


def test_blockcode_leaves_no_cyclic_garbage(capsys, tmp_path):
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    argv = ["blockcode", "--table", table, "--L", "64", "--trials", "20", "--json"]
    assert garbage_after(capsys, argv) == (0, 0)


def _raise(*args, **kwargs):
    raise RuntimeError("search failed")


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["exit0", "exit2", "exit3", "exit4", "exception"])
def test_main_gives_back_the_collector_state(capsys, tmp_path, monkeypatch, collecting, case):
    equal3 = write_table(tmp_path, "equal3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # threshold's row-mask baseline decodes another 2x3 table wrongly: exit 2
    scheme = str(tmp_path / "scheme.json")
    assert main(["baseline", "--table", write_table(tmp_path, "t.json", [[0, 0, 1], [0, 1, 1]]),
                 "--emit-scheme", scheme]) == 0
    argv, expected = {
        "exit0": (["crt-equal", "--m", "3"], 0),
        "exit2": (["verify", "--scheme", scheme, "--table",
                   write_table(tmp_path, "u.json", [[0, 1, 1], [0, 1, 1]])], 2),
        "exit3": (["solve", "--table", equal3, "--max-carrier", "2"], 3),
        "exit4": (["verify", "--scheme", str(tmp_path / "missing.json"), "--table", equal3], 4),
        "exception": (["solve", "--table", equal3], RuntimeError),
    }[case]
    if case == "exception":
        monkeypatch.setattr(confuse.cli, "search_expansions", _raise)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if expected is RuntimeError:
            with pytest.raises(RuntimeError, match="search failed"):
                main(argv)
        else:
            assert main(argv) == expected
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()


# set before the first run: the largest carrier's tables and one search's
# masks are a few MiB; with the search's closures in reference cycles and the
# collector paused, every searched carrier's tables stayed allocated
SOLVE_64_PEAK_BYTES = 16 << 20


def test_solve_to_carrier_64_stays_in_bounded_memory(capsys, tmp_path):
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    tracemalloc.start()
    try:
        code = main(["solve", "--table", table, "--max-carrier", "64", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < SOLVE_64_PEAK_BYTES
