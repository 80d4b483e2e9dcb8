import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from importlib import resources

import pytest

import confuse.cli
import confuse.expansion
import confuse.fields
import confuse.rings
import confuse.structures
from confuse.cli import build_parser, main
from confuse.errors import SchemaError
from confuse.schemes import load_custom_scheme


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_table(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"m1": len(rows), "m2": len(rows[0]), "outputs": rows}))
    return str(path)


@pytest.fixture()
def equal3_path(tmp_path):
    return write_table(tmp_path, "equal3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_catalog_reference_clean(capsys):
    code, out, _ = run(capsys, "catalog", "field", "--max", "20", "--reference")
    assert code == 0 and "clean" in out
    code, out, _ = run(capsys, "catalog", "ring", "--max", "20", "--reference", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diff"] == []
    assert payload["manifest"]["command"] == "catalog"


# sha256 of stdout with the manifest's timestamp line removed, per argument
# list after "catalog KIND --max SIZE".  The first four were recorded before
# the indented-JSON emitter, cyclic extension and per-carrier element names;
# the rest before encoded fragments, and they cover an empty catalog, a
# single trivial entry, a catalog without a reference and fields with h and g
CATALOG_DIGESTS = {
    ("field", "256", "--reference", "--json"): "c6c25e131e0f2ec634fb63ec4aae8d21d1ba990dd48be3296cd1c25e62bf7bdd",
    ("ring", "128", "--reference", "--json"): "bd0dc1d0acfaf3f326db7793a3678e92a367652fadb1b1fde3edaee11b514881",
    ("field", "256", "--reference"): "0328c51196b0de149a9a4716ed29a07151c4f7e02ef770c15aaa520666d78901",
    ("ring", "128", "--reference"): "b70971d03466481b7c68c7249dbbcf805be47c1d0d8ac4136af586fdf54eed74",
    ("field", "1", "--json"): "c8d5d6b59d37a858028cd758d8744c7d79414bf3aeb481543624c7e600f30155",
    ("field", "2", "--json"): "a92261341963ab809bd903a74e2ecfda8410eb207f30c4124390eea4864232da",
    ("ring", "19", "--json"): "4f51a34f2d78be83c9f2594dfef110fd0296f0b25f12158bbd0b6566fa6147bd",
    ("field", "64", "--reference", "--json"): "535bc9b9faee8ec8e728234f6d1eb898e92165d58e48ff1fa627349e288c512e",
}


def _digest_id(key) -> str:
    # ids leave --reference out, as every pin first named this way used it;
    # a run without it ends in -plain
    name = "-".join(k for k in key if k != "--reference")
    return name if "--reference" in key else name + "-plain"


@pytest.mark.parametrize("key", CATALOG_DIGESTS, ids=_digest_id)
def test_catalog_output_matches_pinned_digest(capsys, key):
    kind, size, *flags = key
    code, out, _ = run(capsys, "catalog", kind, "--max", size, *flags)
    assert code == 0
    kept = "".join(line for line in out.splitlines(True) if '"timestamp"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == CATALOG_DIGESTS[key]


def test_parser_is_built_once_and_keeps_no_options(capsys):
    build_parser.cache_clear()
    code, out, _ = run(capsys, "crt-equal", "--m", "3", "--json")
    assert code == 0 and json.loads(out)["m"] == 3
    code, out, _ = run(capsys, "crt-equal", "--m", "4")
    assert code == 0 and out.startswith("m=4 ")  # human output: --json did not carry over
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_catalog_json_round_trips_as_reference(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "ring", "--max", "19", "--json")
    assert code == 0
    ref = json.loads(out)["reference"]
    p = tmp_path / "ref.json"
    p.write_text(json.dumps(ref))
    code, out, _ = run(capsys, "catalog", "ring", "--max", "19", "--reference", str(p), "--json")
    assert code == 0
    assert json.loads(out)["diff"] == []


@pytest.fixture()
def refuse_reference(capsys, tmp_path, monkeypatch):
    """Runs catalog ring --max 8 against a reference and returns its exit
    code and stderr; the catalog builder is removed, so a refusal must come
    before any structure is built."""
    def refuse(reference):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(reference))
        monkeypatch.setattr("confuse.cli.catalog_rings", None)
        code, _, err = run(capsys, "catalog", "ring", "--max", "8", "--reference", str(path))
        return code, err
    return refuse


GOOD_ROW = {"label": "Z_8", "randomizer": ["1", "3"], "sets": [["0"], ["1", "3"]]}


def test_catalog_reference_not_an_object_exits_4(refuse_reference):
    code, err = refuse_reference([])
    assert code == 4 and "JSON object" in err


def test_catalog_reference_without_rows_exits_4(refuse_reference):
    code, err = refuse_reference({"max_carrier": 10})
    assert code == 4 and "'rows'" in err


def test_catalog_reference_non_int_max_carrier_exits_4(refuse_reference):
    code, err = refuse_reference({"max_carrier": "x", "rows": []})
    assert code == 4 and "'max_carrier'" in err


def test_catalog_reference_row_without_randomizer_exits_4(refuse_reference):
    row = {"label": "Z_8", "sets": GOOD_ROW["sets"]}
    code, err = refuse_reference({"max_carrier": 8, "rows": [GOOD_ROW, row]})
    assert code == 4 and "reference row 1" in err


def test_catalog_reference_row_not_an_object_exits_4(refuse_reference):
    code, err = refuse_reference({"max_carrier": 8, "rows": [["Z_8"]]})
    assert code == 4 and "reference row 0" in err


def test_catalog_reference_int_randomizer_exits_4(refuse_reference):
    code, err = refuse_reference({"max_carrier": 8, "rows": [GOOD_ROW | {"randomizer": 1}]})
    assert code == 4 and "reference row 0" in err


def test_catalog_reference_set_nested_too_deep_exits_4(refuse_reference):
    row = GOOD_ROW | {"sets": [[["0"]], [["1", "3"]]]}
    code, err = refuse_reference({"max_carrier": 8, "rows": [row]})
    assert code == 4 and "reference row 0" in err


def test_catalog_single_trivial_entry(capsys):
    code, out, _ = run(capsys, "catalog", "field", "--max", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 1
    assert payload["entries"][0]["trivial"] is True


def test_catalog_reference_mismatch_exits_2(capsys, tmp_path):
    bad = {"max_carrier": 19, "rows": [{"label": "Z_4", "randomizer": ["1", "3"],
                                        "sets": [["0"], ["1"], ["2"], ["3"]]}]}
    p = tmp_path / "bad_ref.json"
    p.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "catalog", "ring", "--max", "4", "--reference", str(p))
    assert code == 2


def test_solve_equal3(capsys, equal3_path):
    code, out, _ = run(capsys, "solve", "--table", equal3_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expansion"]["carrier"]["kind"] == "field"
    assert payload["expansion"]["map1"] == [0, 1, 2]
    assert payload["verification"]["secure"] is True
    assert payload["verification"]["rate1"]["bits"] == "1.584963"
    # emitted scheme loads back and verifies through the verify subcommand
    assert payload["scheme"]["m1"] == 3


def test_solve_round_trip_through_verify(capsys, tmp_path, equal3_path):
    scheme_path = str(tmp_path / "scheme.json")
    code, _, _ = run(capsys, "solve", "--table", equal3_path, "--emit-scheme", scheme_path)
    assert code == 0
    code, out, _ = run(capsys, "verify", "--scheme", scheme_path, "--table", equal3_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["correct"] and payload["report"]["secure"]
    assert payload["report"]["leakage_bits"] == 0.0


def test_solve_not_found_exit_3(capsys, equal3_path):
    code, _, err = run(capsys, "solve", "--table", equal3_path, "--max-carrier", "2")
    assert code == 3


def test_max_carrier_zero_exits_3(capsys, equal3_path):
    # an explicit 0 is a bound, not a request for the default
    code, _, err = run(capsys, "solve", "--table", equal3_path, "--max-carrier", "0")
    assert code == 3 and "size <= 0" in err


@pytest.mark.parametrize("argv", [
    ("catalog", "ring", "--max", "513"),
    ("catalog", "field", "--max", "4097"),
    ("solve", "--max-carrier", "513"),
], ids=["catalog-ring-513", "catalog-field-4097", "solve-513"])
def test_over_bound_exits_4_before_building(capsys, equal3_path, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a carrier was built past the bound")

    for module in (confuse.fields, confuse.rings, confuse.structures, confuse.expansion):
        for name in ("field_make", "enumerate_subgroups"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    if argv[0] == "solve":
        argv += ("--table", equal3_path)
    code, _, err = run(capsys, *argv)
    assert code == 4 and "exceeds" in err


def test_solve_optimize_z(capsys, tmp_path):
    table = write_table(tmp_path, "nu.json", [[2, 2], [0, 1]])
    code, out, _ = run(capsys, "solve", "--table", table, "--optimize-z", "--json")
    assert code == 0
    payload = json.loads(out)
    r1 = payload["verification"]["rate1"]["bits"]
    r2 = payload["verification"]["rate2"]["bits"]
    assert float(r2) == 1.0
    assert float(r1) <= 2.0


def test_verify_bundled_bespoke(capsys, tmp_path):
    scheme = str(resources.files("confuse.data") / "bespoke_row_reveal_2x3.json")
    table = write_table(tmp_path, "reveal.json", [[0, 0, 1], [2, 3, 4]])
    code, out, _ = run(capsys, "verify", "--scheme", scheme, "--table", table, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["rate2"]["bits"] == "1.584963"


def test_verify_corrupted_scheme_exit_2(capsys, tmp_path):
    data = json.loads((resources.files("confuse.data") / "bespoke_row_reveal_2x3.json").read_text())
    data["dec"][0]["f"] = 4  # flip one decoder cell
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data))
    table = write_table(tmp_path, "reveal.json", [[0, 0, 1], [2, 3, 4]])
    code, out, _ = run(capsys, "verify", "--scheme", str(p), "--table", table, "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["report"]["correct"] is False
    assert payload["report"]["correctness_witness"] is not None


def test_verify_total_weight_past_int64_exits_4(capsys, tmp_path):
    # counts are int64: a support weighing 2**63 in all is refused
    scheme = {
        "m1": 1, "m2": 1, "alphabets1": [1], "alphabets2": [1],
        "z_support": [{"atom": 0, "weight": 2**62}, {"atom": 1, "weight": 2**62}],
        "enc1": [[[0], [0]]], "enc2": [[[0], [0]]],
        "dec": [{"x1": [0], "x2": [0], "f": 0}],
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(scheme))
    table = write_table(tmp_path, "one.json", [[0]])
    code, _, err = run(capsys, "verify", "--scheme", str(path), "--table", table)
    assert code == 4
    assert "int64" in err
    scheme["z_support"][1]["weight"] = 2**62 - 1
    path.write_text(json.dumps(scheme))
    code, _, _ = run(capsys, "verify", "--scheme", str(path), "--table", table)
    assert code == 0


def test_verify_with_input_dist(capsys, tmp_path, equal3_path):
    scheme_path = str(tmp_path / "scheme.json")
    run(capsys, "solve", "--table", equal3_path, "--emit-scheme", scheme_path)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"probs": [["1/3", "1/9", "1/18"], ["1/18", "1/9", "1/9"], ["1/9", "1/18", "1/18"]]}))
    code, out, _ = run(capsys, "verify", "--scheme", scheme_path, "--table", equal3_path,
                       "--input-dist", str(dist), "--json")
    assert code == 0
    assert json.loads(out)["report"]["leakage_bits"] == 0.0


def test_input_error_exit_4(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "verify", "--scheme", missing, "--table", missing)
    assert code == 4 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--table", str(bad))
    assert code == 4


def test_crt_equal_cli(capsys):
    code, out, _ = run(capsys, "crt-equal", "--m", "6", "--check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [[2, 1], [3, 1]]
    assert payload["atoms"] == 8640
    assert payload["check"]["secure"] is True


def test_crt_equal_check_imports_no_numpy_ma():
    # np.unique imports numpy.ma on its first call; checking crt-equal needs it nowhere
    code = ("import sys\nfrom confuse.cli import main\n"
            "assert main(['crt-equal', '--m', '7', '--check']) == 0\n"
            "sys.exit('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(confuse.fields.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True).returncode == 0


@pytest.mark.parametrize("m", range(8, 13))
def test_crt_equal_check_is_exact_past_the_atom_cap(capsys, m):
    # m! permutations x digits is past the atom cap; the per-pair counts are not
    code, out, _ = run(capsys, "crt-equal", "--m", str(m), "--check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["atoms"] == math.factorial(m) * math.prod(
        (p**k - 1) * p**k for p, k in payload["factors"])
    check = payload["check"]
    assert check["correct"] and check["secure"] and check["leakage_exact_zero"]
    assert check["correctness_witness"] is None and check["security_witness"] is None


def test_crt_equal_past_pair_bound_check_exits_4_fast(capsys):
    # m = 16: 57,600 images per input pair, past the 32,768 cap; refused
    # before anything is built
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run(capsys, "crt-equal", "--m", "16", "--check", "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 1 << 20
    assert code == 4
    assert "57600 images per input pair exceed the cap of 32768" in err


def test_baseline_cli(capsys, tmp_path):
    table = write_table(tmp_path, "threshold.json", [[0, 0, 1], [0, 1, 1]])
    code, out, _ = run(capsys, "baseline", "--table", table, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["rate1"]["bits"] == "2.000000"
    assert payload["verification"]["rate2"]["bits"] == "2.000000"


def test_baseline_oversized_support_exits_4(capsys, tmp_path):
    # 7! * 2^7 = 645,120 atoms: past the cap, refused before they are built
    table = write_table(tmp_path, "seven_rows.json", [[r % 2] for r in range(7)])
    code, _, err = run(capsys, "baseline", "--table", table, "--json")
    assert code == 4
    assert "645120 baseline atoms exceed" in err


def test_human_baseline_does_not_serialize(capsys, tmp_path):
    # a 5 x 5 table with 3 labels: 5! * 3^5 = 29,160 atoms.  Human output
    # prints rates and verdicts only, so no scheme JSON is built: the code
    # tables and per-pair counts stay within 16 MiB, where the serialized
    # scheme's nested lists alone take several times that
    table = write_table(tmp_path, "five.json", [[(r * c + r) % 3 for c in range(5)] for r in range(5)])
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "baseline", "--table", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "correct: True  secure: True" in out
    assert peak < 16 << 20


@pytest.mark.parametrize("command", ["solve", "baseline"])
def test_scheme_json_is_built_only_when_written(capsys, tmp_path, equal3_path, command, monkeypatch):
    calls = []
    real = confuse.cli.serialize_scheme
    monkeypatch.setattr(confuse.cli, "serialize_scheme", lambda s: calls.append(s) or real(s))
    assert run(capsys, command, "--table", equal3_path)[0] == 0
    assert not calls
    emitted = tmp_path / "scheme.json"
    assert run(capsys, command, "--table", equal3_path, "--emit-scheme", str(emitted))[0] == 0
    code, out, _ = run(capsys, command, "--table", equal3_path, "--json")
    assert code == 0 and len(calls) == 2
    assert json.loads(emitted.read_text()) == json.loads(out)["scheme"]


def test_blockcode_cli(capsys, tmp_path):
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    code, out, _ = run(capsys, "blockcode", "--table", table, "--L", "16",
                       "--epsilon", "0.15", "--trials", "10", "--seed", "7",
                       "--identity", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["H_bits"] - 1.5612781244591332) < 1e-9
    assert payload["rows"] == 16
    assert payload["empirical_error"] == 0.0
    assert payload["manifest"]["seed"] == 7


def test_blockcode_computes_the_entropy_of_U_once(capsys, tmp_path, monkeypatch):
    import confuse.blockcode

    calls = []
    entropy_of_U = confuse.blockcode.entropy_of_U

    def spy(*args):
        calls.append(args)
        return entropy_of_U(*args)

    monkeypatch.setattr(confuse.blockcode, "entropy_of_U", spy)
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    code, out, _ = run(capsys, "blockcode", "--table", table, "--L", "16",
                       "--trials", "3", "--json")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["dist_U"] == {"0": "1/4", "1": "3/8", "2": "3/8"}


def test_blockcode_identity_takes_rows_L_only(capsys, tmp_path):
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    code, out, err = run(capsys, "blockcode", "--table", table, "--L", "8", "--rows", "3",
                         "--identity", "--json")
    assert code == 4 and out == "" and "identity matrix has rows = L = 8, got rows 3" in err
    code, out, _ = run(capsys, "blockcode", "--table", table, "--L", "8", "--rows", "8",
                       "--identity", "--trials", "5")
    assert code == 0 and "rows=8" in out


def test_identical_runs_identical_output_modulo_timestamp(capsys, tmp_path, equal3_path):
    def canon(txt):
        payload = json.loads(txt)
        payload["manifest"].pop("timestamp")
        return payload

    _, out1, _ = run(capsys, "solve", "--table", equal3_path, "--json")
    _, out2, _ = run(capsys, "solve", "--table", equal3_path, "--json")
    assert canon(out1) == canon(out2)


def test_no_subcommand_accepts_jobs():
    # every command runs single-threaded; --jobs is rejected everywhere
    parser = build_parser()
    for argv in (["catalog", "field", "--max", "4"], ["solve", "--table", "t.json"],
                 ["verify", "--scheme", "s.json", "--table", "t.json"],
                 ["blockcode", "--table", "t.json", "--L", "4"],
                 ["crt-equal", "--m", "3"], ["baseline", "--table", "t.json"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--jobs", "2"])
        assert not hasattr(parser.parse_args(argv), "jobs")


@pytest.mark.parametrize("probs", [
    [["1/4", "1/4", "1/4", "1/4"]],  # one row of four entries for a 2x2 table
    [["1/2", "1/2"], ["1/2", "1/2"]],  # sums to 2
    [["1/2", "-1/4"], ["1/2", "1/4"]],  # a negative entry
    [[None, "1/2"], ["1/4", "1/4"]],  # an entry that is no number
    [[True, False], [False, False]],  # booleans, which Fraction reads as 1 and 0
    [["abc", "1/4"], ["1/4", "1/4"]],  # a string that is no fraction
])
def test_malformed_input_dist_exits_4(capsys, tmp_path, probs):
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    scheme_path = str(tmp_path / "scheme.json")
    assert run(capsys, "solve", "--table", table, "--emit-scheme", scheme_path)[0] == 0
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"probs": probs}))
    code, _, err = run(capsys, "verify", "--scheme", scheme_path, "--table", table,
                       "--input-dist", str(dist))
    assert code == 4 and "input distribution" in err
    code, _, err = run(capsys, "blockcode", "--table", table, "--L", "8", "--trials", "2",
                       "--input-dist", str(dist))
    assert code == 4 and "input distribution" in err


def test_table_file_that_is_not_an_object_exits_4(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([[0, 1], [1, 0]]))
    code, _, err = run(capsys, "solve", "--table", str(path))
    assert code == 4 and "JSON object" in err


def _solve_outputs(capsys, tmp_path, outputs):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"outputs": outputs}))
    return run(capsys, "solve", "--table", str(path))


def test_outputs_not_a_list_exits_4(capsys, tmp_path):
    code, _, err = _solve_outputs(capsys, tmp_path, {"0": [0, 1]})
    assert code == 4 and "nonempty list of rows" in err


def test_empty_outputs_exits_4(capsys, tmp_path):
    code, _, err = _solve_outputs(capsys, tmp_path, [])
    assert code == 4 and "nonempty list of rows" in err


def test_outputs_row_not_a_list_exits_4(capsys, tmp_path):
    code, _, err = _solve_outputs(capsys, tmp_path, [1, 2])
    assert code == 4 and "row of outputs must be a list" in err


def test_empty_outputs_row_exits_4(capsys, tmp_path):
    code, _, err = _solve_outputs(capsys, tmp_path, [[], []])
    assert code == 4 and "nonempty and equally long" in err


def test_ragged_outputs_rows_exit_4(capsys, tmp_path):
    code, _, err = _solve_outputs(capsys, tmp_path, [[0, 1], [1]])
    assert code == 4 and "nonempty and equally long" in err


@pytest.mark.parametrize("entry", [1.0, 1.5, "1", True, None, [1]])
def test_non_integer_outputs_entry_exits_4(capsys, tmp_path, entry):
    code, _, err = _solve_outputs(capsys, tmp_path, [[0, entry], [1, 0]])
    assert code == 4 and "integer label" in err


def test_verify_scheme_of_another_shape_exits_4(capsys, tmp_path):
    scheme = {
        "m1": 1, "m2": 1, "alphabets1": [1], "alphabets2": [1],
        "z_support": [{"atom": 0}], "enc1": [[[0]]], "enc2": [[[0]]],
        "dec": [{"x1": [0], "x2": [0], "f": 0}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(scheme))
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    code, _, err = run(capsys, "verify", "--scheme", str(path), "--table", table)
    assert code == 4 and "1 x 1" in err


def test_verify_object_atom_exits_4(capsys, tmp_path):
    data = json.loads((resources.files("confuse.data") / "bespoke_row_reveal_2x3.json").read_text())
    data["z_support"][0]["atom"] = {"gamma": 1}
    path = tmp_path / "object_atom.json"
    path.write_text(json.dumps(data))
    table = write_table(tmp_path, "reveal.json", [[0, 0, 1], [2, 3, 4]])
    code, _, err = run(capsys, "verify", "--scheme", str(path), "--table", table)
    assert code == 4 and "object" in err


# JSON true/false where the loader needs an integer -> the refusal it names
BOOLEAN_SCHEME_FIELDS = {
    "m1": (lambda d: d.update(m1=True), "m1/m2 must be positive integers"),
    "m2": (lambda d: d.update(m2=True), "m1/m2 must be positive integers"),
    "alphabet_size": (lambda d: d["alphabets1"].__setitem__(0, True), "alphabets must be"),
    "weight": (lambda d: [row.update(weight=True) for row in d["z_support"]], "weights must be"),
    "dec_label": (lambda d: [row.update(f=bool(row["f"])) for row in d["dec"]], "dec outputs must be"),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_SCHEME_FIELDS))
def test_boolean_scheme_fields_are_refused(capsys, tmp_path, name):
    # a boolean is not an integer: with every weight true, or every dec
    # label true/false, the threshold baseline would otherwise verify
    edit, message = BOOLEAN_SCHEME_FIELDS[name]
    data = json.loads((resources.files("confuse.data") / "baseline_threshold_2x3.json").read_text())
    edit(data)
    with pytest.raises(SchemaError, match=message):
        load_custom_scheme(json.loads(json.dumps(data)))
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(data))
    table = write_table(tmp_path, "threshold.json", [[0, 0, 1], [0, 1, 1]])
    code, out, err = run(capsys, "verify", "--scheme", str(path), "--table", table)
    assert code == 4 and out == "" and message in err


def _blockcode_refusal(capsys, tmp_path, monkeypatch, *flags):
    """Exit code and stderr of blockcode on the AND table; the table loader
    is removed, so a refusal must come before anything is read."""
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    monkeypatch.setattr("confuse.cli._load_table", None)
    code, _, err = run(capsys, "blockcode", "--table", table, *flags)
    return code, err


def test_blockcode_L_below_1_exits_4(capsys, tmp_path, monkeypatch):
    code, err = _blockcode_refusal(capsys, tmp_path, monkeypatch, "--L", "0")
    assert code == 4 and "--L" in err


def test_blockcode_negative_trials_exits_4(capsys, tmp_path, monkeypatch):
    code, err = _blockcode_refusal(capsys, tmp_path, monkeypatch, "--L", "8", "--trials", "-3")
    assert code == 4 and "--trials" in err


def test_blockcode_rows_outside_1_to_L_exits_4(capsys, tmp_path, monkeypatch):
    for rows in ("0", "9"):
        code, err = _blockcode_refusal(capsys, tmp_path, monkeypatch, "--L", "8", "--rows", rows)
        assert code == 4 and "--rows" in err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "1e308", "-inf"])
def test_blockcode_non_finite_epsilon_exits_4(capsys, tmp_path, epsilon):
    # (H_q(U) + epsilon) * L is not finite: refused before A is drawn
    table = write_table(tmp_path, "and.json", [[0, 0], [0, 1]])
    code, _, err = run(capsys, "blockcode", "--table", table, "--L", "8", f"--epsilon={epsilon}")
    assert code == 4 and "epsilon" in err and "Traceback" not in err


def test_blockcode_negative_max_carrier_exits_4(capsys, tmp_path, monkeypatch):
    code, err = _blockcode_refusal(capsys, tmp_path, monkeypatch, "--L", "8", "--max-carrier", "-5")
    assert code == 4 and "--max-carrier" in err


def _solve_refusal(capsys, equal3_path, monkeypatch, *flags):
    """Exit code and stderr of solve on equal3 with the table loader
    removed, so a refusal must come before anything is read."""
    monkeypatch.setattr("confuse.cli._load_table", None)
    code, _, err = run(capsys, "solve", "--table", equal3_path, *flags)
    return code, err


def test_solve_limit_0_exits_4(capsys, equal3_path, monkeypatch):
    code, err = _solve_refusal(capsys, equal3_path, monkeypatch, "--limit", "0")
    assert code == 4 and "--limit" in err


def test_solve_negative_limit_exits_4(capsys, equal3_path, monkeypatch):
    code, err = _solve_refusal(capsys, equal3_path, monkeypatch, "--limit", "-2")
    assert code == 4 and "--limit" in err


def test_solve_negative_max_carrier_exits_4(capsys, equal3_path, monkeypatch):
    code, err = _solve_refusal(capsys, equal3_path, monkeypatch, "--max-carrier", "-5")
    assert code == 4 and "--max-carrier" in err


def test_solve_all_subsets_without_optimize_z_exits_4(capsys, equal3_path, monkeypatch):
    code, err = _solve_refusal(capsys, equal3_path, monkeypatch, "--all-subsets")
    assert code == 4 and "--all-subsets" in err and "--optimize-z" in err


def test_solve_limit_1_reports_one_hit(capsys, equal3_path):
    code, out, _ = run(capsys, "solve", "--table", equal3_path, "--limit", "1", "--json")
    assert code == 0 and json.loads(out)["hits_within_bound"] == 1


def test_solve_converse_reports_the_emitted_rates(capsys, tmp_path):
    # over Z_4 the plain scheme sends 2 bits each way; the optimized noise
    # support meets the (log2 3, 1) bound
    table = write_table(tmp_path, "t.json", [[0, 0], [1, 2], [2, 1]])
    code, out, _ = run(capsys, "solve", "--table", table, "--json")
    conv = json.loads(out)["converse"]
    assert code == 0 and conv["converse_bits"] == ["1.584963", "1.000000"]
    assert conv["achieved_bits"] == ["2.000000", "2.000000"] and conv["optimal"] is False
    code, out, _ = run(capsys, "solve", "--table", table, "--optimize-z", "--json")
    conv = json.loads(out)["converse"]
    assert code == 0 and conv["achieved_bits"] == ["1.584963", "1.000000"] and conv["optimal"] is True
