import json
import subprocess
import sys

from beauville.constructions import Abelian2
from beauville.gallery import h4_mixed_structure, sym_structure
from beauville.literals import (
    element_from_json,
    element_to_json,
    group_from_cli,
    parse_element,
    structure_from_json,
    structure_to_json,
)
from beauville.matgroups import SL2Group
from beauville.perms import SymmetricGroup
from beauville.structures import UnmixedStructure, sigma_set


def run_bv(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "beauville.cli", *args],
        input=stdin, capture_output=True, text=True,
    )
    return proc


def test_element_roundtrips():
    cases = [
        (SymmetricGroup(8), "(1,2,3)(4,5)"),
        (Abelian2(5), "(2,3)"),
        (SL2Group(7), "[[0,1],[6,0]]"),
    ]
    for G, literal in cases:
        x = parse_element(G, literal)
        assert element_from_json(G, element_to_json(G, x)) == x


def test_structure_json_roundtrip_unmixed():
    v = sym_structure(8)
    data = structure_to_json(v)
    w = structure_from_json(json.loads(json.dumps(data)))
    assert (w.a1, w.c1, w.a2, w.c2) == (v.a1, v.c1, v.a2, v.c2)
    assert w.group.descriptor() == v.group.descriptor()


def test_structure_json_roundtrip_mixed():
    M = h4_mixed_structure(11)
    data = structure_to_json(M)
    W = structure_from_json(json.loads(json.dumps(data)))
    assert W.a == M.a and W.c == M.c and W.g == M.g


def test_group_from_cli_forms():
    assert group_from_cli("ab2:5").order == 25
    assert group_from_cli('{"kind":"sl2","p":7}').order == 336
    assert group_from_cli("h4:sl2:11").order == 4 * 1320 * 1320


def test_cli_gallery_pipe_check():
    gal = run_bv("gallery", "sym-thm", "--n", "8")
    assert gal.returncode == 0
    chk = run_bv("check-unmixed", "--stdin", stdin=gal.stdout)
    assert chk.returncode == 0
    report = json.loads(chk.stdout)
    assert report["verdict"] == "pass"


def test_cli_check_fail_exit_code_and_witness():
    proc = run_bv("check-unmixed", "--group", "ab2:5",
                  "--a1", "(1,0)", "--c1", "(0,1)",
                  "--a2", "(1,0)", "--c2", "(0,1)", "--json")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["verdict"] == "fail"
    assert report["witness"] is not None


def test_cli_check_fail_witness_on_sym(tmp_path):
    # The same pair twice: the S_n witness is a permutation in both sigma sets.
    v = sym_structure(8)
    path = tmp_path / "clash.json"
    clash = UnmixedStructure(v.group, v.a1, v.c1, v.a1, v.c1)
    path.write_text(json.dumps(structure_to_json(clash)))
    proc = run_bv("check-unmixed", "--file", str(path), "--json")
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] == "fail"
    witness = parse_element(v.group, report["witness"])
    assert witness != v.group.identity
    assert witness in sigma_set(v.group, v.a1, v.c1)


def test_cli_count_abelian_json():
    proc = run_bv("count-abelian", "--n", "5", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["solutions"] == 24
    assert data["orbits"] == 1


def test_cli_check_mixed_undecided_exit():
    gal = run_bv("gallery", "h4-mixed", "--p", "11", "--json")
    assert gal.returncode == 0
    chk = run_bv("check-mixed", "--stdin", "--json", stdin=gal.stdout)
    assert chk.returncode == 2  # subgroup beyond closure budget: undecided


def test_cli_reality_mixed():
    gal = run_bv("gallery", "h4-mixed", "--p", "11", "--json")
    rea = run_bv("reality", "--stdin", "--json", stdin=gal.stdout)
    assert rea.returncode == 0
    data = json.loads(rea.stdout)
    assert data["biholo_conjugate"] is False


def test_cli_wallpaper_scan():
    proc = run_bv("wallpaper-scan", "--d", "3", "--m", "2", "--json")
    data = json.loads(proc.stdout)
    assert data["minimum"] >= 3


def test_cli_search_json():
    proc = run_bv("search", "--group", "ab2:5", "--limit", "2", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["found"]) == 2
    # emitted structures re-parse and re-check
    w = structure_from_json(data["found"][0])
    from beauville.structures import check_unmixed

    assert check_unmixed(w.group, w).passed


def test_cli_reports_carry_no_seed():
    search = run_bv("search", "--group", "ab2:5", "--limit", "1", "--json")
    scan = run_bv("scan-catalogue", "--max-order", "16", "--mode", "unmixed", "--json")
    for proc in (search, scan):
        assert proc.returncode == 0
        assert "seed" not in json.loads(proc.stdout)
    assert run_bv("search", "--group", "ab2:5", "--threads", "2").returncode == 64
    assert run_bv("search", "--group", "ab2:5", "--seed", "1").returncode == 64


def test_cli_usage_errors():
    assert run_bv("gallery", "unknown-name").returncode == 64
    assert run_bv("nope").returncode == 64
    assert run_bv("check-unmixed").returncode == 64
    assert run_bv("gallery", "sym-thm", "--n", "9").returncode == 64
    for limit in ("0", "-1"):
        proc = run_bv("search", "--group", "ab2:5", "--limit", limit, "--json")
        assert proc.returncode == 64 and proc.stdout == ""
    for flags in (("--type1", "3,3"), ("--type2", "3,0,5")):
        proc = run_bv("search", "--group", "sl2:5", *flags, "--json")
        assert proc.returncode == 64 and proc.stdout == ""
    for budget in ("0", "-1"):
        proc = run_bv("hunt-reality", "--group", "sym:8", "--want", "not-biholo",
                      "--budget", budget, "--json")
        assert proc.returncode == 64 and proc.stdout == ""


def test_cli_malformed_structure_files_are_usage_errors():
    # A missing field or a malformed literal is a usage error (64), not a
    # failed check (1).
    sl2 = {"group": {"kind": "sl2", "p": 7}, "kind": "unmixed", "a1": 5,
           "c1": [[0, 1], [6, 0]], "a2": [[1, 1], [0, 1]], "c2": [[1, 0], [1, 1]]}
    cases = [
        (("check-unmixed", "--stdin"),
         '{"group": {"kind": "sym", "n": 8}, "kind": "unmixed", "a1": "(1,2)"}', "'c1'"),
        (("reality", "--stdin"), json.dumps(sl2), "5"),
        (("search", "--group", '{"kind": "sym"}'), None, "'n'"),
    ]
    for args, stdin, named in cases:
        proc = run_bv(*args, stdin=stdin)
        assert proc.returncode == 64 and proc.stdout == "", args
        assert proc.stderr.startswith("error:") and named in proc.stderr, proc.stderr


def test_cli_hunt_reality_exit_codes():
    # Nothing found exits 1 only when the hunt was complete.  The sl2:7
    # hunt keeps 16 pairs per fingerprint, so finding no real structure
    # within its budget is undecided (2); alt:4 has no hyperbolic pair,
    # so its empty hunt is complete (1).
    for group, budget, complete, code in (("sl2:7", "10", False, 2), ("alt:4", "5000", True, 1)):
        proc = run_bv("hunt-reality", "--group", group, "--want", "real",
                      "--budget", budget, "--json")
        data = json.loads(proc.stdout)
        assert data["found"] == [] and data["complete"] is complete, group
        assert proc.returncode == code, group


def test_cli_gallery_names_the_parser_flag():
    proc = run_bv("gallery", "sl2-q1q2", "--p", "71", "--q1", "5", "--q2", "7")
    assert proc.returncode == 64
    assert "--mode" in proc.stderr and "--case" not in proc.stderr


def test_cli_verify_paper_single():
    proc = run_bv("verify-paper", "--only", "coset-dichotomy-11", "--json")
    data = json.loads(proc.stdout)
    assert data["criteria"][0]["ok"] is True
    assert proc.returncode == 0


def test_cli_rejects_malformed_caps(monkeypatch, capsys):
    from beauville.cli import main

    argv = ["check-unmixed", "--group", "ab2:5", "--a1", "(1,0)", "--c1", "(0,1)",
            "--a2", "(1,2)", "--c2", "(3,4)", "--json"]
    for entry in ("closure=1e5", "clousre=10", "class", "subgroup=-3"):
        monkeypatch.setenv("BV_CAPS", f"class=1000,{entry}")
        assert main(argv) == 64
        assert repr(entry) in capsys.readouterr().err
    monkeypatch.setenv("BV_CAPS", "closure=100000, class=1000,")
    assert main(argv) == 0
