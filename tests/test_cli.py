import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from beauville.constructions import H4, Abelian2
from beauville.core import MalformedElementError
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
from beauville.structures import MixedQuadruple, UnmixedStructure, sigma_set


# The checkout's sources, so that the CLI runs without an install.
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_bv(*args, stdin=None):
    pythonpath = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "beauville.cli", *args],
        input=stdin, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
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


def test_coordinate_literals_reduce_modulo_the_group():
    assert element_from_json(group_from_cli("ab2:5"), [7, 0]) == (2, 0)
    assert element_from_json(group_from_cli("dih:3"), [5, 0]) == (2, 0)
    assert element_from_json(group_from_cli("dic:3"), [7, 1]) == (1, 1)
    # The exponent of x is not reduced: x^2 = a^s in a dicyclic group.
    with pytest.raises(MalformedElementError):
        element_from_json(group_from_cli("dih:3"), [0, 2])


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


def test_cli_check_mixed_passes_gallery_structures():
    # H4(SL(2,p)) is decided from class labels, past any closure budget.
    for p in (11, 31, 71):
        M = h4_mixed_structure(p)
        chk = run_bv("check-mixed", "--stdin", "--json",
                     stdin=json.dumps(structure_to_json(M)))
        assert chk.returncode == 0, (p, chk.stderr)
        assert json.loads(chk.stdout)["verdict"] == "pass"


def test_cli_check_mixed_undecided_exit(tmp_path, monkeypatch):
    # Over SL(2,3) the index-2 subgroup (1,152 of the 2,304 elements) is
    # closed; a subgroup cap below its order leaves the structure undecided.
    H = SL2Group(3)
    G = H4(H)
    B, S = H.generators
    path = tmp_path / "h4-sl2-3.json"
    path.write_text(json.dumps(structure_to_json(
        MixedQuadruple(G, (B, S, 2), (S, B, 2), G.coset_rep))))
    monkeypatch.setenv("BV_CAPS", "subgroup=1000")
    chk = run_bv("check-mixed", "--file", str(path), "--json")
    assert chk.returncode == 2, chk.stderr
    report = json.loads(chk.stdout)
    assert report["verdict"] == "undecided"
    assert "1152 elements" in report["conditions"][0]["detail"]


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


def test_cli_product_shorthand_matches_json_descriptor():
    factors = [{"kind": "dih", "n": 3}, {"kind": "cyc", "n": 2}]
    reports = []
    for group in ("prod(dih:3,cyc:2)", json.dumps({"kind": "prod", "factors": factors})):
        proc = run_bv("search", "--group", group, "--limit", "1", "--json")
        assert proc.returncode == 0, proc.stderr
        reports.append(dict(json.loads(proc.stdout), elapsed_ms=None))
    assert reports[0] == reports[1]
    assert reports[0]["group"] == {"kind": "prod", "factors": factors}


def _gallery_json(*args):
    proc = run_bv("gallery", *args, "--json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_gallery_zero_based():
    def shift(literal):
        return re.sub(r"\d+", lambda m: str(int(m.group()) + 1), literal)

    args = ("alt-type-2-3-84", "--n", "16")
    zero, one = _gallery_json(*args, "--zero-based"), _gallery_json(*args)
    assert zero["c"] == "(1,2,3)(4,5,6)(7,8,9)(10,11,12)(13,14,15)"
    assert {key: shift(zero[key]) for key in ("a", "c", "witness")} == {
        key: one[key] for key in ("a", "c", "witness")}
    assert _gallery_json("sym-thm", "--n", "8", "--zero-based")["a1"] == "(0,4,3)(1,5)"
    args = ("h4-mixed", "--p", "11")
    assert _gallery_json(*args, "--zero-based") == _gallery_json(*args)


def test_cli_reports_carry_no_seed():
    search = run_bv("search", "--group", "ab2:5", "--limit", "1", "--json")
    scan = run_bv("scan-catalogue", "--max-order", "16", "--mode", "unmixed", "--json")
    for proc in (search, scan):
        assert proc.returncode == 0
        assert "seed" not in json.loads(proc.stdout)
    assert run_bv("search", "--group", "ab2:5", "--threads", "2").returncode == 64
    assert run_bv("search", "--group", "ab2:5", "--seed", "1").returncode == 64


def test_cli_search_limit_at_the_count_is_complete():
    for limit, complete in (("11520", True), ("11519", False)):
        proc = run_bv("search", "--group", "ab2:5", "--limit", limit, "--json")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["complete"] is complete and len(data["found"]) == 11519 + complete, limit


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
