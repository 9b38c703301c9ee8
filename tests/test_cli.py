import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zpindex
from zpindex.certificates import (
    ambient_sphere_bound,
    certificate_to_json_dict,
    coindex_lower,
    index_upper,
)
from zpindex.cli import build_parser, canonical_json, main
from zpindex.cubical import GridSpec, build_pp_xm
from zpindex.simplicial import (
    complex_from_json_dict,
    complex_to_json_dict,
    content_key,
    e_n_zp,
    make_discrete_zp,
)
from zpindex.verify import check_vertex_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


CERTIFIED_PIPELINE = {"enzp", "join", "subdivide", "homology", "search-map", "coind", "ind",
                      "periodic", "join-periodic", "config-space", "cubical-homology",
                      "obstruction-report"}


class TestSubcommandTable:
    """Each subcommand is declared once, on its parser, which binds its handler."""

    def test_parser_matches_handlers(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == CERTIFIED_PIPELINE | {"run"}
        for name in CERTIFIED_PIPELINE:
            assert callable(sub.choices[name].get_default("handler")), name

    def test_parser_is_built_once(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "enzp", "params": {"n": 0, "p": 2}}))
        for argv in (["enzp", "--n", "0", "--p", "2"], ["run", "--manifest", str(manifest)]) * 2:
            assert main(argv) == 0
        capsys.readouterr()
        assert build_parser.cache_info().misses == 1


class TestSubcommands:
    def test_enzp_homology(self, capsys):
        code, art = run(capsys, "enzp", "--n", "2", "--p", "2", "--homology")
        assert code == 0
        assert art["result"]["homology"]["betti"] == [1, 0, 1]
        assert art["result"]["complex"]["vertices"] == 6

    def test_periodic_counts(self, capsys):
        code, art = run(capsys, "periodic", "--shift", "sigma", "--n", "5")
        assert code == 0
        assert art["result"]["rows"][0]["count"] == 30

    def test_periodic_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        code, _ = run(capsys, "periodic", "--shift", "sigma", "--n", "1,2,3",
                      "--csv", str(csv_path))
        assert code == 0
        assert csv_path.read_text().splitlines() == [
            "period,count,orbit_count", "1,0,0", "2,6,3", "3,6,2"]

    def test_coind_xm_witness(self, capsys):
        code, art = run(capsys, "coind", "--space", "Xm", "--N", "1", "--delta",
                        "3/10", "--m", "1", "--p", "3", "--grid", "6",
                        "--target", "0")
        assert code == 0
        cert = art["result"]["certificate"]
        assert cert["kind"] == "map_witness" and cert["value"] == 0

    def test_join_subdivide_homology_pipeline(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        code, art = run(capsys, "enzp", "--n", "0", "--p", "2")
        a.write_text(json.dumps(art["result"]["complex"]))
        code, art = run(capsys, "join", "--left", str(a), "--right", str(a))
        assert code == 0
        b = tmp_path / "b.json"
        b.write_text(json.dumps(art["result"]["complex"]))
        code, art = run(capsys, "subdivide", "--input", str(b), "--depth", "1")
        assert code == 0
        c = tmp_path / "c.json"
        c.write_text(json.dumps(art["result"]["complex"]))
        code, art = run(capsys, "homology", "--input", str(c), "--coeff", "2")
        assert code == 0
        assert art["result"]["homology"]["betti"] == [1, 1]

    def test_search_map(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        tgt = tmp_path / "t.json"
        _, art = run(capsys, "enzp", "--n", "0", "--p", "2")
        src.write_text(json.dumps(art["result"]["complex"]))
        _, art = run(capsys, "enzp", "--n", "1", "--p", "2")
        tgt.write_text(json.dumps(art["result"]["complex"]))
        code, art = run(capsys, "search-map", "--source", str(src), "--target", str(tgt))
        assert code == 0 and art["result"]["found"]
        code, art = run(capsys, "search-map", "--source", str(tgt), "--target", str(src))
        assert code == 0 and not art["result"]["found"]

    @pytest.mark.parametrize("argv", [
        "search-map --source {source} --target {d}/e0p3.json",
        "ind --space file --input {source} --p 3 --target 0",
    ], ids=["search-map", "ind-file"])
    def test_labels_in_no_simplex_are_mapped(self, tmp_path, capsys, argv):
        # labels 3, 4 and 5 form an orbit that lies in no simplex
        source = tmp_path / "source.json"
        source.write_text(json.dumps(dict(E0P3, vertices=6, perm=[1, 2, 0, 4, 5, 3])))
        (tmp_path / "e0p3.json").write_text(json.dumps(E0P3))
        code, art = run(capsys, *argv.format(source=source, d=tmp_path).split())
        assert code == 0
        result = art["result"]
        found = (result["vertex_map"] if "vertex_map" in result
                 else result["certificate"]["evidence"]["vertex_map"])
        source_cx = complex_from_json_dict(json.loads(source.read_text()))
        assert check_vertex_map(source_cx, complex_from_json_dict(E0P3), found) == []

    def test_fixed_label_into_free_target_is_2(self, tmp_path, capsys):
        source = tmp_path / "source.json"
        source.write_text(json.dumps(dict(E0P3, vertices=4, perm=[1, 2, 0, 3])))
        (tmp_path / "e0p3.json").write_text(json.dumps(E0P3))
        code = main(["search-map", "--source", str(source),
                     "--target", str(tmp_path / "e0p3.json")])
        assert "source label 3 lies in a cycle of length 1" in capsys.readouterr().err
        assert code == 2

    def test_config_space_and_cubical_homology(self, capsys):
        code, art = run(capsys, "config-space", "--space", "Xm", "--N", "1",
                        "--delta", "3/5", "--m", "1", "--p", "2", "--grid", "4",
                        "--coeff", "2")
        assert code == 0
        assert art["result"]["cubical_homology"]["betti"] == [2, 0]
        assert art["result"]["provenance_header"]["delta"] == "3/5"
        code, art = run(capsys, "cubical-homology", "--space", "Z", "--p", "2",
                        "--grid", "4", "--coeff", "2")
        assert code == 0
        assert art["result"]["homology"]["betti"] == [1, 1, 0]

    def test_period_beyond_seven_is_built(self, capsys):
        # only the cell budget bounds a build
        code, art = run(capsys, *"cubical-homology --space Xm --N 1 --p 11 --grid 2 --delta 1/2 "
                                 "--coeff 11".split())
        assert code == 0
        assert art["result"]["cells"] == 9_438

    def test_join_periodic(self, capsys):
        code, art = run(capsys, "join-periodic", "--shift", "sigma", "--p", "3",
                        "--copies", "2")
        assert code == 0
        assert art["result"]["complex"]["vertices"] == 12

    def test_obstruction_report(self, tmp_path, capsys):
        x_art = tmp_path / "x.json"
        z_art = tmp_path / "z.json"
        assert main(["coind", "--space", "Xm", "--N", "1", "--delta", "3/5",
                     "--m", "1", "--p", "2", "--grid", "4", "--target", "0",
                     "--out", str(x_art)]) == 0
        assert main(["coind", "--space", "Z", "--p", "2", "--grid", "4",
                     "--target", "0", "--out", str(z_art)]) == 0
        capsys.readouterr()
        code, art = run(capsys, "obstruction-report", "--p-list", "2",
                        "--x-cert", str(x_art), "--z-cert", str(z_art))
        assert code == 0
        row = art["result"]["rows"][0]
        assert row["x_coind_lower"] == 0
        assert row["gap_certified"] is False

    def test_obstruction_report_takes_the_ambient_prime(self, tmp_path, capsys):
        """A raw ambient certificate has no space_params; its prime is the
        `p` of its evidence."""
        (tmp_path / "x.json").write_text(json.dumps(coind_artifact(X1_P2_COIND)), encoding="utf-8")
        (tmp_path / "amb.json").write_text(json.dumps(x1_p2_ambient()), encoding="utf-8")
        assert main(["coind", "--space", "Z", "--p", "2", "--grid", "4", "--target", "0",
                     "--out", str(tmp_path / "z.json")]) == 0
        capsys.readouterr()
        code, art = run(capsys, "obstruction-report", "--p-list", "2",
                        "--x-cert", str(tmp_path / "x.json"), "--x-cert", str(tmp_path / "amb.json"),
                        "--z-cert", str(tmp_path / "z.json"))
        assert code == 0
        assert art["result"]["rows"][0]["x_coind_lower"] == 0

    def test_obstruction_report_shows_an_exhausted_ind(self, tmp_path, capsys):
        # E_1(Z_3) maps into no E_0(Z_3): an exhausted ind <= 0 on the Z side
        assert main(["ind", "--space", "enzp", "--n", "1", "--p", "3", "--target", "0",
                     "--out", str(tmp_path / "z.json")]) == 0
        assert main([*X1_N2P3G2_COIND.split(), "--out", str(tmp_path / "x.json")]) == 0
        capsys.readouterr()
        code, art = run(capsys, "obstruction-report", "--p-list", "3",
                        "--x-cert", str(tmp_path / "x.json"), "--z-cert", str(tmp_path / "z.json"))
        assert code == 0
        row = art["result"]["rows"][0]
        assert (row["z_coind_upper"], row["z_exhausted_at"]) == (None, 0)


X1_N2P3G2_COIND = "coind --space Xm --N 2 --p 3 --grid 2 --delta 1/2 --target 0"


def coind_artifact(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    return json.loads(out.getvalue())


X1_P2_COIND = "coind --space Xm --N 1 --delta 3/5 --m 1 --p 2 --grid 4 --target 0"


def forged_coind_artifact(directory):
    """A coind artifact, E_0 into X_1(N=1, p=2, G=4), whose value was edited
    from 0 to 5."""
    art = coind_artifact(X1_P2_COIND)
    assert art["result"]["certificate"]["value"] == 0
    art["result"]["certificate"]["value"] = 5
    return json.dumps(art)


def forged_prime_artifact(directory):
    """The same coind artifact with `space_params.p` edited from 2 to 3; a
    genuine p = 3 coind artifact on Z is written beside it as z3.json."""
    z3 = coind_artifact("coind --space Z --p 3 --grid 2 --target 0")
    (directory / "z3.json").write_text(json.dumps(z3), encoding="utf-8")
    art = coind_artifact(X1_P2_COIND)
    assert art["result"]["space_params"]["p"] == 2
    art["result"]["space_params"]["p"] = 3
    return json.dumps(art)


def fractional_prime_artifact(directory):
    """An exhausted coind search, E_1 into the three points E_0(Z_3), in an
    artifact whose `space_params.p` says 3.5, which `int` would read as 3; a
    genuine p = 3 coind artifact on Z is written beside it as z3.json."""
    z3 = coind_artifact("coind --space Z --p 3 --grid 2 --target 0")
    (directory / "z3.json").write_text(json.dumps(z3), encoding="utf-8")
    art = coind_artifact("coind --space enzp --n 0 --p 3 --target 1")
    assert art["result"]["certificate"]["kind"] == "exhaustion"
    art["result"]["space_params"]["p"] = 3.5
    return json.dumps(art)


def x1_p2_ambient():
    """The JSON form of the ambient bound ind <= 0 on the space of
    X1_P2_COIND (evidence N = 1, p = 2, offset 1), labelled as that
    artifact's certificate is."""
    cx = build_pp_xm(1, Fraction(3, 5), 1, 2, GridSpec(1, 4))
    return certificate_to_json_dict(ambient_sphere_bound(cx))


def forged_ambient_prime_artifact(directory):
    """The ambient bound of x1_p2_ambient in an artifact whose
    `space_params.p` says 3; a genuine p = 3 coind artifact on Z is written
    beside it as z3.json."""
    z3 = coind_artifact("coind --space Z --p 3 --grid 2 --target 0")
    (directory / "z3.json").write_text(json.dumps(z3), encoding="utf-8")
    return json.dumps({"result": {"certificate": x1_p2_ambient(), "space_params": {"p": 3}}})


def forged_connectivity_artifact(directory):
    """A coind-style artifact wrapping the JSON form of the deleted
    connectivity bound on three points, edited from ind >= 0 (true) to
    ind >= 5 (false); a genuine p = 3 coind artifact on Z is written beside
    it as z3.json."""
    z3 = coind_artifact("coind --space Z --p 3 --grid 2 --target 0")
    (directory / "z3.json").write_text(json.dumps(z3), encoding="utf-8")
    cert = {"kind": "connectivity_bound", "bound_type": "ind_lower", "value": 5, "depth": 0,
            "space": content_key(make_discrete_zp(3)),
            "evidence": {"type": "note", "fields": {
                "caveat": "homological connectivity; equals homotopy connectivity "
                          "only when the space is simply connected (Hurewicz)",
                "coefficients": 3,
                "homology": {"type": "homology", "p": 3, "betti": [0, 0, 0, 0, 0, 1],
                             "reduced": True, "connectivity": 4},
                "simply_connected_verified": False}}}
    return json.dumps({"result": {"certificate": cert, "space_params": {"p": 3}}})


def exhaustion_with_note_fields(fields):
    """An exhausted coind search on three points whose note evidence holds
    `fields` in place of a JSON object."""
    data = certificate_to_json_dict(coindex_lower(make_discrete_zp(3), 1))
    data["evidence"]["fields"] = fields
    return json.dumps(data)


def ind_certificate_with_booleans(directory, fields):
    """An ind <= 1 certificate on E_1(Z_2), whose map is the identity, with
    0 and 1 written as false and true in the named evidence `fields`
    (`vertex_map`, `source`); a p = 2 coind artifact is written beside it
    as x.json, so that obstruction-report has both sides."""
    (directory / "x.json").write_text(json.dumps(coind_artifact(X1_P2_COIND)), encoding="utf-8")
    data = certificate_to_json_dict(index_upper(e_n_zp(1, 2), 1))
    evidence = data["evidence"]

    def booleans(values):
        return [bool(v) if v in (0, 1) else v for v in values]
    if "vertex_map" in fields:
        evidence["vertex_map"] = booleans(evidence["vertex_map"])
    if "source" in fields:
        evidence["source"]["simplices"] = [booleans(s) for s in evidence["source"]["simplices"]]
    return json.dumps(data)


def edited_exhaustion_prime():
    """An exhausted coind >= 2 search on E_1(Z_3) whose `space_params.p` was
    edited to 2, beside a genuine p = 2 coind artifact on Z: its note says
    p = 3, so it may not enter the p = 2 row."""
    art = coind_artifact("coind --space enzp --n 1 --p 3 --target 2")
    assert art["result"]["certificate"]["kind"] == "exhaustion"
    art["result"]["space_params"]["p"] = 2
    return art, coind_artifact("coind --space Z --p 2 --grid 4 --target 0")


def space_params_string():
    """A coind artifact on E_0(Z_3) whose `space_params` is the string "p",
    beside a genuine p = 3 coind artifact on Z."""
    art = coind_artifact("coind --space enzp --n 0 --p 3 --target 0")
    art["result"]["space_params"] = "p"
    return art, coind_artifact("coind --space Z --p 3 --grid 2 --target 0")


def exhaustion_without_prime():
    """An exhausted coind >= 1 search on three points whose note lacks its
    `p`, as such notes were written before they held one."""
    art = coind_artifact("coind --space enzp --n 0 --p 3 --target 1")
    del art["result"]["certificate"]["evidence"]["fields"]["p"]
    return art, coind_artifact("coind --space Z --p 3 --grid 2 --target 0")


NULL_PARAM_MANIFEST = {"subcommand": "enzp", "params": {"n": 1, "p": 3, "homology": None}}


def ambient_under_witness_label():
    """coind >= 1 on E_1(Z_2), a map witness, against the ambient ind <= 0
    of X_1(N=1, p=2) filed under the same space label."""
    art = coind_artifact("coind --space enzp --n 1 --p 2 --target 1")
    space = art["result"]["certificate"]["space"]
    cx = build_pp_xm(1, Fraction(1, 2), 1, 2, GridSpec(1, 2))
    return art, certificate_to_json_dict(ambient_sphere_bound(cx, space=space))


class TestExitCodes:
    @pytest.mark.parametrize("p_list,make,code", [
        ("2", edited_exhaustion_prime, 2),
        ("3", space_params_string, 2),
        ("3", exhaustion_without_prime, 2),
        ("2", ambient_under_witness_label, 4),
    ], ids=["edited-exhaustion-prime", "space-params-string", "exhaustion-without-prime",
            "contradiction"])
    def test_certificate_prime_and_consistency(self, tmp_path, capsys, p_list, make, code):
        x, z = make()
        for name, data in (("x", x), ("z", z)):
            (tmp_path / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["obstruction-report", "--p-list", p_list, "--x-cert", str(tmp_path / "x.json"),
                     "--z-cert", str(tmp_path / "z.json")]) == code
        assert capsys.readouterr().err.startswith(
            "validation error" if code == 2 else "internal consistency violation")

    def test_validation_error_is_2(self, tmp_path, capsys):
        code = main(["coind", "--space", "Xm", "--N", "1", "--delta", "1/2",
                     "--m", "1", "--p", "9", "--grid", "2", "--target", "0"])
        capsys.readouterr()
        assert code == 2

    def test_budget_error_is_3(self, capsys):
        code = main(["coind", "--space", "Xm", "--N", "1", "--delta", "1/3",
                     "--m", "1", "--p", "5", "--grid", "6", "--target", "0",
                     "--cell-budget", "10"])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("argv", [
        "subdivide --input {e7p2}",
        "coind --space enzp --n 1 --p 2 --target 7 --depth 1",
        "ind --space file --input {e7p2} --target 7 --depth 1",
    ], ids=["subdivide", "coind", "ind"])
    def test_subdivision_budget_is_3(self, tmp_path, capsys, argv):
        # E_7(Z_2) subdivided once would have 197,613,376 simplices
        e7p2 = tmp_path / "e7p2.json"
        e7p2.write_text(json.dumps(complex_to_json_dict(e_n_zp(7, 2))), encoding="utf-8")
        code = main(argv.format(e7p2=e7p2).split())
        assert "the subdivision would have 197613376 simplices" in capsys.readouterr().err
        assert code == 3

    def test_triangulation_budget_is_3(self, capsys):
        # 330,336 cells, whose corner paths would give 14,226,960 simplices
        code = main("config-space --space Xm --N 2 --p 3 --grid 4 --delta 1/4".split())
        assert "the triangulation would have 14226960 simplices" in capsys.readouterr().err
        assert code == 3

    @pytest.mark.parametrize("argv,what,count", [
        ("enzp --n 7 --p 7", "the join of 8 copies", 8 ** 8 - 1),
        ("coind --space enzp --n 1 --p 7 --target 7", "the join of 8 copies", 8 ** 8 - 1),
        ("ind --space enzp --n 1 --p 7 --target 7", "the join of 8 copies", 8 ** 8 - 1),
        ("join --left {e3p7} --right {e3p7}", "the join", 8 ** 8 - 1),
        # 2^7 - 2 points of period 7
        ("join-periodic --shift sigma --p 7 --copies 4", "the join of 4 copies", 127 ** 4 - 1),
    ], ids=["enzp", "coind-model", "ind-model", "join", "join-periodic"])
    def test_join_budget_is_3(self, tmp_path, capsys, argv, what, count):
        e3p7 = tmp_path / "e3p7.json"
        e3p7.write_text(json.dumps(complex_to_json_dict(e_n_zp(3, 7))), encoding="utf-8")
        code = main(argv.format(e3p7=e3p7).split())
        assert f"{what} would have {count} simplices" in capsys.readouterr().err
        assert code == 3

    @pytest.mark.parametrize("periods", ["", ","], ids=["empty", "comma"])
    def test_empty_period_list_is_2(self, capsys, periods):
        code = main(["periodic", "--shift", "sigma", "--n", periods])
        assert capsys.readouterr().err.startswith("validation error")
        assert code == 2

    def test_empty_prime_list_is_2(self, tmp_path, capsys):
        # genuine p = 2 certificates on both sides, which a list naming 2 reports
        for name, argv in (("x", X1_P2_COIND), ("z", "coind --space Z --p 2 --grid 4 --target 0")):
            (tmp_path / f"{name}.json").write_text(json.dumps(coind_artifact(argv)),
                                                   encoding="utf-8")
        certs = ["--x-cert", str(tmp_path / "x.json"), "--z-cert", str(tmp_path / "z.json")]
        assert main(["obstruction-report", "--p-list", "2", *certs]) == 0
        capsys.readouterr()
        assert main(["obstruction-report", "--p-list", "", *certs]) == 2
        assert capsys.readouterr().err.startswith("validation error")

    def test_long_period_budget_is_3(self, capsys):
        # sigma has 2^1200 + 2 points of period 1200: 1200 * (2^1200 + 2) symbols
        # pass the default budget
        code = main(["periodic", "--shift", "sigma", "--n", "1200"])
        assert "budget exceeded" in capsys.readouterr().err
        assert code == 3

    @pytest.mark.parametrize("argv,text", [
        (["homology", "--coeff", "2", "--input"], "not json"),
        (["homology", "--coeff", "2", "--input"],
         json.dumps({"p": "3", "vertices": 3, "perm": [1, 2, 0],
                     "simplices": [[0], [1], [2]]})),
        (["homology", "--coeff", "2", "--input"],
         json.dumps({"p": 2, "vertices": 2, "perm": [True, False],
                     "simplices": [[False], [True]]})),
        (["homology", "--coeff", "2", "--input"],
         json.dumps({"p": 2, "vertices": 2, "perm": [1, 0], "simplices": [["a"], [0]]})),
        (["run", "--manifest"], json.dumps({})),
        (["run", "--manifest"], json.dumps({"subcommand": "enzp", "params": ["n"]})),
        (["run", "--manifest"], json.dumps({"subcommand": "phi", "params": {"M": 2}})),
        (["run", "--manifest"], json.dumps({"subcommand": "relabel", "params": {
            "N": 1, "delta": "1/3", "m": 2, "p": 3, "grid": 3, "l": 2}})),
        (["run", "--manifest"], json.dumps({"subcommand": "coind", "budget": 100, "params": {
            "space": "enzp", "n": 0, "p": 2, "target": 0}})),
        # a null param is refused: it is no string, number or bool
        (["run", "--manifest"], json.dumps(NULL_PARAM_MANIFEST)),
        (["run", "--manifest"], json.dumps({"subcommand": "run", "params": {"manifest": "m"}})),
        (["obstruction-report", "--p-list", "3", "--x-cert"], json.dumps([])),
        (["obstruction-report", "--p-list", "3", "--x-cert"],
         json.dumps({"kind": "connectivity_bound", "bound_type": "ind_lower", "value": 1,
                     "depth": 0, "evidence": {"type": "homology", "p": 3, "betti": 1,
                                              "reduced": True, "connectivity": 0}})),
        (["obstruction-report", "--p-list", "3", "--x-cert"],
         json.dumps({"provenance": {"subcommand": "cubical-homology"},
                     "result": {"cells": 6, "homology": {"betti": [6]}}})),
        (["obstruction-report", "--p-list", "2", "--z-cert", "{input}", "--x-cert"],
         forged_coind_artifact),
        (["obstruction-report", "--p-list", "3", "--z-cert", "{dir}/z3.json", "--x-cert"],
         forged_prime_artifact),
        (["obstruction-report", "--p-list", "3", "--z-cert", "{dir}/z3.json", "--x-cert"],
         fractional_prime_artifact),
        (["obstruction-report", "--p-list", "3", "--z-cert", "{dir}/z3.json", "--x-cert"],
         forged_ambient_prime_artifact),
        (["obstruction-report", "--p-list", "3", "--z-cert", "{dir}/z3.json", "--x-cert"],
         forged_connectivity_artifact),
        *((["obstruction-report", "--p-list", "3", "--x-cert"], exhaustion_with_note_fields(f))
          for f in ([1], "x", None, 5)),
    ], ids=["not-json", "string-prime", "boolean-complex", "string-vertex",
            "manifest-without-subcommand", "manifest-params-list", "manifest-removed-subcommand",
            "manifest-removed-subcommand-relabel", "manifest-top-level-budget",
            "manifest-null-param", "manifest-runs-run",
            "certificate-list", "certificate-betti-not-list", "artifact-without-certificate",
            "forged-coind-value", "forged-space-prime", "fractional-space-prime",
            "forged-ambient-prime", "forged-connectivity-bound",
            "note-fields-list", "note-fields-string", "note-fields-null", "note-fields-number"])
    def test_malformed_input_file_is_2(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text(tmp_path) if callable(text) else text, encoding="utf-8")
        code = main([word.format(input=path, dir=tmp_path) for word in argv] + [str(path)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv,needle", [
        ("coind --space Xm --delta x --target 0", "'x'"),
        ("ind --space Xm --delta 1/0 --target 0", "'1/0'"),
        ("config-space --space Xm --delta x", "'x'"),
        ("cubical-homology --space Xm --delta 1/0 --coeff 2", "'1/0'"),
        ("periodic --shift sigma --n 3,x", "'3,x'"),
        ("periodic --shift sigma --m 3 --n 3", "--m 3"),
        ("join-periodic --shift sigma --m 2 --p 3", "--m 2"),
        ("obstruction-report --p-list 2,x", "'2,x'"),
        ("subdivide --input {d}/e0p2.json --depth -1", "depth -1"),
        ("search-map --source {d}/e0p2.json --target {d}/e0p2.json --budget -1", "budget -1"),
        ("cubical-homology --space Xm --coeff 2 --cell-budget -1", "budget -1"),
        ("coind --space file --target 0", "--input"),
        # the provenance prints delta: no numerator or denominator past 4,300 digits
        ("coind --space Xm --N 1 --p 3 --grid 2 --delta 1e-9999 --target 0", "--delta"),
        ("cubical-homology --space Xm --N 1 --p 3 --grid 2 --delta 1e-9999 --coeff 2", "--delta"),
        ("config-space --space Xm --delta 1e4400", "--delta"),
    ], ids=["coind-delta", "ind-delta-zero-denominator", "config-space-delta",
            "cubical-homology-delta-zero-denominator", "periods",
            "sigma-with-m", "join-sigma-with-m",
            "p-list", "subdivide-depth", "search-map-budget", "cell-budget",
            "file-space-without-input", "coind-delta-unprintable",
            "cubical-homology-delta-unprintable", "config-space-delta-unprintable"])
    def test_malformed_argument_is_2(self, tmp_path, capsys, argv, needle):
        (tmp_path / "e0p2.json").write_text(json.dumps(E0P2), encoding="utf-8")
        code = main(argv.format(d=tmp_path).split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error") and needle in err

    @pytest.mark.parametrize("fields", [(), ("vertex_map",), ("source",), ("vertex_map", "source")],
                             ids=["integers", "boolean-map", "boolean-source", "boolean-both"])
    def test_json_booleans_in_certificate_are_2(self, tmp_path, capsys, fields):
        path = tmp_path / "z.json"
        path.write_text(ind_certificate_with_booleans(tmp_path, fields), encoding="utf-8")
        code = main(["obstruction-report", "--p-list", "2", "--x-cert", str(tmp_path / "x.json"),
                     "--z-cert", str(path)])
        err = capsys.readouterr().err
        assert code == (2 if fields else 0)
        assert ("validation error" in err) == bool(fields)

    @pytest.mark.parametrize("space", ["enzp", "file"])
    @pytest.mark.parametrize("argv", ["config-space", "cubical-homology --coeff 2"],
                             ids=["config-space", "cubical-homology"])
    def test_cubical_subcommand_refuses_simplicial_space(self, capsys, argv, space):
        with pytest.raises(SystemExit) as exc:
            main([*argv.split(), "--space", space])
        assert "invalid choice: " + repr(space) in capsys.readouterr().err
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", ["config-space --space Z --n 1",
                                      "cubical-homology --space Z --coeff 2 --input x"],
                             ids=["config-space-n", "cubical-homology-input"])
    def test_cubical_subcommand_refuses_model_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert "unrecognized arguments" in capsys.readouterr().err
        assert exc.value.code == 2

    def test_certificate_not_loading_back_as_itself_is_4(self, capsys, monkeypatch):
        encode = zpindex.cli.certificate_to_json_dict
        monkeypatch.setattr(zpindex.cli, "certificate_to_json_dict",
                            lambda cert: {**encode(cert), "space": "cpx:0000000000000000"})
        assert main("coind --space enzp --n 1 --p 2 --target 1".split()) == 4
        assert "does not load back as itself" in capsys.readouterr().err

    def test_unwritable_artifact_is_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert main(["enzp", "--n", "1", "--p", "2", "--out", str(blocker / "out.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_artifact_named_index_is_2(self, tmp_path, capsys):
        out = tmp_path / "d" / "index.json"
        assert main(["enzp", "--n", "0", "--p", "2", "--out", str(out)]) == 2
        assert "may not be index.json" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_unknown_subcommand_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        capsys.readouterr()
        assert exc.value.code == 2


E0P2 = {"p": 2, "vertices": 2, "perm": [1, 0], "simplices": [[0], [1]]}
E0P3 = {"p": 3, "vertices": 3, "perm": [1, 2, 0], "simplices": [[0], [1], [2]]}
E1P2 = {"p": 2, "vertices": 4, "perm": [1, 0, 3, 2],
        "simplices": [[0, 2], [0, 3], [1, 2], [1, 3]]}
E1P3 = {"p": 3, "vertices": 6, "perm": [1, 2, 0, 4, 5, 3],
        "simplices": [[i, j] for i in range(3) for j in range(3, 6)]}


FROZEN = {
    "enzp": (
        "enzp --n 2 --p 3 --homology",
        "df86716c0eddb9703584e530a9845e428bcd85ed0ef70af70402ee00bcc61015"),
    "join": (
        "join --left {d}/e0p3.json --right {d}/e0p3.json",
        "68e1707aa72d512e63788f0c301c724454b8aad9453d09ecd4d4b4f1567bcf1e"),
    "subdivide": (
        "subdivide --input {d}/e1p2.json --depth 1",
        "fc4ed52f051ffb0b7a78ebee8a2e2c922846472c275d9bee090fd026183f1043"),
    "homology": (
        "homology --input {d}/e1p3.json --coeff 3",
        "e8cef34174fc88b938b2d78e7671a4280633f63f04dbb402bd7f2b2d5a67adf5"),
    "search-map-found": (
        "search-map --source {d}/e0p3.json --target {d}/e1p3.json",
        "a40813c0a70b6da2da0df69c8431d8f184119b3d83dceb66e9c5fd01acc12fa0"),
    "search-map-exhausted": (
        "search-map --source {d}/e1p2.json --target {d}/e0p2.json --depth 1",
        "d8b95899e4275ea62aa97934143107f3c64badde509222e8162e0c221bd0f4d7"),
    "coind-xm": (
        "coind --space Xm --N 1 --p 3 --grid 3 --delta 1/3 --target 0",
        "7ce318ccc75370e8a08b6db04e277a6a0a24ba8f3024f90a194b495ce4ed9623"),
    "ind-z": (
        "ind --space Z --p 2 --grid 2 --target 1",
        "27690a0be9a12bf5efc426c659a92b59150f72ff9a063d09cf4434dc28d9dd59"),
    "cubical-homology": (
        "cubical-homology --space Z --p 3 --grid 2 --coeff 3",
        "5367416323f992f0ffd8d9abf3a5bd17e65e57ed4b07b567b94ac3e3a105b863"),
    "periodic": (
        "periodic --shift sigma_m --m 2 --n 1,2,3,4,5,6,7,8",
        "2422c77043c57055feaf8f95e46456c1c6066079fc83d87e6988e0752e851e30"),
    "join-periodic": (
        "join-periodic --shift sigma --p 3 --copies 2",
        "b69c907c58d08e1d59c8c91940c223bd6e2a08af40d75d72724501c41df8b0bb"),
    "cubical-homology-y": (
        "cubical-homology --space Y --p 5 --grid 3 --coeff 5",
        "442b33c02ff619691fe1d8b2b118b6b0bae774ee7b45458c8c18b6c2b5272e33"),
    "config-space-xm-n2": (
        "config-space --space Xm --N 2 --p 2 --grid 2 --delta 1/2 --coeff 2",
        "39f5951cbb319547d66f9af3e9ad0a0937d9d1e62ab8a04ceb6ad9c2eb2bbbcf"),
    "cubical-homology-xm-m2": (
        "cubical-homology --space Xm --N 1 --p 5 --grid 3 --delta 1/3 --m 2 --coeff 5",
        "5ec4d74f59023535b260f53fa5c9319d4c1268c8443eaea0c6bcc8d87dead22b"),
    "coind-exhausted": (
        "coind --space enzp --n 1 --p 3 --target 2",
        "5ce4f82e1543c8cd0ce5b3bd125027065880fff743db3f2f9d0c9af4fc77b3fe"),
    "ind-exhausted": (
        "ind --space enzp --n 1 --p 2 --target 0",
        "66e4284e0f8591aac4fc3fbd496d1490029132b8fadf3fa4baa74a6684db7fa5"),
    # Commands before the last write its inputs; the last one is hashed.  The
    # Z certificate is an exhausted coind >= 1, which the Z side's exhausted
    # column, holding ind searches, leaves out.
    "obstruction-report": (
        "coind --space Xm --N 1 --delta 3/5 --m 1 --p 2 --grid 4 --target 0 --out {d}/x.json"
        " ; coind --space Z --p 2 --grid 4 --target 1 --out {d}/z.json"
        " ; obstruction-report --p-list 2 --x-cert {d}/x.json --z-cert {d}/z.json",
        "faf5127f7de318d8ffedf5f73ba7fa1a30ffd52a8dc9190c333884555d537bae"),
}


class TestFrozenResults:
    """The hash of each artifact's result block, recorded once; a change to
    any of them is a change to the program's output."""

    @pytest.mark.parametrize("name", FROZEN)
    def test_result_sha256(self, tmp_path, capsys, name):
        argv, sha256 = FROZEN[name]
        for stem, data in (("e0p2", E0P2), ("e0p3", E0P3), ("e1p2", E1P2), ("e1p3", E1P3)):
            (tmp_path / f"{stem}.json").write_text(json.dumps(data), encoding="utf-8")
        *setup, last = argv.format(d=tmp_path).split(" ; ")
        for words in setup:
            assert main(words.split()) == 0
        code, art = run(capsys, *last.split())
        assert code == 0
        assert art["sha256"] == sha256


class TestManifests:
    MANIFEST = {
        "subcommand": "enzp",
        "params": {"n": 1, "p": 3, "homology": True},
    }

    def test_run_manifest(self, tmp_path, capsys):
        m = dict(self.MANIFEST, output=str(tmp_path / "out.json"))
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps(m))
        assert main(["run", "--manifest", str(mf)]) == 0
        capsys.readouterr()
        art = json.loads((tmp_path / "out.json").read_text())
        assert art["result"]["homology"]["betti"] == [1, 4]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            m = dict(self.MANIFEST, output=str(d / "out.json"))
            mf = d / "m.json"
            mf.write_text(json.dumps(m))
            assert main(["run", "--manifest", str(mf)]) == 0
            assert main(["run", "--manifest", str(mf)]) == 0  # idempotent
        capsys.readouterr()
        a = (tmp_path / "a" / "out.json").read_bytes()
        b = (tmp_path / "b" / "out.json").read_bytes()
        assert a == b
        ia = (tmp_path / "a" / "index.json").read_bytes()
        ib = (tmp_path / "b" / "index.json").read_bytes()
        assert ia == ib

    def test_index_file_written(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        m = dict(self.MANIFEST, output=str(out))
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps(m))
        assert main(["run", "--manifest", str(mf)]) == 0
        capsys.readouterr()
        index = json.loads((tmp_path / "index.json").read_text())
        (entry,) = index.values()
        assert entry["subcommand"] == "enzp"
        assert entry["output"] == "out.json"

    @pytest.mark.parametrize("text", ["not json", "[1,2]"], ids=["not-json", "list"])
    def test_malformed_index_is_2_before_writing(self, tmp_path, capsys, text):
        (tmp_path / "index.json").write_text(text, encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["enzp", "--n", "1", "--p", "3", "--out", str(out)]) == 2
        assert "validation error:" in capsys.readouterr().err
        assert not out.exists()
        assert (tmp_path / "index.json").read_text(encoding="utf-8") == text

    def test_bad_manifest_is_2(self, tmp_path, capsys):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps({"subcommand": "nope", "params": {}}))
        assert main(["run", "--manifest", str(mf)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("manifest", [
        {**MANIFEST, "output": True},
        {**MANIFEST, "output": {"a": 1}},
        {"subcommand": "periodic", "params": {"shift": "sigma", "n": "3", "csv": None}},
        {"subcommand": "periodic", "params": {"shift": "sigma", "n": [[3]]}},
    ], ids=["output-true", "output-object", "null-csv", "list-of-lists"])
    def test_value_of_no_flag_is_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                       manifest):
        # str() of any of these would name a file: ./True, ./{'a': 1}, ./None
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        assert main(["run", "--manifest", "m.json"]) == 2
        assert "malformed manifest" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["m.json"]

    def test_run_refuses_out(self, tmp_path, capsys):
        # the manifest names the output; a --out of its own would be ignored
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps(self.MANIFEST))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--manifest", str(mf), "--out", str(tmp_path / "never.json")])
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert exc.value.code == 2
        assert not (tmp_path / "never.json").exists()


# The sha256 of the whole --out file, provenance, indentation and final
# newline included: the bytes a user gets.  None of these reads an input
# file, so no temporary path enters the provenance.
FROZEN_FILES = {
    "enzp": (
        "enzp --n 2 --p 3 --homology",
        "ef7918cf278b7533c0e35d247f8865019bcec969e941827baa2e75cb3180c453"),
    "cubical-homology": (
        "cubical-homology --space Z --p 3 --grid 2 --coeff 3",
        "11c8688ef892e7453398b4c5720ffaa7f6cf4ce15821803fec1595c6bf2bff74"),
    "coind-xm": (
        "coind --space Xm --N 1 --p 3 --grid 3 --delta 1/3 --target 0",
        "e1a584084b581d359cc2bdf30f798f90e7fcc0a5f82ff17f00371d686ccbb31c"),
    # simplex lists nested in dicts: a joined complex, and a witness map's source
    "join-periodic": (
        "join-periodic --shift sigma --p 3 --copies 2",
        "9ac81f07890e1e3e58e9e03e267dfa1adcb7507e423eeb04cc003f6cc62003fc"),
    "ind-z": (
        "ind --space Z --p 2 --grid 2 --target 1",
        "a6b0143ed2e2002c78a596fa5c8a712281a8a348f272f44a2a04c1ad4ed6f4af"),
}


@pytest.mark.parametrize("name", FROZEN_FILES)
def test_artifact_file_sha256(tmp_path, name):
    argv, sha256 = FROZEN_FILES[name]
    out = tmp_path / "out.json"
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def stdlib_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(st.sampled_from("a,[]\n\"\u00e9 ")))


class TestCanonicalJson:
    """canonical_json writes the stdlib's indented text, byte for byte."""

    @settings(max_examples=300)
    @given(st.recursive(
        JSON_SCALARS,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.lists(st.lists(st.integers(), max_size=3), max_size=4)
                       | st.dictionaries(st.text(st.sampled_from("ab]\n\u00e9"), max_size=2),
                                         inner, max_size=4)
                       | st.dictionaries(st.integers(0, 3), inner, max_size=2)),
        max_leaves=20))
    def test_matches_the_stdlib(self, value):
        assert canonical_json(value) == stdlib_text(value)

    @pytest.mark.parametrize("value", [
        [[1], []], [[True, 1]], [True, 1], [[]], [[[1]]], {1: "a"}, {"a": []}, (2, 3),
        [[0, 1], (2,)], {"a": {"b": [[1, 2], [3, "],\n ["]]}},
    ], ids=["empty-row", "bool-row", "bool-int", "no-row", "rows-of-rows", "int-key",
            "empty-value", "tuple", "tuple-row", "string-seam"])
    def test_edge_cases(self, value):
        assert canonical_json(value) == stdlib_text(value)

    def test_rows_past_one_block(self):
        rows = [[v, v + 1, v + 7] for v in range(2 * zpindex.cli._ROWS + 1)]
        value = {"complex": {"perm": list(range(9)), "simplices": rows}}
        assert canonical_json(value) == stdlib_text(value)


def zpindex_process(*argv, cwd, timeout=60):
    """Run `python -m zpindex.cli` in a process of its own: its exit code."""
    env = dict(os.environ, PYTHONPATH=str(Path(zpindex.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "zpindex.cli", *map(str, argv)], cwd=cwd,
                          env=env, capture_output=True, check=False, timeout=timeout).returncode


class TestProcessExitCodes:
    """The exit codes the module docstring promises, as a process sees them."""

    def test_success_is_0(self, tmp_path):
        assert zpindex_process("enzp", "--n", "0", "--p", "2", cwd=tmp_path) == 0

    def test_refused_manifest_is_2(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps(NULL_PARAM_MANIFEST))
        assert zpindex_process("run", "--manifest", tmp_path / "m.json", cwd=tmp_path) == 2

    @pytest.mark.parametrize("argv", [
        "homology --input {big} --coeff 2",
        "run --manifest {big}",
        "obstruction-report --p-list 2 --x-cert {big} --z-cert {big}",
        "enzp --n 0 --p 2 --out {dir}/out.json",
    ], ids=["complex", "manifest", "certificate", "index"])
    def test_int_past_the_digit_limit_is_2(self, tmp_path, argv):
        # json.load refuses an int literal of more than 4,300 digits; the file
        # is named index.json so that it is also the index beside out.json
        big = tmp_path / "index.json"
        big.write_text('{"p": ' + "1" * 4301 + "}")
        assert zpindex_process(*argv.format(big=big, dir=tmp_path).split(), cwd=tmp_path) == 2
        assert not (tmp_path / "out.json").exists()

    def test_budget_is_3(self, tmp_path):
        assert zpindex_process("periodic", "--shift", "sigma", "--n", "1200", cwd=tmp_path) == 3

    @pytest.mark.parametrize("argv", [
        "homology --input {big} --coeff 2",
        "search-map --source {big} --target {big}",
    ], ids=["homology", "search-map"])
    def test_closure_budget_is_3(self, tmp_path, argv):
        # one simplex of 40 vertices would close to 2^40 - 1 faces
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"p": 2, "vertices": 40, "perm": [v ^ 1 for v in range(40)],
                                   "simplices": [list(range(40))]}))
        assert zpindex_process(*argv.format(big=big).split(), cwd=tmp_path) == 3

    def test_raised_depth_is_2_at_once(self, tmp_path):
        # E_1(Z_3) at depth 0 claimed at depth 40: refused before the model
        # is subdivided, not after it has grown to the cell budget (exit 3)
        art = coind_artifact("coind --space enzp --n 1 --p 3 --target 1")
        art["result"]["certificate"]["depth"] = 40
        (tmp_path / "x.json").write_text(json.dumps(art), encoding="utf-8")
        assert zpindex_process("obstruction-report", "--p-list", "3", "--x-cert",
                               tmp_path / "x.json", cwd=tmp_path, timeout=10) == 2

    @pytest.mark.parametrize("argv", [
        "coind --space enzp --n 0 --p 2 --target 0 --depth 1000000000",
        "subdivide --input {points} --depth 1000000000",
    ], ids=["coind", "subdivide"])
    def test_dimension_0_at_a_huge_depth_is_0(self, tmp_path, argv):
        # each subdivision after the first returns its input, at about 25 us
        # a step: 10^9 of them would take hours
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"p": 3, "vertices": 6, "perm": [2, 3, 4, 5, 0, 1],
                                      "simplices": [[0], [2], [4]]}))
        assert zpindex_process(*argv.format(points=points).split(), cwd=tmp_path,
                               timeout=10) == 0

    def test_long_source_is_0(self, tmp_path):
        # 1,200 vertex orbits: the search must not recurse once per orbit
        (tmp_path / "long.json").write_text(json.dumps(
            {"p": 2, "vertices": 2400, "perm": [v ^ 1 for v in range(2400)],
             "simplices": [[v] for v in range(2400)]}))
        (tmp_path / "e0.json").write_text(json.dumps(complex_to_json_dict(make_discrete_zp(2))))
        assert zpindex_process("search-map", "--source", tmp_path / "long.json",
                               "--target", tmp_path / "e0.json", cwd=tmp_path) == 0

    def test_contradiction_is_4(self, tmp_path):
        # coind >= 1 on E_1(Z_2) against ind <= 0 on E_0(Z_2) relabelled as
        # E_1(Z_2).  This exits 4 only because a certificate's `space` label
        # is not yet checked against its evidence; once it is, the relabelled
        # certificate is refused and the exit code becomes 2.
        coind = coind_artifact("coind --space enzp --n 1 --p 2 --target 1")
        ind = coind_artifact("ind --space enzp --n 0 --p 2 --target 0")
        ind["result"]["certificate"]["space"] = coind["result"]["certificate"]["space"]
        for name, art in (("x", coind), ("z", ind)):
            (tmp_path / f"{name}.json").write_text(json.dumps(art), encoding="utf-8")
        assert zpindex_process("obstruction-report", "--p-list", "2",
                               "--x-cert", tmp_path / "x.json", "--z-cert", tmp_path / "z.json",
                               cwd=tmp_path) == 4
