import argparse
import contextlib
import io
import json

import pytest

from zpindex.certificates import certificate_to_json_dict, coindex_lower, index_upper
from zpindex.cli import HANDLERS, build_parser, main
from zpindex.simplicial import content_key, e_n_zp, make_discrete_zp


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


CERTIFIED_PIPELINE = {"enzp", "join", "subdivide", "homology", "search-map", "coind", "ind",
                      "periodic", "join-periodic", "config-space", "cubical-homology",
                      "relabel", "obstruction-report"}


class TestSubcommandTable:
    """The parser and the handler table name the same subcommands."""

    def test_parser_matches_handlers(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(HANDLERS) | {"run"}
        assert set(sub.choices) == CERTIFIED_PIPELINE | {"run"}


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

    def test_relabel(self, capsys):
        code, art = run(capsys, "relabel", "--N", "1", "--delta", "1/3", "--m", "2",
                        "--p", "3", "--grid", "3", "--l", "2")
        assert code == 0
        assert art["result"]["offset_m_cells"] == art["result"]["offset_one_cells"]

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


class TestExitCodes:
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
         forged_connectivity_artifact),
        *((["obstruction-report", "--p-list", "3", "--x-cert"], exhaustion_with_note_fields(f))
          for f in ([1], "x", None, 5)),
    ], ids=["not-json", "string-prime", "boolean-complex", "string-vertex",
            "manifest-without-subcommand", "manifest-params-list", "manifest-removed-subcommand",
            "certificate-list", "certificate-betti-not-list", "artifact-without-certificate",
            "forged-coind-value", "forged-space-prime", "forged-connectivity-bound",
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
        ("relabel --N 1 --delta x --m 2 --p 3 --grid 3 --l 2", "'x'"),
        ("periodic --shift sigma --n 3,x", "'3,x'"),
        ("obstruction-report --p-list 2,x", "'2,x'"),
        ("subdivide --input {d}/e0p2.json --depth -1", "depth -1"),
        ("search-map --source {d}/e0p2.json --target {d}/e0p2.json --budget -1", "budget -1"),
        ("cubical-homology --space Xm --coeff 2 --cell-budget -1", "budget -1"),
        ("coind --space file --target 0", "--input"),
    ], ids=["coind-delta", "ind-delta-zero-denominator", "config-space-delta",
            "cubical-homology-delta-zero-denominator", "relabel-delta", "periods",
            "p-list", "subdivide-depth", "search-map-budget", "cell-budget",
            "file-space-without-input"])
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
    "relabel": (
        "relabel --N 1 --delta 1/3 --m 2 --p 3 --grid 3 --l 2",
        "9a8192b2a635109e4f02151405c8aa9651b502905308e088a677a7402d236c10"),
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
        "2925acaa94faa715b3633941fc3c5765f70a243faf4b9a9546d548e0352620a4"),
    "ind-exhausted": (
        "ind --space enzp --n 1 --p 2 --target 0",
        "4a69fdb4813813f6b9931374f2fcf393adbd33a0f8e437756c526e4ebcd676f5"),
    # Commands before the last write its inputs; the last one is hashed.
    "obstruction-report": (
        "coind --space Xm --N 1 --delta 3/5 --m 1 --p 2 --grid 4 --target 0 --out {d}/x.json"
        " ; coind --space Z --p 2 --grid 4 --target 1 --out {d}/z.json"
        " ; obstruction-report --p-list 2 --x-cert {d}/x.json --z-cert {d}/z.json",
        "fc49847e4787bab35bbf0335fd6ef13be2ed02526d94d210e553da742d9b5123"),
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
