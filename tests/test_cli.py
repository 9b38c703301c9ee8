import json
from fractions import Fraction as F

import pytest

from zpindex.cli import main
from zpindex.markers import FiniteDynSys


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def write_system(path, n=12):
    half = n // 2
    metric = [[str(F(min(abs(i - j), n - abs(i - j)), half)) for j in range(n)]
              for i in range(n)]
    data = {"points": n, "metric": metric, "T": [(i + 1) % n for i in range(n)]}
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


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

    def test_marker_check(self, tmp_path, capsys):
        sysfile = write_system(tmp_path / "sys.json", 10)
        code, art = run(capsys, "marker-check", "--system", str(sysfile),
                        "--N", "3", "--U", "0")
        assert code == 0
        assert art["result"]["return_times_ok"] and art["result"]["covering_ok"]

    def test_eps_embed_and_universality(self, tmp_path, capsys):
        sysfile = write_system(tmp_path / "sys.json", 6)
        code, art = run(capsys, "eps-embed", "--system", str(sysfile), "--eps", "1/3")
        assert code == 0 and art["result"]["N"] >= 1
        code, art = run(capsys, "universality", "--system", str(sysfile))
        assert code == 0
        assert len(art["result"]["trajectories"]) == 6

    def test_phi(self, tmp_path, capsys):
        sysfile = write_system(tmp_path / "sys.json", 12)
        code, art = run(capsys, "phi", "--system", str(sysfile), "--M", "11",
                        "--w-indicator", "0", "--U", "0,1", "--N", "2")
        assert code == 0
        assert art["result"]["E"] == [11]
        assert art["result"]["phi"][:3] == ["0", "1", "2"]
        assert art["result"]["hypotheses"]["E_no_return"]

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
        (["marker-check", "--N", "1", "--U", "0", "--system"],
         json.dumps({"points": 2, "metric": [["0", "x"], ["x", "0"]], "T": [1, 0]})),
        (["marker-check", "--N", "1", "--U", "0", "--system"],
         json.dumps({"points": 2, "metric": [["0", "1"], ["1", "0"]], "T": ["a", 0]})),
    ], ids=["not-json", "string-prime", "non-rational-metric", "non-integer-T"])
    def test_malformed_input_file_is_2(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code = main(argv + [str(path)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv,w_json,needle", [
        ("coind --space Xm --delta x --target 0", None, "'x'"),
        ("ind --space Xm --delta 1/0 --target 0", None, "'1/0'"),
        ("config-space --space Xm --delta x", None, "'x'"),
        ("cubical-homology --space Xm --delta 1/0 --coeff 2", None, "'1/0'"),
        ("relabel --N 1 --delta x --m 2 --p 3 --grid 3 --l 2", None, "'x'"),
        ("eps-embed --system {d}/sys.json --eps x", None, "'x'"),
        ("phi --system {d}/sys.json --M 2 --w-json {d}/w.json",
         {"0": "x", "1": "0", "2": "0", "3": "0"}, "'x'"),
        ("phi --system {d}/sys.json --M 2 --w-json {d}/w.json",
         {"0": "1", "1": "0", "2": "0"}, "'3'"),
        ("phi --system {d}/sys.json --M 2 --w-indicator 0,x", None, "'0,x'"),
        ("marker-check --system {d}/sys.json --N 1 --U 0,x", None, "'0,x'"),
        ("periodic --shift sigma --n 3,x", None, "'3,x'"),
        ("obstruction-report --p-list 2,x", None, "'2,x'"),
    ], ids=["coind-delta", "ind-delta-zero-denominator", "config-space-delta",
            "cubical-homology-delta-zero-denominator", "relabel-delta", "eps",
            "w-json-value", "w-json-missing-point", "w-indicator", "U", "periods",
            "p-list"])
    def test_malformed_argument_is_2(self, tmp_path, capsys, argv, w_json, needle):
        write_system(tmp_path / "sys.json", 4)
        if w_json is not None:
            (tmp_path / "w.json").write_text(json.dumps(w_json), encoding="utf-8")
        code = main(argv.format(d=tmp_path).split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error") and needle in err

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
}


class TestFrozenResults:
    """The hash of each artifact's result block, recorded once; a change to
    any of them is a change to the program's output."""

    @pytest.mark.parametrize("name", FROZEN)
    def test_result_sha256(self, tmp_path, capsys, name):
        argv, sha256 = FROZEN[name]
        for stem, data in (("e0p2", E0P2), ("e0p3", E0P3), ("e1p2", E1P2), ("e1p3", E1P3)):
            (tmp_path / f"{stem}.json").write_text(json.dumps(data), encoding="utf-8")
        code, art = run(capsys, *argv.format(d=tmp_path).split())
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

    def test_bad_manifest_is_2(self, tmp_path, capsys):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps({"subcommand": "nope", "params": {}}))
        assert main(["run", "--manifest", str(mf)]) == 2
        capsys.readouterr()
