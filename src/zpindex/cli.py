"""Batch command-line front end.

Every subcommand validates its parameters, runs one operation, and writes a
deterministic JSON artifact (plus optional CSV) with a provenance block:
identical manifests produce byte-identical artifacts, so no timestamps or
environment data are recorded.  Runs can be described by a JSON manifest and
replayed with the `run` subcommand.

Exit codes: 0 success, 2 validation failure, 3 budget exceeded,
4 internal consistency violation (a coindex bound above an index bound).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .certificates import (
    assert_coindex_le_index,
    certificate_from_json_dict,
    certificate_to_json_dict,
    coindex_lower,
    index_upper,
    obstruction_report,
    search_equivariant_map,
)
from .cubical import (
    DEFAULT_CELL_BUDGET,
    GridSpec,
    build_pp_xm,
    build_pp_yz,
    cubical_homology,
    cubical_to_simplicial,
    relabel_isomorphism,
)
from .errors import BudgetExceeded, ConsistencyError, ValidationError
from .search import DEFAULT_BUDGET
from .simplicial import (
    INFINITE_CONNECTIVITY,
    barycentric_subdivide,
    complex_from_json_dict,
    complex_to_json_dict,
    e_n_zp,
    homology,
    join,
    join_power,
)
from .subshifts import as_free_zp_complex, make_sigma_m, periodic_points, periodic_table


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path} is not JSON: {exc}") from exc


def _load_complex(path: str):
    return complex_from_json_dict(_load_json(path))


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"expected exact rational, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _build_space(args):
    """Build the free complex named by --space (with its provenance)."""
    name = args.space
    if name == "enzp":
        x = e_n_zp(args.n, args.p)
        return x, {"space": "enzp", "n": args.n, "p": args.p}
    if name == "file":
        if args.input is None:
            raise ValidationError("--space file needs --input")
        x = _load_complex(args.input)
        return x, {"space": "file", "input": args.input}
    if name in ("Xm", "Y", "Z"):
        cubical = _build_cubical(args)
        x = cubical_to_simplicial(cubical)
        prov = _cubical_provenance(args)
        prov["cells"] = len(cubical.cells)
        return x, prov
    raise ValidationError(f"unknown space {name!r}")


def _build_cubical(args):
    if args.space == "Xm":
        grid = GridSpec(args.N, args.grid, circle_valued=False)
        return build_pp_xm(args.N, _frac(args.delta), args.m, args.p, grid,
                           budget=args.cell_budget)
    grid = GridSpec(1, args.grid, circle_valued=True)
    return build_pp_yz(args.space, args.p, grid, budget=args.cell_budget)


def _cubical_provenance(args) -> dict:
    prov = {"space": args.space, "p": args.p, "grid": args.grid}
    if args.space == "Xm":
        prov.update({"N": args.N, "delta": str(_frac(args.delta)), "m": args.m})
    return prov


def _homology_result(profile) -> dict:
    conn = profile.homological_connectivity
    return {"p": profile.p, "betti": list(profile.betti), "reduced": profile.reduced,
            "homological_connectivity": "inf" if conn == INFINITE_CONNECTIVITY else conn}


def _certificate_result(cert) -> dict:
    data = certificate_to_json_dict(cert)
    certificate_from_json_dict(data)  # loading derives the value from the evidence again
    return {"certificate": data, "certificate_sha256": sha256_of(data),
            "summary": cert.describe()}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns a JSON-able result dict.

def cmd_enzp(args):
    x = e_n_zp(args.n, args.p)
    result = {"complex": complex_to_json_dict(x)}
    if args.homology:
        coeff = args.coeff if args.coeff else args.p
        result["homology"] = _homology_result(homology(x.complex, coeff, reduced=args.reduced))
    return result


def cmd_join(args):
    x = join(_load_complex(args.left), _load_complex(args.right))
    return {"complex": complex_to_json_dict(x)}


def cmd_subdivide(args):
    if args.depth < 0:
        raise ValidationError(f"subdivision depth {args.depth} must be nonnegative")
    x = _load_complex(args.input)
    for _ in range(args.depth):
        x = barycentric_subdivide(x)
    return {"complex": complex_to_json_dict(x), "depth": args.depth}


def cmd_homology(args):
    x = _load_complex(args.input)
    return {"homology": _homology_result(homology(x.complex, args.coeff, reduced=args.reduced))}


def cmd_search_map(args):
    source = _load_complex(args.source)
    target = _load_complex(args.target)
    found = search_equivariant_map(source, target, args.depth, args.budget)
    if found is None:
        return {"found": False, "depth": args.depth,
                "note": "exhausted at this depth; not a disproof"}
    return {"found": True, "depth": args.depth,
            "vertex_map": list(found.vertex_map)}


def cmd_bound(args):
    x, prov = _build_space(args)
    bound = {"coind": coindex_lower, "ind": index_upper}[args.subcommand]
    out = _certificate_result(bound(x, args.target, args.depth, args.budget))
    out["space_params"] = prov
    return out


def _shift_from_args(args):
    if args.shift == "sigma":
        return make_sigma_m(1)
    if args.shift == "sigma_m":
        return make_sigma_m(args.m)
    raise ValidationError(f"unknown shift {args.shift!r}")


def cmd_periodic(args):
    shift = _shift_from_args(args)
    periods = _int_list(args.n)
    rows = periodic_table(shift, periods)
    if args.csv:
        lines = ["period,count,orbit_count"]
        lines += [f"{a},{b},{c}" for a, b, c in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"shift": args.shift, "m": args.m,
            "rows": [{"period": a, "count": b, "orbit_count": c} for a, b, c in rows]}


def cmd_join_periodic(args):
    shift = _shift_from_args(args)
    pts = periodic_points(shift, args.p)
    x = join_power(as_free_zp_complex(pts), args.copies)
    return {"complex": complex_to_json_dict(x), "points": len(pts),
            "copies": args.copies}


def cmd_config_space(args):
    cubical = _build_cubical(args)
    x = cubical_to_simplicial(cubical)
    result = {"provenance_header": _cubical_provenance(args),
              "cells": len(cubical.cells),
              "complex": complex_to_json_dict(x)}
    if args.coeff:
        result["cubical_homology"] = _homology_result(
            cubical_homology(cubical, args.coeff))
    return result


def cmd_cubical_homology(args):
    cubical = _build_cubical(args)
    return {"provenance_header": _cubical_provenance(args),
            "cells": len(cubical.cells),
            "homology": _homology_result(cubical_homology(cubical, args.coeff))}


def cmd_relabel(args):
    grid = GridSpec(args.N, args.grid, circle_valued=False)
    offset_m = build_pp_xm(args.N, _frac(args.delta), args.m, args.p, grid,
                           budget=args.cell_budget)
    pair = relabel_isomorphism(offset_m, args.l)
    return {"m": pair.m, "l": pair.l,
            "offset_m_cells": len(pair.offset_m.cells),
            "offset_one_cells": len(pair.offset_one.cells)}


def cmd_obstruction_report(args):
    p_list = _int_list(args.p_list)
    by_space: dict[str, list] = {}
    x_certs: dict[int, list] = {}
    z_certs: dict[int, list] = {}
    for side, paths, sink in (("X", args.x_cert, x_certs), ("Z", args.z_cert, z_certs)):
        for path in paths or ():
            data = _load_json(path)
            try:
                cert_data = data["result"]["certificate"] if "result" in data else data
            except (KeyError, TypeError) as exc:
                raise ValidationError(
                    f"{path} is neither a certificate nor a coind/ind artifact: {exc!r}") from exc
            cert = certificate_from_json_dict(cert_data)
            p = _prime_of_cert(data, cert)
            sink.setdefault(p, []).append(cert)
            by_space.setdefault(cert.space, []).append(cert)
    if not by_space:
        raise ValidationError("no certificates given")
    for certs in by_space.values():
        assert_coindex_le_index(certs)
    rows = obstruction_report(p_list, x_certs, z_certs)
    return {"rows": [{"p": r.p, "x_coind_lower": r.x_coind_lower,
                      "x_exhausted_at": r.x_exhausted_at,
                      "z_coind_upper": r.z_coind_upper,
                      "z_exhausted_at": r.z_exhausted_at,
                      "gap_certified": r.gap_certified,
                      "verdict": r.verdict} for r in rows]}


def _prime_of_cert(artifact: dict, cert) -> int:
    """The prime of the certificate's map when its evidence holds one (the
    artifact's `space_params.p`, if given, must agree), else that
    `space_params.p`."""
    params = artifact.get("result", {}).get("space_params") if "result" in artifact else None
    stated = params["p"] if params and "p" in params else None
    ev = cert.evidence
    if hasattr(ev, "source"):
        if stated is not None and stated != ev.source.p:
            raise ValidationError(f"space_params.p = {stated!r} disagrees with the prime "
                                  f"{ev.source.p} of the certificate's map")
        return ev.source.p
    if stated is not None:
        return int(stated)
    raise ValidationError("cannot determine the prime of a certificate; "
                          "pass artifacts produced by the coind/ind commands")


HANDLERS = {
    "enzp": cmd_enzp,
    "join": cmd_join,
    "subdivide": cmd_subdivide,
    "homology": cmd_homology,
    "search-map": cmd_search_map,
    "coind": cmd_bound,
    "ind": cmd_bound,
    "periodic": cmd_periodic,
    "join-periodic": cmd_join_periodic,
    "config-space": cmd_config_space,
    "cubical-homology": cmd_cubical_homology,
    "relabel": cmd_relabel,
    "obstruction-report": cmd_obstruction_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpindex",
        description="Certified index/coindex bounds and periodic points.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="artifact JSON path (default: stdout)")
        return p

    def add_space_flags(p, with_target=True):
        p.add_argument("--space", required=True,
                       choices=["enzp", "Xm", "Y", "Z", "file"])
        p.add_argument("--n", type=int, default=0, help="model dimension for --space enzp")
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--N", type=int, default=1)
        p.add_argument("--delta", default="1/2", help="rational a/b")
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--grid", type=int, default=2)
        p.add_argument("--input", help="complex JSON for --space file")
        p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET,
                       help="most boxes the cell enumerator may try, plus p per cell it emits")
        if with_target:
            p.add_argument("--target", type=int, required=True)
            p.add_argument("--depth", type=int, default=0)
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("enzp", help="standard n-dimensional model for Z_p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--homology", action="store_true")
    p.add_argument("--coeff", type=int, default=0)
    p.add_argument("--reduced", action="store_true")

    p = add("join", help="combinatorial join of two complexes")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("subdivide", help="barycentric subdivision")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, default=1)

    p = add("homology", help="betti numbers over F_p")
    p.add_argument("--input", required=True)
    p.add_argument("--coeff", type=int, required=True)
    p.add_argument("--reduced", action="store_true")

    p = add("search-map", help="equivariant simplicial map search")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("coind", help="coindex lower bound certificate")
    add_space_flags(p)
    p = add("ind", help="index upper bound certificate")
    add_space_flags(p)

    p = add("periodic", help="periodic point table (CSV: period,count,orbit_count)")
    p.add_argument("--shift", required=True, choices=["sigma", "sigma_m"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", required=True, help="comma-separated periods")
    p.add_argument("--csv", help="also write a CSV table here")

    p = add("join-periodic", help="join of copies of a periodic point set")
    p.add_argument("--shift", required=True, choices=["sigma", "sigma_m"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--copies", type=int, default=2)

    p = add("config-space", help="build a discretized periodic-point space")
    add_space_flags(p, with_target=False)
    p.add_argument("--coeff", type=int, default=0)

    p = add("cubical-homology", help="betti numbers of the cubical model")
    add_space_flags(p, with_target=False)
    p.add_argument("--coeff", type=int, required=True)

    p = add("relabel", help="offset-m vs offset-1 relabeling isomorphism")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET,
                   help="most boxes the cell enumerator may try, plus p per cell it emits")

    p = add("obstruction-report", help="per-prime certified bound comparison")
    p.add_argument("--p-list", required=True)
    p.add_argument("--x-cert", action="append", help="artifact for the offset-gap side")
    p.add_argument("--z-cert", action="append", help="artifact for the consecutive-pair side")

    p = add("run", help="execute a manifest file")
    p.add_argument("--manifest", required=True)

    return parser


def _manifest_to_argv(manifest: dict) -> list[str]:
    if not isinstance(manifest, dict):
        raise ValidationError("malformed manifest: expected a JSON object")
    sub = manifest.get("subcommand")
    params = manifest.get("params", {})
    if not isinstance(sub, str) or sub not in HANDLERS:
        raise ValidationError(f"unknown subcommand {sub!r}")
    if not isinstance(params, dict):
        raise ValidationError(f"malformed manifest: params must be an object, got {params!r}")
    argv = [sub]
    for key in sorted(params):
        value = params[key]
        flag = "--" + key
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            for item in value:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(value)])
    if manifest.get("output"):
        argv.extend(["--out", str(manifest["output"])])
    if "budget" in manifest and "budget" not in params:
        argv.extend(["--budget", str(manifest["budget"])])
    return argv


def _provenance(args) -> dict:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("subcommand", "out") and v is not None}
    return {"tool": "zpindex", "version": __version__,
            "subcommand": args.subcommand, "params": params}


def _read_index(out_path: Path) -> dict:
    """The index.json beside out_path ({} if absent), refused unless a JSON object."""
    index_path = out_path.parent / "index.json"
    index = _load_json(index_path) if index_path.exists() else {}
    if not isinstance(index, dict):
        raise ValidationError(f"{index_path} is not a JSON object")
    return index


def _update_index(out_path: Path, index: dict, provenance: dict, artifact_sha: str):
    key = sha256_of({"subcommand": provenance["subcommand"],
                     "params": provenance["params"]})
    index[key] = {"subcommand": provenance["subcommand"],
                  "output": out_path.name, "sha256": artifact_sha}
    (out_path.parent / "index.json").write_text(canonical_json(index), encoding="utf-8")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "run":
        try:
            manifest = _load_json(args.manifest)
            argv2 = _manifest_to_argv(manifest)
        except (ValidationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return main(argv2)
    handler = HANDLERS[args.subcommand]
    try:
        index = _read_index(Path(args.out)) if args.out else None
        result = handler(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded (inconclusive): {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = {"provenance": _provenance(args), "result": result}
    artifact["sha256"] = sha256_of(artifact["result"])
    text = canonical_json(artifact)
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
        _update_index(out_path, index, artifact["provenance"], artifact["sha256"])
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
