"""Batch command-line front end.

Every subcommand validates its parameters, runs one operation, and writes a
deterministic JSON artifact (plus optional CSV) with a provenance block:
identical manifests produce byte-identical artifacts, so no timestamps or
environment data are recorded.  Each subcommand is declared once, on its
parser, which binds its handler; the parser is built once per process.  Runs
can be described by a JSON manifest and replayed with the `run` subcommand,
which returns the exit code its manifest's argv gets.

Exit codes: 0 success, 2 validation failure or a file that cannot be read or
written, 3 budget exceeded, 4 internal consistency violation (a coindex bound
above an index bound, or a certificate that does not load back as itself).
`index.json` beside an artifact maps each run to its output's name and hash,
so no artifact may take that name.

An artifact is the stdlib's text, `json.dumps(obj, sort_keys=True, indent=2)`
and a newline, so it stays byte-identical however it is made.  The stdlib
indents in pure Python, so `canonical_json` joins pieces that `str.join` and
the C encoder make: simplex lists in blocks of rows, each row seam indented.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .certificates import (
    certificate_from_json_dict,
    certificate_to_json_dict,
    coindex_lower,
    index_upper,
    obstruction_report,
    search_equivariant_map,
    subdivide_times,
)
from .cubical import (
    DEFAULT_CELL_BUDGET,
    GridSpec,
    build_pp_xm,
    build_pp_yz,
    cubical_homology,
    cubical_to_simplicial,
)
from .errors import BudgetExceeded, ConsistencyError, ValidationError
from .search import DEFAULT_BUDGET
from .simplicial import (
    INFINITE_CONNECTIVITY,
    complex_from_json_dict,
    complex_to_json_dict,
    e_n_zp,
    homology,
    join,
    join_power,
    sha256_of,
)
from .simplicial import barycentric_subdivide  # noqa: F401  perfbench/probes.py times it here
from .subshifts import as_free_zp_complex, make_sigma_m, periodic_points, periodic_table


def canonical_json(obj) -> str:
    """The artifact text of obj: json.dumps(obj, sort_keys=True, indent=2) and a newline."""
    pieces: list[str] = []
    _indented(obj, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


_ROWS = 128  # rows of a simplex list per C-encoded block


def _indented(x, pad: str, out: list) -> None:
    """Append the text json.dumps(x, sort_keys=True, indent=2) to out, indented by pad."""
    inner = pad + "  "
    if type(x) is dict and set(map(type, x)) == {str}:
        sep = "{" + inner
        for key, value in sorted(x.items()):
            out.append(sep + json.dumps(key) + ": ")
            _indented(value, inner, out)
            sep = "," + inner
        out.append(pad + "}")
        return
    kinds = set(map(type, x)) if type(x) in (list, tuple) else None
    if kinds == {int}:
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + pad + "]")
    elif kinds and kinds <= {list, tuple} and all(x) and set(
            map(type, itertools.chain.from_iterable(x))) == {int}:
        # rows of ints: the C encoder's seam "],<row pad>[" occurs only between rows
        row = inner + "  "
        encode = json.JSONEncoder(separators=("," + row, ": ")).encode
        seam, indented = "]," + row + "[", inner + "]," + inner + "[" + row
        for start in range(0, len(x), _ROWS):
            out.append(indented if start else "[" + inner + "[" + row)
            out.append(encode(x[start:start + _ROWS])[2:-2].replace(seam, indented))
        out.append(inner + "]" + pad + "]")
    else:
        out.append(json.dumps(x, sort_keys=True, indent=2).replace("\n", pad))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
            raise ValidationError(f"{path} is not JSON: {exc}") from exc


def _load_complex(path: str):
    return complex_from_json_dict(_load_json(path))


def _frac(text: str) -> Fraction:
    try:
        # Fraction computes 10**|exponent| first, but past the digit limit and
        # the text's own digits the value's numerator or denominator is too
        # long to print: refuse such an exponent from the text
        _, e, exponent = text.lower().rpartition("e")
        if e and 0 < sys.get_int_max_str_digits() < abs(int(exponent)) - len(text):
            raise ValueError(exponent)
        value = Fraction(text)
        str(value)  # the provenance prints it: refuse an int past the digit limit
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"--delta: expected a printable rational, got {text!r}") from exc
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(f"expected comma-separated integers, got {text!r}")
    return values


def _build_space(args):
    """Build the free complex named by --space (with its provenance)."""
    if args.space == "enzp":
        x = e_n_zp(args.n, args.p)
        return x, {"space": "enzp", "n": args.n, "p": args.p}
    if args.space == "file":
        if args.input is None:
            raise ValidationError("--space file needs --input")
        x = _load_complex(args.input)
        return x, {"space": "file", "input": args.input}
    cubical, prov = _build_cubical(args)
    return cubical_to_simplicial(cubical), {**prov, "cells": len(cubical.cells)}


def _build_cubical(args):
    """Build the cubical complex named by --space Xm, Y or Z (with its provenance)."""
    prov = {"space": args.space, "p": args.p, "grid": args.grid}
    if args.space == "Xm":
        grid, delta = GridSpec(args.N, args.grid, circle_valued=False), _frac(args.delta)
        prov.update({"N": args.N, "delta": str(delta), "m": args.m})
        return build_pp_xm(args.N, delta, args.m, args.p, grid, budget=args.cell_budget), prov
    grid = GridSpec(1, args.grid, circle_valued=True)
    return build_pp_yz(args.space, args.p, grid, budget=args.cell_budget), prov


def _homology_result(profile) -> dict:
    conn = profile.homological_connectivity
    return {"p": profile.p, "betti": list(profile.betti), "reduced": profile.reduced,
            "homological_connectivity": "inf" if conn == INFINITE_CONNECTIVITY else conn}


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
    x = subdivide_times(_load_complex(args.input), args.depth)
    return {"complex": complex_to_json_dict(x), "depth": args.depth}


def cmd_homology(args):
    x = _load_complex(args.input)
    return {"homology": _homology_result(homology(x.complex, args.coeff, reduced=args.reduced))}


def cmd_search_map(args):
    source = _load_complex(args.source)
    target = _load_complex(args.target)
    found, _ = search_equivariant_map(source, target, args.depth, args.budget)
    if found is None:
        return {"found": False, "depth": args.depth,
                "note": "exhausted at this depth; not a disproof"}
    return {"found": True, "depth": args.depth,
            "vertex_map": list(found.vertex_map)}


def cmd_bound(bound, args):
    x, prov = _build_space(args)
    cert = bound(x, args.target, args.depth, args.budget)
    data = certificate_to_json_dict(cert)
    if certificate_from_json_dict(data) != cert:  # loading derives the value again
        raise ConsistencyError(f"a certificate on {cert.space} does not load back as itself")
    return {"certificate": data, "certificate_sha256": sha256_of(data),
            "summary": cert.describe(), "space_params": prov}


def _shift_from_args(args):
    if args.shift == "sigma" and args.m != 1:
        raise ValidationError(f"--shift sigma is sigma_m with m = 1, not --m {args.m}; "
                              "use --shift sigma_m")
    return make_sigma_m(args.m)


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
    cubical, prov = _build_cubical(args)
    result = {"provenance_header": prov, "cells": len(cubical.cells),
              "complex": complex_to_json_dict(cubical_to_simplicial(cubical))}
    if args.coeff:
        result["cubical_homology"] = _homology_result(
            cubical_homology(cubical, args.coeff))
    return result


def cmd_cubical_homology(args):
    cubical, prov = _build_cubical(args)
    return {"provenance_header": prov, "cells": len(cubical.cells),
            "homology": _homology_result(cubical_homology(cubical, args.coeff))}


def _load_certificate(path: str):
    """The certificate of a coind/ind artifact or of a raw certificate file.
    An artifact's `space_params`, if given, must be an object, and its `p`,
    if given, the certificate's own prime."""
    data = _load_json(path)
    artifact = isinstance(data, dict) and "result" in data
    result = data["result"] if artifact else {"certificate": data}
    if not isinstance(result, dict) or "certificate" not in result:
        raise ValidationError(f"{path} is neither a certificate nor a coind/ind artifact")
    cert = certificate_from_json_dict(result["certificate"])
    params = result.get("space_params", {})
    if not isinstance(params, dict):
        raise ValidationError(f"{path}: space_params {params!r} is not an object")
    stated = params.get("p", cert.p)
    if type(stated) is not int or stated != cert.p:
        raise ValidationError(f"{path}: space_params.p = {stated!r} is not the prime "
                              f"{cert.p} of the certificate")
    return cert


def cmd_obstruction_report(args):
    rows = obstruction_report(_int_list(args.p_list),
                              map(_load_certificate, args.x_cert or ()),
                              map(_load_certificate, args.z_cert or ()))
    return {"rows": [dataclasses.asdict(row) for row in rows]}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpindex",
        description="Certified index/coindex bounds and periodic points.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if handler:
            p.add_argument("--out", help="artifact JSON path (default: stdout)")
        return p

    def add_space_flags(p, with_target=True):
        spaces = ["enzp", "Xm", "Y", "Z", "file"] if with_target else ["Xm", "Y", "Z"]
        p.add_argument("--space", required=True, choices=spaces)
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--N", type=int, default=1)
        p.add_argument("--delta", default="1/2", help="rational a/b")
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--grid", type=int, default=2)
        p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET,
                       help="most boxes the cell enumerator may try, plus p per cell it emits")
        if with_target:
            p.add_argument("--n", type=int, default=0, help="model dimension for --space enzp")
            p.add_argument("--input", help="complex JSON for --space file")
            p.add_argument("--target", type=int, required=True)
            p.add_argument("--depth", type=int, default=0)
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("enzp", cmd_enzp, help="standard n-dimensional model for Z_p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--homology", action="store_true")
    p.add_argument("--coeff", type=int, default=0)
    p.add_argument("--reduced", action="store_true")

    p = add("join", cmd_join, help="combinatorial join of two complexes")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("subdivide", cmd_subdivide, help="barycentric subdivision")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, default=1)

    p = add("homology", cmd_homology, help="betti numbers over F_p")
    p.add_argument("--input", required=True)
    p.add_argument("--coeff", type=int, required=True)
    p.add_argument("--reduced", action="store_true")

    p = add("search-map", cmd_search_map, help="equivariant simplicial map search")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    for name, bound, kind in (("coind", coindex_lower, "coindex lower"),
                              ("ind", index_upper, "index upper")):
        add_space_flags(add(name, functools.partial(cmd_bound, bound),
                            help=kind + " bound certificate"))

    p = add("periodic", cmd_periodic, help="periodic point table (CSV: period,count,orbit_count)")
    p.add_argument("--shift", required=True, choices=["sigma", "sigma_m"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", required=True, help="comma-separated periods")
    p.add_argument("--csv", help="also write a CSV table here")

    p = add("join-periodic", cmd_join_periodic, help="join of copies of a periodic point set")
    p.add_argument("--shift", required=True, choices=["sigma", "sigma_m"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--copies", type=int, default=2)

    p = add("config-space", cmd_config_space, help="build a discretized periodic-point space")
    add_space_flags(p, with_target=False)
    p.add_argument("--coeff", type=int, default=0)

    p = add("cubical-homology", cmd_cubical_homology, help="betti numbers of the cubical model")
    add_space_flags(p, with_target=False)
    p.add_argument("--coeff", type=int, required=True)

    p = add("obstruction-report", cmd_obstruction_report,
            help="per-prime certified bound comparison")
    p.add_argument("--p-list", required=True)
    p.add_argument("--x-cert", action="append", help="artifact for the offset-gap side")
    p.add_argument("--z-cert", action="append", help="artifact for the consecutive-pair side")

    p = add("run", None, help="execute a manifest file")
    p.add_argument("--manifest", required=True)

    return parser


def _manifest_to_argv(manifest: dict) -> list[str]:
    if not isinstance(manifest, dict):
        raise ValidationError("malformed manifest: expected a JSON object")
    unknown = sorted(set(manifest) - {"subcommand", "params", "output"})
    if unknown:
        raise ValidationError(f"malformed manifest: unknown top-level keys {unknown}")
    sub = manifest.get("subcommand")
    params = manifest.get("params", {})
    if not isinstance(sub, str) or sub == "run":
        raise ValidationError(f"a manifest may not run subcommand {sub!r}")
    if not isinstance(params, dict):
        raise ValidationError(f"malformed manifest: params must be an object, got {params!r}")
    argv = [sub]
    for key in sorted(params):
        value = params[key]
        flag = "--" + key
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(item, (str, int, float)) for item in items):  # bool is an int
            raise ValidationError(f"malformed manifest: param {key} = {value!r} is not a "
                                  "string, number or bool, or a list of those")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            for item in items:
                argv.extend([flag, str(item)])
    output = manifest.get("output", "")
    if type(output) is not str:
        raise ValidationError(f"malformed manifest: output {output!r} is not a string")
    return argv + (["--out", output] if output else [])


def _provenance(args) -> dict:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("subcommand", "handler", "out") and v is not None}
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
    args = build_parser().parse_args(argv)
    if args.subcommand == "run":
        try:
            argv2 = _manifest_to_argv(_load_json(args.manifest))
        except (ValidationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            return main(argv2)
        except SystemExit as exc:
            return exc.code
    out_path = Path(args.out) if args.out else None
    try:
        if out_path and out_path.name == "index.json":
            raise ValidationError("--out may not be index.json, which indexes the artifacts")
        index = _read_index(out_path) if out_path else None
        artifact = {"provenance": _provenance(args), "result": args.handler(args)}
        artifact["sha256"] = sha256_of(artifact["result"])
        text = canonical_json(artifact)
        if out_path:
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(text, encoding="utf-8")
            _update_index(out_path, index, artifact["provenance"], artifact["sha256"])
        else:
            sys.stdout.write(text)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
