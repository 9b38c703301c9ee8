"""Mutation catalogue: each entry breaks `src/` on purpose, with one fault,
and names the tests that must fail on the broken copy.

    python3 tools/mutants.py            # run every mutant
    python3 tools/mutants.py --list     # print the catalogue

Each mutant is one or more edits, made in order; an edit replaces an exact
text, which must occur once in its file, by a new text (a fault that moves
code takes two).  The edits are made in a copy of `src/` and `tests/` under
a temporary directory, never in the checkout, and the mutant's tests are run
there in a fresh pytest process.  A mutant is killed when pytest reports a
failure (exit 1) or runs out of time; it survives when its tests pass.  The
named tests are first run once on an unmutated copy, where they must pass.
The exit status is 0 when every mutant is killed, 1 when one survives and 2
when the catalogue itself is wrong (a text not found once, a test that does
not run or fails unmutated).

The catalogue extends DeMillo, Lipton & Sayward, "Hints on test data
selection" (IEEE Computer, 1978), to a regression suite: a refactor that lets
a mutant survive has lost a test.  `tests/test_mutants.py` checks in tier-1
that every old text still occurs exactly once and every named test exists;
the full run starts a pytest process per mutant and stays outside tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # a mutant that loops forever counts as killed


class Mutant(NamedTuple):
    name: str
    edits: tuple[tuple[str, str, str], ...]  # (file relative to the repository root, old, new)
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


CLOSURE_ORACLE = "tests/test_simplicial.py::TestLevelChecksMatchOracle"
FACE_RELATION = "tests/test_simplicial.py::TestFaceRelationProperties"
JSON = "tests/test_simplicial.py::TestJsonInterchange"
LEVEL_CHECKS = "tests/test_simplicial.py::TestLevelChecks"
TABLE = "tests/test_subshifts.py::TestTable"
WINDOWS = "tests/test_cubical.py::TestWindowTable"
ENUMERATION = "tests/test_cubical.py::TestEnumerationProperties"
ENUMERATOR = "tests/test_subshifts.py::TestEnumerator"
PLAIN = "tests/test_search.py::TestAgainstPlainBacktracking"
FAST_PATH = "tests/test_simplicial.py::TestVertexMapFastPath"
CANONICAL = "tests/test_cli.py::TestCanonicalJson"

MUTANTS = (
    Mutant("fast path without the mod-p test",
           (("src/zpindex/fplinalg.py",
             "if col and col[low := max(col)] % p and low not in pivots:",
             "if col and (low := max(col)) not in pivots:"),),
           ("tests/test_fplinalg.py::TestRankContract::test_lowest_entry_vanishing_mod_p",)),
    Mutant("fast path over a taken pivot row",
           (("src/zpindex/fplinalg.py",
             "if col and col[low := max(col)] % p and low not in pivots:",
             "if col and col[low := max(col)] % p:"),),
           ("tests/test_fplinalg.py::TestRankContract::test_lowest_row_already_a_pivot",)),
    Mutant("simplicial faces all of sign +1",
           (("src/zpindex/simplicial.py",
             "signs = ((-1, 1) * len(starts), (1, -1) * len(starts))",
             "signs = ((1, 1) * len(starts), (1, 1) * len(starts))"),),
           ("tests/test_simplicial.py::TestHomologyProperties::test_matches_dense_elimination",)),
    Mutant("cubical levels handed over unsorted",
           (("src/zpindex/cubical.py",
             "betti_numbers(cx.by_dim, signed_faces, p_coeff, False)",
             "betti_numbers([level[::-1] for level in cx.by_dim], signed_faces, p_coeff, False)"),),
           ("tests/test_fplinalg.py::TestDriver::test_levels_increase_and_faces_lie_below",)),
    Mutant("closure facets kept in a list, duplicates and all",
           (("src/zpindex/simplicial.py",
             "facets = dict.fromkeys(itertools.chain.from_iterable(",
             "facets = list(itertools.chain.from_iterable("),),
           (f"{CLOSURE_ORACLE}::test_complex_refused_iff_oracle_refuses",)),
    Mutant("every given simplex recorded as maximal",
           (("src/zpindex/simplicial.py",
             "tops = sorted(itertools.filterfalse(facets.__contains__, levels[size]))",
             "tops = sorted(levels[size])"),),
           (f"{FACE_RELATION}::test_maximal_matches_brute_force",
            f"{CLOSURE_ORACLE}::test_complex_refused_iff_oracle_refuses")),
    Mutant("closed level left unsorted",
           (("src/zpindex/simplicial.py",
             "tuple(facets := sorted(itertools.chain(facets, tops)))",
             "tuple(facets := list(itertools.chain(facets, tops)))"),),
           (f"{CLOSURE_ORACLE}::test_complex_refused_iff_oracle_refuses",)),
    Mutant("flag test always true",
           (("src/zpindex/search.py",
             "if sum(map(int.bit_count, above)) != len(levels[d + 1]):",
             "if False:"),),
           ("tests/test_search.py::test_every_simplex_orbit_is_checked",
            "tests/test_search.py::test_clique_count_matches_networkx")),
    Mutant("no shift bitsets for edges inside an orbit",
           (("src/zpindex/search.py",
             "start = [reduce(and_, map(shifted.__getitem__, needed), everything) for needed in shifts]",
             "start = [everything for needed in shifts]"),),
           ("tests/test_search.py::test_edges_inside_an_orbit_are_checked",
            "tests/test_search.py::TestAgainstPlainBacktracking::test_same_map_nodes_and_budget_raise")),
    Mutant("clique count without the +1 shift",
           (("src/zpindex/search.py",
             "above = map(rshift, common, map((1).__add__, cols[-1]))",
             "above = map(rshift, common, cols[-1])"),),
           ("tests/test_search.py::test_clique_count_matches_networkx",
            "tests/test_search.py::test_targets_are_flag[e2p2]")),
    Mutant("clique count stops one level early",
           (("src/zpindex/search.py",
             "for d in range(1, min(size - 1, len(cx.by_dim))):",
             "for d in range(1, min(size - 2, len(cx.by_dim))):"),),
           ("tests/test_search.py::test_clique_count_matches_networkx",
            "tests/test_search.py::test_non_flag_complexes_are_found[triangle-boundary]")),
    Mutant("only simplices of 4 or more vertices checked",
           (("src/zpindex/search.py",
             "if orbits[k][0] in s:",
             "if orbits[k][0] in s and len(s) > 3:"),),
           ("tests/test_search.py::test_every_simplex_orbit_is_checked",)),
    Mutant("resumed orbit charged from rank 1",
           (("src/zpindex/search.py",
             "domain, counted = placed.pop()",
             "domain, counted = placed.pop()[0], 1"),),
           (f"{PLAIN}::test_same_map_nodes_and_budget_raise",
            "tests/test_search.py::test_refute_node_counts")),
    Mutant("matrix products not cut at the cap",
           (("src/zpindex/subshifts.py",
             "return [[min(sum(map(mul, row, col)), cap) for col in zip(*y)] for row in x]",
             "return [[sum(map(mul, row, col)) for col in zip(*y)] for row in x]"),),
           (f"{TABLE}::test_cut_power_is_the_cut_true_power",)),
    Mutant("closed walks of length n in place of n/g",
           (("src/zpindex/subshifts.py",
             "walks = _power(allowed, n // g, cap)",
             "walks = _power(allowed, n, cap)"),),
           (f"{TABLE}::test_counts_match_brute_force", f"{TABLE}::test_no_word_is_built")),
    Mutant("Burnside weight 1 in place of phi(n/d)",
           (("src/zpindex/subshifts.py",
             "phi[n // d] * _count(allowed, shift.window, d, cap) for d in phi)",
             "_count(allowed, shift.window, d, cap) for d in phi)"),),
           (f"{TABLE}::test_burnside_matches_walked_orbits",)),
    Mutant("a period refused at n * count == budget",
           (("src/zpindex/subshifts.py",
             "if n * points > budget:",
             "if n * points >= budget:"),),
           (f"{TABLE}::test_budget_bounds_the_symbols_counted",)),
    Mutant("a word charged as a position entered",
           (("src/zpindex/subshifts.py",
             "nodes += n if i == n - 1 else size",
             "nodes += size"),),
           (f"{ENUMERATOR}::test_same_tree_as_place_and_check",
            f"{ENUMERATOR}::test_emitted_words_count_against_budget")),
    Mutant("no vertex orbit test",
           (("src/zpindex/simplicial.py",
             "orbits = set(map(tuple, map(sorted, self.vertex_orbits())))",
             "orbits = set()"),),
           (f"{LEVEL_CHECKS}::test_action_check_refuses[fixed-edge]",
            "tests/test_simplicial.py::TestValidation::test_non_free_action_rejected")),
    Mutant("fixed vertices not looked up",
           (("src/zpindex/simplicial.py",
             "itertools.chain(*cx.by_dim[:1], *cx.by_dim[self.p - 1:self.p])",
             "itertools.chain(*cx.by_dim[self.p - 1:self.p])"),),
           (f"{LEVEL_CHECKS}::test_action_check_refuses[fixed-vertex]",)),
    Mutant("images checked against the top level only",
           (("src/zpindex/simplicial.py",
             "tops = set(cx._maximal)",
             "tops = set(cx.by_dim[-1])"),),
           (f"{LEVEL_CHECKS}::test_action_check_refuses[non-simplicial-lower-maximal]",)),
    Mutant("non-int vertices let through to the closure",
           (("src/zpindex/simplicial.py",
             "if set(map(type, vertices)) - {int}:",
             "if False:"),),
           (f"{JSON}::test_float_vertex_refused_before_the_closure",
            f"{LEVEL_CHECKS}::test_non_integer_behind_equal_int_refused")),
    Mutant("_validate run after the closure",
           (("src/zpindex/simplicial.py",
             "        self._validate(given)\n        by_size",
             "        by_size"),
            ("src/zpindex/simplicial.py",
             'object.__setattr__(self, "_maximal", tuple(maximal))',
             'object.__setattr__(self, "_maximal", tuple(maximal))\n        self._validate(given)')),
           (f"{JSON}::test_vertex_range_refused_before_the_closure",
            f"{JSON}::test_float_vertex_refused_before_the_closure")),
    Mutant("map fast path reads only the top-dimensional maximal simplices",
           (("src/zpindex/verify.py",
             "vertex_map.__getitem__), source.complex.maximal_simplices())",
             "vertex_map.__getitem__), source.complex.by_dim[-1])"),),
           (f"{FAST_PATH}::test_map_failing_only_on_lower_maximal_simplices",)),
    Mutant("map target table stops one level short",
           (("src/zpindex/verify.py",
             "target.complex.by_dim[:source.dim + 1]",
             "target.complex.by_dim[:source.dim]"),),
           (f"{FAST_PATH}::test_map_failing_only_on_lower_maximal_simplices",
            f"{FAST_PATH}::test_sources_of_dimension_at_most_0[coind-shaped]")),
    Mutant("refused map named on its maximal simplices only",
           (("src/zpindex/verify.py",
             "for s in source.complex.simplices():",
             "for s in source.complex.maximal_simplices():"),),
           (f"{FAST_PATH}::test_failing_faces_reported_before_their_coface",)),
    # the enumerator alone judges windows, so only these tests guard the judges
    Mutant("offset-gap judge with the squared gap doubled",
           (("src/zpindex/cubical.py",
             "t2 * sum(",
             "2 * t2 * sum("),),
           (f"{WINDOWS}::test_offset_gap[delta2-2-2]",
            f"{ENUMERATION}::test_xm_matches_brute_force")),
    Mutant("looser Z judge: rho >= 1/3 on the first pair",
           (("src/zpindex/cubical.py",
             "2 * _circle_gap(a, b, two_g) < g",
             "3 * _circle_gap(a, b, two_g) < g"),),
           (f"{WINDOWS}::test_circle_pair[Z-3]", f"{ENUMERATION}::test_yz_matches_brute_force")),
    Mutant("stricter Y judge: the second pair never antipodal",
           (("src/zpindex/cubical.py",
             "or yl == zl == 0 and (y - z) % two_g == g",
             "or False"),),
           (f"{WINDOWS}::test_circle_pair[Y-2]", f"{ENUMERATION}::test_yz_matches_brute_force")),
    Mutant("a 0-dimensional complex subdivided depth times",
           (("src/zpindex/certificates.py",
             "range(depth if x.dim > 0 else min(depth, 1))",
             "range(depth)"),),
           ("tests/test_certificates.py::TestSubdivideTimes::test_dimension_0_subdivided_at_most_once",)),
    Mutant("report picks with the established test inverted",
           (("src/zpindex/certificates.py",
             "if c.established == established and",
             "if c.established != established and"),),
           ("tests/test_certificates.py::TestObstructionReport::test_rows",
            "tests/test_cli.py::TestSubcommands::test_obstruction_report_shows_an_exhausted_ind")),
    Mutant("manifest output accepted unchecked",
           (("src/zpindex/cli.py",
             'output = manifest.get("output", "")',
             'output = str(manifest.get("output", ""))'),),
           ("tests/test_cli.py::TestManifests::test_value_of_no_flag_is_2_and_writes_nothing"
            "[output-true]",)),
    # canonical_json must write the stdlib's indented text byte for byte
    Mutant("int list test taking bools for ints",
           (("src/zpindex/cli.py",
             "if kinds == {int}:",
             "if kinds and all(isinstance(v, int) for v in x):"),),
           (f"{CANONICAL}::test_edge_cases[bool-int]", f"{CANONICAL}::test_matches_the_stdlib")),
    Mutant("row seam without its inner pad",
           (("src/zpindex/cli.py",
             'seam, indented = "]," + row + "[", inner + "]," + inner + "[" + row',
             'seam, indented = "]," + row + "[", "]," + inner + "[" + row'),),
           (f"{CANONICAL}::test_rows_past_one_block", f"{CANONICAL}::test_matches_the_stdlib",
            "tests/test_cli.py::test_artifact_file_sha256[join-periodic]")),
    Mutant("rows of ints not required to be non-empty",
           (("src/zpindex/cli.py",
             "kinds <= {list, tuple} and all(x) and set(",
             "kinds <= {list, tuple} and set("),),
           (f"{CANONICAL}::test_edge_cases[empty-row]", f"{CANONICAL}::test_matches_the_stdlib")),
)


def _copy() -> Path:
    """A fresh copy of the parts of the checkout the tests read."""
    where = Path(tempfile.mkdtemp(prefix="mutant-"))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, where / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "pyproject.toml", where / "pyproject.toml")
    return where


def _pytest(where: Path, tests) -> int | None:
    """pytest's exit code on the given node ids in the copy, None on timeout."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=where, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print the catalogue and exit")
    args = ap.parse_args()
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}:")
            for file, old, new in m.edits:
                print(f"  {file}\n  - {old}\n  + {new}")
            print(f"  must fail: {', '.join(m.tests)}")
        return 0
    for m in MUTANTS:
        for file, old, _ in m.edits:
            if (ROOT / file).read_text().count(old) != 1:
                print(f"catalogue: {m.name}: the old text does not occur once in {file}")
                return 2
    where = _copy()
    try:
        named = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(where, named) != 0:
            print("catalogue: the named tests do not all pass on an unmutated copy")
            return 2
        survivors = 0
        for m in MUTANTS:
            sources = {file: (where / file).read_text() for file, _, _ in m.edits}
            for file, old, new in m.edits:
                (where / file).write_text((where / file).read_text().replace(old, new))
            code = _pytest(where, m.tests)
            for file, source in sources.items():
                (where / file).write_text(source)
            if code not in (0, 1, None):
                print(f"catalogue: {m.name}: pytest exited {code}")
                return 2
            survivors += code == 0
            print(f"{'SURVIVED' if code == 0 else 'killed'}: {m.name}"
                  + (" (timed out)" if code is None else ""))
        return 1 if survivors else 0
    finally:
        shutil.rmtree(where)


if __name__ == "__main__":
    sys.exit(main())
