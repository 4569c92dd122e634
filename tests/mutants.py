"""Mutants the test suite must kill, one small edit to the package each.

Usage: python tests/mutants.py

Each row of MUTANTS names a file under src/, an exact old text, the new
text that replaces it, the tests that must fail on the result and why
they should.  For each row the script copies src/ to a temporary
directory, patches the copy and runs the named tests against it with
`python -m pytest -x -q` in a subprocess, the copy first on PYTHONPATH.
A mutant is killed when pytest reports a failing test (exit code 1).

The old text must occur exactly once in its file, and pytest must find
every named test, so a row that no longer applies is reported as stale
rather than passing quietly.  At the end the script names every
survivor and every stale row, and exits non-zero if there is any.

The file has no `test_` prefix, so pytest does not collect it.  A change
that shows a test guards an invariant by a mutation adds its row here.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

CECH = "dworklab/weyl/cech.py"
CECH_TESTS = "tests/test_weyl_cech.py::"
SEARCH_TESTS = "tests/test_search.py::"
DSL = "dworklab/dsl.py"
LEX_TESTS = "tests/test_lex_property.py::"

# (file under src/, old text, new text, test node ids, reason)
MUTANTS = [
    (CECH,
     "self._records.get((pole - 1, q - 1), ((), ()))[1]",
     "self._records.get((pole - 1, q), ((), ()))[1]",
     [f"{CECH_TESTS}test_a_ladder_builds_and_reduces_the_pinned_rows",
      f"{CECH_TESTS}test_a_rung_after_its_predecessor_builds_no_pole_p_row"],
     "the Čech d² = 0 skip reads the (pole − 1, q) record, a grade off: "
     "its leads are not the rows d² = 0 proves dependent"),
    (CECH,
     "skip = set(self._records.get((pole - 1, q - 1), ((), ()))[1])",
     "skip = set()",
     [f"{CECH_TESTS}test_a_ladder_builds_and_reduces_the_pinned_rows"],
     "no Čech d² = 0 skip: the answers stay right, but every dependent "
     "row is built and reduced to zero"),
    (CECH,
     "skip = set(self._records.get((P - 1, q - 1), ((), ()))[1])",
     "skip = set(self._records.get((P, q - 1), ((), ()))[1])",
     [f"{CECH_TESTS}test_a_ladder_builds_and_reduces_the_pinned_rows",
      f"{CECH_TESTS}test_a_rung_after_its_predecessor_builds_no_pole_p_row"],
     "the W-side skip reads the (P, q − 1) record, a pole off: its leads "
     "are not the embedded rows U already spans"),
    (CECH,
     "skip = set(self._records.get((P - 1, q - 1), ((), ()))[1])",
     "skip = set(self._records.get((P - 1, q), ((), ()))[1])",
     [f"{CECH_TESTS}test_a_ladder_builds_and_reduces_the_pinned_rows",
      f"{CECH_TESTS}test_a_rung_after_its_predecessor_builds_no_pole_p_row"],
     "the W-side skip reads the (P − 1, q) record, a grade off: its leads "
     "are not the embedded rows U already spans"),
    ("dworklab/weyl/linalg.py",
     "                if step & 15:\n"
     "                    _divide_content(r)\n"
     "                pivots[lead] = r",
     "                pivots[lead] = r",
     ["tests/test_echelon_property.py::"
      "test_stored_pivots_equal_the_plain_loops"],
     "the echelon stores a row without its final content division: a "
     "pivot reduced since the last division is not primitive"),
    (CECH,
     "ech = self._feed(P + 1, q - 1, D + self.maxdeg + 1)",
     "ech = self._feed(P + 1, q - 1, self.schedule(t + 1)[1] "
     "+ self.maxdeg + 1)",
     [f"{CECH_TESTS}test_no_record_reaches_past_a_stage_read_one_pole_up"],
     "U fed one schedule step further: its records reach past a stage "
     "read one pole up, where the whole-record skip is no longer sound"),
    (CECH,
     "sgI = -gI if (len(I) - 1) & 1 else gI",
     "sgI = gI",
     [f"{CECH_TESTS}test_total_differential_squares_to_zero"],
     "the de Rham part of the Čech differential loses its sign "
     "(−1)^(|I|−1) on pieces of even size"),
    (CECH,
     "squares[I] = _int_terms(gI * gI)",
     "squares[I] = _int_terms(gI)",
     [f"{CECH_TESTS}test_rungs_match_reference"],
     "W embedded by g_I instead of g_I², one pole short of U"),
    ("dworklab/weyl/twisted.py",
     "self.rows(k, e, exclude=below[k])",
     "self.rows(k, e, exclude=below[k + 1])",
     ["tests/test_weyl_twisted.py::test_ladder_skips_rows_known_dependent"],
     "the twisted skip reads grade k's own pivots instead of grade k − 1's"),
    ("dworklab/weyl/forms.py",
     "shift = (2 * max(e * self._wmax, self._kmax)).bit_length()",
     "shift = max(e * self._wmax, self._kmax).bit_length()",
     ["tests/test_weyl_forms.py::"
      "test_walked_blocks_equal_weighing_every_monomial"],
     "the weight walk's packing base without its factor 2: distinct "
     "weights can pack alike"),
    ("dworklab/weyl/forms.py",
     "shift = (2 * max(e * self._wmax, self._kmax)).bit_length()\n"
     "        packing = self._packings.get(shift)\n"
     "        if packing is None:\n"
     "            def pack(vec):\n"
     "                return sum(v << i * shift for i, v in enumerate(vec))",
     "shift = max(e * self._wmax, self._kmax, 1)\n"
     "        packing = self._packings.get(shift)\n"
     "        if packing is None:\n"
     "            def pack(vec):\n"
     "                return sum(v * shift ** i for i, v in enumerate(vec))",
     ["tests/test_weyl_forms.py::"
      "test_walked_blocks_equal_weighing_every_monomial"],
     "the weight walk packs in base exactly M: a weight one carry away "
     "from a key packs like it"),
    ("dworklab/weyl/forms.py",
     "add_into(merged, mono_code(m) + tgt, c * sgn * v)",
     "add_into(merged, mono_code(m) + tgt,\n"
     "                     (c if j or m != max(dp[j]) else -c) * sgn * v)",
     ["tests/test_newton_property.py::"
      "test_twisted_table_of_a_drawn_convenient_f_is_its_newton_number"],
     "one term of the template's dF_0, its largest exponent, changes "
     "sign: the twisted differential is no longer d + dF∧, and drawn "
     "tables miss their Newton numbers"),
    ("dworklab/cli.py",
     "from .errors import ParseError\n",
     "from .dsl import load_script\nfrom .errors import ParseError\n",
     ["tests/test_package.py::test_dwork_check_loads_no_symbolic_module"],
     "the CLI imports the script language with itself, and with it the "
     "whole symbolic engine, which dwork-check never uses"),
    ("dworklab/weyl/forms.py",
     "for a in range(rest + 1):\n                    walk(",
     "for a in range(rest, -1, -1):\n                    walk(",
     ["tests/test_weyl_forms.py::"
      "test_walked_blocks_equal_weighing_every_monomial"],
     "a weight-walk level in descending order: the blocks hold the same "
     "monomials, but no longer in graded order"),
    ("dworklab/search.py",
     "if len(nk) > _KEY_CAP:",
     "if len(nk) >= _KEY_CAP:",
     [f"{SEARCH_TESTS}test_move_table_at_the_key_cap"],
     "the key cap is off by one: a successor serialized exactly as long "
     "as the cap never reaches the frontier"),
    ("dworklab/rules.py",
     "(*row, serialize(row[5]))",
     "(*row, key)",
     [f"{SEARCH_TESTS}test_move_table_gives_the_reference_successors",
      f"{SEARCH_TESTS}test_search_work_is_pinned"],
     "the move table splices the subterm's own serialization in place of "
     "the replacement's: every successor reads as its parent"),
    ("dworklab/search.py",
     "if fd + bd == max_depth else None",
     "if fd + bd >= max_depth - 1 else None",
     [f"{SEARCH_TESTS}test_search_meets_where_the_plain_search_does"],
     "the search starts probing one layer early: the layer before the last "
     "is never expanded, so chains of full depth are missed"),
    ("dworklab/rules.py",
     "(sq.f_prime, sq.h_prime)",
     "(sq.h_prime, sq.f_prime)",
     [f"{SEARCH_TESTS}test_narrowed_candidates_lose_no_move"],
     "R5 forward looks squares up by their swapped legs, so it is offered "
     "where it cannot rewrite and not where it can"),
    ("dworklab/terms.py",
     'return key[1:key.rindex(")[")] if key.startswith("(") else key',
     "return key",
     [f"{SEARCH_TESTS}test_search_meets_where_the_plain_search_does",
      f"{SEARCH_TESTS}test_search_rediscovers_the_support_collapse"],
     "the other side's root shift is not unwrapped: the last layer's "
     "probe skips every subterm of a goal with a shifted side"),
    ("dworklab/rules.py",
     "(sq.h, sq.f)",
     "(sq.f, sq.h)",
     [f"{SEARCH_TESTS}test_narrowed_candidates_lose_no_move"],
     "R5 backward looks squares up by their swapped legs, so it is offered "
     "where it cannot rewrite and not where it can"),
    ("dworklab/weyl/compare.py",
     "    if differ:\n        trep = _to_cap(",
     "    if False:\n        trep = _to_cap(",
     ["tests/test_cli.py::test_a_small_window_is_not_a_false_mismatch",
      "tests/test_fuzz.py::test_a_small_window_or_cap_is_never_a_mismatch",
      "tests/test_weyl_compare.py::"
      "test_a_window_too_small_for_a_class_is_not_a_mismatch"],
     "the verdict is read off the first stops again: a ladder that stopped "
     "on windows too small to hold a class gives a false mismatch"),
    ("dworklab/weyl/compare.py",
     "or differ and (d_max is not None or t_max is not None)):",
     "or False):",
     ["tests/test_cli.py::test_a_cap_that_keeps_a_class_out_is_inconclusive",
      "tests/test_weyl_compare.py::"
      "test_tables_first_read_apart_go_on_to_the_caps"],
     "a caller's cap is trusted like the defaults: a twisted cap below the "
     "cutoff where a class shows gives a false mismatch"),
    ("dworklab/geometry.py",
     "self.identities.append(self._identity(lhs, rhs))\n"
     "        self._normal_atoms.clear()\n",
     "self.identities.append(self._identity(lhs, rhs))\n",
     ["tests/test_geometry.py::"
      "test_a_declared_identity_renormalizes_maps_seen_before"],
     "declare_identity keeps the memo of normal forms, so maps normalized "
     "before the identity keep their stale normal forms"),
    ("dworklab/geometry.py",
     "flat.extend(a.args)",
     "flat.append(a)",
     ["tests/test_geometry.py::test_a_nested_intersection_flattens"],
     "an intersection nested in an intersection is kept whole, so equal "
     "intersections get different normal forms"),
    ("dworklab/rules.py",
     "verdict = False",
     "verdict = True",
     [f"{SEARCH_TESTS}"
      "test_a_move_whose_undo_is_refused_is_not_undone_exactly"],
     "a move whose undo the rules refuse counts as undone exactly: the "
     "search would take it as a backward edge"),
    ("dworklab/rules.py",
     "ctx.bundles[ctx.fourier[b].dual].sect",
     "ctx.bundles[b].sect",
     [f"{SEARCH_TESTS}test_narrowed_candidates_lose_no_move"],
     "R16 and R17 forward are indexed by the bundle's own zero section "
     "instead of its dual's, so they are offered where they cannot "
     "rewrite and not where they can"),
    ("dworklab/geometry.py",
     "self.morphisms_equal(\n                        self.composite(*atoms), m)",
     "atoms == m.atoms",
     ["tests/test_cli.py::"
      "test_a_fact_about_a_map_is_found_through_its_normal_form[preimage]"],
     "a preimage fact is read by its map's raw atom again: after j = k, "
     "the preimage along j of S no longer normalizes to the declared T"),
    ("dworklab/geometry.py",
     "and tuple(map(self.part_form, atom.parts)) == want):",
     "and atom.parts == (c1, c2)):",
     ["tests/test_cli.py::"
      "test_a_product_map_is_found_through_its_parts_normal_forms"],
     "a product map is read by its parts' raw names again: after f = h, "
     "R20 backward along h finds no id x h"),
    ("dworklab/rules.py",
     "if ctx.morphisms_equal(ctx.composite(a), n)), None)",
     "if (a,) == n.atoms), None)",
     ["tests/test_cli.py::"
      "test_a_fact_about_a_map_is_found_through_its_normal_form[image]"],
     "an embedding's image is read by its raw atom again: after j = k, "
     "R10 backward along j finds no image"),
    ("dworklab/rules.py",
     'if atom.kind != "pmap" or ctx.part_form(atom.parts[0]):',
     'if atom.kind != "pmap" or atom.parts[0] != "id":',
     ["tests/test_cli.py::"
      "test_a_part_declared_the_identity_is_the_identity"
      "[etens_oim_idmap]"],
     "R20 forward reads a product map's first part by its raw name "
     "again: after e = id, e x f is refused as not id x g"),
    (DSL,
     r"_0-9\d;:,()",
     r"_0-9;:,()",
     [f"{LEX_TESTS}test_lex_agrees_with_the_plain_lexer"],
     "the stray check reads digits as [0-9], not \\d: a Unicode digit "
     "such as U+0663, which lexes as an integer, is called stray"),
    (DSL,
     'if "#" in text:',
     "if False:",
     [f"{LEX_TESTS}test_lex_agrees_with_the_plain_lexer",
      "tests/test_dsl.py::test_tokens_keep_their_kinds_and_spans"],
     "comments are not dropped: their text reaches the parser as tokens"),
    (DSL,
     "self.stmt_start = self.ends[self.i] - len(self.peek())",
     "self.stmt_start = self.ends[self.i - 1]",
     ["tests/test_dsl.py::"
      "test_a_bad_path_index_or_binding_key_spans_its_statement",
      "tests/test_cli.py::test_prove_parse_error_span"],
     "a statement's span starts at the previous token's end, so it "
     "takes in the whitespace and comments before the statement"),
]


def _patched(src, path, old, new):
    """Replace `old` by `new` in the copy's `path`; an error unless `old`
    occurs there exactly once."""
    target = src / path
    text = target.read_text(encoding="utf-8")
    found = text.count(old)
    if found != 1:
        return f"old text occurs {found} times in {path}"
    target.write_text(text.replace(old, new), encoding="utf-8")
    return None


def _run(row):
    """'killed', 'survived' or 'stale: <why>' for one row."""
    path, old, new, tests, _reason = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        error = _patched(src, path, old, new)
        if error:
            return f"stale: {error}"
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c",
             "import dworklab; print(dworklab.__file__)"],
            env=env, capture_output=True, text=True, cwd=ROOT)
        if not where.stdout.startswith(str(src)):
            return f"stale: dworklab imports from {where.stdout.strip()!r}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            env=env, capture_output=True, text=True, cwd=ROOT)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    last = done.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"stale: pytest exit {done.returncode}: {last[0]}"


def main():
    bad = []
    for row in MUTANTS:
        start = time.perf_counter()
        verdict = _run(row)
        print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  "
              f"{row[0]}: {row[4]}", flush=True)
        if verdict != "killed":
            bad.append((verdict, row))
    for verdict, row in bad:
        print(f"{verdict}: {row[0]}: {row[1]!r} -> {row[2]!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
