"""Committed mutants: each check the fast paths rest on must be able to fail.

Each row of :data:`MUTANTS` names a source file, an exact snippet of it, the
replacement that breaks one check, and the test node ids that must fail on
the broken copy.  ``tests/test_mutants.py`` (tier 1) only checks that every
snippet still occurs exactly once in its file, so a refactor that moves the
code has to update its row.  The full run is slow and stays out of tier 1:

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID [ID..]  # the named ones

It copies ``src``, ``tests``, ``fixtures``, ``schemas`` and ``pyproject.toml`` to a
temporary directory, runs every listed test once on the unbroken copy, then
applies one mutant at a time and runs only its tests.  It prints each
mutant's outcome and exits 1 if any mutant survives (its tests all pass).
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALGEBRA = "src/ampgraph/algebra.py"
KTHEORY = "src/ampgraph/ktheory.py"
GRAPHS = "src/ampgraph/graphs.py"
SPLITTING = "src/ampgraph/splitting.py"
GRAPHIO = "src/ampgraph/graphio.py"

PATCH = "tests/test_patch.py::"
RELATIONS = "tests/test_relations.py::"
KT = "tests/test_ktheory.py::"
ALG = "tests/test_algebra.py::"
SPLIT = "tests/test_splitting.py::"

#: id -> (file, snippet, replacement, test node ids that must fail)
MUTANTS = {
    # -- generator maps as a patch ---------------------------------------------
    "orthogonality-ignores-unmoved-user": (
        ALGEBRA,
        "        if x in src and x not in patch:\n            us.append(src.index(x))\n",
        "        if False:\n            us.append(src.index(x))\n",
        [PATCH + "test_an_override_of_an_unmoved_generator_joins_the_patch",
         PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "ck1-skips-unmoved-families-into-moved-vertex": (
        ALGEBRA,
        "    failing += [(f, f) for f in into_moved]\n",
        "",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map",
         RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "ck1-cross-ignores-unmoved-same-label-family": (
        ALGEBRA,
        "        if t in m.source._mult and t not in fpatch:\n            fs.append((t, 1))\n",
        "",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map",
         RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "ck2-skips-families-out-of-moved-vertex": (
        ALGEBRA,
        "            for fam in (*fpatch, *around)\n",
        "            for fam in fpatch\n",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map",
         RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "unital-count-off-by-one": (
        ALGEBRA,
        "    ones = len(src.vertices) - len(vpatch)\n",
        "    ones = len(src.vertices) - len(vpatch) - 1\n",
        [PATCH + "test_patch_checks_match_full_tables_on_golden_mix"],
    ),
    "unmoved-vertex-set-check-dropped": (
        ALGEBRA,
        "    for v in index.keys() - target._index.keys() - vertices.keys():\n",
        "    for v in ():\n",
        [PATCH + "test_refusals_name_the_first_offender_as_the_full_tables_do",
         ALG + "test_inclusion_refuses_a_subgraph_the_graph_lacks"],
    ),
    "unmoved-family-set-check-dropped": (
        ALGEBRA,
        "    unmoved = {fam: ((1, fam),) for fam in source._mult.keys() - target._mult.keys() - templates.keys()}\n",
        "    unmoved = {}\n",
        [PATCH + "test_an_unmoved_family_the_target_lacks_is_refused"],
    ),
    "patch-keeps-identity-entries": (
        ALGEBRA,
        "        {v: tables[v] for v in sorted(tables, key=index.__getitem__) if tables[v] != {v: 1}},\n",
        "        {v: tables[v] for v in sorted(tables, key=index.__getitem__)},\n",
        [PATCH + "test_canned_maps_keep_only_what_they_move"],
    ),
    "composite-drops-outer-vertex-moves": (
        ALGEBRA,
        "        if v not in vpatch and v in src:\n",
        "        if False:\n",
        [PATCH + "test_patch_checks_match_full_tables_on_random_chains",
         PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "composite-drops-outer-family-moves": (
        ALGEBRA,
        "        if fam not in fpatch and fam in src._mult:\n",
        "        if False:\n",
        [PATCH + "test_patch_checks_match_full_tables_on_random_chains",
         PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "prefix-skips-the-star-column": (
        KTHEORY,
        "        cols.update(moved_cols)\n",
        "",
        [PATCH + "test_patch_checks_match_full_tables_on_golden_mix",
         KT + "test_check_chain_k0_products_are_identities"],
    ),
    "prefix-rows-skip-moved-rows": (
        KTHEORY,
        "        rows.update(moved_rows)\n",
        "",
        [PATCH + "test_chain_k0_matches_full_tables_on_corrupted_chains"],
    ),
    "forward-row-drops-s-row-times-q": (
        KTHEORY,
        "                    first[x] = first.get(x, 0) - c * d\n",
        "                    first[x] = first.get(x, 0)\n",
        [PATCH + "test_patch_checks_match_full_tables_on_golden_mix",
         KT + "test_check_chain_k0_products_are_identities"],
    ),
    "certificate-ignores-q-patch": (
        KTHEORY,
        "        if _combine({x: q.get(x, {x: 1}) for x in col}, col) != {u: 1}:\n",
        "        if _combine({x: {x: 1} for x in col}, col) != {u: 1}:\n",
        [KT + "test_the_kept_certificate_decides_the_step_check",
         KT + "test_k0_kernel_detail_counts_the_kernel"],
    ),
    "certificate-skips-columns-only-q-moves": (
        KTHEORY,
        "    for u in (*s, *(x for x in q if x in source and x not in s)):\n",
        "    for u in s:\n",
        [KT + "test_the_kept_certificate_decides_the_step_check",
         KT + "test_k0_kernel_detail_counts_the_kernel"],
    ),
    "valid-stars-admit-the-sink": (
        GRAPHS,
        "    blocked = bit\n",
        "    blocked = 0\n",
        ["tests/test_graphs.py::test_valid_stars_on_masks_matches_the_family_scan"],
    ),
    "families-at-misses-families-out": (
        GRAPHS,
        "            hit = succ if mask >> i & 1 else succ & mask\n",
        "            hit = succ & mask\n",
        ["tests/test_graphs.py::test_families_at_reads_the_families_touching_a_subset"],
    ),
    "vertex-word-base-unchecked": (
        ALGEBRA,
        "    graph.index(w.alpha.base)\n    graph.index(w.beta.base)\n",
        "",
        [ALG + "test_a_vertex_word_over_a_vertex_the_graph_lacks_is_refused"],
    ),
    # -- vertex images as coefficient tables -------------------------------------
    "vertex-projections-accepts-2": (
        ALGEBRA,
        "if any(c != 1 for c in table.values())), None)",
        "if any(c not in (1, 2) for c in table.values())), None)",
        [RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "orthogonality-index-skips-first-target": (
        ALGEBRA,
        "        for x in table:\n            users.setdefault(x, []).append(src.index(v))\n",
        "        for x in list(table)[1:]:\n            users.setdefault(x, []).append(src.index(v))\n",
        [ALG + "test_verify_catches_collapsed_vertices"],
    ),
    "unital-ignores-uncovered-target-vertices": (
        ALGEBRA,
        "    unital = unital and ones == len(m.target.vertices)\n",
        "",
        [ALG + "test_inclusion_is_injective_on_generators_but_not_unital"],
    ),
    "push-table-drops-coefficient-product": (
        ALGEBRA,
        "            acc[y] = acc.get(y, 0) + c * d\n",
        "            acc[y] = acc.get(y, 0) + d\n",
        [ALG + "test_compose_matches_pointwise_application"],
    ),
    "range-counts-accepts-minus-one": (
        ALGEBRA,
        "        bad = [x for x, c in table.items() if c != 1]\n",
        "        bad = [x for x, c in table.items() if c not in (1, -1)]\n",
        [KT + "test_induced_k0_refuses_a_diagonal_coefficient_other_than_one"],
    ),
    "render-table-keeps-table-order": (
        ALGEBRA,
        "            table = sorted(_vertex_image(self, v).items())\n",
        "            table = _vertex_image(self, v).items()\n",
        [ALG + "test_render_table_rows_match_element_rendering"],
    ),
    # -- one path from a chosen (sink, star) to a verified step ------------------
    "planner-skips-check-step": (
        SPLITTING,
        "        _check_step(current, sink, star)\n",
        "",
        [SPLIT + "test_every_path_names_a_bad_star_before_stabilising"],
    ),
    "build-splitting-skips-stabilize": (
        SPLITTING,
        "    working, augmented = _stabilize(g, ((sink, star),))\n",
        "    working, augmented = g, ()\n",
        [SPLIT + "test_build_splitting_all_stars_verify",
         SPLIT + "test_splitting_section_formula_star_v2"],
    ),
    "section-holds-accepts-another-basis": (
        KTHEORY,
        "    if rows != source.vertices:\n        return False\n",
        "",
        [KT + "test_a_quotient_onto_the_labels_in_another_order_is_no_section"],
    ),
    # -- refusals and rendering --------------------------------------------------
    "load-graph-lets-recursion-error-escape": (
        GRAPHIO,
        "        except (json.JSONDecodeError, RecursionError) as exc:\n",
        "        except json.JSONDecodeError as exc:\n",
        ["tests/test_cli.py::test_too_deeply_nested_json_is_exit_1_with_a_report",
         "tests/test_fuzz.py::test_every_fixed_text_is_refused_by_every_command"],
    ),
    "render-sum-writes-minus-one": (
        ALGEBRA,
        'body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}"',
        'body if c == 1 else f"{c}*{body}"',
        [ALG + "test_render_table_rows_match_element_rendering"],
    ),
    "render-sum-adds-a-negative-term": (
        ALGEBRA,
        '    return text.replace("+ -", "- ") if text else "0"\n',
        '    return text if text else "0"\n',
        [ALG + "test_render_table_rows_match_element_rendering"],
    ),
    "push-drops-later-letters": (
        ALGEBRA,
        "        for y in letters[1:]:\n",
        "        for y in letters[1:1]:\n",
        [ALG + "test_apply_multiplies_the_letter_images_of_a_word"],
    ),
}


def occurrences(root: pathlib.Path, file: str, snippet: str) -> int:
    return (root / file).read_text().count(snippet)


def _pytest(root: pathlib.Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(ids: list[str]) -> int:
    """Apply each named mutant to a fresh copy; 1 if any survives or the table is broken."""
    with tempfile.TemporaryDirectory(prefix="ampgraph-mutants-") as tmp:
        copy = pathlib.Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests", "fixtures", "schemas"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        listed = sorted({t for i in ids for t in MUTANTS[i][3]})
        if _pytest(copy, listed) != 0:
            print("the listed tests fail on the unbroken copy")
            return 1
        survivors = []
        for i in ids:
            file, snippet, replacement, tests = MUTANTS[i]
            text = (copy / file).read_text()
            if text.count(snippet) != 1:
                print(f"{i}: snippet occurs {text.count(snippet)} times in {file}")
                survivors.append(i)
                continue
            (copy / file).write_text(text.replace(snippet, replacement))
            try:
                code = _pytest(copy, tests)
            finally:
                (copy / file).write_text(text)
            killed = code in (1, 2)
            print(f"{'killed  ' if killed else 'SURVIVED'} {i} (pytest exit {code})")
            if not killed:
                survivors.append(i)
        print(f"{len(ids) - len(survivors)} of {len(ids)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    wanted = sys.argv[1:] or list(MUTANTS)
    unknown = [i for i in wanted if i not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutant ids: {unknown}")
    sys.exit(run(wanted))
