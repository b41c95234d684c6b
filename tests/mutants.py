"""Committed mutants: each check the fast paths rest on must be able to fail.

Each row of :data:`MUTANTS` names a source file, an exact snippet of it, the
replacement that breaks one check, and the test node ids that must fail on
the broken copy.  ``tests/test_mutants.py`` (tier 1) only checks that every
snippet still occurs exactly once in its file (one that begins with
whitespace only at that indentation, see :func:`_starts`), so a refactor
that moves or re-indents the code has to update its row.  The full run is
slow and stays out of tier 1:

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID [ID..]  # the named ones

It copies ``src``, ``tests``, ``fixtures``, ``schemas`` and ``pyproject.toml`` to a
temporary directory, runs every listed test once on the unbroken copy, then
applies one mutant at a time and runs its tests once, to the end.  A mutant
is killed only when every test it names fails (a parametrised test fails
when any of its cases does), so a row cannot name a test that passes on it.
It prints each mutant's outcome, with the named tests that passed, and
exits 1 if any mutant survives.
"""

from __future__ import annotations

import os
import pathlib
import re
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
COXETER = "src/ampgraph/coxeter.py"
CWMOD = "src/ampgraph/cw.py"
WORDS = "src/ampgraph/words.py"
PACKAGE = "src/ampgraph/__init__.py"
CLI = "src/ampgraph/cli.py"

PATCH = "tests/test_patch.py::"
RELATIONS = "tests/test_relations.py::"
KT = "tests/test_ktheory.py::"
K0CHAIN = "tests/test_k0_chain.py::"
ALG = "tests/test_algebra.py::"
SPLIT = "tests/test_splitting.py::"
GRAPH = "tests/test_graphs.py::"
COX = "tests/test_coxeter.py::"
CW = "tests/test_cw.py::"
RECORDS = "tests/test_records.py::"
TEXT = "tests/test_golden_reports.py::test_printed_text_matches_golden_digests"

#: id -> (file, snippet, replacement, test node ids that must fail)
MUTANTS = {
    # -- generator maps as a patch ---------------------------------------------
    "orthogonality-ignores-unmoved-user": (
        ALGEBRA,
        "            us.append((at(x), x))\n",
        "            pass\n",
        [PATCH + "test_an_override_of_an_unmoved_generator_joins_the_patch",
         PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "ck1-skips-unmoved-families-into-moved-vertex": (
        ALGEBRA,
        "            ck1.append(((u, v), (u, v)))\n",
        "",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map",
         RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "ck1-cross-ignores-unmoved-same-label-family": (
        ALGEBRA,
        "        if t not in fpatch and src.has_family(*t):\n            fs.append((t, 1))\n",
        "",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map",
         RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "ck2-skips-families-out-of-moved-vertex": (
        ALGEBRA,
        "            ck2 += [(v, w) for w in src._neighbours_less(v, out_of.get(v, ()), False) if w not in counted]\n",
        "            pass\n",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map",
         RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "unital-count-off-by-one": (
        ALGEBRA,
        "    ones = len(src) - len(vpatch)\n",
        "    ones = len(src) - len(vpatch) - 1\n",
        [PATCH + "test_patch_checks_match_full_tables_on_golden_mix"],
    ),
    "unmoved-vertex-set-check-dropped": (
        ALGEBRA,
        "                    for v in gone if v not in vertices}\n",
        "                    for v in () if v not in vertices}\n",
        [PATCH + "test_refusals_name_the_first_offender_as_the_full_tables_do",
         ALG + "test_inclusion_refuses_a_quotient_that_lacks_a_vertex"],
    ),
    "unmoved-family-set-check-dropped": (
        ALGEBRA,
        "    unmoved = {fam: {fam: 1} for fam in lost if fam not in families}\n",
        "    unmoved = {}\n",
        [PATCH + "test_an_unmoved_family_the_target_lacks_is_refused"],
    ),
    "template-pairs-keep-zero-coefficients": (
        ALGEBRA,
        "    return {t: c for t, c in acc.items() if c != 0}\n",
        "    return acc\n",
        [PATCH + "test_a_template_given_as_pairs_sums_repeats_and_drops_zeros"],
    ),
    "patch-keeps-identity-entries": (
        ALGEBRA,
        "        {v: tables[v] for v in sorted(tables, key=at) if tables[v] != {v: 1}},\n",
        "        {v: tables[v] for v in sorted(tables, key=at)},\n",
        [PATCH + "test_canned_maps_keep_only_what_they_move"],
    ),
    "composite-drops-outer-vertex-moves": (
        ALGEBRA,
        "        {v: table for v, table in tables.items() if v in inner.source and table != {v: 1}},\n",
        "        {v: table for v, table in tables.items() if v in inner.vertex_patch and table != {v: 1}},\n",
        [PATCH + "test_patch_checks_match_full_tables_on_random_chains",
         PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "composite-drops-outer-family-moves": (
        ALGEBRA,
        "        {f: tpl for f, tpl in templates.items() if inner.source.has_family(*f) and tpl != {f: 1}},\n",
        "        {f: tpl for f, tpl in templates.items() if f in inner.family_patch and tpl != {f: 1}},\n",
        [PATCH + "test_patch_checks_match_full_tables_on_random_chains",
         PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "composite-keeps-a-fixed-vertex": (
        ALGEBRA,
        "        {v: table for v, table in tables.items() if v in inner.source and table != {v: 1}},\n",
        "        {v: table for v, table in tables.items() if v in inner.source},\n",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "composite-keeps-a-fixed-family": (
        ALGEBRA,
        "        {f: tpl for f, tpl in templates.items() if inner.source.has_family(*f) and tpl != {f: 1}},\n",
        "        {f: tpl for f, tpl in templates.items() if inner.source.has_family(*f)},\n",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "prefix-skips-the-star-column": (
        ALGEBRA,
        "        _fold_into(tables, vmoved, sink)\n",
        "",
        [PATCH + "test_patch_checks_match_full_tables_on_golden_mix",
         KT + "test_check_chain_k0_products_are_identities"],
    ),
    "backward-reads-the-prefix-one-step-late": (
        ALGEBRA,
        "        held = tables.get(sink)\n        yield {sink: 1} if held is None else held\n"
        "        _fold_into(tables, vmoved, sink)\n",
        "        _fold_into(tables, vmoved, sink)\n        tables.pop(sink, None)\n"
        "        held = tables.get(sink)\n        yield {sink: 1} if held is None else held\n",
        [PATCH + "test_chain_k0_matches_full_tables_on_corrupted_chains",
         PATCH + "test_the_fold_yields_each_prefix_at_its_sink_and_changes_no_patch"],
    ),
    # small-to-large merging into the larger table, which may be the sink's, handed out
    "fold-mutates-a-column-it-has-handed-out": (
        ALGEBRA,
        "                _add_into(acc, c, {x: 1} if table is None else table)\n",
        "                if in_place and c == 1 and table is not None and len(table) > len(acc):\n"
        "                    acc, table = table, acc\n"
        "                    prefix[u] = acc\n"
        "                _add_into(acc, c, {x: 1} if table is None else table)\n",
        [PATCH + "test_the_fold_matches_fresh_tables_on_random_feeds",
         PATCH + "test_the_fold_yields_each_prefix_at_its_sink_and_changes_no_patch"],
    ),
    "fold-keeps-a-cancelled-entrys-zero": (
        ALGEBRA,
        "        else:\n            del acc[y]\n",
        "        else:\n            acc[y] = z\n",
        [PATCH + "test_the_fold_matches_fresh_tables_on_random_feeds"],
    ),
    "in-place-add-on-a-step-that-moves-two-vertices": (
        ALGEBRA,
        "    closed = sink not in moved and (\n",
        "    closed = sink not in moved or (\n",
        [PATCH + "test_the_fold_matches_fresh_tables_on_random_feeds",
         PATCH + "test_chain_k0_matches_full_tables_on_corrupted_chains",
         SPLIT + "test_composites_match_oracle_on_corrupted_chains"],
    ),
    "fresh-tables-written-before-every-table-is-read": (
        ALGEBRA,
        "            fresh[u] = acc = {}\n",
        "            prefix[u] = acc = {}\n",
        [PATCH + "test_the_fold_matches_fresh_tables_on_random_feeds"],
    ),
    "shared-report-returned-for-a-non-unital-map": (
        ALGEBRA,
        "    if unital and not_projection is None and not (",
        "    if not_projection is None and not (",
        [PATCH + "test_a_passing_check_returns_the_shared_report_and_a_failing_one_never_does",
         PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "prefix-rows-skip-moved-rows": (
        KTHEORY,
        "                _add_into(rows.setdefault(y, {}), d, moved_rows[x])\n",
        "                pass\n",
        [PATCH + "test_chain_k0_matches_full_tables_on_corrupted_chains"],
    ),
    "moved-row-pushed-to-its-own-label": (
        KTHEORY,
        "                _add_into(rows.setdefault(y, {}), d, moved_rows[x])\n",
        "                _add_into(rows.setdefault(x, {}), d, moved_rows[x])\n",
        [PATCH + "test_chain_k0_matches_full_tables_on_corrupted_chains"],
    ),
    "pushed-row-drops-its-coefficient": (
        KTHEORY,
        "                _add_into(rows.setdefault(y, {}), d, moved_rows[x])\n",
        "                _add_into(rows.setdefault(y, {}), 1, moved_rows[x])\n",
        [K0CHAIN + "test_chain_k0_matches_full_tables_on_scaled_classes"],
    ),
    "forward-row-drops-s-row-times-q": (
        KTHEORY,
        "                _add_into(row, -table[sd.sink], rows.get(u, {}))\n",
        "                pass\n",
        [PATCH + "test_patch_checks_match_full_tables_on_golden_mix",
         KT + "test_check_chain_k0_products_are_identities"],
    ),
    "forward-row-reads-the-sink-row-after-the-update": (
        KTHEORY,
        "        row = dict(rows.get(sd.sink, {}))\n        moved_rows = {x: rows.pop(x, {}) for x in q}\n",
        "        moved_rows = {x: rows.pop(x, {}) for x in q}\n        row = dict(rows.get(sd.sink, {}))\n",
        [PATCH + "test_patch_checks_match_full_tables_on_golden_mix",
         KT + "test_check_chain_k0_products_are_identities"],
    ),
    "certificate-ignores-q-patch": (
        KTHEORY,
        "            _add_into(acc, c, q.get(x, {x: 1}))\n",
        "            _add_into(acc, c, {x: 1})\n",
        [KT + "test_the_kept_certificate_decides_the_step_check"],
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
        "        if is_star(g, sink, v):\n",
        "        if v == sink or is_star(g, sink, v):\n",
        ["tests/test_graphs.py::test_valid_stars_on_masks_matches_the_family_scan"],
    ),
    "families-at-misses-families-out": (
        GRAPHS,
        "            hit = t.succ[i] & (keep if mask & 1 << i else mask)\n",
        "            hit = t.succ[i] & mask\n",
        ["tests/test_graphs.py::test_families_at_reads_the_families_touching_a_subset"],
    ),
    "vertex-word-base-unchecked": (
        WORDS,
        "    graph.index(w.alpha.base)\n    graph.index(w.beta.base)\n",
        "",
        [ALG + "test_a_vertex_word_over_a_vertex_the_graph_lacks_is_refused"],
    ),
    # -- vertex images as coefficient tables -------------------------------------
    "vertex-projections-accepts-2": (
        ALGEBRA,
        "            if c != 1 and not_projection is None:\n",
        "            if c not in (1, 2) and not_projection is None:\n",
        [RELATIONS + "test_template_checker_matches_word_level_oracle"],
    ),
    "orthogonality-index-skips-first-target": (
        ALGEBRA,
        "            users.setdefault(x, []).append(user)\n",
        "            users.setdefault(x, []).append(user) if x != next(iter(table)) else users.setdefault(x, [])\n",
        [ALG + "test_verify_catches_collapsed_vertices"],
    ),
    "unital-ignores-uncovered-target-vertices": (
        ALGEBRA,
        "    unital = unital and ones == len(target)\n",
        "",
        [ALG + "test_inclusion_is_injective_on_generators_but_not_unital"],
    ),
    "push-table-drops-coefficient-product": (
        ALGEBRA,
        "        z = acc.get(y, 0) + c * d\n",
        "        z = acc.get(y, 0) + d\n",
        [ALG + "test_compose_matches_pointwise_application"],
    ),
    "range-counts-accepts-minus-one": (
        ALGEBRA,
        "        bad = [x for x, c in table.items() if c != 1]\n",
        "        bad = [x for x, c in table.items() if c not in (1, -1)]\n",
        [KT + "test_induced_k0_refuses_a_diagonal_coefficient_other_than_one"],
    ),
    "template-coefficient-accepts-bool": (
        ALGEBRA,
        "        if type(coeff) is not int:\n",
        "        if not isinstance(coeff, int):\n",
        [ALG + "test_generator_map_refuses_a_template_that_is_not_coefficient_family_pairs"],
    ),
    "render-table-keeps-table-order": (
        ALGEBRA,
        "            table = sorted(_image(self.vertex_patch, v).items())\n",
        "            table = _image(self.vertex_patch, v).items()\n",
        [ALG + "test_render_table_rows_match_element_rendering"],
    ),
    "render-table-keeps-template-order": (
        ALGEBRA,
        "            tpl = sorted(_image(self.family_patch, (src, dst)).items())\n",
        "            tpl = _image(self.family_patch, (src, dst)).items()\n",
        [ALG + "test_render_table_rows_match_element_rendering",
         "tests/test_golden_reports.py::test_reports_match_golden_digests", TEXT],
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
        "    if target is not source and target.vertices != source.vertices:\n        return False\n",
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
    # -- flag graphs from one-line permutations -----------------------------------
    "cover-scan-skips-the-between-test": (
        COXETER,
        "                if j < s or w[j] <= floor:\n",
        "                if j < s:\n",
        [COX + "test_flag_graph_matches_the_candidate_scan_oracle"],
    ),
    "insertion-emits-increasing-letters": (
        COXETER,
        "_RUN = tuple(tuple(tuple(range(k, k - d, -1)) for d in range(k + 1)) for k in range(MAX_RANK + 1))\n",
        "_RUN = tuple(tuple(tuple(range(k - d + 1, k + 1)) for d in range(k + 1)) for k in range(MAX_RANK + 1))\n",
        [COX + "test_canonical_reduced_word_is_the_descent_peeling_word",
         COX + "test_canonical_reduced_word_is_lex_least"],
    ),
    # -- a filtration costs what its flag graph has ------------------------------
    "word-bit-count-reads-below-the-entry": (
        COXETER,
        "        word += _RUN[k][(seen >> x).bit_count()]\n",
        "        word += _RUN[k][(seen & (1 << x) - 1).bit_count()]\n",
        [COX + "test_canonical_reduced_word_is_the_descent_peeling_word",
         COX + "test_canonical_reduced_word_is_lex_least"],
    ),
    "cover-scan-stops-one-value-too-soon": (
        COXETER,
        "                if b == a - 1:\n",
        "                if b == a - 2:\n",
        [COX + "test_flag_graph_matches_the_candidate_scan_oracle"],
    ),
    "level-cut-removes-the-wrong-length-class": (
        CWMOD,
        "    for cls in reversed(by_length[1:]):\n",
        "    for cls in reversed(by_length[:-1]):\n",
        [CW + "test_every_level_equals_the_fresh_graph_and_the_dense_model"],
    ),
    # -- a flag graph built in positions ------------------------------------------
    "cover-floor-reads-two-positions-back": (
        COXETER,
        "            floor = 0 if first else w[i - 1]\n",
        "            floor = 0 if first else w[i - 2]\n",
        [COX + "test_flag_graph_matches_the_candidate_scan_oracle"],
    ),
    "cover-scan-reads-one-block-end-short": (
        COXETER,
        "                j = bisect_left(w, a, s, e) - 1\n",
        "                j = bisect_left(w, a, s, e - 1) - 1\n",
        [COX + "test_flag_graph_matches_the_candidate_scan_oracle"],
    ),
    "cover-floor-not-raised-after-a-kept-swap": (
        COXETER,
        "                b = floor = w[j]\n",
        "                b = w[j]\n",
        [COX + "test_flag_graph_matches_the_candidate_scan_oracle"],
    ),
    "cover-row-emitted-out-of-order": (
        COXETER,
        "step[j]]].append(p)\n",
        "step[j]]].insert(0, p)\n",
        [COX + "test_flag_graph_hands_the_constructor_its_families_row_major"],
    ),
    # the rows leave in input order, and the tables refuse a row out of order
    "constructor-keeps-the-input-order": (
        GRAPHS,
        "        keyed.sort()\n",
        "",
        [GRAPH + "test_constructor_builds_one_graph_from_any_order_of_its_families",
         GRAPH + "test_graph_matches_dense_model"],
    ),
    "constructor-keeps-a-family-given-as-a-list": (
        GRAPHS,
        "(src, labels[j], counts.get((i, j), OMEGA)) for j in",
        "[src, labels[j], counts.get((i, j), OMEGA)] for j in",
        [GRAPH + "test_constructor_builds_one_graph_from_any_order_of_its_families"],
    ),
    "is-amplified-ignores-the-mask": (
        GRAPHS,
        "        return not self._t.finite & self._keep\n",
        "        return not self._t.finite\n",
        [GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "skeleton-match-ignores-multiplicities": (
        CWMOD,
        "            and skel.is_amplified\n",
        "",
        [CW + "test_skeleton_match_negative_control"],
    ),
    "coset-rep-length-is-not-the-word-length": (
        COXETER,
        "                    reps.append(CosetRep(tuple(p), len(grown), grown))\n",
        "                    reps.append(CosetRep(tuple(p), len(set(grown)), grown))\n",
        [COX + "test_minimal_coset_reps_match_brute_force",
         COX + "test_minimal_coset_reps_match_the_combinations_oracle"],
    ),
    "is-hereditary-skips-the-last-vertex": (
        GRAPHS,
        "        return not any(succ[j] & out for j in _bits(mask))\n",
        "        return not any(succ[j] & out for j in list(_bits(mask))[:-1])\n",
        ["tests/test_graphs.py::test_is_hereditary_matches_brute_force_on_every_subset"],
    ),
    # -- a quotient is its parent's tables plus a kept-vertex mask ---------------
    "quotient-keeps-a-removed-bit": (
        GRAPHS,
        "        return AmpGraph._on(self._t, self._keep & ~drop)\n",
        "        return AmpGraph._on(self._t, self._keep & ~drop | drop & -drop)\n",
        [GRAPH + "test_quotients_equal_fresh_graphs",
         GRAPH + "test_a_quotient_of_a_quotient_is_one_quotient_by_the_union"],
    ),
    "classify-sink-test-ignores-the-mask": (
        GRAPHS,
        "            sinks=tuple(t.labels[i] for i in kept if not t.succ[i] & keep),\n",
        "            sinks=tuple(t.labels[i] for i in kept if not t.succ[i]),\n",
        [GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "edges-keep-families-into-removed-vertices": (
        GRAPHS,
        "        return tuple(compress(self._t.edges, map(self._kept_bytes.__getitem__, self._t.heads)))\n",
        "        return tuple(e for e in self._t.edges if e[0] in self)\n",
        [GRAPH + "test_quotients_equal_fresh_graphs",
         "tests/test_cw.py::test_filtration_levels_share_the_flag_graphs_tables"],
    ),
    "equality-ignores-the-mask": (
        GRAPHS,
        "            return self._keep == other._keep\n",
        "            return True\n",
        [GRAPH + "test_quotients_compare_by_the_vertices_they_keep"],
    ),
    # -- one way to look up a graph: its tables under its mask -------------------
    "lacks-by-masks-swaps-the-graphs": (
        GRAPHS,
        "            gone = self._labels(self._keep & ~other._keep)\n",
        "            gone = self._labels(other._keep & ~self._keep)\n",
        [GRAPH + "test_lacks_by_masks_matches_lacks_by_labels",
         ALG + "test_inclusion_refuses_a_quotient_that_lacks_a_vertex"],
    ),
    "lacks-compares-labels-on-shared-tables": (
        GRAPHS,
        "        if self._t is other._t:\n            gone = self._labels(",
        "        if False:\n            gone = self._labels(",
        [PATCH + "test_a_chain_and_its_k0_checks_build_no_step_family_patch"],
    ),
    "contains-ignores-the-mask": (
        GRAPHS,
        "        return i is not None and bool(self._keep & 1 << i)\n",
        "        return i is not None\n",
        [GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "index-counts-removed-bits": (
        GRAPHS,
        "        return (self._keep & (1 << self._at(v)) - 1).bit_count()\n",
        "        return self._at(v)\n",
        [GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "has-family-ignores-the-mask": (
        GRAPHS,
        "        return bool(t.succ[i] & bit and self._keep & bit)\n",
        "        return bool(t.succ[i] & bit)\n",
        [GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "plus-drops-the-reach-masks": (
        GRAPHS,
        "t.finite, t._reach = self.labels, self.pos, self.counts, self.finite, self._reach\n",
        "t.finite, t._reach = self.labels, self.pos, self.counts, self.finite, None\n",
        [SPLIT + "test_chains_build_no_quotient_to_stabilise_and_derive_reach_masks"],
    ),
    "plus-leaves-the-new-family-out-of-mult": (
        GRAPHS,
        "        t.heads = self.heads[:at] + (j,) + self.heads[at:]\n",
        "        t.heads = self.heads\n",
        [GRAPH + "test_amplifications_equal_fresh_graphs"],
    ),
    "section-holds-lists-the-same-graph": (
        KTHEORY,
        "    if target is not source and target.vertices != source.vertices:\n",
        "    if target.vertices != source.vertices:\n",
        [SPLIT + "test_chains_and_their_k0_checks_list_no_step_graph"],
    ),
    "split-check-builds-dense-matrices-for-its-report": (
        KTHEORY,
        "    return K0SplitCheck(sd.sink, report, sd, (q_moved, s_moved))\n",
        "    res = K0SplitCheck(sd.sink, report, sd, (q_moved, s_moved))\n"
        "    res.q, res.s\n    return res\n",
        [KT + "test_a_split_check_read_for_its_report_builds_no_dense_matrix"],
    ),
    # -- one star query per step, lazy chain matrices, records without dataclasses
    "star-query-admits-the-sink": (
        GRAPHS,
        "    if i is None or s is None or i == s or not (keep & 1 << i and keep & 1 << s):\n",
        "    if i is None or s is None or not (keep & 1 << i and keep & 1 << s):\n",
        [GRAPH + "test_is_star_decides_each_vertex_as_the_oracle_lists_it"],
    ),
    "star-query-ignores-the-sink-bit": (
        GRAPHS,
        "    return all(reach[u] & bit for u in _bits(into))\n",
        "    return all(reach[u] for u in _bits(into))\n",
        [GRAPH + "test_is_star_decides_each_vertex_as_the_oracle_lists_it",
         SPLIT + "test_every_path_names_a_bad_star_before_stabilising"],
    ),
    "step-lists-valid-stars-to-decide-a-star": (
        SPLITTING,
        "    if star is not None and not is_star(g, sink, star):\n",
        "    if star is not None and star not in valid_stars(g, sink):\n",
        [SPLIT + "test_a_step_lists_its_valid_stars_at_most_once"],
    ),
    "chain-check-builds-dense-matrices-for-its-report": (
        KTHEORY,
        "    return K0ChainCheck(VerificationReport(checks), columns, (len(forward), n), tuple(uncertified))\n",
        "    res = K0ChainCheck(VerificationReport(checks), columns, (len(forward), n), tuple(uncertified))\n"
        "    res.forward, res.backward\n    return res\n",
        [KT + "test_a_chain_check_read_for_its_report_builds_no_dense_matrix"],
    ),
    "chain-check-forward-reads-the-backward-columns": (
        KTHEORY,
        "        return _dense(self.columns[0], self.rows[0])\n",
        "        return _dense(self.columns[1], self.rows[0])\n",
        [KT + "test_a_chain_check_read_for_its_report_builds_no_dense_matrix"],
    ),
    "record-equality-reads-only-the-first-field": (
        PACKAGE,
        "        return tuple(getattr(self, name) for name in self._fields)\n",
        "        return tuple(getattr(self, name) for name in self._fields[:1])\n",
        [RECORDS + "test_a_record_is_frozen_and_compares_by_its_fields"],
    ),
    "frozen-record-allows-assignment": (
        PACKAGE,
        "        raise AttributeError(f\"cannot assign to field {name!r}\")\n",
        "        object.__setattr__(self, name, value)\n",
        [RECORDS + "test_a_record_is_frozen_and_compares_by_its_fields"],
    ),
    "frozen-record-allows-deletion": (
        PACKAGE,
        "        raise AttributeError(f\"cannot delete field {name!r}\")\n",
        "        object.__delattr__(self, name)\n",
        [RECORDS + "test_a_record_is_frozen_and_compares_by_its_fields"],
    ),
    "built-attribute-is-built-on-every-read": (
        PACKAGE,
        "        value = obj.__dict__[self.build.__name__] = self.build(obj)\n",
        "        value = self.build(obj)\n",
        [PATCH + "test_a_quotient_map_builds_the_oracles_patch_when_first_read"],
    ),
    "omega-copies-as-a-new-value": (
        GRAPHS,
        "copy returns it as itself\n        return \"OMEGA\"\n",
        "copy returns it as itself\n        return (_Omega, ())\n",
        [RECORDS + "test_omega_is_one_value_through_every_copy",
         RECORDS + "test_a_record_round_trips_equal_and_stays_frozen"],
    ),
    # -- one owner per chain decision: the lazy star scan, one K_0 verdict, the reach fold
    "star-scan-skips-the-star-query": (
        GRAPHS,
        "        if is_star(g, sink, v):\n",
        "        if v != sink:\n",
        [GRAPH + "test_valid_stars_on_masks_matches_the_family_scan",
         GRAPH + "test_is_star_decides_each_vertex_as_the_oracle_lists_it"],
    ),
    "source-policy-admits-a-source-sink": (
        SPLITTING,
        "    source = next((v for v in g.classify().sources if v != sinks[0]), None)\n",
        "    source = next(iter(g.classify().sources), None)\n",
        [GRAPH + "test_is_star_decides_each_vertex_as_the_oracle_lists_it",
         SPLIT + "test_no_valid_star_is_reported_by_every_policy"],
    ),
    "chain-check-keeps-only-the-first-uncertified-sink": (
        KTHEORY,
        "            uncertified.append(sd.sink)\n",
        "            uncertified[:] = uncertified[:1] or [sd.sink]\n",
        [CW + "test_two_corrupted_steps_give_two_k0_step_rows"],
    ),
    "reach-fold-stops-after-one-sweep": (
        GRAPHS,
        "                        reach[i], changed = folded, True\n",
        "                        reach[i] = folded\n",
        [GRAPH + "test_graph_matches_dense_model"],
    ),
    # -- one record per subcommand, and a hereditary walk on an explicit stack
    "rank-and-tag-declared-before-json": (
        CLI,
        "_SPEC = _Input((_JSON, _opt(\"--rank\", type=int, required=True, metavar=\"N\",\n"
        "                            help=f\"rank of the A-series diagram (1..{MAX_RANK})\"),\n"
        "                _opt(\"--tag\", required=True, metavar=\"I,J,...\", help=\"tagged node indices\")),\n",
        "_SPEC = _Input((_opt(\"--rank\", type=int, required=True, metavar=\"N\",\n"
        "                     help=f\"rank of the A-series diagram (1..{MAX_RANK})\"),\n"
        "                _opt(\"--tag\", required=True, metavar=\"I,J,...\", help=\"tagged node indices\"),\n"
        "                _JSON),\n",
        [TEXT],
    ),
    "flag-reads-a-graph-file": (
        CLI,
        "    \"flag\": _Command(\"flag graph of a tagged A-series diagram\", _SPEC,",
        "    \"flag\": _Command(\"flag graph of a tagged A-series diagram\", _FILE,",
        [TEXT],
    ),
    "ktheory-and-flag-renderers-swapped": (
        CLI,
        "                        _cmd_ktheory, _render_ktheory),\n"
        "    \"flag\": _Command(\"flag graph of a tagged A-series diagram\", _SPEC, _cmd_flag,\n"
        "                     _render_graph_dict),\n",
        "                        _cmd_ktheory, _render_graph_dict),\n"
        "    \"flag\": _Command(\"flag graph of a tagged A-series diagram\", _SPEC, _cmd_flag,\n"
        "                     _render_ktheory),\n",
        [TEXT],
    ),
    "hereditary-walk-drops-the-exclude-branch": (
        GRAPHS,
        "                stack.append((decided | up[b], included))\n",
        "                pass\n",
        [GRAPH + "test_enumerate_hereditary_matches_brute_force"],
    ),
    "hereditary-walk-includes-with-the-up-set-decided": (
        GRAPHS,
        "                stack.append((decided | down[b], included | down[b]))\n",
        "                stack.append((decided | up[b], included | down[b]))\n",
        [GRAPH + "test_enumerate_hereditary_matches_brute_force"],
    ),
    # -- a command out of memory keeps the exit-code and JSON contract
    "memory-error-escapes-run-command": (
        CLI,
        "    except MemoryError:\n"
        "        # reported past the clause, which then lets go of the frames that ran out\n"
        "        pass\n"
        "    else:\n"
        "        return Report(command, ok, result, None, 0 if ok else 2, ns.json)\n"
        "    return Report(command, False, None, _out_of_memory(ns), 1, ns.json)\n",
        "    return Report(command, ok, result, None, 0 if ok else 2, ns.json)\n",
        ["tests/test_cli.py::test_a_command_out_of_memory_prints_a_json_report",
         "tests/test_cli.py::test_a_command_out_of_memory_without_json_tells_stderr"],
    ),
    "cell-count-misses-the-last-position": (
        COXETER,
        "    return factorial(spec.rank + 1) // prod(",
        "    return factorial(spec.rank) // prod(",
        ["tests/test_cli.py::test_a_command_out_of_memory_prints_a_json_report",
         "tests/test_cli.py::test_flag_result_matches_fixture"],
    ),
    # -- a closed stdout keeps the exit code
    "closed-stdout-fails-again-at-exit": (
        CLI,
        "        os.dup2(devnull, sys.stdout.fileno())\n",
        "        pass\n",
        ["tests/test_cli.py::test_a_closed_stdout_keeps_the_exit_code"],
    ),
    # -- a chain step pays once for what it moves
    "carried-sinks-miss-a-new-sink": (
        GRAPHS,
        "                sinks = sorted(sinks + new, key=t.pos.__getitem__)\n",
        "                pass\n",
        [GRAPH + "test_one_sink_cuts_carry_the_dense_models_shape_facts",
         GRAPH + "test_a_self_loop_singleton_is_cut_by_a_walk",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds",
         SPLIT + "test_a_chain_walks_one_graph_for_its_shape_facts"],
    ),
    "carried-sources-keep-the-cut-sink": (
        GRAPHS,
        "            sources = tuple(s for s in base.sources if s != gone)\n",
        "            sources = base.sources\n",
        [GRAPH + "test_one_sink_cuts_carry_the_dense_models_shape_facts",
         GRAPH + "test_a_self_loop_singleton_is_cut_by_a_walk",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds"],
    ),
    # the row under the cut's own mask, where the vertex's self-loop bit is already cleared
    "carry-applied-to-a-non-sink-singleton": (
        GRAPHS,
        "not t.succ[i] & up._keep:",
        "not t.succ[i] & keep:",
        [GRAPH + "test_one_sink_cuts_carry_the_dense_models_shape_facts",
         GRAPH + "test_a_self_loop_singleton_is_cut_by_a_walk",
         GRAPH + "test_one_vertex_cuts_are_decided_by_the_vertexs_row_as_the_dense_model_says"],
    ),
    "carried-sinks-keep-the-cut-sink": (
        GRAPHS,
        "            sinks = [v for v in base.sinks if v != gone]\n",
        "            sinks = list(base.sinks)\n",
        [GRAPH + "test_one_sink_cuts_carry_the_dense_models_shape_facts",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds",
         SPLIT + "test_a_chain_walks_one_graph_for_its_shape_facts"],
    ),
    # equivalent to the row above on every cut ``quotient`` makes (a hereditary
    # singleton has no kept family out but a self-loop), a different slip in the text
    "derivation-skips-the-parent-sink-test": (
        GRAPHS,
        " and \"_shape\" in up.__dict__ and not t.succ[i] & up._keep:",
        " and \"_shape\" in up.__dict__:",
        [GRAPH + "test_a_self_loop_singleton_is_cut_by_a_walk",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds"],
    ),
    "derivation-sink-test-ignores-the-mask": (
        GRAPHS,
        "not t.succ[i] & up._keep:",
        "not t.succ[i]:",
        [GRAPH + "test_one_sink_cuts_carry_the_dense_models_shape_facts",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds",
         SPLIT + "test_a_chain_walks_one_graph_for_its_shape_facts"],
    ),
    "derivation-reads-an-unread-parent": (
        GRAPHS,
        "if up is not None and \"_shape\" in up.__dict__ and not",
        "if up is not None and not",
        [GRAPH + "test_one_sink_cuts_carry_the_dense_models_shape_facts",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds",
         SPLIT + "test_unread_step_graphs_derive_the_facts_a_walk_finds"],
    ),
    "amplified-tables-keep-the-old-triples": (
        GRAPHS,
        "        t._edges = None\n",
        "        t._edges = self._edges\n",
        [GRAPH + "test_amplifications_equal_fresh_graphs"],
    ),
    "quotient-map-reads-what-the-target-has-of-the-graph": (
        ALGEBRA,
        "for fam in self.source.lacks(self.target)[1]}",
        "for fam in self.target.lacks(self.source)[1]}",
        [PATCH + "test_a_quotient_map_is_what_its_target_lacks",
         PATCH + "test_a_quotient_map_builds_the_oracles_patch_when_first_read"],
    ),
    "quotient-map-admits-a-graph-that-is-not-amplified": (
        ALGEBRA,
        "    if not graph.is_amplified:\n",
        "    if False:\n",
        [PATCH + "test_a_quotient_map_is_what_its_target_lacks"],
    ),
    "quotient-map-drops-a-lost-family": (
        ALGEBRA,
        "for fam in self.source.lacks(self.target)[1]}",
        "for fam in self.source.lacks(self.target)[1][1:]}",
        [PATCH + "test_a_quotient_map_is_what_its_target_lacks",
         PATCH + "test_canned_maps_keep_only_what_they_move"],
    ),
    "section-template-drops-its-sink-term": (
        SPLITTING,
        "{(v, star): {(v, star): 1, (v, sink): 1} for v in source.predecessors(star)}",
        "{(v, star): {(v, star): 1} for v in source.predecessors(star)}",
        [PATCH + "test_canned_maps_keep_only_what_they_move",
         SPLIT + "test_build_splitting_all_stars_verify"],
    ),
    "split-skips-the-missing-families-refusal": (
        SPLITTING,
        "        if star is not None and (missing := missing_families(working, sink, star)):\n",
        "        if False and (missing := missing_families(working, sink, star)):\n",
        [SPLIT + "test_unstabilised_ambient_graph_is_reported"],
    ),
    # -- a quotient map is what its target lacks, read when asked -----------------
    "quotient-patch-leaves-out-a-removed-vertex": (
        ALGEBRA,
        " if cut is None else cut)}",
        " if cut is None else cut[1:])}",
        [PATCH + "test_canned_maps_keep_only_what_they_move",
         PATCH + "test_a_quotient_map_builds_the_oracles_patch_when_first_read"],
    ),
    "vertex-images-hand-out-the-patch-tables": (
        ALGEBRA,
        "{v: dict(_image(self.vertex_patch, v)) for v",
        "{v: _image(self.vertex_patch, v) for v",
        [PATCH + "test_a_quotient_maps_zero_tables_are_its_own_and_handed_out_as_copies"],
    ),
    "identity-keeps-an-entry-at-a-killed-vertex": (
        ALGEBRA,
        "x != v and (x in src or x not in whole) for x in table)]",
        "x != v for x in table)]",
        [PATCH + "test_the_section_identity_asks_the_target_as_the_composing_oracle_answers",
         SPLIT + "test_build_splitting_all_stars_verify"],
    ),
    "identity-keeps-an-entry-at-a-killed-family": (
        ALGEBRA,
        "t != f and (src.has_family(*t) or not whole.has_family(*t)) for t in tpl)]",
        "t != f for t in tpl)]",
        [PATCH + "test_the_section_identity_asks_the_target_as_the_composing_oracle_answers",
         SPLIT + "test_build_splitting_all_stars_verify"],
    ),
    "identity-kills-a-vertex-the-quotient-source-lacks": (
        ALGEBRA,
        "(x in src or x not in whole)",
        "x in src",
        [PATCH + "test_the_section_identity_asks_the_target_as_the_composing_oracle_answers"],
    ),
    "identity-kills-a-family-the-quotient-source-lacks": (
        ALGEBRA,
        "(src.has_family(*t) or not whole.has_family(*t))",
        "src.has_family(*t)",
        [PATCH + "test_the_section_identity_asks_the_target_as_the_composing_oracle_answers",
         SPLIT + "test_a_section_naming_a_family_its_target_lacks_is_no_partial_isometry"],
    ),
    "absent-family-passes-as-a-partial-isometry": (
        ALGEBRA,
        "            present = present and target.has_family(*t)\n",
        "            pass\n",
        [SPLIT + "test_a_section_naming_a_family_its_target_lacks_is_no_partial_isometry"],
    ),
    "ck1-skips-a-template-with-an-empty-range-sum": (
        ALGEBRA,
        "        if ranges != vpatch.get(f[1], {f[1]: 1}):\n",
        "        if ranges and ranges != vpatch.get(f[1], {f[1]: 1}):\n",
        [PATCH + "test_patch_checks_match_full_tables_on_every_corrupted_map"],
    ),
    "ideal-mask-test-accepts-another-graphs-tables": (
        GRAPHS,
        "        if self._t is other._t:\n            if other._keep & ~self._keep:\n",
        "        if True:\n            if other._keep & ~self._keep:\n",
        [GRAPH + "test_a_cut_on_other_tables_is_compared_as_a_graph",
         GRAPH + "test_hereditary_cut_matches_the_dense_model_on_random_pairs",
         SPLIT + "test_the_ideal_check_reads_masks_on_shared_tables_and_compares_other_graphs"],
    ),
    "unshared-cut-skips-the-graph-comparison": (
        GRAPHS,
        "self.is_hereditary(gone) and other == self.quotient(gone) else None",
        "self.is_hereditary(gone) else None",
        [GRAPH + "test_a_cut_on_other_tables_is_compared_as_a_graph",
         GRAPH + "test_a_cut_on_other_tables_is_named_when_it_holds",
         GRAPH + "test_hereditary_cut_matches_the_dense_model_on_random_pairs"],
    ),
    "unshared-cut-skips-the-hereditary-test": (
        GRAPHS,
        "return gone if self.is_hereditary(gone) and other ==",
        "return gone if other ==",
        [GRAPH + "test_a_cut_on_other_tables_is_named_when_it_holds",
         GRAPH + "test_hereditary_cut_matches_the_dense_model_on_random_pairs",
         GRAPH + "test_one_vertex_cuts_are_decided_by_the_vertexs_row_as_the_dense_model_says"],
    ),
    "sink-row-ignores-the-mask": (
        GRAPHS,
        "bool(self._keep & 1 << i) and not self._t.succ[i] & self._keep\n",
        "bool(self._keep & 1 << i) and not self._t.succ[i]\n",
        [GRAPH + "test_sink_source_and_cut_rows_match_the_dense_model"],
    ),
    "listed-policy-skips-its-sink-test": (
        SPLITTING,
        "        if not current.is_sink(sinks[i]):\n",
        "        if False:\n",
        [SPLIT + "test_multi_sink_splitting_rejects_unknown_sink"],
    ),
    "missing-families-ignore-the-sinks-in-neighbours": (
        GRAPHS,
        "into ^ into & pred[g._at(sink)]",
        "into",
        [SPLIT + "test_build_splitting_all_stars_verify",
         SPLIT + "test_stabilize_matches_quotient_chain_oracle_on_random_chains"],
    ),
    "successor-mask-misses-a-rows-last-family": (
        GRAPHS,
        "            succ[i] = bits << lo\n",
        "            succ[i] = (bits & ~(1 << bits.bit_length() >> 1)) << lo\n",
        [GRAPH + "test_graph_matches_dense_model",
         GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "closed-stderr-fails-again-at-exit": (
        CLI,
        "        os.dup2(devnull, sys.stderr.fileno())\n",
        "        pass\n",
        ["tests/test_cli.py::test_a_closed_stderr_keeps_the_exit_code"],
    ),
    # -- a graph's families are positions; triples are built when read ----------
    "tables-admit-a-repeated-position": (
        GRAPHS,
        "                if not last < j < n:\n",
        "                if not last <= j < n:\n",
        [GRAPH + "test_the_tables_refuse_a_repeated_or_out_of_range_position"],
    ),
    "tables-admit-a-position-past-the-last-vertex": (
        GRAPHS,
        "                if not last < j < n:\n",
        "                if not last < j:\n",
        [GRAPH + "test_the_tables_refuse_a_repeated_or_out_of_range_position"],
    ),
    "constructor-keeps-a-zero-family": (
        GRAPHS,
        "                if m == 0:\n                    continue\n",
        "",
        [GRAPH + "test_constructor_sorts_families_and_drops_zeros",
         GRAPH + "test_graph_matches_dense_model"],
    ),
    "lazy-edges-give-omega-to-a-finite-family": (
        GRAPHS,
        "(src, labels[j], counts.get((i, j), OMEGA))",
        "(src, labels[j], OMEGA)",
        [GRAPH + "test_edges_built_on_read_equal_the_triples_handed_over",
         GRAPH + "test_constructor_sorts_families_and_drops_zeros"],
    ),
    "pred-reads-the-previous-rows-positions": (
        GRAPHS,
        "                for j in heads[starts[i]:starts[i + 1]]:\n                    pred[j] |= bit\n",
        "                for j in heads[starts[i - 1]:starts[i]]:\n                    pred[j] |= bit\n",
        [GRAPH + "test_graph_matches_dense_model",
         GRAPH + "test_edges_built_on_read_equal_the_triples_handed_over"],
    ),
    "multiplicity-reads-a-missing-family-as-omega": (
        GRAPHS,
        "        return t.counts.get((i, j), OMEGA) if t.succ[i] >> j & 1 else 0\n",
        "        return t.counts.get((i, j), OMEGA)\n",
        [GRAPH + "test_graph_matches_dense_model",
         GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "star-query-admits-a-cut-sink": (
        GRAPHS,
        "    if i is None or s is None or i == s or not (keep & 1 << i and keep & 1 << s):\n",
        "    if i is None or i == s or not keep & 1 << i:\n",
        [GRAPH + "test_is_star_answers_false_for_a_sink_the_graph_does_not_keep"],
    ),
    "word-length-counts-one-letter": (
        COXETER,
        '    return label.count("s")\n',
        '    return label.count("s2")\n',
        [CW + "test_filtration_builds_representatives_once",
         CW + "test_every_level_equals_the_fresh_graph_and_the_dense_model"],
    ),
    # -- a representative is one int, and one sweep folds a forward graph's reach
    "cover-key-reads-the-previous-positions-weight": (
        COXETER,
        "                rows[pos[c + (b - a) * step[j]]].append(p)\n",
        "                rows[pos[c + (b - a) * step[j - 1]]].append(p)\n",
        [COX + "test_flag_graph_matches_the_candidate_scan_oracle"],
    ),
    "last-block-one-value-short": (
        COXETER,
        "    sizes = _block_sizes(spec)\n    n = spec.rank + 1\n",
        "    sizes = _block_sizes(spec)\n    sizes[-1] -= 1\n    n = spec.rank + 1\n",
        [COX + "test_minimal_coset_reps_match_brute_force",
         COX + "test_minimal_coset_reps_match_the_combinations_oracle"],
    ),
    # -- representatives in one pass over block words ------------------------------
    "coset-pass-walks-the-blocks-first-to-last": (
        COXETER,
        "    last_to_first = range(len(sizes) - 1, -1, -1)\n",
        "    last_to_first = range(len(sizes))\n",
        [COX + "test_minimal_coset_reps_match_brute_force",
         COX + "test_minimal_coset_reps_match_the_combinations_oracle"],
    ),
    "coset-pass-keeps-a-blocks-count-on-backtrack": (
        COXETER,
        "                    place(k + 1, grown)\n                    fill[b] = f\n",
        "                    place(k + 1, grown)\n",
        [COX + "test_minimal_coset_reps_match_brute_force",
         COX + "test_minimal_coset_reps_match_the_combinations_oracle"],
    ),
    "coset-run-counts-the-values-of-its-own-block": (
        COXETER,
        "                grown = word + run[d]\n",
        "                grown = word + run[d + f]\n",
        [COX + "test_minimal_coset_reps_match_brute_force",
         COX + "test_minimal_coset_reps_match_the_combinations_oracle"],
    ),
    "cover-scan-drops-a-position-before-the-last-block": (
        COXETER,
        "            for k, (s, e) in enumerate(blocks[:-1]) for i in range(s, e)]\n",
        "            for k, (s, e) in enumerate(blocks[:-1]) for i in range(s, e - 1)]\n",
        [COX + "test_flag_graph_matches_the_candidate_scan_oracle"],
    ),
    "word-label-names-letter-zero": (
        COXETER,
        '_NAME = {i: f"s{i}" for i in range(1, MAX_RANK + 1)}\n',
        '_NAME = {i: f"s{i}" for i in range(MAX_RANK + 1)}\n',
        [COX + "test_word_label_refuses_a_letter_outside_the_diagram"],
    ),
    "canonical-word-skips-the-permutation-test": (
        COXETER,
        "\n            and sorted(p) == list(range(1, len(p) + 1))):\n",
        "):\n",
        [COX + "test_canonical_reduced_word_refuses_what_is_not_a_permutation"],
    ),
    "vertex-self-check-skips-the-permutation-test": (
        COXETER,
        " or any(sorted(p) != ident for p in elements)",
        "",
        [COX + "test_flag_graph_rejects_a_wrong_vertex_set"],
    ),
    "reach-stops-after-one-sweep-regardless": (
        GRAPHS,
        "                changed &= back\n",
        "                changed = False\n",
        [GRAPH + "test_reach_matches_a_path_search_with_backward_families_and_cycles"],
    ),
    "reach-folds-the-previous-rows-positions": (
        GRAPHS,
        "                    for j in heads[starts[i]:starts[i + 1]]:\n",
        "                    for j in heads[starts[i - 1]:starts[i]]:\n",
        [GRAPH + "test_reach_matches_a_path_search_with_backward_families_and_cycles",
         GRAPH + "test_graph_matches_dense_model"],
    ),
    # -- a step's checks read its cut: one mask test, K_0 sums added in place -------
    "quotient-pass-skips-the-subset-half": (
        GRAPHS,
        "            if other._keep & ~self._keep:\n                return None\n",
        "",
        [PATCH + "test_a_quotient_map_passes_its_relations_on_its_cut_as_the_oracle_decides"],
    ),
    "quotient-pass-skips-the-closed-half": (
        GRAPHS,
        "            return self._labels(gone) if self._closed(gone) else None\n",
        "            return self._labels(gone)\n",
        [PATCH + "test_a_quotient_map_passes_its_relations_on_its_cut_as_the_oracle_decides"],
    ),
    "quotient-pass-ignores-the-cut": (
        ALGEBRA,
        "    if m._quotient and m._cut is not None:\n",
        "    if m._quotient:\n",
        [PATCH + "test_a_quotient_map_passes_its_relations_on_its_cut_as_the_oracle_decides"],
    ),
    "vertex-patch-lists-a-kept-vertex": (
        GRAPHS,
        "            return self._labels(gone) if self._closed(gone) else None\n",
        "            return self._labels(gone | other._keep & -other._keep) if self._closed(gone) else None\n",
        [PATCH + "test_a_quotient_map_builds_the_oracles_patch_when_first_read",
         KT + "test_k0_checks_leave_the_step_certificate_unchanged"],
    ),
    "forward-row-adds-into-the-sink-row-uncopied": (
        KTHEORY,
        "        row = dict(rows.get(sd.sink, {}))\n",
        "        row = rows.get(sd.sink, {})\n",
        [K0CHAIN + "test_in_place_k0_checks_match_the_summing_oracles"],
    ),
    "shared-k0-report-for-an-uncertified-step": (
        KTHEORY,
        "    report = _K0_PASSED.get(n) if certified else None\n",
        "    report = _K0_PASSED.get(n)\n",
        [K0CHAIN + "test_a_certified_step_shares_its_report_and_an_uncertified_one_never_does",
         K0CHAIN + "test_uncertified_lists_the_steps_whose_split_check_fails"],
    ),
    "quotient-map-verdict-always-passes": (
        SPLITTING,
        "    q_ok = q_report is _PASSED[True]",
        "    q_ok = True",
        [RELATIONS + "test_relation_check_fails_on_corrupted_input"],
    ),
    # -- a chain step builds only what it reads ------------------------------------
    "fold-keeps-a-held-template-at-a-removed-sink": (
        ALGEBRA,
        "        for f in into.pop(sink, ()):\n            del templates[f]\n",
        "        into.pop(sink, ())\n",
        [PATCH + "test_the_fold_drops_what_it_holds_as_the_listing_fold_does",
         PATCH + "test_the_fold_matches_fresh_tables_on_random_feeds"],
    ),
    "fold-drops-at-the-star-instead-of-the-sink": (
        ALGEBRA,
        "into.pop(sink, ())",
        "into.pop(next(iter(vmoved), sink), ())",
        [PATCH + "test_the_fold_drops_what_it_holds_as_the_listing_fold_does",
         PATCH + "test_the_fold_matches_fresh_tables_on_random_feeds"],
    ),
    "split-ignores-a-failing-quotient-map-verdict": (
        SPLITTING,
        "quot is _PASSED[True] and ",
        "",
        [SPLIT + "test_a_step_refuses_exactly_when_its_report_fails"],
    ),
    "split-ignores-a-moved-section-identity-generator": (
        SPLITTING,
        " and moved is None",
        "",
        [SPLIT + "test_a_step_refuses_exactly_when_its_report_fails"],
    ),
    "split-demands-the-shared-report-of-a-non-unital-section": (
        SPLITTING,
        "section.ok and ",
        "section is _PASSED[sd.star is not None] and ",
        [SPLIT + "test_a_step_refuses_exactly_when_its_report_fails",
         SPLIT + "test_embedding_section_is_inclusion"],
    ),
    "reach-back-test-reads-each-rows-last-family": (
        GRAPHS,
        "starts[i + 1] and heads[starts[i]] <= i]",
        "starts[i + 1] and heads[starts[i + 1] - 1] <= i]",
        [GRAPH + "test_the_forward_test_decides_acyclicity_as_the_dense_model_does"],
    ),
    # -- a chain step reads only what decides it ------------------------------------
    "forward-test-admits-a-self-loop": (
        GRAPHS,
        "heads[starts[i]] <= i]",
        "heads[starts[i]] < i]",
        [GRAPH + "test_the_forward_test_decides_acyclicity_as_the_dense_model_does",
         GRAPH + "test_graph_matches_dense_model"],
    ),
    "forward-test-reads-the-rows-a-quotient-drops": (
        GRAPHS,
        "        acyclic = not any(keep & 1 << i for i in t.behind())\n",
        "        acyclic = not any(True for i in t.behind())\n",
        [GRAPH + "test_the_forward_test_decides_acyclicity_as_the_dense_model_does"],
    ),
    "is-star-skips-reach-when-the-candidate-has-in-neighbours": (
        GRAPHS,
        "    if not into:\n        return True\n",
        "    if True:\n        return True\n",
        [GRAPH + "test_is_star_decides_each_vertex_as_the_oracle_lists_it",
         SPLIT + "test_every_path_names_a_bad_star_before_stabilising"],
    ),
    # the sinks earlier cuts left are dropped when this one leaves a new sink
    "lazy-sink-tuple-misses-a-new-sink-of-an-earlier-cut": (
        GRAPHS,
        "sorted(sinks + new, key",
        "sorted(new, key",
        [GRAPH + "test_one_sink_cuts_carry_the_dense_models_shape_facts",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds",
         SPLIT + "test_step_graphs_read_in_order_each_derive_from_their_parent"],
    ),
    "no-sink-refusal-skipped-on-a-cyclic-graph": (
        SPLITTING,
        "        if not (acyclic and step <= size) and not current.classify().sinks:\n",
        "        if not step <= size and not current.classify().sinks:\n",
        [SPLIT + "test_a_graph_without_a_sink_cannot_start_a_chain",
         SPLIT + "test_a_chain_without_a_sink_is_refused_before_its_step_is_read"],
    ),
    "planner-skips-the-star-test": (
        SPLITTING,
        "_check_step(current, sink, star)",
        "_check_step(current, sink, None)",
        [SPLIT + "test_every_path_names_a_bad_star_before_stabilising"],
    ),
    "mask-pass-ignores-an-unmoved-family-into-a-moved-vertex": (
        ALGEBRA,
        "        for u in src._neighbours_less(v, into.get(v, ()), True):\n",
        "        for u in src._neighbours_less(v, into.get(v, ()), True)[1:]:\n",
        [PATCH + "test_the_unmoved_pass_reads_rows_as_the_listing_decides",
         PATCH + "test_a_template_keyed_by_a_pair_the_source_lacks_hides_no_unmoved_family"],
    ),
    "mask-pass-counts-a-template-keyed-by-a-pair-the-source-lacks": (
        GRAPHS,
        "                row &= ~(1 << j)\n",
        "                row &= row - 1\n",
        [PATCH + "test_a_template_keyed_by_a_pair_the_source_lacks_hides_no_unmoved_family"],
    ),
    "mask-pass-skips-a-family-out-of-a-moved-vertex-into-a-kept-one": (
        ALGEBRA,
        "                ck2.append((u, v))\n",
        "                pass\n",
        [PATCH + "test_the_unmoved_pass_reads_rows_as_the_listing_decides"],
    ),
    # -- a one-vertex cut: decided by its row, carrying what it knows ---------------
    "carried-count-off-by-one": (
        GRAPHS,
        "_len=self._len - 1, _parent=self",
        "_len=self._len, _parent=self",
        [GRAPH + "test_quotients_equal_fresh_graphs",
         GRAPH + "test_one_vertex_cuts_are_decided_by_the_vertexs_row_as_the_dense_model_says"],
    ),
    "one-vertex-cut-tests-the-row-without-the-mask": (
        GRAPHS,
        "            row = self._t.succ[i] & keep\n",
        "            row = self._t.succ[i]\n",
        [GRAPH + "test_quotients_equal_fresh_graphs",
         GRAPH + "test_one_vertex_cuts_are_decided_by_the_vertexs_row_as_the_dense_model_says"],
    ),
    "kept-bit-test-drops-the-mask": (
        GRAPHS,
        "        if i is None or not self._keep & 1 << i:\n",
        "        if i is None or not 1 << i:\n",
        [GRAPH + "test_kept_bit_tests_read_the_lowest_and_highest_positions",
         GRAPH + "test_quotients_equal_fresh_graphs"],
    ),
    "bits-listed-highest-first": (
        GRAPHS,
        "        step = (mask & -mask).bit_length()\n        at += step\n        yield at\n        mask >>= step\n",
        "        yield from reversed([i for i in range(mask.bit_length()) if mask >> i & 1])\n        return\n",
        [GRAPH + "test_bits_lists_the_set_bits_lowest_first",
         GRAPH + "test_graph_matches_dense_model"],
    ),
    "quotient-map-reads-another-maps-cut": (
        ALGEBRA,
        "        cut = self._cut\n",
        "        cut = _quotient_onto(self.source, self.source)._cut\n",
        [PATCH + "test_a_quotient_map_builds_the_oracles_patch_when_first_read"],
    ),
    "rebased-derivation-lists-no-sink": (
        GRAPHS,
        "            new = [t.labels[u] for u in _bits(t.pred()[i] & keep) if not t.succ[u] & keep]\n",
        "            new = []\n",
        [SPLIT + "test_step_graphs_read_in_order_each_derive_from_their_parent",
         GRAPH + "test_cuts_read_in_any_order_find_the_facts_a_walk_finds"],
    ),
    "cut-record-accepted-from-another-parent": (
        GRAPHS,
        '        if known.get("_parent") is self:\n',
        '        if "_parent" in known:\n',
        [GRAPH + "test_hereditary_cut_matches_the_dense_model_on_random_pairs"],
    ),
    "copy-keeps-the-parent-record": (
        GRAPHS,
        '    _transient = ("_parent",)\n',
        "    _transient = ()\n",
        [RECORDS + "test_a_cut_deep_in_a_chain_copies_without_the_graphs_above_it"],
    ),
}


def _starts(text: str, snippet: str) -> list[int]:
    """Where ``snippet`` starts in ``text``.

    A snippet that begins with whitespace is counted where it starts a line
    or follows code on its line, not where it starts inside a deeper line's
    indentation: a row written at one indentation names no line indented
    deeper.
    """
    found = []
    at = text.find(snippet)
    while at >= 0:
        before = text[text.rfind("\n", 0, at) + 1:at]
        if not (snippet[:1].isspace() and before and before.isspace()):
            found.append(at)
        at = text.find(snippet, at + 1)
    return found


def occurrences(root: pathlib.Path, file: str, snippet: str) -> int:
    return len(_starts((root / file).read_text(), snippet))


def _pytest(root: pathlib.Path, tests: list[str]) -> tuple[int, list[str]]:
    """Run ``tests`` once, to the end: pytest's exit code and the named tests that did not fail."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    # "FAILED path::name[case] - ..." or "ERROR path[::name]": a failure, or a file that did not load
    failed = {m[1] for m in re.finditer(r"^(?:FAILED|ERROR) ([^\s\[]+)", done.stdout, re.M)}
    return done.returncode, [t for t in tests if t not in failed and t.split("::")[0] not in failed]


def run(ids: list[str]) -> int:
    """Apply each named mutant to a fresh copy; 1 if any survives or the table is broken."""
    with tempfile.TemporaryDirectory(prefix="ampgraph-mutants-") as tmp:
        copy = pathlib.Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests", "fixtures", "schemas"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        listed = sorted({t for i in ids for t in MUTANTS[i][3]})
        if _pytest(copy, listed)[0] != 0:
            print("the listed tests fail on the unbroken copy")
            return 1
        survivors = []
        for i in ids:
            file, snippet, replacement, tests = MUTANTS[i]
            text = (copy / file).read_text()
            starts = _starts(text, snippet)
            if len(starts) != 1:
                print(f"{i}: snippet occurs {len(starts)} times in {file}")
                survivors.append(i)
                continue
            [at] = starts
            (copy / file).write_text(text[:at] + replacement + text[at + len(snippet):])
            try:
                code, passed = _pytest(copy, tests)
            finally:
                (copy / file).write_text(text)
            killed = code in (1, 2) and not passed
            print(f"{'killed  ' if killed else 'SURVIVED'} {i} (pytest exit {code})"
                  + "".join(f"\n    passes: {t}" for t in passed))
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
