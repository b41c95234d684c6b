"""The committed mutation table stays applicable.

Running the mutants takes minutes (``python tests/mutants.py``); here each
row is only checked to still point at code: its snippet occurs exactly once
in its file, and its tests name test functions that exist.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_snippet_occurs_exactly_once(mutant):
    file, snippet, replacement, tests = MUTANTS[mutant]
    assert snippet != replacement
    assert occurrences(ROOT, file, snippet) == 1
    assert tests
    for node in tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node


def test_the_snippet_check_sees_an_edited_snippet(tmp_path):
    (tmp_path / "m.py").write_text("x = a + b\n")
    assert occurrences(tmp_path, "m.py", "x = a + b\n") == 1
    assert occurrences(tmp_path, "m.py", "x = a - b\n") == 0
    (tmp_path / "m.py").write_text("x = a + b\nx = a + b\n")
    assert occurrences(tmp_path, "m.py", "x = a + b\n") == 2


def test_a_snippet_is_not_counted_inside_a_deeper_indentation(tmp_path):
    (tmp_path / "m.py").write_text("if a:\n    x = a + b\n        x = a + b\n")
    # the line at 4 spaces is counted, the one re-indented to 8 is not
    assert occurrences(tmp_path, "m.py", "    x = a + b\n") == 1
    assert occurrences(tmp_path, "m.py", "        x = a + b\n") == 1
    (tmp_path / "m.py").write_text("if a:\n        x = a + b\n")
    assert occurrences(tmp_path, "m.py", "    x = a + b\n") == 0
    # a snippet that starts after code on its line, or with no whitespace, still counts
    assert occurrences(tmp_path, "m.py", " + b\n") == 1
    assert occurrences(tmp_path, "m.py", "x = a + b\n") == 1


def test_the_table_holds_the_patch_and_table_mutants():
    assert len(MUTANTS) >= 173
