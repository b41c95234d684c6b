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


def test_the_table_holds_the_patch_and_table_mutants():
    assert len(MUTANTS) >= 139
