"""The README's entry-point table and command block match the package.

The table's first column names every public name of :data:`ampgraph.__all__`,
and each name there resolves from :mod:`ampgraph`; a cell states a contract
in at most 600 characters and names no private identifier, since mechanisms
are described in the docstrings.  The "Command line" block shows exactly the
subcommands of the command table, each with options its parser declares.
"""

import argparse
import re

import pytest

import ampgraph
from ampgraph import cli

from helpers import ROOT

README = (ROOT / "README.md").read_text()


def _table() -> list[list[str]]:
    """The cells of each body row of the table that follows "Key entry points"."""
    lines = README.split("Key entry points", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def _names() -> list[str]:
    """The backquoted names of the table's first column, in order."""
    return [name for row in _table() for name in re.findall(r"`([^`]+)`", row[0])]


def _command_lines() -> list[list[str]]:
    """The ``ampgraph ...`` lines of the "Command line" block, as tokens."""
    block = README.split("## Command line", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    return [line.split() for line in block.splitlines() if line.startswith("ampgraph ")]


def test_every_public_name_is_in_the_first_column():
    assert sorted(set(ampgraph.__all__) - set(_names())) == []


@pytest.mark.parametrize("name", _names())
def test_every_name_in_the_first_column_resolves_from_the_package(name):
    head, *rest = name.split(".")
    obj = getattr(ampgraph, head)
    for attr in rest:
        obj = getattr(obj, attr)


def test_no_cell_is_over_600_characters_or_names_a_private_identifier():
    for row in _table():
        assert len(row) == 2, row
        for cell in row:
            assert len(cell) <= 600, cell[:80]
            assert not re.search(r"(?<!\w)_[A-Za-z_]\w*", cell), cell[:80]


def test_the_command_block_names_exactly_the_subcommands():
    assert {tokens[1] for tokens in _command_lines()} == set(cli._COMMANDS)


def test_every_flag_the_command_block_shows_is_declared_by_that_subcommand():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    shown = 0
    for tokens in _command_lines():
        declared = sub.choices[tokens[1]]._option_string_actions
        for flag in re.findall(r"--[\w-]+", " ".join(tokens[2:])):
            assert flag in declared, (tokens[1], flag)
            shown += 1
    assert shown >= 10
