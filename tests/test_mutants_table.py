"""The mutation table of ``tests/mutants.py`` still fits the tree.

A change that edits a mutated line makes the fragment vanish or repeat; this
catches it in seconds, without running the mutants themselves.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_fragment_occurs_once_and_is_changed(mutant):
    assert (ROOT / mutant.file).read_text("utf-8").count(mutant.fragment) == 1
    assert mutant.replacement != mutant.fragment


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
