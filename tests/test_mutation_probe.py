"""Every mutant of ``mutation_probe.py`` still names text that appears once in its module.

The probe runs the whole suite once per mutant, so it is run by hand, and a
mutant whose line moved would only show as ``stale`` there. This checks the
mutant list against the package's sources in milliseconds instead.
"""

import pytest
from mutation_probe import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_text_appears_once_in_its_module(mutant):
    source = (ROOT / "src" / "cvteleport" / mutant.module).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
