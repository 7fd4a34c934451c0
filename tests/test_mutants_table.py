"""The mutation table stays in step with the code it mutates.

Running the mutants takes about a minute (`python tests/mutants.py`); this checks
only that every row's old text still occurs exactly once in its file.
"""

from mutants import MUTANTS, Mutant, unmatched


def test_every_old_text_occurs_exactly_once():
    assert unmatched(MUTANTS) == []


def test_a_missing_or_repeated_old_text_is_reported():
    rows = [Mutant("absent", "tests/mutants.py", "\0", "", ()),
            Mutant("repeated", "tests/mutants.py", "Mutant(", "", ()),
            Mutant("no such file", "tests/no_such_file.py", "x", "", ())]
    assert unmatched(rows) == ["absent", "repeated", "no such file"]
