"""The mutation table of ``tools/mutants.py`` still fits the source.

The table is imported, and no mutant is applied. Each entry's old text must
occur exactly once in its module and differ from its new text, no entry may
repeat, and each of the eight modules of ``src/masf`` must have a mutant.
When the code moves, this fails, instead of the table going stale.
"""

import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)
TABLE = mutants.MUTANTS + mutants.EQUIVALENT


def test_old_text_occurs_once_in_its_module():
    sources = {m: (ROOT / "src" / "masf" / f"{m}.py").read_text()
               for m in mutants.MODULES}
    assert [(m.module, m.old) for m in TABLE
            if sources[m.module].count(m.old) != 1] == []


def test_old_text_differs_from_new():
    assert [m for m in TABLE if m.old == m.new] == []


def test_no_entry_repeats():
    counts = Counter((m.module, m.old, m.new) for m in TABLE)
    assert [entry for entry, n in counts.items() if n > 1] == []


def test_every_module_has_a_mutant():
    assert sorted(p.stem for p in (ROOT / "src" / "masf").glob("*.py")
                  if p.stem != "__init__") == sorted(mutants.MODULES)
    assert set(mutants.MODULES) - {m.module for m in mutants.MUTANTS} == set()
