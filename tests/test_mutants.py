import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants_module():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "bench" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_old_text_occurs_once():
    # the runner itself is not part of this suite: it runs the suite once per mutant
    mutants = _mutants_module()
    assert mutants.MUTANTS
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new
        assert mutants.source(mutant).count(mutant.old) == 1, mutant
        for test in mutant.tests:
            assert os.path.isfile(ROOT / test), test
