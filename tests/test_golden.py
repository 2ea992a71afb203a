"""Serial campaigns reproduce the golden table (tests/golden.py).

Each golden entry is asserted in full by exactly one test: the race and
SUSY entries by tests/test_schedules.py and tests/test_baton.py, demo
seed 1 under ``--workers 2`` and demo seed 2 across a resume by
tests/test_hotpath_determinism.py, and the rest here.
"""

import pytest

from repro.__main__ import load_target

from .golden import GOLDEN, run_golden


@pytest.fixture(scope="module")
def programs():
    loaded = {}

    def get(target):
        if target not in loaded:
            loaded[target] = load_target(target)
        return loaded[target]

    yield get
    for program in loaded.values():
        program.unload()


@pytest.mark.parametrize("target,seed", [("demo", 0), ("hpl", 0),
                                         ("hpl", 1), ("hpl", 2)])
def test_serial_campaign_matches_golden(programs, target, seed):
    _, digest = run_golden(programs(target), target, seed)
    assert digest == GOLDEN[(target, seed)]
