"""Mutation test of the declared constants: each closed-form bound and each
quartic constant, scaled by (1 +- 1e-9), must fail at least one row of each
suite that reads it.

A constant that no row notices is a guarantee the report does not give.
The by-design red (thm5's ``case2/argmax_location``) is not a catch, and
neither is an exception: a mutant run that raises fails this test.  The
constants no row pins yet are named in ``SURVIVORS`` with the reason; the
test requires that they still survive, so the list can only shrink.
"""

import pytest

from blochsums import bounds, verify
from blochsums.verify import ScanGrid, run_suite

GRID = ScanGrid(truncation=48, sample_count=10)
DELTA = 1e-9
BY_DESIGN = "case2/argmax_location"

# constant -> the suites whose rows read it, first the one named after its
# bound; B is also read by thm1_B2's rows of the identity (r/2) dB2/dr = B
MUTANTS = {
    **{f"bound_{b}": (b,) for b in ("basic", "prop1", "thm1_B2", "cor1")},
    "bound_thm1_B": ("thm1_B", "thm1_B2"),
    **{f"RHS_SCALE.{b}": (b,) for b in bounds.RHS_SCALE},
}

SURVIVORS = {
    "RHS_SCALE.cor2": "cor2's rows check the paper's reduction, which "
    "contains no constant",
}


def _mutate(monkeypatch, name: str, factor: float) -> None:
    if name.startswith("bound_"):
        exact = getattr(verify, name)
        scaled = lambda *args: exact(*args) * factor
        monkeypatch.setattr(verify, name, scaled)
    else:
        key = name.split(".")[1]
        monkeypatch.setitem(bounds.RHS_SCALE, key, bounds.RHS_SCALE[key] * factor)


def _failing_rows(*suites):
    """Ids of the rows that fail, the by-design row aside, over one run of
    ``suites`` (sharing one ``shared`` dict, as a run does)."""
    shared = {}
    return [
        f"{suite}:{row.instance_id}"
        for suite in suites
        for row in run_suite(suite, GRID, shared).instances
        if not row.passes(GRID.tolerance) and not row.instance_id.endswith(BY_DESIGN)
    ]


def test_unmutated_suites_fail_no_row():
    # Otherwise a mutant's failing row would prove nothing.
    assert _failing_rows(*verify.ALL_SUITES) == []


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("name", sorted(set(MUTANTS) - set(SURVIVORS)))
def test_mutant_fails_a_row(monkeypatch, name, sign):
    _mutate(monkeypatch, name, 1.0 + sign * DELTA)
    for suite in MUTANTS[name]:
        assert _failing_rows(suite), f"{name} x (1 {sign:+.0f}e-9) fails no {suite} row"


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("name", sorted(SURVIVORS))
def test_named_survivor_still_survives(monkeypatch, name, sign):
    # Once a row catches it, strike it from SURVIVORS.
    _mutate(monkeypatch, name, 1.0 + sign * DELTA)
    assert _failing_rows(*MUTANTS[name]) == [], SURVIVORS[name]
