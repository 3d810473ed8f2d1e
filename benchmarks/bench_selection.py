"""Result selection (Definition 2's conditions 4-5) on duplicated data.

``repro.bench`` and the ``bench_exp*`` files all run
``selection="accepted"`` (the paper's experiments count instances, not
results), so nothing there times the default ``selection="paper"``.
This bench does: P3 = ``(<{c,d,p+},{b}>, Θ2, 264)`` over D2 (every event
twice), where equal timestamps multiply the accepted pool — 354 buffers
for 12 reported matches on the quick profile.  The ``accepted`` row is
the automaton alone; the other two add
:func:`repro.core.semantics.select`, which walks the pool in report
order: ``paper`` asks conditions 4–5 only of the candidates that share
no event with an earlier report (12 here), ``all-starts`` of all 354.

The exact counts make it a check as well as a timing:

    python -m pytest benchmarks/bench_selection.py -q

runs in about 2 s and fails when a change alters what selection
reports; the printed timings are information only.
"""

import pytest

from repro.data import pattern_p3
from repro.plan import compile

#: ``{profile: {selection: matches}}`` on D2; other profiles only get
#: the structural assertions.
EXPECTED = {"quick": {"accepted": 354, "all-starts": 242, "paper": 12}}


@pytest.fixture(scope="module")
def d2(exp23_datasets):
    if 2 not in exp23_datasets:
        pytest.skip("profile has no duplicated data set")
    return exp23_datasets[2]


@pytest.mark.parametrize("selection", ["accepted", "all-starts", "paper"])
def test_p3_selection_on_d2(benchmark, d2, profile, selection):
    plan = compile(pattern_p3())
    result = benchmark.pedantic(plan.match, args=(d2,),
                                kwargs={"selection": selection},
                                rounds=3, iterations=1)
    benchmark.extra_info["accepted"] = result.stats.accepted_buffers
    benchmark.extra_info["matches"] = len(result.matches)
    assert 0 < len(result.matches) <= result.stats.accepted_buffers
    if selection == "paper":
        events = [e for m in result.matches for e in m.events()]
        assert len(events) == len(set(events)), "reported matches overlap"
    if profile.name in EXPECTED:
        assert len(result.matches) == EXPECTED[profile.name][selection]
