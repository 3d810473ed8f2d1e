"""The compiled plan as the batch matcher: ``repro.compile(p).match`` and
``.executor`` accept any event iterable, share one automaton and hand
out independent executors."""

import repro

from conftest import ev


class TestMatcher:
    def test_compile_once_run_many(self, q1, figure1):
        plan = repro.compile(q1)
        first = plan.match(figure1)
        second = plan.match(figure1)
        assert first.matches == second.matches
        assert len(first) == 2

    def test_accepts_plain_iterables(self, q1, figure1):
        plan = repro.compile(q1)
        assert plan.match(list(figure1)).matches == \
            plan.match(figure1).matches

    def test_accepts_generators(self, q1, figure1):
        plan = repro.compile(q1)
        assert plan.match(e for e in figure1).matches == \
            plan.match(figure1).matches

    def test_executor_factory_returns_fresh_executors(self, q1, figure1):
        plan = repro.compile(q1)
        a = plan.executor()
        b = plan.executor()
        assert a is not b
        a.feed(figure1[0])
        assert b.active_instances == 0

    def test_executor_inherits_configuration(self, q1):
        executor = repro.compile(q1).executor(
            use_filter=False, selection="accepted", consume="exhaustive")
        assert executor.event_filter is None
        assert executor.selection == "accepted"
        assert executor.consume_mode == "exhaustive"

    def test_automaton_shared_across_runs(self, q1):
        plan = repro.compile(q1)
        assert plan.executor().automaton is plan.automaton

    def test_concurrent_matchers_do_not_interfere(self, kind_pattern):
        a = repro.compile(kind_pattern).executor()
        b = repro.compile(kind_pattern).executor()
        a.feed(ev(1, "A"))
        b.feed(ev(5, "X"))  # matches no variable
        assert a.active_instances == 1
        assert b.active_instances == 0
