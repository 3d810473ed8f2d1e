"""Unit tests for repro.core.variables."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.variables import (Variable, group, parse_variable,
                                  parse_variables, var)


class TestVariable:
    def test_singleton(self):
        v = var("c")
        assert v.name == "c"
        assert v.is_singleton
        assert not v.is_group

    def test_group(self):
        g = group("p")
        assert g.is_group
        assert not g.is_singleton

    def test_name_with_plus_rejected(self):
        with pytest.raises(ValueError):
            Variable("p+")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_equality_distinguishes_quantifier(self):
        assert var("p") != group("p")
        assert var("p") == var("p")

    def test_hashable(self):
        assert len({var("a"), var("a"), group("a")}) == 2

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        for v in (var("c"), group("p")):
            clone = pickle.loads(pickle.dumps(v))
            assert clone == v
            assert hash(clone) == hash(v)
            assert repr(clone) == repr(v)
            assert {v: 1}[clone] == 1

    def test_pickle_from_another_hash_seed_rehashes(self):
        """Hashes are per-process (identity here, seeded ``str`` hashing
        before): a variable pickled by a pool worker must hash like —
        must be — the local one."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.path.abspath(src))
        payload = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; from repro.core.variables import group; "
             "sys.stdout.buffer.write(pickle.dumps(group('p')))"],
            env=env, check=True, capture_output=True).stdout
        clone = pickle.loads(payload)
        assert clone is group("p")
        assert hash(clone) == hash(group("p"))

    def test_ordering_deterministic(self):
        vs = sorted([group("b"), var("a"), var("b")])
        assert [repr(v) for v in vs] == ["a", "b", "b+"]

    def test_repr(self):
        assert repr(var("c")) == "c"
        assert repr(group("p")) == "p+"


class TestInterning:
    """One object per ``(name, is_group)``: equality is identity and
    hashing the interpreter's own, so a dict or frozenset keyed by
    variables never calls back into Python."""

    def test_one_object_per_name_and_quantifier(self):
        assert Variable("p", True) is Variable("p", True) is group("p")
        assert Variable("p") is var("p") is parse_variable("p")
        assert Variable("p", 1) is group("p")  # the flag is normalised
        assert Variable("p", True) is not Variable("p")
        assert Variable("p", True) != Variable("p")

    def test_no_python_level_eq_or_hash(self):
        assert Variable.__eq__ is object.__eq__
        assert Variable.__hash__ is object.__hash__

    @pytest.mark.parametrize("bad", ("", "p+", None, 7, ("p",)))
    def test_invalid_names_raise_and_are_not_cached(self, bad):
        before = len(Variable._interned)
        for _ in range(2):
            with pytest.raises(ValueError):
                Variable(bad)
        assert len(Variable._interned) == before

    def test_copy_and_deepcopy_return_the_variable(self):
        import copy
        v = group("p")
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        state = frozenset({v, var("c")})
        assert copy.deepcopy({"state": state})["state"] == state

    def test_pickle_lands_on_the_interned_object(self):
        for v in (var("c"), group("p")):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(v, protocol)) is v

    def test_pickle_round_trip_through_a_subprocess(self):
        """A state pickled here, unpickled, re-pickled by another process
        and read back is the same frozenset of the same objects."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        state = frozenset({var("c"), group("p"), var("p")})
        echoed = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; "
             "state = pickle.loads(sys.stdin.buffer.read()); "
             "from repro.core.variables import Variable; "
             "assert all(Variable(v.name, v.is_group) is v for v in state); "
             "sys.stdout.buffer.write(pickle.dumps(state))"],
            input=pickle.dumps(state), env=env, check=True,
            capture_output=True).stdout
        clone = pickle.loads(echoed)
        assert clone == state
        assert {id(v) for v in clone} == {id(v) for v in state}

    def test_dict_and_frozenset_member(self):
        bound = {var("a"): 1, group("a"): 2}
        assert bound[Variable("a")] == 1 and bound[Variable("a", True)] == 2
        assert Variable("a") in frozenset(bound)
        assert frozenset({var("a"), group("b")}) == frozenset(
            {parse_variable("b+"), parse_variable("a")})

    def test_sort_order_is_by_name_then_quantifier(self):
        vs = [group("b"), var("c"), group("a"), var("b"), var("a")]
        assert [repr(v) for v in sorted(vs)] == ["a", "a+", "b", "b+", "c"]

    def test_threads_racing_for_a_new_name_get_one_object(self):
        import threading
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(50):
                made, barrier = [], threading.Barrier(8)

                def make():
                    barrier.wait(timeout=10)
                    made.append(Variable(f"raced{round_}", True))

                threads = [threading.Thread(target=make) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(made) == 8 and len(set(map(id, made))) == 1
        finally:
            sys.setswitchinterval(old)

    def test_an_unused_variable_is_not_kept(self):
        import gc
        Variable("used-once-and-dropped")
        gc.collect()
        assert ("used-once-and-dropped", False) not in Variable._interned


class TestParsing:
    def test_parse_singleton(self):
        assert parse_variable("c") == var("c")

    def test_parse_group(self):
        assert parse_variable("p+") == group("p")

    def test_parse_strips_whitespace(self):
        assert parse_variable("  p+ ") == group("p")

    def test_parse_variables(self):
        assert parse_variables(["a", "b+"]) == (var("a"), group("b"))
