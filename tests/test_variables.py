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
        """The memoised hash is per-process (str hashing is seeded): a
        variable pickled by a pool worker must hash like a local one."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.path.abspath(src))
        payload = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; from repro.core.variables import group; "
             "sys.stdout.buffer.write(pickle.dumps(group('p')))"],
            env=env, check=True, capture_output=True).stdout
        clone = pickle.loads(payload)
        assert clone == group("p")
        assert hash(clone) == hash(group("p"))

    def test_ordering_deterministic(self):
        vs = sorted([group("b"), var("a"), var("b")])
        assert [repr(v) for v in vs] == ["a", "b", "b+"]

    def test_repr(self):
        assert repr(var("c")) == "c"
        assert repr(group("p")) == "p+"


class TestParsing:
    def test_parse_singleton(self):
        assert parse_variable("c") == var("c")

    def test_parse_group(self):
        assert parse_variable("p+") == group("p")

    def test_parse_strips_whitespace(self):
        assert parse_variable("  p+ ") == group("p")

    def test_parse_variables(self):
        assert parse_variables(["a", "b+"]) == (var("a"), group("b"))
