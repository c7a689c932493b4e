"""Key hashing: spliced keys equal ``stable_hash`` of the same parts."""

from __future__ import annotations

import dataclasses
import enum
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.hashing import KeySplicer, canonicalize, stable_hash
from repro.engine.jobs import SchemeSpec


class Colour(enum.Enum):
    RED = 1
    GREEN = "green"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass
class Leaf:
    value: Any
    label: str = "leaf"


@dataclasses.dataclass(frozen=True)
class Node:
    left: Any
    right: Any


@dataclasses.dataclass
class Grown(Leaf):
    extra: Any = None


_hashables = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(list(Colour) + list(Level)),
    st.tuples(st.integers(), st.text(max_size=4)),
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(list(Colour) + list(Level)),
)

_parts = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(_hashables, children, max_size=4),
        st.sets(_hashables, max_size=4),
        st.frozensets(st.integers(), max_size=4),
        st.builds(Leaf, value=children, label=st.text(max_size=4)),
        st.builds(Node, left=children, right=children),
        st.builds(Grown, value=children, extra=children),
    ),
    max_leaves=12,
)


class TestSplicedKey:
    @settings(max_examples=150, deadline=None)
    @given(
        prefix=st.lists(_parts, max_size=3),
        parts=st.lists(_parts, min_size=1, max_size=5),
    )
    def test_spliced_key_equals_stable_hash(self, prefix, parts):
        keys = KeySplicer(*prefix)
        assert keys.hash(*(keys.part(part) for part in parts)) == stable_hash(
            *prefix, *parts
        )

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(_parts, min_size=1, max_size=4))
    def test_reused_splicer_and_repeated_parts(self, parts):
        keys = KeySplicer("v", 1)
        first = keys.hash(*(keys.part(part) for part in parts))
        # Memoised texts: a second key over the same objects, and a key that
        # repeats one object, still equal the reference.
        assert keys.hash(*(keys.part(part) for part in parts)) == first
        doubled = parts + parts[:1]
        assert keys.hash(*(keys.part(part) for part in doubled)) == stable_hash(
            "v", 1, *doubled
        )

    def test_derived_part_is_memoised_apart_from_the_source(self):
        spec = SchemeSpec.make("predicate", split_pvt=True)
        keys = KeySplicer()
        token = keys.part(spec, SchemeSpec.token)
        assert keys.hash(token) == stable_hash(spec.token())
        assert keys.hash(keys.part(spec)) == stable_hash(spec)
        assert keys.part(spec) != token

    def test_equal_but_distinct_values_keep_their_own_text(self):
        # True == 1 == 1.0, but each canonicalises differently.
        keys = KeySplicer()
        for value in (1, True, 1.0):
            assert keys.hash(keys.part(value)) == stable_hash(value)


class TestCanonicalize:
    def test_subclass_fields_are_its_own(self):
        assert canonicalize(Grown(value=1, extra=2)) == {
            "__dataclass__": "Grown",
            "value": 1,
            "label": "leaf",
            "extra": 2,
        }
        assert canonicalize(Leaf(value=1)) == {
            "__dataclass__": "Leaf",
            "value": 1,
            "label": "leaf",
        }

    def test_dataclass_type_is_not_an_instance(self):
        assert canonicalize(Leaf) == repr(Leaf)

    def test_int_enum_stays_an_int(self):
        assert canonicalize(Level.HIGH) == Level.HIGH
        assert stable_hash(Level.HIGH) == stable_hash(2)
