"""Differential tests: the content memo can never change a hash.

``stable_hash`` answers repeats from a memo keyed by a typed content key;
``_reference_hash`` is the uncached canonical encoder.  They must agree on
every value, including after the value was mutated in place (a memo keyed
by identity, or by a key that forgets part of the content, returns a stale
digest and fails here), on cycles, and on the values Python's own equality
conflates: ``0.0``/``-0.0``, ``1``/``True``/``1.0``, machine ids with equal
``value`` but different names, and enum members.
"""

import enum

from hypothesis import given, settings, strategies as st

from repro.core import fingerprint
from repro.core.fingerprint import _reference_hash, stable_hash
from repro.core.ids import MachineId


class Color(enum.Enum):
    RED = 1
    GREEN = 2


class Mode(str, enum.Enum):
    READ = "read"
    WRITE = "write"


class Payload:
    """A public-attribute object (the event-payload shape)."""

    def __init__(self, fields):
        for name, value in fields.items():
            setattr(self, name, value)


def _agrees(value) -> None:
    expected = _reference_hash(value)
    assert stable_hash(value) == expected
    # the second call is answered from the memo
    assert stable_hash(value) == expected


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, True, False, "", "1", b"", b"1"]),
    st.text(max_size=4),
    st.binary(max_size=4),
)
machine_ids = st.builds(
    MachineId,
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["Node", "Client"]),
    st.sampled_from(["", "a", "b"]),
)
enum_members = st.sampled_from(list(Color) + list(Mode))
leaves = st.one_of(scalars, machine_ids, enum_members)
hashables = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.frozensets(inner, max_size=3)
    ),
    max_leaves=6,
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(hashables, inner, max_size=3),
        st.sets(hashables, max_size=3),
        st.builds(
            Payload,
            st.dictionaries(st.sampled_from(["x", "y", "_hidden"]), inner, max_size=3),
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_memoized_hash_equals_reference(value):
    _agrees(value)


@settings(max_examples=200, deadline=None)
@given(st.lists(values, max_size=3), values, values)
def test_in_place_mutation_never_hits_a_stale_entry(items, extra, replacement):
    container = list(items)
    table = {index: item for index, item in enumerate(items)}
    holder = Payload({"items": container, "table": table})
    for value in (container, table, holder):
        _agrees(value)
    container.append(extra)
    table[len(table)] = extra
    _agrees(container)
    _agrees(table)
    _agrees(holder)
    if container:
        container[0] = replacement
        _agrees(container)
    holder.items = replacement
    _agrees(holder)


def test_cycles_match_reference_and_are_not_memoized():
    loop = []
    loop.append(loop)
    nested = {"inner": [1, 2]}
    nested["inner"].append(nested)
    node = Payload({"name": "n"})
    node.next = node
    pair = [Payload({"peer": None}), Payload({"peer": None})]
    pair[0].peer, pair[1].peer = pair[1], pair[0]
    before = len(fingerprint._MEMO)
    for value in (loop, nested, node, pair, (loop, loop), [nested, [nested]]):
        _agrees(value)
    assert len(fingerprint._MEMO) == before


def test_equal_under_python_equality_is_not_equal_under_the_encoding():
    groups = [
        [0.0, -0.0, 0, False],
        [1, True, 1.0],
        [[1], [True], [1.0]],
        [{1: "a"}, {True: "a"}, {1.0: "a"}],
        [MachineId(1, "Node", "a"), MachineId(1, "Node", "b"), MachineId(1, "Client", "a")],
        [Mode.READ, "read"],
        [Color.RED, Color.GREEN, Mode.READ, Mode.WRITE],
    ]
    for group in groups:
        # interleave the calls so each entry is looked up with the others
        # already in the memo
        for _ in range(2):
            digests = [stable_hash(value) for value in group]
            assert digests == [_reference_hash(value) for value in group]
            assert len({digest for digest, _ in digests}) == len(group), group


def test_repeated_entries_are_counted():
    """Distinct objects with equal content are distinct dict keys and set
    members; the encoding counts each, so a set-shaped key must too."""

    def p(x):
        return Payload({"x": x})

    two_ones = {p(1): "a", p(1): "a", p(2): "b"}
    two_twos = {p(1): "a", p(2): "b", p(2): "b"}
    for first, second in ((two_ones, two_twos), ({p(1), p(1), p(2)}, {p(1), p(2), p(2)})):
        _agrees(first)
        _agrees(second)
        assert stable_hash(first)[0] != stable_hash(second)[0]


def test_unencodable_values_stay_inexact_and_uncached():
    before = len(fingerprint._MEMO)
    value = {"callback": lambda: None, "ids": [MachineId(0, "Node", "")]}
    assert stable_hash(value) == _reference_hash(value)
    assert stable_hash(value)[1] is False
    assert len(fingerprint._MEMO) == before


def test_memo_is_bounded():
    for number in range(fingerprint._MEMO_LIMIT + 10):
        stable_hash(("bound-probe", number))
    assert 0 < len(fingerprint._MEMO) <= fingerprint._MEMO_LIMIT
