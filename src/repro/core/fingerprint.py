"""Execution fingerprinting: an incremental hash of the global state.

A *fingerprint* summarizes the complete controlled-execution state — for
every machine its state stack, its inbox and raised-queue contents (in
order), its halted/paused status, its user-visible attributes and its
start arguments, plus every registered monitor's state — in one 64-bit
value.  The testing runtime maintains it *incrementally*, alongside the
enabled-set bookkeeping: every enqueue/dequeue updates a rolling queue hash
in O(1), every dispatched step re-encodes only the executed machine's
attributes, and the global value is the XOR-fold of the per-machine and
per-monitor components.  Nothing ever rescans the whole system.

Three consumers build on it:

* **Coverage** — :class:`~repro.core.coverage.CoverageTracker` collects the
  set of distinct fingerprints seen across executions ("novel behaviours"),
  which survives JSON round-trips and portfolio merges.
* **Stateful search** — the DFS-family strategies prune schedules that
  revisit an already fully-explored global state (see
  :mod:`repro.core.strategy.dfs_strategy`).
* **Feedback** — the ``feedback`` strategy mutates schedule prefixes that
  reached novel fingerprints, AFL-style.

Determinism and exactness
-------------------------

Fingerprints must be identical across processes and runs for the same
execution, so all hashing goes through :func:`stable_hash` — a
``blake2b``-based canonical encoding that never touches Python's
``PYTHONHASHSEED``-randomized built-in ``hash()``.  Enum members encode as
their class path plus member name.  Values the encoder does not understand
(open files, lambdas, ...) degrade to a type-only marker and mark the
encoding *inexact*: still deterministic, but two genuinely different states
may collide.  Similarly, a machine paused inside a generator handler carries
frame state no encoding can capture, so it is inexact while paused.
:meth:`FingerprintTracker.current` reports both the value and whether it is
exact; stateful-search dedupe only ever acts on exact fingerprints, while
coverage and feedback (heuristics) use every value.

Two snapshot rules keep the incremental value equal to a from-scratch
:meth:`FingerprintTracker.recompute`:

* **Start arguments** are encoded once, when the machine is created, and
  that snapshot stays in the component (``recompute`` reuses it).  A start
  argument mutated later is covered through the attributes that keep it.
* **Shared mutable state.**  Every attribute walk records the mutable
  objects (lists, dicts, sets, deques, public-attribute objects) the
  machine's public attributes reach.  An object reached by two machines is
  *shared*.  When a walk finds a shared object's content changed since its
  last walk, every other machine reaching it is re-walked at once, and the
  object becomes *volatile*: from then on, for the rest of the execution,
  every component that reaches it is inexact.  A component walked by a
  machine's own step can still miss a write made through a path no walk
  sees (a queued payload, a local variable), so dedupe never acts on state
  that another machine has been seen to write.  Shared objects nobody
  writes — configuration handed to several machines — keep their sharers
  exact.

Speed
-----

Encoding is the cost of stateful search, so it is cached by *content*.
:func:`stable_hash` first builds a typed, hashable content key for the
value — scalars tagged by type (floats by ``repr``, so ``0.0``/``-0.0`` and
``1``/``True``/``1.0`` stay apart), :class:`MachineId` by all three fields,
containers and public-attribute objects by their canonical parts — and maps
it to the 8-byte digest.  A value seen before (a repeated event body, start
argument or attribute value, in this or an earlier execution) costs the key
walk and one dict lookup instead of a ``blake2b`` walk.  The memo holds at
most ``_MEMO_LIMIT`` entries and is cleared wholesale past that.  Values
with a reference cycle or with no canonical encoding are not memoized: they
go through the reference encoder every time.  Both encoders dispatch on the
value's class through per-class tables instead of an ``isinstance`` ladder.

A machine's attribute digest is memoized under the sequence of its
per-attribute content keys, and an attribute's key is reused while the
attribute still holds the same immutable leaf object (ids, floats, enum
members; ``None``, ints, strings and bytes are their own keys).  Queue
hooks and :meth:`~FingerprintTracker.touch` only mark a machine record
dirty; :meth:`~FingerprintTracker.current` folds each dirty record once,
through a second memo of the same bound.  On the one-node vNext failover
exhaust at ``max_steps=7`` stateful DFS takes 0.7–1.1x the wall-clock of
plain DFS on a 2-CPU x86-64 VM; the gate in
``benchmarks/test_bench_stateful.py`` records the ratio and asserts it stays
at most 1.5x.  None of this changes a digest: the memos only return what
the reference encoder computed for an equal key.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from hashlib import blake2b
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional, Set

from .events import Event
from .ids import MachineId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine
    from .monitors import Monitor
    from .runtime.kernel import RuntimeKernel

__all__ = ["Fingerprint", "FingerprintTracker", "merge_visited", "stable_hash"]

#: Mersenne-prime modulus of the rolling queue hashes; keeps every hash in
#: 61 bits so the Python ints stay single-digit (fast) on 64-bit builds.
_M = (1 << 61) - 1
#: rolling-hash base (any value coprime with the modulus works)
_B = 1_000_003
#: modular inverse of the base: multiplying by it "pops" one power off the
#: front of the polynomial, which is what makes popleft O(1).
_B_INV = pow(_B, _M - 2, _M)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(*parts: int) -> int:
    """Order-sensitive 64-bit combiner for already-hashed components."""
    acc = 0x243F6A8885A308D3
    for part in parts:
        acc ^= (part + _GOLDEN + ((acc << 6) & _MASK64) + (acc >> 2)) & _MASK64
        acc = (acc * _GOLDEN) & _MASK64
        acc ^= acc >> 29
    return acc


# ---------------------------------------------------------------------------
# reference encoder (uncached)
# ---------------------------------------------------------------------------
def _feed(hasher, value, memo) -> bool:
    """Feed a canonical encoding of ``value`` into ``hasher``.

    ``memo`` maps ``id()`` of the containers currently on the encoding path
    to their path position, turning reference cycles into a deterministic
    back-reference marker instead of infinite recursion.  Returns whether
    the encoding is exact.
    """
    cls = value.__class__
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        encoder = _encoder_for(cls, value)
    return encoder(hasher, value, memo)


def _sub_digest(value, memo) -> "tuple[bytes, bool]":
    """Digest of one value in isolation (for order-canonicalizing sets/dicts)."""
    hasher = blake2b(digest_size=8)
    exact = _feed(hasher, value, memo)
    return hasher.digest(), exact


def _reference_hash(value) -> "tuple[int, bool]":
    """:func:`stable_hash` without the content memo (the ground truth)."""
    hasher = blake2b(digest_size=8)
    exact = _feed(hasher, value, {})
    return int.from_bytes(hasher.digest(), "big"), exact


def _encode_none(hasher, value, memo) -> bool:
    hasher.update(b"N")
    return True


def _encode_bool(hasher, value, memo) -> bool:
    hasher.update(b"T" if value else b"F")
    return True


def _encode_int(hasher, value, memo) -> bool:
    data = str(value).encode()
    hasher.update(b"i%d:" % len(data))
    hasher.update(data)
    return True


def _encode_str(hasher, value, memo) -> bool:
    data = value.encode("utf-8", "surrogatepass")
    hasher.update(b"s%d:" % len(data))
    hasher.update(data)
    return True


def _encode_float(hasher, value, memo) -> bool:
    data = repr(value).encode()
    hasher.update(b"f%d:" % len(data))
    hasher.update(data)
    return True


def _encode_bytes(hasher, value, memo) -> bool:
    hasher.update(b"y%d:" % len(value))
    hasher.update(value)
    return True


def _encode_machine_id(hasher, value, memo) -> bool:
    hasher.update(b"m")
    return (
        _feed(hasher, value.value, memo)
        & _feed(hasher, value.type_name, memo)
        & _feed(hasher, value.name, memo)
    )


def _encode_sequence(hasher, value, memo) -> bool:
    ident = id(value)
    if ident in memo:
        # Back-reference: encode the cycle by path position, which is the
        # same in every process for the same object graph shape.
        hasher.update(b"c%d:" % memo[ident])
        return True
    memo[ident] = len(memo)
    hasher.update(b"t%d:" % len(value))
    exact = True
    for item in value:
        exact &= _feed(hasher, item, memo)
    del memo[ident]
    return exact


def _encode_dict(hasher, value, memo) -> bool:
    ident = id(value)
    if ident in memo:
        hasher.update(b"c%d:" % memo[ident])
        return True
    memo[ident] = len(memo)
    hasher.update(b"d%d:" % len(value))
    exact = True
    entries = []
    for key, item in value.items():
        key_digest, key_exact = _sub_digest(key, memo)
        item_digest, item_exact = _sub_digest(item, memo)
        exact &= key_exact & item_exact
        entries.append(key_digest + item_digest)
    # Canonical order: sort by encoded bytes, not by key comparison,
    # so mixed-type keys never raise and the order is process-stable.
    for entry in sorted(entries):
        hasher.update(entry)
    del memo[ident]
    return exact


def _encode_set(hasher, value, memo) -> bool:
    ident = id(value)
    if ident in memo:
        hasher.update(b"c%d:" % memo[ident])
        return True
    memo[ident] = len(memo)
    hasher.update(b"S%d:" % len(value))
    exact = True
    digests = []
    for item in value:
        digest, item_exact = _sub_digest(item, memo)
        exact &= item_exact
        digests.append(digest)
    for digest in sorted(digests):
        hasher.update(digest)
    del memo[ident]
    return exact


def _encode_machine_ref(hasher, value, memo) -> bool:
    # A machine *reference* is its identity: the referenced machine's own
    # component already covers its state, and encoding it structurally
    # would chase the back-references it holds (runtime, strategy, ...).
    hasher.update(b"R")
    return _feed(hasher, value._id, memo)


def _encode_class(hasher, value, memo) -> bool:
    # A class reference is fully identified by its import path.
    hasher.update(b"k")
    return _feed(hasher, f"{value.__module__}.{value.__qualname__}", memo)


def _encode_enum(hasher, value, memo) -> bool:
    # Enum members keep their payload in underscore attributes, so the
    # object encoding would see none of it: class path plus member name.
    cls = value.__class__
    hasher.update(b"e")
    _feed(hasher, f"{cls.__module__}.{cls.__qualname__}", memo)
    return _feed(hasher, value._name_, memo)


def _encode_object(hasher, value, memo) -> bool:
    attrs = getattr(value, "__dict__", None)
    if attrs is None:
        return _encode_opaque(hasher, value, memo)
    ident = id(value)
    if ident in memo:
        hasher.update(b"c%d:" % memo[ident])
        return True
    # Structured object (event payloads, harness helper objects,
    # dataclasses): class identity plus its public attributes.
    # Underscore-prefixed attributes are runtime-internal bookkeeping by
    # repo convention and excluded.
    cls = value.__class__
    memo[ident] = len(memo)
    hasher.update(b"o")
    _feed(hasher, f"{cls.__module__}.{cls.__qualname__}", memo)
    exact = True
    public = [name for name in attrs if not name.startswith("_")]
    hasher.update(b"%d:" % len(public))
    for name in sorted(public):
        _feed(hasher, name, memo)
        exact &= _feed(hasher, attrs[name], memo)
    del memo[ident]
    return exact


def _encode_opaque(hasher, value, memo) -> bool:
    # No canonical encoding (functions, modules, file handles, slotted
    # objects, ...): a deterministic type-only marker, flagged inexact.
    cls = value.__class__
    hasher.update(b"?")
    _feed(hasher, f"{cls.__module__}.{cls.__qualname__}", memo)
    return False


_Encoder = Callable[..., bool]

#: exact class -> encoder; scalar classes are fixed, every other class is
#: classified once by :func:`_encoder_for` on first sight.
_ENCODERS: Dict[type, _Encoder] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    str: _encode_str,
    float: _encode_float,
    bytes: _encode_bytes,
    MachineId: _encode_machine_id,
}


def _classify(cls: type, value) -> str:
    """The encoding kind of instances of ``cls`` (``value`` is one of them)."""
    # Imported here, once per class: machine -> runtime -> fingerprint.
    from .machine import Machine

    if issubclass(cls, (tuple, list, deque)):
        return "sequence"
    if issubclass(cls, dict):
        return "dict"
    if issubclass(cls, (set, frozenset)):
        return "set"
    if issubclass(cls, Machine):
        return "machine"
    if issubclass(cls, type):
        return "class"
    if issubclass(cls, Enum):
        return "enum"
    # callable() and module-ness are properties of the class; whether an
    # instance carries a __dict__ is checked per value by the encoder.
    if callable(value) or issubclass(cls, ModuleType):
        return "opaque"
    return "object"


def _encoder_for(cls: type, value) -> _Encoder:
    encoder = _ENCODERS[cls] = _BY_KIND[_classify(cls, value)][0]
    return encoder


# ---------------------------------------------------------------------------
# content keys and the digest memo
# ---------------------------------------------------------------------------
#: Upper bound on entries in each memo (digests, folds); a memo is cleared
#: wholesale past it.  Exhausting the one-node vNext failover space at
#: seven steps fills about 140 digests and 330 folds.
_MEMO_LIMIT = 1 << 13
#: content key -> 64-bit digest of the canonical encoding (always exact:
#: values with no canonical encoding are never memoized).  Module-level on
#: purpose: the repeats worth caching span executions, each with its own
#: tracker, and an entry depends on content alone, so sharing it across
#: callers can change no result.
_MEMO: Dict[object, int] = {}

# Key tags.  Each structured key is a tuple whose first element is one of
# these sentinels, so keys of different kinds never compare equal.  None,
# int, str and bytes are their own keys (none of them equals another's).
_SEQ = object()
_DICT = object()
_SET = object()
_OBJ = object()
_ATTRS = object()
_MID = object()
_MREF = object()
_CLASS = object()
_ENUM = object()
_FLOAT = object()
_CYCLE = object()
_OPAQUE = object()
_TRUE = (object(),)
_FALSE = (object(),)

#: classes whose instances are their own content key
_BARE = frozenset({type(None), int, str, bytes})


class _Walk:
    """State of one content-key walk."""

    __slots__ = ("path", "reach", "cacheable")

    def __init__(self, reach: Optional[list] = None) -> None:
        #: ``id()`` -> path position of the containers being walked
        self.path: Dict[int, int] = {}
        #: ``(object, key)`` of every mutable object reached, or None
        self.reach = reach
        #: False once a cycle or an unencodable value was met: the key is
        #: then only used for change detection, never as a memo key
        self.cacheable = True


def _key(value, walk: _Walk):
    cls = value.__class__
    if cls in _BARE:
        return value
    keyer = _KEYERS.get(cls)
    if keyer is None:
        keyer = _keyer_for(value)
    return keyer(value, walk)


def _key_bool(value, walk):
    return _TRUE if value else _FALSE


def _key_float(value, walk):
    return (_FLOAT, repr(value))


def _key_machine_id(value, walk):
    number, type_name, name = value.value, value.type_name, value.name
    if number.__class__ is int and type_name.__class__ is str and name.__class__ is str:
        return (_MID, number, type_name, name)
    return (_MID, _key(number, walk), _key(type_name, walk), _key(name, walk))


def _key_sequence(value, walk):
    path = walk.path
    ident = id(value)
    if ident in path:
        walk.cacheable = False
        return (_CYCLE, path[ident])
    path[ident] = len(path)
    key = (_SEQ, *[item if item.__class__ in _BARE else _key(item, walk) for item in value])
    del path[ident]
    if walk.reach is not None and value.__class__ is not tuple:
        walk.reach.append((value, key))
    return key


def _key_dict(value, walk):
    path = walk.path
    ident = id(value)
    if ident in path:
        walk.cacheable = False
        return (_CYCLE, path[ident])
    path[ident] = len(path)
    items = frozenset([
        (
            k if k.__class__ in _BARE else _key(k, walk),
            v if v.__class__ in _BARE else _key(v, walk),
        )
        for k, v in value.items()
    ])
    if len(items) != len(value):
        # Two entries share one content key: a set cannot count them.
        walk.cacheable = False
    key = (_DICT, items)
    del path[ident]
    if walk.reach is not None:
        walk.reach.append((value, key))
    return key


def _key_set(value, walk):
    path = walk.path
    ident = id(value)
    if ident in path:
        walk.cacheable = False
        return (_CYCLE, path[ident])
    path[ident] = len(path)
    items = frozenset([_key(item, walk) for item in value])
    if len(items) != len(value):
        walk.cacheable = False
    key = (_SET, items)
    del path[ident]
    if walk.reach is not None and value.__class__ is not frozenset:
        walk.reach.append((value, key))
    return key


def _key_machine_ref(value, walk):
    return (_MREF, _key_machine_id(value._id, walk))


def _key_class(value, walk):
    return (_CLASS, value)


def _key_enum(value, walk):
    return (_ENUM, value.__class__, value._name_)


def _key_object(value, walk):
    attrs = getattr(value, "__dict__", None)
    if attrs is None:
        return _key_opaque(value, walk)
    path = walk.path
    ident = id(value)
    if ident in path:
        walk.cacheable = False
        return (_CYCLE, path[ident])
    path[ident] = len(path)
    # Attribute insertion order, not sorted order: two objects whose keys
    # differ only in order encode alike, which costs a miss, never a wrong
    # hit.
    parts = [_OBJ, value.__class__]
    for name, item in attrs.items():
        if not name.startswith("_"):
            parts.append(name)
            parts.append(item if item.__class__ in _BARE else _key(item, walk))
    key = tuple(parts)
    del path[ident]
    if walk.reach is not None:
        walk.reach.append((value, key))
    return key


def _key_opaque(value, walk):
    walk.cacheable = False
    return (_OPAQUE, value.__class__)


#: exact class -> content-key builder, mirroring :data:`_ENCODERS`
#: (:data:`_BARE` classes never get here)
_KEYERS: Dict[type, Callable] = {
    bool: _key_bool,
    float: _key_float,
    MachineId: _key_machine_id,
}

#: classes whose instances are immutable leaves: an attribute still holding
#: the same such object still has the same encoding (enum classes join on
#: first sight)
_LEAF_CLASSES: Set[type] = {bool, float, MachineId}


def _keyer_for(value) -> Callable:
    cls = value.__class__
    kind = _classify(cls, value)
    if kind == "enum":
        _LEAF_CLASSES.add(cls)
    keyer = _KEYERS[cls] = _BY_KIND[kind][1]
    return keyer


#: encoding kind -> (encoder, content-key builder)
_BY_KIND: Dict[str, tuple] = {
    "sequence": (_encode_sequence, _key_sequence),
    "dict": (_encode_dict, _key_dict),
    "set": (_encode_set, _key_set),
    "machine": (_encode_machine_ref, _key_machine_ref),
    "class": (_encode_class, _key_class),
    "enum": (_encode_enum, _key_enum),
    "opaque": (_encode_opaque, _key_opaque),
    "object": (_encode_object, _key_object),
}


def _memoize(memo: dict, key, compute: Callable, *args):
    """``memo[key]``, computing and storing it on a miss (bounded)."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    value = memo[key] = compute(*args)
    return value


def stable_hash(value) -> "tuple[int, bool]":
    """Hash ``value`` into ``(64-bit int, exact)`` deterministically.

    Identical values produce identical hashes in every process and on every
    run (no dependence on ``PYTHONHASHSEED``, object identity or dict
    insertion order).  ``exact`` is False when some part of ``value`` had no
    canonical encoding and was represented by a type-only marker.  The
    result always equals the uncached reference encoding; the content memo
    only makes repeats cheap.
    """
    walk = _Walk()
    key = _key(value, walk)
    if not walk.cacheable:
        return _reference_hash(value)
    digest = _MEMO.get(key)
    if digest is None:
        digest = _memoize(_MEMO, key, _reference_digest, value)
    return digest, True


def _reference_digest(value) -> int:
    return _reference_hash(value)[0]


#: component parts -> :func:`_mix` of them (bounded like :data:`_MEMO`)
_FOLDS: Dict[tuple, int] = {}


def _attrs_hash(attrs: dict, old: dict, reach: Optional[list]) -> "tuple[int, bool, dict]":
    """``stable_hash`` of the public part of the attribute dict ``attrs``,
    built from per-attribute content keys.

    ``old`` holds the previous call's ``name -> (leaf, key)`` entries, reused
    while a name still holds the same immutable leaf object; the new entries
    are returned with the hash and its exactness.
    """
    entries: Dict[str, tuple] = {}
    walk = _Walk(reach)
    parts: list = [_ATTRS]
    for name, value in attrs.items():
        if name.startswith("_"):
            continue
        cls = value.__class__
        if cls in _BARE:
            key = value
        elif cls in _LEAF_CLASSES:
            entry = old.get(name)
            if entry is not None and entry[0] is value:
                key = entry[1]
            else:
                key = _KEYERS[cls](value, walk)
            entries[name] = (value, key)
        else:
            key = _key(value, walk)
        parts.append(name)
        parts.append(key)
    if not walk.cacheable:
        return (*_reference_hash(_public(attrs)), entries)
    # Equal name/key sequences mean equal attribute dicts, which encode
    # alike whatever their order.
    key = tuple(parts)
    digest = _MEMO.get(key)
    if digest is None:
        digest = _memoize(_MEMO, key, _reference_digest, _public(attrs))
    return digest, True, entries


def _public(attrs: dict) -> dict:
    """The public (non-underscore) part of an attribute dict."""
    return {name: attrs[name] for name in attrs if not name.startswith("_")}


class Fingerprint(NamedTuple):
    """One observation of the global execution fingerprint."""

    value: int
    #: True when the value captures the state exactly (no paused coroutine,
    #: no unencodable attribute or payload, no volatile shared state
    #: anywhere); dedupe requires it.
    exact: bool


class _QueueHash:
    """Rolling polynomial hash of one event queue (order-sensitive).

    ``hash = sum(h_i * B**(n-1-i)) mod M`` over the per-event hashes, so
    append is ``H*B + h`` and popleft subtracts the head term using the
    maintained ``B**n`` power and the precomputed modular inverse — both
    O(1).  Removal at an arbitrary index (the rare discipline/receive path,
    itself already O(n)) refolds from the mirrored hash deque.
    """

    __slots__ = ("value", "power", "items", "inexact")

    def __init__(self) -> None:
        self.value = 0
        self.power = 1  # B ** len(items) mod M
        #: per-event ``(hash mod M, exact)`` pairs mirroring the real queue
        self.items: deque = deque()
        #: number of queued items whose encoding was inexact
        self.inexact = 0

    def append(self, item_hash: int, exact: bool) -> None:
        folded = item_hash % _M
        self.items.append((folded, exact))
        self.value = (self.value * _B + folded) % _M
        self.power = (self.power * _B) % _M
        if not exact:
            self.inexact += 1

    def popleft(self) -> None:
        folded, exact = self.items.popleft()
        self.power = (self.power * _B_INV) % _M
        self.value = (self.value - folded * self.power) % _M
        if not exact:
            self.inexact -= 1

    def remove_at(self, index: int) -> None:
        _, exact = self.items[index]
        del self.items[index]
        if not exact:
            self.inexact -= 1
        self._refold()

    def clear(self) -> None:
        self.items.clear()
        self.value = 0
        self.power = 1
        self.inexact = 0

    def _refold(self) -> None:
        value = 0
        for folded, _ in self.items:
            value = (value * _B + folded) % _M
        self.value = value
        self.power = pow(_B, len(self.items), _M)


class _MachineRecord:
    """Cached fingerprint component of one machine."""

    __slots__ = (
        "machine", "base", "start_hash", "start_exact", "stack_hash",
        "attrs_hash", "attrs_exact", "entries", "volatile", "status",
        "paused", "inbox", "raised", "component", "exact",
    )

    def __init__(self, machine: "Machine", base: int, start_hash: int, start_exact: bool) -> None:
        self.machine = machine
        self.base = base
        self.start_hash = start_hash
        self.start_exact = start_exact
        self.stack_hash = 0
        self.attrs_hash = 0
        self.attrs_exact = True
        #: attribute name -> (leaf value, its content key) of the latest
        #: walk, reused while the name holds the same leaf object
        self.entries: Dict[str, tuple] = {}
        #: whether the attributes reach volatile shared state
        self.volatile = False
        self.status = 0
        self.paused = False
        self.inbox = _QueueHash()
        self.raised = _QueueHash()
        self.component = 0
        self.exact = True

    def is_exact(self) -> bool:
        return (
            self.attrs_exact
            and self.start_exact
            and not self.volatile
            and not self.paused
            and self.inbox.inexact == 0
            and self.raised.inexact == 0
        )


class FingerprintTracker:
    """Incrementally maintained global execution fingerprint.

    The owning runtime calls the ``on_*`` hooks from every queue-mutation
    site (mirroring the enabled-set bookkeeping) and :meth:`touch` once per
    dispatched step for the executed machine — the only machine whose state
    stack, attributes or paused/halted status can have changed during the
    step (other machines reaching shared state it wrote are re-walked, see
    the module docstring).  Hooks only mark records dirty; :meth:`current`
    folds each dirty record once.  Monitors are notified synchronously from
    inside steps, so they are dirty-marked at notification and refreshed
    lazily at the next :meth:`current` query.
    """

    def __init__(self, runtime: "RuntimeKernel") -> None:
        self._runtime = runtime
        self._records: Dict[int, _MachineRecord] = {}
        #: records whose component must be refolded at the next observation
        self._dirty: Set[_MachineRecord] = set()
        self._monitor_components: Dict[type, int] = {}
        self._monitor_exact: Dict[type, bool] = {}
        self._dirty_monitors: Set[type] = set()
        self._global = 0
        #: count of machines/monitors whose component is currently inexact
        self._inexact = 0
        #: stack-tuple -> hash cache (state stacks repeat across machines
        #: and steps; the tuples are tiny and the set of distinct stacks is
        #: bounded by the specs)
        self._stack_cache: Dict[tuple, int] = {}
        #: ``id()`` -> [object, content key at its latest walk, values of
        #: the machines whose attributes reached it] for every mutable
        #: object a walk reached; holding the object keeps its id unique
        self._objects: Dict[int, list] = {}
        #: ids of shared objects seen to change (see the module docstring)
        self._volatile: Set[int] = set()
        #: set by :meth:`current` when the latest observation had not been
        #: seen before in this tracker's lifetime (one execution)
        self.last_novel = False
        self._seen: Set[int] = set()

    # ------------------------------------------------------------------
    # machine lifecycle
    # ------------------------------------------------------------------
    def register_machine(self, machine: "Machine") -> None:
        """Start tracking ``machine`` (before its StartEvent is enqueued)."""
        args, kwargs = getattr(machine, "_start_args", ((), {}))
        self._adopt(machine, *stable_hash((args, kwargs)))

    def _adopt(self, machine: "Machine", start_hash: int, start_exact: bool) -> None:
        mid = machine._id
        base = stable_hash((mid.value, mid.type_name, mid.name))[0]
        record = _MachineRecord(machine, base, start_hash, start_exact)
        self._records[mid.value] = record
        self._refresh(record)

    def touch(self, machine: "Machine") -> None:
        """Refresh the slow-changing parts of ``machine``'s component.

        Called once after each dispatched step of ``machine``: the state
        stack, public attributes, paused status and halted flag only change
        while the machine itself executes, so this plus the eager queue
        hooks keeps the component current.  The only other machines it
        re-walks are those sharing an object this walk found changed.
        """
        record = self._records.get(machine._id.value)
        if record is not None:
            self._refresh(record)

    def _refresh(self, record: _MachineRecord) -> None:
        machine = record.machine
        stack = tuple(machine._state_stack)
        stack_hash = self._stack_cache.get(stack)
        if stack_hash is None:
            stack_hash = self._stack_cache[stack] = stable_hash(stack)[0]
        record.stack_hash = stack_hash
        reach: list = []
        record.attrs_hash, record.attrs_exact, record.entries = _attrs_hash(
            machine.__dict__, record.entries, reach
        )
        record.paused = (
            machine._coroutine is not None or machine._pending_receive is not None
        )
        record.status = (1 if machine._halted else 0) | (2 if record.paused else 0)
        self._dirty.add(record)
        if reach:
            self._note_reach(record, reach)
        else:
            record.volatile = False

    def _note_reach(self, record: _MachineRecord, reach: list) -> None:
        """Record the mutable objects ``record``'s walk reached; re-walk the
        other holders of any shared object whose content changed."""
        objects = self._objects
        volatile = self._volatile
        owner = record.machine._id.value
        stale: List[int] = []
        reaches_volatile = False
        for obj, key in reach:
            ident = id(obj)
            known = objects.get(ident)
            if known is None:
                objects[ident] = [obj, key, {owner}]
                continue
            holders = known[2]
            if len(holders) == 1 and owner in holders:
                known[1] = key
                reaches_volatile = reaches_volatile or ident in volatile
                continue
            if known[1] != key:
                known[1] = key
                volatile.add(ident)
                stale.extend(holder for holder in holders if holder != owner)
            holders.add(owner)
            reaches_volatile = reaches_volatile or ident in volatile
        record.volatile = reaches_volatile
        for holder in dict.fromkeys(stale):
            other = self._records.get(holder)
            if other is not None:
                self._refresh(other)

    def _fold(self, record: _MachineRecord) -> None:
        inbox = record.inbox
        raised = record.raised
        parts = (
            record.base, record.start_hash, record.stack_hash, record.attrs_hash,
            record.status, inbox.value, len(inbox.items), raised.value,
            len(raised.items),
        )
        component = _FOLDS.get(parts)
        if component is None:
            component = _memoize(_FOLDS, parts, _mix, *parts)
        self._global ^= record.component ^ component
        record.component = component
        exact = record.is_exact()
        if exact != record.exact:
            self._inexact += -1 if exact else 1
            record.exact = exact

    # ------------------------------------------------------------------
    # queue hooks (O(1) on the append/popleft hot paths)
    # ------------------------------------------------------------------
    def on_enqueue(self, machine: "Machine", event: Event) -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.append(*stable_hash(event))
            self._dirty.add(record)

    def on_inbox_popleft(self, machine: "Machine") -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.popleft()
            self._dirty.add(record)

    def on_inbox_remove(self, machine: "Machine", index: int) -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.remove_at(index)
            self._dirty.add(record)

    def on_raise(self, machine: "Machine", event: Event) -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.raised.append(*stable_hash(event))
            self._dirty.add(record)

    def on_raised_popleft(self, machine: "Machine") -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.raised.popleft()
            self._dirty.add(record)

    def on_halt_clear(self, machine: "Machine") -> None:
        """Both queues were cleared by a halt (touch refreshes the rest)."""
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.clear()
            record.raised.clear()
            self._dirty.add(record)

    # ------------------------------------------------------------------
    # monitors (synchronously notified => dirty-marked, lazily refreshed)
    # ------------------------------------------------------------------
    def register_monitor(self, monitor: "Monitor") -> None:
        self._monitor_components[type(monitor)] = 0
        self._monitor_exact[type(monitor)] = True
        self._dirty_monitors.add(type(monitor))

    def mark_monitor_dirty(self, monitor: "Monitor") -> None:
        self._dirty_monitors.add(type(monitor))

    def _refresh_monitor(self, monitor_cls: type) -> None:
        monitor = self._runtime._monitors.get(monitor_cls)
        if monitor is None:  # pragma: no cover - defensive
            return
        component_input = (monitor_cls.__name__, monitor._current_state)
        state_hash, _ = stable_hash(component_input)
        attrs_hash, exact, _ = _attrs_hash(monitor.__dict__, {}, None)
        parts = (state_hash, attrs_hash)
        component = _FOLDS.get(parts)
        if component is None:
            component = _memoize(_FOLDS, parts, _mix, *parts)
        self._global ^= self._monitor_components[monitor_cls] ^ component
        self._monitor_components[monitor_cls] = component
        if exact != self._monitor_exact[monitor_cls]:
            self._inexact += -1 if exact else 1
            self._monitor_exact[monitor_cls] = exact

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def current(self) -> Fingerprint:
        """The fingerprint of the current global state."""
        if self._dirty:
            for record in self._dirty:
                self._fold(record)
            self._dirty.clear()
        if self._dirty_monitors:
            for monitor_cls in self._dirty_monitors:
                self._refresh_monitor(monitor_cls)
            self._dirty_monitors.clear()
        value = self._global
        self.last_novel = value not in self._seen
        if self.last_novel:
            self._seen.add(value)
        return Fingerprint(value, self._inexact == 0)

    def recompute(self) -> Fingerprint:
        """The fingerprint rebuilt from scratch (for invariant checking).

        Walks every machine and monitor and re-derives the value the
        incremental bookkeeping should be holding; tests assert
        ``current() == recompute()`` at arbitrary points.  Start arguments
        come from the creation-time snapshots and volatile shared objects
        from this tracker (both are history, not state).  Never called on
        any hot path.
        """
        fresh = FingerprintTracker(self._runtime)
        fresh._volatile = set(self._volatile)
        for machine in self._runtime._machines.values():
            snapshot = self._records[machine._id.value]
            fresh._adopt(machine, snapshot.start_hash, snapshot.start_exact)
            record = fresh._records[machine._id.value]
            for event in machine._inbox:
                record.inbox.append(*stable_hash(event))
            for event in machine._raised:
                record.raised.append(*stable_hash(event))
        for monitor_cls in self._runtime._monitors:
            fresh.register_monitor(fresh._runtime._monitors[monitor_cls])
        return fresh.current()


def tracker_for(runtime: "RuntimeKernel") -> Optional[FingerprintTracker]:
    """The runtime's tracker, if fingerprinting is active (else ``None``)."""
    return getattr(runtime, "_fingerprint", None)


def merge_visited(target: Dict[int, int], entries: "Mapping[int, int]") -> int:
    """Max-merge fully-explored-state entries into ``target``; returns the
    number of entries added or improved.

    A visited entry maps a fingerprint to the most *remaining steps* any
    search has fully explored it with (see stateful search in
    :mod:`repro.core.strategy.dfs_strategy`).  Entries are monotone facts
    about the program — "everything within ``r`` steps of this state has
    been visited" — so merging across searches (and across processes, which
    is how the parallel driver composes dedupe) is sound as long as the
    larger remaining-steps value wins.
    """
    novel = 0
    for fingerprint, remaining in entries.items():
        if remaining > target.get(fingerprint, -1):
            target[fingerprint] = remaining
            novel += 1
    return novel
