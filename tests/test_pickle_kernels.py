"""The object pickler's one-pass kernels against what they replaced.

``objectstore/pickling.py`` encodes by exact-type dispatch into one part
list and decodes by offset; the recursive ``Encoder`` / ``Decoder`` route
it replaced survives as ``store_bench._reference_pickle`` /
``_reference_unpickle``.  Held here:

* ``tests/golden/pickle_vectors.json`` — written by the *parent's* pickler
  before the rewrite (:func:`write_pickle_vectors`) — byte for byte, both
  ways: images written by the parent reopen, fixed-count logs stay equal;
* kernels and oracle agree over the whole value universe, and on every
  truncation and single-bit flip of every vector (value or exception type);
* the serializer's trust properties: depth capped at 64 both ways, unknown
  tags and unregistered types refused, every malformed input a
  :class:`PicklingError`;
* the three bugs the rewrite fixed on the way (ints beyond 64 bits,
  trailing bytes, hash-order sets).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PicklingError
from repro.objectstore.pickling import (
    ObjectRef,
    PicklerRegistry,
    pickle_value,
    unpickle_value,
)
from repro.util.codec import Decoder, Encoder, encode_uvarint

try:
    from repro.bench.store_bench import _reference_pickle, _reference_unpickle
except ImportError:  # the parent's tree, while it (re)writes the golden file
    _reference_pickle = _reference_unpickle = None

GOLDEN = Path(__file__).parent / "golden" / "pickle_vectors.json"
SRC = Path(__file__).resolve().parents[1] / "src"


class Contract:
    """The registered application class of the vectors (tag 40)."""

    def __init__(self, good, price):
        self.good = good
        self.price = price

    def __eq__(self, other):
        return type(other) is Contract and (self.good, self.price) == (
            other.good, other.price
        )


def _contract_from_state(state):
    return Contract(state["good"], state["price"])


REGISTRY = PicklerRegistry()
REGISTRY.register(
    40, Contract, lambda c: {"good": c.good, "price": c.price}, _contract_from_state
)


def nested(depth, leaf=None):
    """``leaf`` under ``depth`` lists: the leaf sits at pickling depth
    ``depth`` (the top-level value is depth 0)."""
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


def nested_wire(depth):
    """The bytes :func:`nested` would pickle to, built by hand so that a
    nesting the encoder refuses can still be offered to the decoder."""
    return b"\x07\x01" * depth + b"\x00"


def figure_10_shapes():
    """One of each value the Figure 10 workloads store (recorded from
    ``benchmarks/e2e/fig10.py`` runs): member object, B-tree leaf and
    interior node, hash bucket, collection state, both index states."""
    rng = random.Random(10)
    keys = sorted(rng.sample(range(1000), 32))
    return {
        "fig10_member": {
            "type": "c13", "ident": 144, "price": 446, "owner": 66,
            "status": "expired", "uses": 1, "payload": rng.randbytes(211),
        },
        "fig10_btree_leaf": {
            "leaf": True,
            "keys": keys,
            "vals": [
                [ObjectRef(1, rng.randrange(20_000)) for _ in range(1 + (i % 7 == 0) * 2)]
                for i in range(32)
            ],
        },
        "fig10_btree_leaf_str_keys": {
            "leaf": True,
            "keys": ["active", "expired", "pending"],
            "vals": [[ObjectRef(1, 3 * r + k) for r in range(60)] for k in range(3)],
        },
        "fig10_btree_interior": {
            "leaf": False,
            "keys": keys[:18],
            "children": [ObjectRef(1, rng.randrange(20_000)) for _ in range(19)],
        },
        "fig10_hash_bucket": {
            pickle_value(ident): [ObjectRef(1, 3000 + ident)]
            for ident in range(7, 500, 17)
        },
        "fig10_collection": {
            "name": "c05",
            "indexes": {"c05_by_ident": ObjectRef(1, 30), "c05_by_price": ObjectRef(1, 32)},
            "members_root": ObjectRef(1, 3102),
            "size": 499,
        },
        "fig10_hash_index": {
            "name": "c02_by_ident", "keyfunc": "ident", "sorted": False,
            "buckets": [ObjectRef(1, 1300 + 2 * i) if i % 5 else None for i in range(32)],
        },
        "fig10_sorted_index": {
            "name": "c13_by_price", "keyfunc": "price", "sorted": True,
            "root": ObjectRef(1, 7733),
        },
    }


def vectors():
    """name -> value: every tag, the varint and zig-zag edges, empty and
    200-element containers, the depth limit, a registered class, and the
    Figure 10 shapes."""
    out = {
        "none": None, "false": False, "true": True,
        "float_zero": 0.0, "float_neg": -2.5, "float_inf": float("inf"),
        "float_tiny": 5e-324,
        "str_empty": "", "str_utf8": "héllo wörld ✓", "str_127": "a" * 127,
        "str_128": "b" * 128, "str_16383": "c" * 16383, "str_16384": "d" * 16384,
        "bytes_empty": b"", "bytes_all": bytes(range(256)), "bytes_127": b"\x7f" * 127,
        "bytes_128": b"\x80" * 128,
        "list_empty": [], "tuple_empty": (), "dict_empty": {}, "set_empty": set(),
        "list_200": list(range(-100, 100)),
        "tuple_200": tuple(str(i) for i in range(200)),
        "dict_200": {i: (i, str(i)) for i in range(200)},
        "set_200": set(range(0, 4000, 20)),
        "set_of_str": {"pending", "active", "expired"},
        "set_of_tuples": {(2, "b"), (1, "z"), (1, "a")},
        "mixed": [None, True, False, 1, -1, 1.5, "s", b"b", (1,), {"k": {2}}, ObjectRef(0, 0)],
        "ref_small": ObjectRef(3, 17), "ref_edges": [
            ObjectRef(127, 127), ObjectRef(128, 128), ObjectRef(16383, 16383),
            ObjectRef(16384, 16384), ObjectRef(2**32, 2**40),
        ],
        "depth_64": nested(64),
        "depth_64_dict_tuple": {"k": (nested(62, 7),)},
        "contract": Contract("song.mp3", 99),
        "contracts_nested": {"offers": [Contract("a", 1), Contract("b", -2)]},
    }
    for n in (0, 1, 63, 64, 127, 128, 8191, 8192, 16383, 16384, 2**31, 2**62,
              2**63 - 1):
        out[f"int_{n}"] = n
        out[f"int_neg_{n}"] = -n
    out["int_min64"] = -(2**63)
    out["int_neg_2_31_minus_1"] = -(2**31) - 1
    out.update(figure_10_shapes())
    return out


VECTORS = vectors()

#: wire forms the decoder must refuse (the encoder never writes them)
REFUSED = {
    "depth_65": nested_wire(65),
    "depth_500": nested_wire(500),
}


def write_pickle_vectors(path=GOLDEN):
    """Run with the parent's ``src`` on ``PYTHONPATH`` to (re)write the
    golden file from the pickler the kernels replaced."""
    golden = {
        name: pickle_value(value, REGISTRY).hex() for name, value in VECTORS.items()
    }
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def outcome(work, *args):
    """The value ``work`` returns, or the type of exception it raises."""
    try:
        return work(*args)
    except Exception as exc:
        return type(exc)


def assert_same_outcome(wire):
    """Kernel and oracle unpickle ``wire`` to the same value (types and
    NaNs included: compared through their encodings) or both refuse it —
    and a refusal is a PicklingError (a TDBError), never a crash."""
    kernel = outcome(unpickle_value, wire, REGISTRY)
    oracle = outcome(_reference_unpickle, wire, REGISTRY)
    if isinstance(kernel, type) or isinstance(oracle, type):
        assert kernel is oracle is PicklingError, (wire.hex(), kernel, oracle)
    else:
        assert pickle_value(kernel, REGISTRY) == pickle_value(oracle, REGISTRY), wire.hex()


# ---------------------------------------------------------------------------
# the parent's bytes
# ---------------------------------------------------------------------------


class TestGoldenVectors:
    golden = json.loads(GOLDEN.read_text())

    def test_the_golden_file_covers_every_vector(self):
        assert set(self.golden) == set(VECTORS)

    @pytest.mark.parametrize("name", sorted(VECTORS))
    def test_bytes_and_value_both_ways(self, name):
        value, wire = VECTORS[name], bytes.fromhex(self.golden[name])
        assert pickle_value(value, REGISTRY) == wire
        assert _reference_pickle(value, REGISTRY) == wire
        for unpickle in (unpickle_value, _reference_unpickle):
            back = unpickle(wire, REGISTRY)
            assert back == value and type(back) is type(value)

    def test_every_tag_is_among_the_vectors(self):
        firsts = {bytes.fromhex(wire)[0] for wire in self.golden.values()}
        assert firsts >= set(range(12)) | {40}

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_nesting_past_64_is_refused_both_ways(self, name):
        wire = REFUSED[name]
        depth = wire.count(b"\x07\x01")
        for pickle in (pickle_value, _reference_pickle):
            with pytest.raises(PicklingError, match="too deep"):
                pickle(nested(depth))
        for unpickle in (unpickle_value, _reference_unpickle):
            with pytest.raises(PicklingError, match="too deeply nested"):
                unpickle(wire)

    def test_depth_64_is_the_last_accepted(self):
        assert pickle_value(nested(64)) == nested_wire(64)
        assert unpickle_value(nested_wire(64)) == nested(64)
        # an empty container at depth 64 has nothing at depth 65
        assert unpickle_value(pickle_value(nested(64, {}))) == nested(64, {})
        for leaf in ([0], (0,), {0: 0}, {0}, {(1,), "a"}, Contract("g", 1)):
            with pytest.raises(PicklingError):
                pickle_value(nested(64, leaf), REGISTRY)

    def test_memoryview_and_bytearray_input(self):
        for name in ("fig10_member", "fig10_btree_leaf", "mixed"):
            wire = bytes.fromhex(self.golden[name])
            padded = memoryview(b"xx" + wire + b"yy")[2:-2]
            assert unpickle_value(padded, REGISTRY) == VECTORS[name]
            assert unpickle_value(bytearray(wire), REGISTRY) == VECTORS[name]
        payload = unpickle_value(memoryview(pickle_value({"payload": b"p" * 300})))
        assert type(payload["payload"]) is bytes


# ---------------------------------------------------------------------------
# kernels against the oracle
# ---------------------------------------------------------------------------


def primitives():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**76), max_value=2**76 - 1),
        st.integers(min_value=-200, max_value=200),
        st.floats(allow_nan=False),
        st.text(max_size=40),
        st.text(min_size=120, max_size=140),
        st.binary(max_size=40),
        st.binary(min_size=120, max_size=140),
        st.builds(ObjectRef, st.integers(0, 2**40), st.integers(0, 2**40)),
        st.builds(ObjectRef, st.integers(0, 200), st.integers(0, 20000)),
        st.builds(Contract, st.text(max_size=5), st.integers(0, 1000)),
    )


def hashables():
    return st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(-(2**70), 2**70),
            st.floats(allow_nan=False), st.text(max_size=8), st.binary(max_size=8),
            st.builds(ObjectRef, st.integers(0, 300), st.integers(0, 10**6)),
        ),
        lambda children: st.lists(children, max_size=3).map(tuple),
        max_leaves=6,
    )


def values():
    """The whole universe: every primitive, containers of them, sets and
    dict keys of anything hashable (sortable or not), a registered class."""
    return st.recursive(
        primitives(),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(hashables(), children, max_size=5),
            st.sets(hashables(), max_size=5),
            st.builds(Contract, children, children),
        ),
        max_leaves=25,
    )


class TestKernelsAgainstTheOracle:
    @given(values())
    @settings(max_examples=300)
    def test_same_bytes_same_value(self, value):
        wire = pickle_value(value, REGISTRY)
        assert wire == _reference_pickle(value, REGISTRY)
        back = unpickle_value(wire, REGISTRY)
        assert back == value == _reference_unpickle(wire, REGISTRY)
        assert pickle_value(back, REGISTRY) == wire

    @given(st.binary(max_size=120))
    @settings(max_examples=300)
    def test_arbitrary_bytes_same_outcome(self, blob):
        assert_same_outcome(blob)

    @given(values(), st.data())
    @settings(max_examples=200)
    def test_a_damaged_pickle_same_outcome(self, value, data):
        wire = bytearray(pickle_value(value, REGISTRY))
        for _ in range(data.draw(st.integers(1, 3))):
            wire[data.draw(st.integers(0, len(wire) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        assert_same_outcome(bytes(wire[: data.draw(st.integers(0, len(wire)))]))

    @pytest.mark.parametrize(
        "value",
        [2**77, -(2**77), 10**40, ObjectRef(-1, 0), ObjectRef(0, -5), ObjectRef(2**80, 0),
         object(), {1: object()}, [ObjectRef], frozenset()],
    )
    def test_what_cannot_be_pickled_is_refused_alike(self, value):
        assert outcome(pickle_value, value) is PicklingError
        assert outcome(_reference_pickle, value) is PicklingError


#: vectors up to this long have every truncation and bit flip tried; the
#: rest (the two 16 KiB strings) are sampled
SMALL = 2000


def damaged_forms(wire, rng):
    """Every truncation and every single-bit flip of a short ``wire``;
    for a long one, those of its first and last bytes and a sample."""
    if len(wire) <= SMALL:
        positions = range(len(wire))
    else:
        positions = sorted(
            set(range(40)) | set(range(len(wire) - 40, len(wire)))
            | set(rng.sample(range(len(wire)), 120))
        )
    for position in positions:
        yield wire[:position]
        for bit in range(8):
            flipped = bytearray(wire)
            flipped[position] ^= 1 << bit
            yield bytes(flipped)


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_malformed_input_parity(name):
    wire = bytes.fromhex(TestGoldenVectors.golden[name])
    for damaged in damaged_forms(wire, random.Random(name)):
        assert_same_outcome(damaged)


# ---------------------------------------------------------------------------
# the bugs fixed on the way
# ---------------------------------------------------------------------------


class TestIntsAreExactOrRefused:
    @pytest.mark.parametrize("value", [2**63, 2**64 + 5, -(2**64) - 5, 2**76 - 1, -(2**76)])
    def test_beyond_64_bits_comes_back_exact(self, value):
        # the parent's zig-zag assumed 64 bits: 2**63 came back as
        # -2**63 - 1 and 2**64 + 5 as 2**64 + 4
        assert unpickle_value(pickle_value(value)) == value
        assert Decoder(Encoder().int(value).finish()).int() == value

    @pytest.mark.parametrize("value", [2**76, 2**77 + 1, -(2**76) - 1, 10**30])
    def test_what_could_never_be_read_is_refused_at_encode_time(self, value):
        # the parent committed these and failed every later read with
        # "corrupt pickle: uvarint too long"
        with pytest.raises(PicklingError):
            pickle_value(value)
        with pytest.raises(PicklingError):
            pickle_value({"k": [value]})
        with pytest.raises(ValueError):
            Encoder().int(value)
        with pytest.raises(ValueError):
            encode_uvarint(2**77)

    @given(st.integers(-(2**76), 2**76 - 1))
    def test_every_accepted_int_round_trips(self, value):
        assert unpickle_value(pickle_value(value)) == value

    def test_64_bit_ints_keep_their_bytes(self):
        for value, wire in ((2**63 - 1, "03feffffffffffffffff01"),
                            (-(2**63), "03ffffffffffffffffff01"), (-1, "0301"), (64, "038001")):
            assert pickle_value(value).hex() == wire


class TestEveryMalformedInputIsAPicklingError:
    def test_trailing_bytes(self):
        for extra in (b"\x00", b"extra"):
            with pytest.raises(PicklingError, match="trailing"):
                unpickle_value(pickle_value(1) + extra)

    @pytest.mark.parametrize(
        "wire",
        [
            b"",  # nothing
            b"\x09\x01\x07\x00\x00",  # a list as dict key
            b"\x0a\x01\x09\x00",  # a dict as set member
            b"\x05\x02\xff\xfe",  # not UTF-8
            b"\x03" + b"\xff" * 11,  # over-long varint
            b"\x07\xff\xff\xff\xff\x0f",  # 2**32 - 1 elements, none there
            b"\x04\x00\x00",  # truncated float
            b"\x0c",  # unknown tag
            b"\x83\x00",  # non-canonical int tag, value missing
            b"\x28\x00",  # Contract whose state is None: from_state raises TypeError
            b"\x28\x09\x00",  # Contract whose state lacks its keys: KeyError
        ],
    )
    def test_refusals(self, wire):
        with pytest.raises(PicklingError):
            unpickle_value(wire, REGISTRY)
        with pytest.raises(PicklingError):
            _reference_unpickle(wire, REGISTRY)

    def test_non_canonical_varints_still_decode(self):
        # LEB128 padding is accepted, as the Decoder always has
        assert unpickle_value(b"\x83\x00\x82\x00") == 1
        assert unpickle_value(b"\x07\x81\x00\x00") == [None]


SET_SCRIPT = """
import sys
from repro.collection.index import _bucket_of
from repro.objectstore.pickling import pickle_value, unpickle_value
key = {'a', 'b', 1, 2, (1, 2)}
wire = pickle_value(key)
assert unpickle_value(wire) == key
mixed = pickle_value([{'x', b'x', None}, {(1, 'a'), (1, 2)}])
sys.stdout.write(wire.hex() + ' %d ' % _bucket_of(pickle_value(key)) + mixed.hex())
"""


class TestSetsEncodeTheSameInEveryProcess:
    def test_unsortable_members_go_in_encoding_order(self):
        key = {"a", "b", 1, 2, (1, 2)}
        wire = pickle_value(key)
        members = sorted(pickle_value(member) for member in key)
        assert wire == b"\x0a\x05" + b"".join(members)
        assert wire == _reference_pickle(key)
        assert unpickle_value(wire) == key

    def test_two_hash_seeds_one_encoding(self):
        # str hashes differ between the two processes, so the sets iterate
        # in different orders; an index key must still find its bucket
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            done = subprocess.run(
                [sys.executable, "-c", SET_SCRIPT], env=env, capture_output=True,
                text=True, check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_sortable_sets_keep_the_parents_bytes(self):
        assert pickle_value({3, 1, 2}).hex() == "0a03030203040306"
        assert pickle_value({"b", "a"}).hex() == "0a02050161050162"


if __name__ == "__main__":
    write_pickle_vectors()
