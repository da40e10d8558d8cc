"""The portable pickle codec (§2.2, §7)."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import PicklingError
from repro.objectstore.pickling import (
    ObjectRef,
    PicklerRegistry,
    pickle_value,
    unpickle_value,
)
from tests.test_pickle_kernels import GOLDEN, REGISTRY, VECTORS


def primitives():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**60), max_value=2**60),
        st.floats(allow_nan=False),
        st.text(max_size=40),
        st.binary(max_size=40),
        st.builds(ObjectRef, st.integers(0, 1000), st.integers(0, 10**6)),
    )


def values():
    return st.recursive(
        primitives(),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=8), children, max_size=5),
            st.lists(children, max_size=4).map(tuple),
        ),
        max_leaves=25,
    )


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**40,
            -(2**40),
            0.0,
            -2.5,
            "",
            "héllo wörld",
            b"",
            b"\x00\xff",
            [],
            [1, 2, 3],
            (1, "two", 3.0),
            {},
            {"k": [1, {"nested": True}]},
            set(),
            {1, 2, 3},
            ObjectRef(3, 17),
        ],
    )
    def test_roundtrip(self, value):
        assert unpickle_value(pickle_value(value)) == value

    def test_types_preserved(self):
        assert isinstance(unpickle_value(pickle_value((1, 2))), tuple)
        assert isinstance(unpickle_value(pickle_value([1, 2])), list)
        assert isinstance(unpickle_value(pickle_value({1})), set)
        assert isinstance(unpickle_value(pickle_value(True)), bool)
        assert isinstance(unpickle_value(pickle_value(ObjectRef(1, 2))), ObjectRef)

    def test_bool_is_not_int(self):
        # bool subclasses int in Python; the codec must keep them distinct
        assert unpickle_value(pickle_value(1)) == 1
        assert unpickle_value(pickle_value(True)) is True

    @given(values())
    def test_roundtrip_property(self, value):
        assert unpickle_value(pickle_value(value)) == value

    @given(values())
    def test_encoding_deterministic(self, value):
        assert pickle_value(value) == pickle_value(value)


class TestErrors:
    def test_unregistered_class(self):
        class Mystery:
            pass

        with pytest.raises(PicklingError):
            pickle_value(Mystery())

    def test_unknown_tag(self):
        from repro.util.codec import Encoder

        data = Encoder().uint(55).uint(0).finish()
        with pytest.raises(PicklingError):
            unpickle_value(data)

    def test_truncated_data(self):
        data = pickle_value([1, 2, 3])
        with pytest.raises(PicklingError):
            unpickle_value(data[:-1])

    def test_trailing_garbage(self):
        # a refusal is a PicklingError (a TDBError), not a bare ValueError
        for extra in (b"\x00", b"extra"):
            with pytest.raises(PicklingError):
                unpickle_value(pickle_value(1) + extra)

    def test_too_deep(self):
        value = [1]
        for _ in range(100):
            value = [value]
        with pytest.raises(PicklingError):
            pickle_value(value)


class TestRegisteredClasses:
    def make_registry(self):
        registry = PicklerRegistry()

        class Contract:
            def __init__(self, good, price):
                self.good = good
                self.price = price

            def __eq__(self, other):
                return (self.good, self.price) == (other.good, other.price)

        registry.register(
            40,
            Contract,
            lambda c: {"good": c.good, "price": c.price},
            lambda s: Contract(s["good"], s["price"]),
        )
        return registry, Contract

    def test_class_roundtrip(self):
        registry, Contract = self.make_registry()
        value = Contract("song.mp3", 99)
        data = pickle_value(value, registry)
        assert unpickle_value(data, registry) == value

    def test_nested_class_values(self):
        registry, Contract = self.make_registry()
        value = {"offers": [Contract("a", 1), Contract("b", 2)]}
        assert unpickle_value(pickle_value(value, registry), registry) == value

    def test_low_tag_rejected(self):
        registry = PicklerRegistry()
        with pytest.raises(PicklingError):
            registry.register(5, int, int, int)

    def test_conflicting_tag_rejected(self):
        registry, Contract = self.make_registry()
        with pytest.raises(PicklingError):
            registry.register(40, dict, dict, dict)

    def test_from_state_type_checked(self):
        registry = PicklerRegistry()

        class Thing:
            pass

        registry.register(41, Thing, lambda t: None, lambda s: "not a Thing")
        data = pickle_value_with_tag41 = None
        from repro.util.codec import Encoder

        data = Encoder().uint(41).uint(0).finish()  # tag 41, state None
        with pytest.raises(PicklingError):
            unpickle_value(data, registry)


class TestObjectRef:
    """A ref is the 2-tuple ``(partition, rank)``: it hashes, compares and
    orders as one, and keeps its own type, text and wire form."""

    def test_orders_by_partition_then_rank(self):
        refs = [ObjectRef(2, 0), ObjectRef(1, 9), ObjectRef(1, 2), ObjectRef(0, 100)]
        assert sorted(refs) == [(0, 100), (1, 2), (1, 9), (2, 0)]
        assert ObjectRef(1, 2) < ObjectRef(1, 3) < ObjectRef(2, 0)
        assert max(refs) == ObjectRef(2, 0)

    def test_is_a_dict_and_set_key(self):
        table = {ObjectRef(1, 2): "a", ObjectRef(2, 1): "b"}
        assert table[ObjectRef(1, 2)] == "a" and table[ObjectRef(2, 1)] == "b"
        assert {ObjectRef(1, 2), ObjectRef(1, 2), ObjectRef(2, 1)} == {
            ObjectRef(1, 2), ObjectRef(2, 1)
        }
        # a ref equals the plain tuple and hashes alike
        assert ObjectRef(1, 2) == (1, 2) and hash(ObjectRef(1, 2)) == hash((1, 2))
        assert table[(1, 2)] == "a"

    def test_fields_text_and_immutability(self):
        ref = ObjectRef(3, 17)
        assert (ref.partition, ref.rank) == (3, 17) == tuple(ref)
        assert str(ref) == "obj:3.17" and f"{ref}" == "obj:3.17"
        assert repr(ref) == "ObjectRef(partition=3, rank=17)"
        with pytest.raises(AttributeError):
            ref.rank = 18
        with pytest.raises(AttributeError):
            ref.extra = 1
        assert ref == ObjectRef(3, 17)

    def test_round_trips_as_a_ref_and_a_tuple_as_a_tuple(self):
        ref = unpickle_value(pickle_value(ObjectRef(1, 2)))
        assert isinstance(ref, ObjectRef) and ref == ObjectRef(1, 2)
        assert type(unpickle_value(pickle_value((1, 2)))) is tuple
        # equal values, distinct wire forms: the pickler dispatches on type
        assert pickle_value(ObjectRef(1, 2)) != pickle_value((1, 2))
        nested = unpickle_value(pickle_value({"children": [ObjectRef(4, 5)]}))
        assert type(nested["children"][0]) is ObjectRef

    def test_golden_vectors_keep_their_bytes(self):
        golden = json.loads(GOLDEN.read_text())
        with_refs = [name for name in VECTORS if "ObjectRef" in repr(VECTORS[name])]
        assert {"ref_small", "ref_edges", "mixed", "fig10_btree_leaf"} <= set(with_refs)
        for name in with_refs:
            assert pickle_value(VECTORS[name], REGISTRY).hex() == golden[name], name
