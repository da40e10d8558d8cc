"""Unit and property tests for the binary codec (repro.util.codec)."""

import pytest
from hypothesis import given, strategies as st

from repro.bench.store_bench import _plain_decode_uvarint, _plain_encode_uvarint
from repro.util.codec import (
    MAX_UVARINT_BITS,
    Decoder,
    Encoder,
    decode_uvarint,
    encode_uvarint,
)


class TestUvarint:
    def test_zero(self):
        assert encode_uvarint(0) == b"\x00"
        assert decode_uvarint(b"\x00") == (0, 1)

    def test_small_values_are_one_byte(self):
        for value in range(128):
            assert len(encode_uvarint(value)) == 1

    def test_boundary_128(self):
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_raises(self):
        data = encode_uvarint(300)
        with pytest.raises(ValueError):
            decode_uvarint(data[:-1])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"")

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\xff" * 11)

    @given(st.integers(min_value=0, max_value=2**64))
    def test_roundtrip(self, value):
        data = encode_uvarint(value)
        decoded, offset = decode_uvarint(data)
        assert decoded == value
        assert offset == len(data)

    def test_fast_paths_are_the_plain_loop(self):
        # one- and two-byte values take a shortcut; the edges of each
        edges = [0, 1, 127, 128, 129, 255, 256, 16383, 16384, 16385, 2**21 - 1, 2**21]
        for value in edges:
            wire = encode_uvarint(value)
            assert wire == _plain_encode_uvarint(value)
            assert decode_uvarint(wire) == _plain_decode_uvarint(wire) == (value, len(wire))
            assert Encoder().uint(value).finish() == wire
            assert Decoder(wire).uint() == value

    @given(st.binary(max_size=14), st.integers(0, 3))
    def test_decode_any_bytes_like_the_plain_loop(self, blob, offset):
        def outcome(decode, data):
            try:
                return decode(data, offset)
            except ValueError as exc:
                return str(exc)

        expected = outcome(_plain_decode_uvarint, blob)
        assert outcome(decode_uvarint, blob) == expected
        assert outcome(decode_uvarint, memoryview(blob)) == expected
        decoder = Decoder(blob, offset)
        try:
            assert (decoder.uint(), decoder.position) == expected
        except ValueError as exc:
            assert str(exc) == expected

    def test_what_no_reader_accepts_is_not_written(self):
        # decode_uvarint stops at 11 bytes (77 bits); the encoder used to
        # write longer ones, which then could never be read back
        largest = (1 << MAX_UVARINT_BITS) - 1
        assert decode_uvarint(encode_uvarint(largest)) == (largest, 11)
        with pytest.raises(ValueError):
            encode_uvarint(largest + 1)
        with pytest.raises(ValueError):
            Encoder().uint(largest + 1)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(0, 100))
    def test_decode_at_offset(self, value, pad):
        data = b"\x55" * pad + encode_uvarint(value)
        decoded, offset = decode_uvarint(data, pad)
        assert decoded == value
        assert offset == len(data)


class TestEncoderDecoder:
    def test_mixed_fields_roundtrip(self):
        enc = Encoder()
        enc.uint(42).int(-17).bool(True).float(3.5).bytes(b"abc").text("héllo")
        enc.opt_uint(None).opt_uint(9).raw(b"RAW")
        data = enc.finish()
        dec = Decoder(data)
        assert dec.uint() == 42
        assert dec.int() == -17
        assert dec.bool() is True
        assert dec.float() == 3.5
        assert dec.bytes() == b"abc"
        assert dec.text() == "héllo"
        assert dec.opt_uint() is None
        assert dec.opt_uint() == 9
        assert dec.raw(3) == b"RAW"
        dec.expect_exhausted()

    def test_trailing_bytes_detected(self):
        data = Encoder().uint(1).finish() + b"x"
        dec = Decoder(data)
        dec.uint()
        with pytest.raises(ValueError):
            dec.expect_exhausted()

    def test_truncated_bytes_field(self):
        data = Encoder().bytes(b"hello").finish()[:-2]
        with pytest.raises(ValueError):
            Decoder(data).bytes()

    def test_truncated_float(self):
        with pytest.raises(ValueError):
            Decoder(b"\x00" * 4).float()

    def test_invalid_bool_byte(self):
        with pytest.raises(ValueError):
            Decoder(b"\x02").bool()

    def test_len_tracks_parts(self):
        enc = Encoder()
        enc.uint(1).bytes(b"xy")
        assert len(enc) == len(enc.finish())

    @given(st.integers(min_value=-(2**76), max_value=2**76 - 1))
    def test_signed_roundtrip(self, value):
        data = Encoder().int(value).finish()
        assert Decoder(data).int() == value

    @given(st.binary(max_size=500))
    def test_bytes_roundtrip(self, blob):
        data = Encoder().bytes(blob).finish()
        assert Decoder(data).bytes() == blob

    @given(st.text(max_size=200))
    def test_text_roundtrip(self, text):
        data = Encoder().text(text).finish()
        assert Decoder(data).text() == text

    @given(st.floats(allow_nan=False))
    def test_float_roundtrip(self, value):
        data = Encoder().float(value).finish()
        assert Decoder(data).float() == value

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=50))
    def test_uint_sequence_roundtrip(self, values):
        enc = Encoder()
        for value in values:
            enc.uint(value)
        dec = Decoder(enc.finish())
        assert [dec.uint() for _ in values] == values
        dec.expect_exhausted()
