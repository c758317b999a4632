import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtvote.bencode import BencodeError, decode, encode


@pytest.mark.parametrize(
    "value,encoded",
    [
        (42, b"i42e"),
        (0, b"i0e"),
        (-7, b"i-7e"),
        (b"spam", b"4:spam"),
        (b"", b"0:"),
        ([], b"le"),
        ([1, b"a"], b"li1e1:ae"),
        ({b"cow": b"moo"}, b"d3:cow3:mooe"),
        ({b"b": 1, b"a": 2}, b"d1:ai2e1:bi1ee"),  # keys sorted on encode
    ],
)
def test_known_encodings(value, encoded):
    assert encode(value) == encoded
    assert decode(encoded) == value


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"i42",  # unterminated int
        b"i04e",  # leading zero
        b"i-0e",  # negative zero
        b"ie",
        b"i--2e",
        b"4:spa",  # short string
        b"04:spam",  # length leading zero
        b"4spam",
        b"li1e",  # unterminated list
        b"d3:cow3:moo",  # unterminated dict
        b"di1e3:mooe",  # non-string key
        b"d1:bi1e1:ai2ee",  # unsorted keys
        b"d1:ai1e1:ai2ee",  # duplicate key
        b"i42ei1e",  # trailing bytes
        b"x",
        b"l" * 50 + b"e" * 50,  # nesting bomb
        # more digits than int() converts
        pytest.param(b"i" + b"9" * 5000 + b"e", id="int-5000-digits"),
        pytest.param(b"9" * 5000 + b":x", id="length-5000-digits"),
        pytest.param(b"d1:a" + b"9" * 5000 + b":xe", id="dict-value-length-5000-digits"),
    ],
)
def test_malformed_inputs_rejected(blob):
    with pytest.raises(BencodeError):
        decode(blob)


@pytest.mark.parametrize(
    "blob,offset,message",
    [
        (b"d1:a04:spame", 4, "string length has leading zero"),
        (b"d1:a9:spame", 4, "string runs past end of input"),
        (b"d1:a4spame", 4, "unterminated string length"),
        (b"d01:a1:be", 1, "string length has leading zero"),
        (b"d1:", 1, "string runs past end of input"),
        (b"di1e1:ae", 1, "dict key is not a byte string"),
        (b"d1:a1:x1:a1:ye", 7, "dict keys not strictly ascending"),
        (b"d1:a", 4, "truncated input"),
        (b"d1:ax", 4, "unexpected byte 0x78"),
        (b"li1e04:spame", 4, "string length has leading zero"),
        (b"dle1:ae", 1, "dict key is not a byte string"),
        (b"d1:b1:x1:a1:ye", 7, "dict keys not strictly ascending"),
        # a string one level past the depth limit
        (b"l" * 33 + b"1:a" + b"e" * 33, 33, "nesting too deep"),
        pytest.param(b"li" + b"9" * 5000 + b"ee", 1, "integer too long", id="list-int-5000-digits"),
        pytest.param(
            b"d1:a" + b"9" * 5000 + b":xe", 4, "string runs past end of input",
            id="dict-value-length-5000-digits",
        ),
    ],
)
def test_error_offsets_in_containers(blob, offset, message):
    """Fields parsed in place inside containers fail as the recursive path does."""
    with pytest.raises(BencodeError) as err:
        decode(blob)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} at byte {offset}"


def test_error_carries_offset():
    with pytest.raises(BencodeError) as err:
        decode(b"li1ex")
    assert err.value.offset == 4


def test_non_bencode_types_rejected():
    with pytest.raises(TypeError):
        encode(1.5)
    with pytest.raises(TypeError):
        encode(True)
    with pytest.raises(TypeError):
        encode({"str-key": 1})


bencode_values = st.recursive(
    st.integers(min_value=-(2**63), max_value=2**63) | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.binary(max_size=8), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(bencode_values)
def test_round_trip(value):
    blob = encode(value)
    assert decode(blob) == value
    assert encode(decode(blob)) == blob  # canonical form is a fixed point


def assert_decodes_or_rejects(data):
    try:
        value = decode(data)
    except BencodeError as err:
        assert 0 <= err.offset <= len(data)
    else:
        assert encode(value) == data


TOKEN_BYTES = b"0123456789:ilde-"


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=64) | st.lists(st.sampled_from(TOKEN_BYTES), max_size=64).map(bytes))
def test_decode_total_on_arbitrary_bytes(data):
    assert_decodes_or_rejects(data)


@settings(max_examples=500, deadline=None)
@given(bencode_values, st.data())
def test_decode_total_on_mutated_encodings(value, draw):
    blob = bytearray(encode(value))
    for _ in range(draw.draw(st.integers(min_value=1, max_value=4))):
        at = draw.draw(st.integers(min_value=0, max_value=len(blob)))
        edit = draw.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        byte = draw.draw(st.sampled_from(TOKEN_BYTES))
        if edit == "insert":
            blob.insert(at, byte)
        elif edit == "truncate":
            del blob[at:]
        elif at < len(blob):
            if edit == "replace":
                blob[at] = byte
            else:
                del blob[at]
    assert_decodes_or_rejects(bytes(blob))
