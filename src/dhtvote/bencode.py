"""Strict bencode codec.

Values are ints, byte strings, lists, and dicts with byte-string keys.
Encoding is canonical (dict keys sorted); decoding rejects anything
non-canonical: trailing bytes, leading zeros in integers and string
lengths, negative zero, and unsorted or duplicate dict keys. Errors carry
the byte offset where decoding failed.

Every datagram goes through this module once each way, so calls are kept
few: the encoder's dict loop writes byte-string and int values in place,
and the decoder's container loop reads byte strings in place. Nested
containers, ints and every error take the recursive path, so each check
has one message and one offset.
"""

from __future__ import annotations

BencodeValue = int | bytes | list | dict


class BencodeError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


def encode(value: BencodeValue) -> bytes:
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: BencodeValue, out: bytearray) -> None:
    if isinstance(value, dict):  # first: every message is one
        out += b"d"
        for key in sorted(value):
            if not isinstance(key, bytes):
                raise TypeError(f"dict keys must be bytes, got {type(key).__name__}")
            item = value[key]
            kind = type(item)
            if kind is bytes:
                out += b"%d:%b%d:%b" % (len(key), key, len(item), item)
            elif kind is int:
                out += b"%d:%bi%de" % (len(key), key, item)
            else:
                out += b"%d:%b" % (len(key), key)
                _encode_into(item, out)
        out += b"e"
    elif isinstance(value, bool):
        raise TypeError("bool is not a bencode value")
    elif isinstance(value, int):
        out += b"i%de" % value
    elif isinstance(value, (bytes, bytearray, memoryview)):
        value = bytes(value)
        out += b"%d:" % len(value)
        out += value
    elif isinstance(value, list):
        out += b"l"
        for item in value:
            _encode_into(item, out)
        out += b"e"
    else:
        raise TypeError(f"cannot bencode {type(value).__name__}")


def decode(data: bytes) -> BencodeValue:
    if not data:
        raise BencodeError("empty input", 0)
    value, end = _decode_at(data, 0, depth=0)
    if end != len(data):
        raise BencodeError("trailing bytes after value", end)
    return value


_MAX_DEPTH = 32  # fuzz inputs must not recurse the interpreter to death


def _decode_at(data: bytes, pos: int, depth: int) -> tuple[BencodeValue, int]:
    if depth > _MAX_DEPTH:
        raise BencodeError("nesting too deep", pos)
    size = len(data)
    if pos >= size:
        raise BencodeError("truncated input", pos)
    lead = data[pos]
    if lead == 0x69:  # 'i'
        return _decode_int(data, pos)
    if 0x30 <= lead <= 0x39:  # digit
        return _decode_string(data, pos)
    if lead != 0x6C and lead != 0x64:  # 'l', 'd'
        raise BencodeError(f"unexpected byte {lead:#04x}", pos)
    is_dict = lead == 0x64
    items: list[BencodeValue] = []
    mapping: dict[bytes, BencodeValue] = {}
    key = previous_key = None  # key: the dict key whose value comes next
    # Children at depth + 1 beyond the limit take the recursive path, which
    # raises "nesting too deep" at their offset.
    inline = depth < _MAX_DEPTH
    cursor = pos + 1
    while True:
        if key is None:  # a list item or a dict key, or the end
            if cursor >= size:
                kind = "dict" if is_dict else "list"
                raise BencodeError(f"unterminated {kind}", cursor)
            if data[cursor] == 0x65:  # 'e'
                return (mapping if is_dict else items), cursor + 1
        start = cursor
        value = None
        # A byte string with a nonzero length is parsed in place; a '0'
        # lead, a malformed length and a short input take the recursive
        # path, which raises each error at its offset.
        if inline and cursor < size and 0x31 <= data[cursor] <= 0x39:
            length = data[cursor] - 0x30
            i = cursor + 1
            while i < size and length <= size:
                digit = data[i]
                if digit == 0x3A:  # ':'
                    end = i + 1 + length
                    if end <= size:
                        value = data[i + 1 : end]
                        cursor = end
                    break
                if not 0x30 <= digit <= 0x39:
                    break
                length = length * 10 + digit - 0x30
                i += 1
        if value is None:
            value, cursor = _decode_at(data, cursor, depth + 1)
        if not is_dict:
            items.append(value)
        elif key is not None:
            mapping[key] = value
            key = None
        elif not isinstance(value, bytes):
            raise BencodeError("dict key is not a byte string", start)
        elif previous_key is not None and value <= previous_key:
            raise BencodeError("dict keys not strictly ascending", start)
        else:
            key = previous_key = value


def _decode_int(data: bytes, pos: int) -> tuple[int, int]:
    end = data.find(b"e", pos + 1)
    if end < 0:
        raise BencodeError("unterminated integer", pos)
    digits = data[pos + 1 : end]
    body = digits[1:] if digits[:1] == b"-" else digits
    if not body.isdigit():
        raise BencodeError("malformed integer", pos)
    if body != b"0" and body[:1] == b"0":
        raise BencodeError("integer has leading zero", pos)
    if digits == b"-0":
        raise BencodeError("negative zero", pos)
    try:
        return int(digits), end + 1
    except ValueError:  # more digits than the interpreter converts
        raise BencodeError("integer too long", pos) from None


def _decode_string(data: bytes, pos: int) -> tuple[bytes, int]:
    colon = data.find(b":", pos)
    if colon < 0:
        raise BencodeError("unterminated string length", pos)
    length_digits = data[pos:colon]
    if not length_digits.isdigit():
        raise BencodeError("malformed string length", pos)
    if length_digits != b"0" and length_digits[:1] == b"0":
        raise BencodeError("string length has leading zero", pos)
    # A length with more digits than the input's own length runs past the
    # end; checking that first keeps int() off numbers too long to convert.
    if len(length_digits) > len(str(len(data))):
        raise BencodeError("string runs past end of input", pos)
    end = colon + 1 + int(length_digits)
    if end > len(data):
        raise BencodeError("string runs past end of input", pos)
    return data[colon + 1 : end], end
