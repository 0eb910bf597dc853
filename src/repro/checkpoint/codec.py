"""Deterministic binary codec for snapshot state.

Snapshots must be *bit-reproducible*: encoding the same state twice —
on any platform, in any process — yields the same bytes, so checkpoint
files can be compared, checksummed and diffed.  ``pickle`` gives no
such guarantee (memoisation, protocol drift) and JSON cannot carry
``bytes`` or distinguish ``1`` from ``1.0``, so the checkpoint format
uses its own small tagged encoding:

=====  ======================================================
tag    payload
=====  ======================================================
``N``  None
``T``  True
``F``  False
``i``  int     — zig-zag LEB128 varint (arbitrary precision)
``f``  float   — 8-byte big-endian IEEE-754 double (exact)
``s``  str     — varint byte length + UTF-8 bytes
``b``  bytes   — varint length + raw bytes
``l``  list    — varint count + encoded items (tuples too)
``d``  dict    — varint count + encoded key/value pairs
=====  ======================================================

Container order is preserved (Python dicts are insertion-ordered), so
determinism follows from the capture code being deterministic.  Floats
round-trip exactly (``struct`` packs the IEEE bits), which is what
makes restored fabric timestamps bit-identical to the originals.
"""

from __future__ import annotations

import hashlib
import marshal
import struct
import zlib
from typing import Any


class CodecError(ValueError):
    """Unencodable object or malformed encoded stream."""


# ----------------------------------------------------------------------
# varints

def _encode_uvarint(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _encode_int(value: int, out: bytearray) -> None:
    # Plain zig-zag, defined for arbitrary precision.
    encoded = (value << 1) if value >= 0 else ((-value << 1) - 1)
    _encode_uvarint(encoded, out)


def _decode_int(data: bytes, pos: int) -> tuple[int, int]:
    encoded, pos = _decode_uvarint(data, pos)
    value = encoded >> 1
    if encoded & 1:
        value = -value - 1
    return value, pos


# ----------------------------------------------------------------------
# objects

def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out.append(ord("N"))
    elif obj is True:
        out.append(ord("T"))
    elif obj is False:
        out.append(ord("F"))
    elif isinstance(obj, int):
        out.append(ord("i"))
        _encode_int(obj, out)
    elif isinstance(obj, float):
        out.append(ord("f"))
        out += struct.pack(">d", obj)
    elif isinstance(obj, str):
        out.append(ord("s"))
        raw = obj.encode("utf-8")
        _encode_uvarint(len(raw), out)
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        out.append(ord("b"))
        raw = bytes(obj)
        _encode_uvarint(len(raw), out)
        out += raw
    elif isinstance(obj, (list, tuple)):
        out.append(ord("l"))
        _encode_uvarint(len(obj), out)
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, dict):
        out.append(ord("d"))
        _encode_uvarint(len(obj), out)
        for key, value in obj.items():
            _encode(key, out)
            _encode(value, out)
    else:
        raise CodecError(
            f"cannot encode {type(obj).__name__} in a snapshot"
        )


def _decode(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("truncated stream")
    tag = data[pos]
    pos += 1
    if tag == ord("N"):
        return None, pos
    if tag == ord("T"):
        return True, pos
    if tag == ord("F"):
        return False, pos
    if tag == ord("i"):
        return _decode_int(data, pos)
    if tag == ord("f"):
        if pos + 8 > len(data):
            raise CodecError("truncated float")
        return struct.unpack(">d", data[pos:pos + 8])[0], pos + 8
    if tag in (ord("s"), ord("b")):
        length, pos = _decode_uvarint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated string/bytes")
        raw = data[pos:pos + length]
        pos += length
        return (raw.decode("utf-8") if tag == ord("s") else raw), pos
    if tag == ord("l"):
        count, pos = _decode_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos)
            items.append(item)
        return items, pos
    if tag == ord("d"):
        count, pos = _decode_uvarint(data, pos)
        result: dict = {}
        for _ in range(count):
            key, pos = _decode(data, pos)
            value, pos = _decode(data, pos)
            result[key] = value
        return result, pos
    raise CodecError(f"unknown tag byte {tag:#04x}")


def encode_obj(obj: Any) -> bytes:
    """Encode a state object to deterministic bytes."""
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def decode_obj(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_obj`.

    Tuples come back as lists — restore code must accept either.
    """
    obj, pos = _decode(data, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after object")
    return obj


def state_digest(state: Any) -> str:
    """SHA-256 fingerprint of one snapshot state: equal digests mean
    equal states, so a faulted run can be compared with the golden run
    landmark by landmark.

    Hashes ``marshal`` format 2 rather than :func:`encode_obj`, which
    is about twenty times slower.  Format 2 writes every built-in value
    with its exact type and no object sharing or interning marks, so
    the bytes depend on the value alone and the digest is injective.
    A state holding a subclass of a built-in type (which ``marshal``
    refuses) is hashed through its ``repr`` instead, under a different
    prefix so the two encodings cannot collide.  Both are stricter than
    the codec: a tuple and a list, or two dicts with different key
    order, digest differently, so equal states captured in different
    shapes can only fail to match, never match falsely.
    """
    return _digest(state, _marshal(state))


def pack_state(state: Any) -> tuple[str, bytes | None]:
    """``(state_digest(state), packed)``, marshalling the state once.

    ``packed`` is the ``marshal`` format-2 bytes compressed with zlib
    at level 1 (a sha/DIFT state: about 11 KB raw, 2.7 KB packed), and
    :func:`unpack_state` returns an equal state.  It is ``None`` for a
    state ``marshal`` refuses: that state has a digest but no packed
    form."""
    data = _marshal(state)
    packed = None if data is None else zlib.compress(data, 1)
    return _digest(state, data), packed


def unpack_state(packed: bytes) -> Any:
    """The state :func:`pack_state` packed, with its exact types."""
    return marshal.loads(zlib.decompress(packed))


def _marshal(state: Any) -> bytes | None:
    try:
        return marshal.dumps(state, 2)
    except ValueError:
        return None


def _digest(state: Any, data: bytes | None) -> str:
    if data is None:
        data = b"r" + repr(state).encode("utf-8")
    else:
        data = b"m" + data
    return hashlib.sha256(data).hexdigest()
