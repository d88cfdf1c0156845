"""Shared low-level utilities: varints, byte helpers, caches."""

from repro.util.bytesutil import fmt_size, parse_size, xor_bytes
from repro.util.lfu import LFUCache
from repro.util.varint import decode_varint, encode_varint

__all__ = [
    "LFUCache",
    "decode_varint",
    "encode_varint",
    "fmt_size",
    "parse_size",
    "xor_bytes",
]
