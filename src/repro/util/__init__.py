"""Shared low-level utilities: varints and the LFU cache."""

from repro.util.lfu import LFUCache
from repro.util.varint import decode_varint, encode_varint

__all__ = [
    "LFUCache",
    "decode_varint",
    "encode_varint",
]
