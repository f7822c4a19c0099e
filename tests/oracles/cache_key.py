"""Oracle for content keys: the encoder without any memo.

``cache_key_reference`` walks every value afresh on every call, dataclasses
field by field, exactly as :func:`repro.perf.cache.cache_key` did before it
remembered the encodings of frozen dataclasses.  The production key must
give the same digest for every input.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any

import numpy as np

from repro.perf.cache import CacheKeyError


def _encode_reference(value: Any, hasher) -> None:
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"B" + (b"1" if value else b"0"))
    elif isinstance(value, (int, np.integer)):
        hasher.update(b"I" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"F" + repr(float(value)).encode())
    elif isinstance(value, str):
        hasher.update(b"S" + str(len(value)).encode() + b":" + value.encode())
    elif isinstance(value, bytes):
        hasher.update(b"Y" + str(len(value)).encode() + b":" + value)
    elif isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise CacheKeyError("object-dtype array")
        arr = np.ascontiguousarray(value)
        hasher.update(b"A" + str(arr.dtype).encode() + str(arr.shape).encode())
        hasher.update(arr.tobytes())
    elif isinstance(value, (tuple, list)):
        hasher.update(b"T" + str(len(value)).encode() + b"[")
        for item in value:
            _encode_reference(item, hasher)
        hasher.update(b"]")
    elif isinstance(value, dict):
        hasher.update(b"D" + str(len(value)).encode() + b"{")
        for key in sorted(value, key=str):
            _encode_reference(str(key), hasher)
            _encode_reference(value[key], hasher)
        hasher.update(b"}")
    elif isinstance(value, enum.Enum):
        hasher.update(b"E" + type(value).__name__.encode())
        _encode_reference(value.value, hasher)
    elif hasattr(value, "content_fingerprint"):
        hasher.update(b"C" + str(value.content_fingerprint()).encode())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        hasher.update(b"O" + type(value).__name__.encode() + b"(")
        for field in dataclasses.fields(value):
            _encode_reference(field.name, hasher)
            _encode_reference(getattr(value, field.name), hasher)
        hasher.update(b")")
    else:
        raise CacheKeyError(type(value).__name__)


def cache_key_reference(*parts: Any) -> str:
    """Hex digest of the parts, every value encoded from scratch."""
    hasher = hashlib.sha256()
    for part in parts:
        _encode_reference(part, hasher)
        hasher.update(b"|")
    return hasher.hexdigest()
