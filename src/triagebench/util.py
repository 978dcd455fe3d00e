"""Small shared helpers: canonical JSON, stable hashing and enum decoding.

Canonical JSON (sorted keys, compact separators, UTF-8, no ASCII escaping)
is used everywhere a byte-identical artifact is promised: trace lines, run
files, the demo golden file.
"""
from __future__ import annotations

import hashlib
import json
from enum import Enum
from typing import Any, Callable, TypeVar

E = TypeVar("E", bound=Enum)


def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical JSON form used for all durable artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def stable_hash_int(key: str) -> int:
    """Deterministic 64-bit integer derived from a string via SHA-256.

    Unlike hash(), this does not depend on PYTHONHASHSEED or the Python
    version, so sampling and demo-script derivations reproduce everywhere.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def enum_decoder(cls: type[E]) -> Callable[[Any], E]:
    """cls(value), with a str value looked up in a value -> member dict.

    Enum.__call__ costs far more than a dict lookup, and run-file decoding
    makes several per turn. A miss, or a value that is not exactly a str,
    goes to cls(value), so every error type and message stays the same.
    """
    members = {member.value: member for member in cls}

    def decode(value: Any) -> E:
        if type(value) is str:
            member = members.get(value)
            if member is not None:
                return member
        return cls(value)

    return decode

