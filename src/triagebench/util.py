"""Small shared helpers: canonical JSON, stable hashing, enum decoding and
whole-file writes.

Canonical JSON (sorted keys, compact separators, UTF-8, no ASCII escaping)
is used everywhere a byte-identical artifact is promised: trace lines, run
files, the demo golden file. A writer that lays out its own JSON text writes
strings with encode_basestring and other scalars with json_scalar, the
functions the canonical encoder itself uses, so its bytes are the same.
"""
from __future__ import annotations

import hashlib
import json
import os
import stat
from contextlib import suppress
from enum import Enum
from pathlib import Path
from typing import Any, Callable, TypeVar

E = TypeVar("E", bound=Enum)


# Built once: json.dumps with arguments builds a new encoder on every call.
# Every caller passes a tree it built, so there is no cycle to check for; a
# cycle would still raise RecursionError before anything is written.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False
)


def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical JSON form used for all durable artifacts."""
    return _CANONICAL.encode(obj)


_INF = float("inf")


def json_scalar(value: Any) -> str:
    """A null, bool, int or float as canonical_dumps writes it.

    As the C encoder does: null, true and false, then int.__repr__ for any
    int and float.__repr__ for any float, NaN and the infinities spelled as
    JavaScript does. Any other type raises TypeError, as canonical_dumps
    does for a type it cannot write.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def utf8_encodable(text: str) -> bool:
    """False when text holds a lone surrogate: a JSON escape such as
    "\\ud800" decodes to one, and no UTF-8 file can hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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


def write_whole(target: Path, text: str, mode: int) -> None:
    """Write text to target as UTF-8; a file is replaced whole or not at all.

    A missing or regular target is replaced by a file staged beside it under
    a fresh name, created with mode (less the umask), then moved into place:
    an old file's mode does not carry over, and a failure leaves the old file
    and no staged file. Any other target (a symlink, /dev/stdout among them,
    or a FIFO) is written through in place, keeping the mode of what it
    names. Every OSError raised names target. Text that cannot be encoded
    raises before any file is touched.
    """
    data = text.encode("utf-8")
    try:
        try:
            in_place = not stat.S_ISREG(os.lstat(target).st_mode)
        except FileNotFoundError:
            in_place = False
        if in_place:
            fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
            with open(fd, "wb") as fh:
                fh.write(data)
            return
        staged = target.with_name(f".{target.name}.{os.urandom(6).hex()}")
        fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(staged, target)
        except BaseException:
            with suppress(OSError):
                os.unlink(staged)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
