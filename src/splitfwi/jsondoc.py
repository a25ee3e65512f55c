"""The one typed reader of splitfwi's JSON documents.

A run config, a bench spec, a stored report and a dataset manifest are
all read by these functions, under one value policy: ints widen to float
and integral floats narrow to int; a bool is read only where a bool is
expected; floats must be finite, and an integer too large for a float
reads as inf and so fails that check; a missing key reads "missing
required field". Every failure names the JSON pointer of the offending
value, and `reading` raises it as the error type of the document read.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path

from .errors import SplitFwiError

_REQUIRED = object()
_KIND_NAMES = {dict: "an object", list: "a list"}


class _Invalid(SplitFwiError):
    """A value failed the reader; `reading` re-raises it as its document's error."""


@contextlib.contextmanager
def reading(error: type[SplitFwiError], prefix: str = ""):
    """Raise every reader failure inside as error, with prefix in front
    (such as "report out/r.json: "). Works as a decorator too."""
    try:
        yield
    except _Invalid as exc:
        raise error(f"{prefix}{exc}") from exc


def fail(pointer: str, why: str):
    """Fail the value at pointer ("" is the whole document) for why."""
    raise _Invalid(f"{pointer or '/'}: {why}")


def load(path, what: str):
    """The JSON value in the file at path. A file that does not parse, or
    nests too deeply for the parser, fails as "{what} {path} is not valid
    JSON"."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise _Invalid(f"{what} {path} is not valid JSON: {exc}") from exc


def typed(pointer: str, val, kind):
    """val as kind, under the value policy above."""
    if kind is float and type(val) is int:
        val = float(val) if abs(val) <= sys.float_info.max else math.inf
    if kind is int and isinstance(val, float) and val.is_integer():
        val = int(val)
    if not isinstance(val, kind) or (isinstance(val, bool) and kind is not bool):
        fail(pointer, f"expected {_KIND_NAMES.get(kind, kind.__name__)}, "
                      f"got {type(val).__name__}")
    if kind is float and not math.isfinite(val):
        fail(pointer, f"must be finite, got {val}")
    return val


def get(doc: dict, pointer: str, key: str, kind, default=_REQUIRED):
    """doc[key] as kind; the object doc sits at pointer."""
    here = f"{pointer}/{key}"
    if key not in doc:
        if default is _REQUIRED:
            fail(here, "missing required field")
        return default
    return typed(here, doc[key], kind)


def fields(doc: dict, pointer: str, kinds: dict, defaults: dict) -> dict:
    """Each key of kinds, read from the object doc at pointer; a key that
    defaults does not name is required."""
    return {key: get(doc, pointer, key, kind, defaults.get(key, _REQUIRED))
            for key, kind in kinds.items()}


def positive(pointer: str, val):
    if val <= 0:
        fail(pointer, f"must be positive, got {val}")
    return val


def choice(pointer: str, val, choices):
    if val not in choices:
        fail(pointer, f"must be one of {', '.join(map(repr, choices))}, got {val!r}")
    return val
