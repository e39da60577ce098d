"""Every way a library call stops early: the error taxonomy shared by the
library and the CLI, cooperative cancellation, and the integer-argument rules.

Kernel loops over a sequence poll a CancelToken through ``_polled``; no
partial results escape once it fires. With no token, ``_polled`` hands the
loop its items unchanged, so an unpolled call pays nothing for the poll.
"""

from __future__ import annotations

import math
import time


class PolymodError(Exception):
    """Base class for all domain errors (CLI exit code 1)."""

    code = "error"

    def payload(self) -> dict:
        return {"type": self.code, "message": str(self)}


class ParseError(PolymodError):
    code = "parse-error"


class ArityMismatch(PolymodError):
    code = "arity-mismatch"


class UnsupportedExpr(PolymodError):
    code = "unsupported-expr"


class NotAnLModule(PolymodError):
    """Raised when a span has a nonzero element vanishing in its first s coordinates."""

    code = "not-an-l-module"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Underdetermined(PolymodError):
    """Raised when operator inference leaves coefficient slots unpinned."""

    code = "underdetermined"

    def __init__(self, message, free_slots=()):
        super().__init__(message)
        self.free_slots = tuple(free_slots)

    def payload(self) -> dict:
        out = super().payload()
        out["free_slots"] = [{"i": i, "j": j} for (i, j) in self.free_slots]
        return out


class NotNilpotent(PolymodError):
    code = "not-nilpotent"


class RangeExceeded(PolymodError):
    code = "range-exceeded"


class ThresholdUnmet(PolymodError):
    """A per-n side condition of the certified bound chain failed."""

    code = "threshold-unmet"

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)

    def payload(self) -> dict:
        out = super().payload()
        out["failures"] = list(self.failures)
        return out


class Cancelled(PolymodError):
    code = "cancelled"


class CancelToken:
    __slots__ = ("deadline",)

    def __init__(self, timeout: float | None = None):
        if timeout is not None and math.isnan(timeout):
            raise ValueError("timeout must be a number of seconds, not nan")
        self.deadline = None if timeout is None else time.monotonic() + timeout

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Cancelled("computation cancelled by timeout")


def _polled(items, cancel):
    """items itself when cancel is None, so an unpolled loop pays nothing;
    otherwise a generator over items that polls cancel before each one
    (check returns None or raises, so the filter keeps every item)."""
    return items if cancel is None else (item for item in items if cancel.check() is None)


def _natural(k, what: str) -> int:
    """k when it is an int >= 0, a bool not counting as one; otherwise ValueError naming what."""
    if type(k) is not int:
        raise ValueError(f"{what} must be an int, not {type(k).__name__}")
    if k < 0:
        raise ValueError(f"negative {what}")
    return k


def _at_least(value, low: int, message: str) -> int:
    """value when it is an int >= low, a bool not counting as one; otherwise ValueError(message)."""
    if type(value) is not int or value < low:
        raise ValueError(message)
    return value
