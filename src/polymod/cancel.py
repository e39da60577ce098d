"""Cooperative cancellation for long-running exact computations.

Kernel loops poll the token; no partial results escape once it fires.
"""

from __future__ import annotations

import math
import time

from .errors import Cancelled


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
    """items, with cancel (if given) polled before each one."""
    for item in items:
        if cancel is not None:
            cancel.check()
        yield item
