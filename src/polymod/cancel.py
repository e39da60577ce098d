"""Cooperative cancellation for long-running exact computations.

Kernel loops poll the token; no partial results escape once it fires.
"""

from __future__ import annotations

import time

from .errors import Cancelled


class CancelToken:
    __slots__ = ("deadline",)

    def __init__(self, timeout: float | None = None):
        self.deadline = None if timeout is None else time.monotonic() + timeout

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Cancelled("computation cancelled by timeout")
