"""Failure accounting for the timed operations of one benchmark iteration."""

from __future__ import annotations

import time
import traceback

DEPENDENCY = "DependencyFailed"


class Ops:
    """Runs named operations, timing each and recording every failure.

    Any exception an operation raises is caught here, at the boundary between
    the benchmark and the library, and recorded with its type and the last
    frames of its traceback; the iteration then goes on.  An operation whose
    inputs come from a failed one is not called and counts as failed too.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.seconds: dict[str, float] = {}
        self._failed: set[str] = set()

    def run(self, name: str, fn, *args, needs=(), **kwargs):
        """fn(*args, **kwargs) as operation name, or None if it failed or an
        operation named in needs failed earlier."""
        self.attempted += 1
        missing = [n for n in needs if n in self._failed]
        if missing:
            self._fail(name, DEPENDENCY, f"needs {', '.join(missing)}", "")
            return None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self._fail(name, type(e).__name__, str(e),
                       "".join(traceback.format_exception(e)[-3:]))
            return None
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
        return result

    def _fail(self, name, error, message, tb):
        self._failed.add(name)
        self.failures.append({"op": name, "error": error, "message": message[:300],
                              "traceback": tb[-2000:]})
