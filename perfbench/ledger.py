"""A per-layer time and count ledger filled by wrappers installed from outside.

The benchmark never edits the package: :func:`patch_method` replaces a
method on its class and :func:`patch_function` replaces a function in
every loaded module that holds it by name (``from x import f`` copies
the reference, so wrapping only the defining module would miss those
call sites).

Self time is a wrapped call's duration minus the duration of the
wrapped calls nested inside it, on the same thread.  Every wrapped call
belongs to one layer, so the layer self times of all top-level calls,
plus whatever ran outside any wrapper (``other``), add up to the wall
time the calls were made in.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

After = Callable[[tuple, dict, Any], None]


class Ledger:
    """Thread-safe totals: seconds, calls and free counters by name."""

    def __init__(self) -> None:
        # Re-entrant: the serve launcher resets the ledger from a signal
        # handler, which may interrupt a wrapper holding the lock.
        self._lock = threading.RLock()
        self._local = threading.local()
        #: While False every wrapper calls straight through (used to
        #: keep output checks out of the traced numbers).
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: dict[str, float] = defaultdict(float)
            self.incl_s: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.layer_s: dict[str, float] = defaultdict(float)
            self.counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def timed(self, name: str, layer: str, fn: Callable,
              after: After | None = None) -> Callable:
        """Wrap ``fn``: its self time goes to ``name`` and ``layer``.

        A call nested directly inside a call of the same ``name`` (an
        override delegating to its base method) is not counted again.
        ``after(args, kwargs, result)`` runs outside the timed interval.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.enabled:
                return fn(*args, **kwargs)
            stack = ledger._stack()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                own = elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                with ledger._lock:
                    ledger.self_s[name] += own
                    ledger.layer_s[layer] += own
                    if parent is None or parent[0] != name:
                        ledger.incl_s[name] += elapsed
                        ledger.calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable,
                amount: Callable[[tuple, dict, Any], float] | None = None
                ) -> Callable:
        """Wrap ``fn`` to add ``amount(...)`` (default 1) to a counter."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if ledger.enabled:
                ledger.add(name, 1.0 if amount is None
                           else amount(args, kwargs, result))
            return result

        return wrapper

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "calls": dict(self.calls),
                "layer_s": dict(self.layer_s),
                "counts": dict(self.counts),
            }


def patch_method(cls: type, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
    """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(orig)``."""
    if attr not in vars(cls):
        raise AttributeError(f"{cls.__qualname__} defines no {attr!r}")
    setattr(cls, attr, make(vars(cls)[attr]))


def patch_function(module_name: str, attr: str,
                   make: Callable[[Callable], Callable]) -> None:
    """Wrap a function everywhere it was imported by name.

    Every importer must already be loaded.
    """
    orig = vars(sys.modules[module_name])[attr]
    wrapped = make(orig)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None and namespace.get(attr) is orig:
            namespace[attr] = wrapped
