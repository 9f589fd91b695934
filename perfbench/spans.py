"""Span recorder that times calls into roadside_eval from outside the program.

`install` replaces a function in every roadside_eval module namespace that
bound it (``point_match`` is bound in both ``matching`` and ``metrics``,
``read_points`` in ``ingest`` and ``cli``), so calls made through any of those
names are recorded. Spans are aggregated per name as they close: call count,
total time and self time (duration minus the time covered by child spans).

Each thread keeps its own counters, so counts stay exact when the CLI's
thread pool runs trials concurrently; `summary` merges them. Spans that open
with no enclosing span in their thread are children of the root span, whose
self time is its duration minus the union of those intervals.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# (args, kwargs, result) -> counters to add, e.g. rows read by one call
Hook = Callable[[tuple, dict, Any], dict[str, int]]


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # per open span: [child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)


class Recorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._in_root = False
        self._root_children: list[tuple[float, float]] = []
        self._root_total = 0.0
        self._root_self = 0.0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    @contextmanager
    def root(self) -> Iterator[None]:
        """The command's outermost span; spans in pool threads nest under it."""
        self._in_root = True
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._root_total = t1 - t0
            self._root_self = self._root_total - _union_length(self._root_children)
            self._in_root = False

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot leaf function: count calls, take no time stamps."""

        def wrapper(*args, **kwargs):
            self._state().calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(
        self,
        name: str,
        fn: Callable,
        hook: Hook | None = None,
        keep_durations: bool = False,
    ) -> Callable:
        """Wrap a function in a span; a raised exception counts in ``<name>.raised``."""

        def wrapper(*args, **kwargs):
            st = self._state()
            frame = [0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.counts[name + ".raised"] += 1
                raise
            finally:
                t1 = perf_counter()
                st.stack.pop()
                d = t1 - t0
                st.calls[name] += 1
                st.total_s[name] += d
                st.self_s[name] += d - frame[0]
                if keep_durations:
                    st.durations[name].append(d)
                if st.stack:
                    st.stack[-1][0] += d
                elif self._in_root:
                    self._root_children.append((t0, t1))
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    st.counts[key] += value
            return result

        return wrapper

    def summary(self) -> dict[str, Any]:
        """Merged per-name calls, total/self seconds, durations and counters."""
        out: dict[str, Any] = {
            "calls": defaultdict(int),
            "total_s": defaultdict(float),
            "self_s": defaultdict(float),
            "durations": defaultdict(list),
            "counts": defaultdict(int),
            "root_total_s": self._root_total,
            "root_self_s": self._root_self,
        }
        for st in self._states:
            for key in ("calls", "total_s", "self_s", "counts"):
                for name, value in getattr(st, key).items():
                    out[key][name] += value
            for name, values in st.durations.items():
                out["durations"][name].extend(values)
        for key in ("calls", "total_s", "self_s", "durations", "counts"):
            out[key] = dict(out[key])
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def install(module: str, attr: str, wrapper_for: Callable[[Callable], Callable]) -> int:
    """Replace ``module.attr`` wherever a roadside_eval module bound it.

    Returns the number of bindings replaced; raises LookupError when the
    function is missing, so a renamed function fails the traced run loudly.
    """
    original = getattr(sys.modules[module], attr, None)
    if original is None:
        raise LookupError(f"{module}.{attr} does not exist")
    wrapped = wrapper_for(original)
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "roadside_eval" or mod_name.startswith("roadside_eval.")
        ):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
                replaced += 1
    return replaced
