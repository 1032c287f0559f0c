"""Spans recorded around calls into the simulator's public functions.

The benchmark never edits the program to trace it: :class:`Tracer`
replaces a module attribute or an instance method with a wrapper that
records ``(name, start, end, parent)`` and then calls through.  Spans
stay in memory until :meth:`Tracer.write` dumps them as JSON lines;
self time (a span's duration minus the part its child spans cover) is
computed from them afterwards.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (name, start, end, parent index or -1); index = position in the list.
Span = Tuple[str, float, float, int]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Trace calls to ``owner.attr`` (a module function or an
        instance method) until :meth:`unpatch_all`; ``on_result`` sees
        each call's return value."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original, had_own))
        target = original
        if on_result is not None:
            def target(*args, **kwargs):
                result = original(*args, **kwargs)
                on_result(result)
                return result
        setattr(owner, attr, self.wrap(name, target))

    def unpatch_all(self) -> None:
        while self._restore:
            owner, attr, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Summed self time (s) per span name over spans ``since`` on."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _parent) in enumerate(self.spans[since:]):
            totals[name] += end - start - child_time.get(since + offset, 0.0)
        return dict(totals)

    def counts(self, since: int = 0) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for name, *_ in self.spans[since:]:
            totals[name] += 1
        return dict(totals)

    def top_level_time(self, since: int = 0) -> float:
        """Summed duration of the spans ``since`` on that have no parent."""
        return sum(end - start for _name, start, end, parent in self.spans[since:]
                   if parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "run": self.run_id, "id": index, "name": name,
                    "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                }) + "\n")

