"""Spans around calls into bevkit, recorded from outside the program.

A span is (id, name, start, end, parent id, operation id, counts).  The
tracer wraps public functions; a wrapper opens a span, calls through and
closes it, and may read counts from the call's arguments and result.
Spans stay in memory and are written to a JSON-lines sidecar at the end
of the run.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace


def span_name(fn) -> str:
    """``module.function`` with bevkit's package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, op, counts]
        self._stack = []
        self._op = None

    def wrap(self, fn, count=None):
        """Traced version of ``fn``; ``count(result, args)`` returns a dict."""
        name = span_name(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self._op, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if count is not None:
                rec[6] = count(out, args)
            return out

        return traced

    def wrap_api(self, api: SimpleNamespace, counters: dict) -> SimpleNamespace:
        return SimpleNamespace(**{k: self.wrap(fn, counters.get(k))
                                  for k, fn in vars(api).items()})

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        rec = [len(self.spans), "op", 0.0, 0.0, None, op_id, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        self._op = op_id
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()
            self._op = None

    def per_op(self):
        """{op id: {span name: [inclusive s, self s, calls]}} and counts
        {op id: {name: value}}, from the recorded spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        times, counts = {}, {}
        for s in self.spans:
            dur = s[3] - s[2]
            slot = times.setdefault(s[5], {}).setdefault(s[1], [0.0, 0.0, 0])
            slot[0] += dur
            slot[1] += dur - child[s[0]]
            slot[2] += 1
            if s[6]:
                counts.setdefault(s[5], {}).update(s[6])
        return times, counts

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                                     "parent": s[4], "op": s[5], "counts": s[6]}) + "\n")
