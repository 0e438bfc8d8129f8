"""Span tracer for the framelab benchmark.

The tracer measures framelab's layers from outside. It replaces a named
function in every framelab module namespace that binds it (so
``duality.hom_predicate``, imported from ``lattices``, is traced as well)
with a wrapper that records one span per call: name, start, end and the
span that was open when the call began. Spans are kept in memory as
parallel arrays and folded into per-name self time and call counts when the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


class Tracer:
    """Records spans and named counters; `install` wraps functions."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open = []
        self.counters = {}
        self.missing = []
        self._undo = []

    # -- spans ----------------------------------------------------------

    def begin(self, name):
        """Open a span and return its index; close it with `end`."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0)
        self._open.append(index)
        self.span_start.append(time.perf_counter_ns())
        return index

    def end(self, index):
        self.span_end[index] = time.perf_counter_ns()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def parent_name(self, index):
        parent = self.span_parent[index]
        return None if parent < 0 else self.names[self.span_name[parent]]

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def fold(self):
        """Per span name: (calls, self seconds, inclusive seconds).

        A span's self time is its duration minus the durations of the spans
        it directly caused, so the self times of a span and all its
        descendants add up to that span's duration.
        """
        if self._open:
            raise RuntimeError("fold called with spans still open")
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        children = [0] * len(duration)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                children[parent] += duration[index]
        totals = {}
        for index, name_id in enumerate(self.span_name):
            calls, self_ns, incl_ns = totals.get(name_id, (0, 0, 0))
            totals[name_id] = (
                calls + 1,
                self_ns + duration[index] - children[index],
                incl_ns + duration[index],
            )
        return {
            self.names[k]: (calls, self_ns / 1e9, incl_ns / 1e9)
            for k, (calls, self_ns, incl_ns) in totals.items()
        }

    # -- wrapping -------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """A traced copy of `fn`.

        `name` is the span name, or a callable mapping the call's positional
        arguments to one. `on_result(tracer, span_index, args, result)` runs
        after the span closes.
        """
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if on_result is not None:
                on_result(self, index, args, result)
            return result

        return traced

    def install(self, owner, attr, name, on_result=None):
        """Wrap `owner.attr` wherever a framelab module binds it.

        `owner` is a module or a class. A class attribute is replaced on the
        class only. A name the owner lacks is recorded in `missing`.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        traced = self.wrap(name, original, on_result)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                module
                for key, module in sorted(sys.modules.items())
                if module is not None
                and (key == "framelab" or key.startswith("framelab."))
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, traced)
                    self._undo.append((target, key, original))

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)
