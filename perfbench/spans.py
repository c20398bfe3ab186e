"""In-memory spans and counters for the traced benchmark pass.

A span records its name, the item (request) it belongs to, the span that
opened it, and its start and end on the performance counter.  Nothing is
written until the pass ends.
"""

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []      # [name, item, parent index, start, end]
        self.counts = {}
        self.item = None
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, self.item, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self):
        """Seconds per span name, minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _name, _item, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, _item, _parent, start, end), inner in zip(self.spans,
                                                             covered):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "item", "parent", "start", "end"],
                       "spans": self.spans, "counts": self.counts}, fh)


class NullTracer:
    """Stands in for Tracer in an untraced pass."""

    enabled = False
    item = None
    _NULL = nullcontext()

    def span(self, name):
        return self._NULL

    def count(self, name, n):
        pass
