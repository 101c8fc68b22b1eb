"""In-memory span recorder for the traced run.

``Tracer.instrument(module, name)`` replaces a public pellucas function
with a wrapper that records a span (name, start, end, parent) around each
call, in every pellucas module that binds the function, so callers that
imported it by name are traced too.  ``Tracer.count(module, name)`` only
counts calls.  Spans stay in flat arrays until ``write`` puts them in a
gzip-compressed TSV file; ``restore`` puts the original functions back.
"""

import gzip
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._patched = []

    def _bind(self, module, name, wrapper):
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("pellucas"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def instrument(self, module, name, label, on_result=None):
        """Record a span per call; ``on_result(result)`` sees each result."""
        original = getattr(module, name)
        nid = len(self.names)
        self.names.append(label)
        names, parents, starts, ends = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        self._bind(module, name, wrapper)

    def count(self, module, name, label):
        original = getattr(module, name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)

        self._bind(module, name, wrapper)

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self):
        """{label: (calls, busy_s, self_s)} over all recorded spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {label: [0, 0.0, 0.0] for label in self.names}
        for i, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def children_time(self, i, label):
        """Time of the direct children of span i named ``label``."""
        nid = self.names.index(label)
        return sum(
            self.end[j] - self.start[j]
            for j in range(i + 1, len(self.start))
            if self.parent[j] == i and self.name_of[j] == nid
        )

    def write(self, path):
        """TSV of all spans, gzip-compressed, times relative to the first."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n"
                )
