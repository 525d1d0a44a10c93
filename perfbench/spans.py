"""Spans around the library's module functions, recorded from outside.

`Tracer.install` replaces each public function in each layer module's
namespace, where callers look it up (so `wataridori.region_runs` is traced
as `grid.region_runs`), with a wrapper that records a span: name, start,
end and parent.  Spans stay in memory in flat arrays and are written out
once, when the run ends.  Nothing inside the library is changed.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
from array import array
from time import perf_counter_ns

LAYERS = ("grid", "documents", "numberlink", "wataridori", "reduction",
          "lifting", "render", "cli")

# Per-value converters run once per cell or field; a span each would swamp
# the trace, so their time stays in the caller's self time.  The CLI is one
# span, so argument parsing, file I/O and dispatch are all `cli.main`'s.
UNTRACED = {"documents.as_int", "documents.as_cell", "documents.as_cells",
            "documents.as_list", "documents.require_object",
            "documents.check_fields", "cli.build_parser"}

# Byte counts taken at the documents layer: text parsed and text produced.
BYTES = {"documents.loads": lambda args, result: len(args[0]),
         "documents.dumps_canonical": lambda args, result: len(result)}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.bytes = {}
        self._stack = [-1]
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, span):
        nid = self._name_id(span)
        count = BYTES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.bytes[span] = self.bytes.get(span, 0) + count(args,
                                                                  result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one op."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self, package):
        """Wrap every public layer function in every layer namespace."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                span = f"{home}.{fn.__name__}"
                if home not in LAYERS or span in UNTRACED \
                        or span.startswith("cli.cmd_"):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, span))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        child = [0] * len(self.name)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        out = {}
        for idx, nid in enumerate(self.name):
            calls, self_ns = out.get(nid, (0, 0))
            out[nid] = (calls + 1,
                        self_ns + self.end[idx] - self.start[idx]
                        - child[idx])
        return {self.names[nid]: (calls, ns / 1e9)
                for nid, (calls, ns) in out.items()}

    def write(self, path):
        """All spans as gzipped tab-separated lines, one per span."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for idx in range(len(self.name)):
                f.write(f"{idx}\t{self.parent[idx]}\t"
                        f"{self.names[self.name[idx]]}\t{self.start[idx]}\t"
                        f"{self.end[idx]}\n")

