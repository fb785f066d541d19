"""Spans around derivqa's public functions, installed from outside the package.

`Tracer.install()` replaces every public module-level function of the
traced modules, at every module that binds it (``from .lexica import
senses_by_lemma`` makes a binding in the importing module), by a wrapper
that records a span: name, binding site, parent span, start and end. The
benchmark opens root spans of its own (``bench.setup``, ``bench.ask`` ...)
around each unit of work, so every span belongs to one kind of work.

A few leaf helpers run so often that a span each would cost more than the
work they do; those are only counted, and their time stays in the self
time of the span that called them.

Run as a script, this file is a traced stand-in for the ``derivqa`` CLI:

    python3 bench/spans.py --out spans.json -- --config C ask --question Q --bank B

It times the import of ``derivqa.cli``, installs the wrappers, runs
``derivqa.cli.main`` on the remaining arguments and writes its spans.
"""

import gzip
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("lexica", "morphogen", "derivfilter", "depgraph", "wsd", "rephrase",
           "qaengine", "pipeline", "cli")
COUNT_ONLY = frozenset({"lexica.normalize", "qaengine.dep_match",
                        "morphogen.euphonic_surfaces", "morphogen.syllable_count",
                        "rephrase.match_pattern"})

# span record fields
NAME, SITE, PARENT, START, END = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.kind = None               # name of the open top-level bench span
        self.counts = Counter()        # (name, site, kind) -> calls
        self._cells = {}               # (name, site) -> [calls not yet credited]
        self.active = True             # wrappers pass straight through when False

    @contextmanager
    def span(self, name):
        """A benchmark-side span; a top-level one sets the kind of work."""
        top = not self.stack
        if top:
            self._snapshot()
            self.kind = name
        record = [name, "bench", self.stack[-1] if self.stack else -1,
                  time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self.stack.pop()
            record[END] = time.perf_counter()
            if top:
                self._snapshot()
                self.kind = None

    def _snapshot(self):
        """Credit the calls counted since the last snapshot to the current kind."""
        for key, cell in self._cells.items():
            if cell[0]:
                self.counts[key + (self.kind,)] += cell[0]
                cell[0] = 0

    def _wrap(self, fn, name, site):
        spans, stack = self.spans, self.stack
        cell = self._cells.setdefault((name, site), [0])
        clock = time.perf_counter
        tracer = self

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        else:
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                cell[0] += 1
                record = [name, site, stack[-1] if stack else -1, clock(), 0.0]
                stack.append(len(spans))
                spans.append(record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    record[END] = clock()
            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Wrap every public derivqa function at every binding site."""
        for site in MODULES:
            module = importlib.import_module(f"derivqa.{site}")
            for attr, value in list(vars(module).items()):
                if _traceable(value) and not attr.startswith("_"):
                    setattr(module, attr, self._wrap(value, _qualname(value), site))
                elif isinstance(value, dict) and value and all(
                        _traceable(v) for v in value.values()):
                    # a dispatch table, such as the CLI's command table
                    for key, fn in value.items():
                        value[key] = self._wrap(fn, _qualname(fn), site)

    def dump(self, path, extra=()):
        """Write spans as JSON lines (gzip when the path ends in .gz)."""
        if str(path).endswith(".gz"):
            out = gzip.open(path, "wt", encoding="utf-8", compresslevel=1)
        else:
            out = open(path, "w", encoding="utf-8")
        with out:
            # names and sites are identifiers, so they need no JSON escaping
            out.writelines(
                f'{{"id": {i}, "name": "{name}", "site": "{site}", "parent": {parent}, '
                f'"start": {start!r}, "end": {end!r}}}\n'
                for i, (name, site, parent, start, end) in enumerate(self.spans))
            for record in extra:
                out.write(json.dumps(record) + "\n")


def _traceable(value):
    return (isinstance(value, types.FunctionType)
            and value.__module__.startswith("derivqa.")
            and not getattr(value, "__wrapped__", None))


def _qualname(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# --- analysis ----------------------------------------------------------------

class SpanTable:
    """Self times of recorded spans, grouped by root kind and by layer."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.root = [0] * n
        child_time = [0.0] * n
        for i, span in enumerate(spans):
            parent = span[PARENT]
            self.root[i] = i if parent < 0 else self.root[parent]
            if parent >= 0:
                child_time[parent] += span[END] - span[START]
        self.self_time = [s[END] - s[START] - c for s, c in zip(spans, child_time)]
        self.kinds = [spans[r][NAME] for r in self.root]

    def under(self, names):
        """Per span: whether it is, or descends from, a span named in `names`."""
        flags = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            flags[i] = span[NAME] in names or (span[PARENT] >= 0 and flags[span[PARENT]])
        return flags

    def self_sum(self, kind, layer=None, under=None):
        """Seconds of self time in root kind `kind`, restricted to one layer
        (module name) and to spans under one of the functions `under`."""
        flags = self.under(under) if under else None
        total = 0.0
        for i, span in enumerate(self.spans):
            if self.kinds[i] != kind:
                continue
            if layer is not None and _layer(span) != layer:
                continue
            if flags is not None and not flags[i]:
                continue
            total += self.self_time[i]
        return total

    def inclusive_sum(self, kind, name):
        return sum(s[END] - s[START] for s, k in zip(self.spans, self.kinds)
                   if s[NAME] == name and k == kind)

    def layer_split(self, kind):
        """Self seconds per layer inside root spans of one kind."""
        split = defaultdict(float)
        for span, k, own in zip(self.spans, self.kinds, self.self_time):
            if k == kind:
                split[_layer(span)] += own
        return dict(split)


def _layer(span):
    return span[NAME].split(".", 1)[0]


def count(counts, name, kind=None):
    return sum(n for (cname, _site, ckind), n in counts.items()
               if cname == name and (kind is None or ckind == kind))


def count_sites(counts, name, kind=None):
    sites = Counter()
    for (cname, site, ckind), n in counts.items():
        if cname == name and (kind is None or ckind == kind):
            sites[site] += n
    return dict(sites)


# --- traced CLI ---------------------------------------------------------------

def _cli(argv):
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: spans.py --out FILE -- CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    with tracer.span("cli.import"):
        import derivqa.cli
    tracer.install()
    with tracer.span("cli.run"):
        code = derivqa.cli.main(argv[3:])
    tracer._snapshot()
    counts = [{"count": list(key), "n": n} for key, n in tracer.counts.items()]
    tracer.dump(argv[1], counts)
    return code


if __name__ == "__main__":
    sys.exit(_cli(sys.argv[1:]))
