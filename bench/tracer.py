"""Spans around endcalc's public functions, recorded from outside the package.

``Tracer.install`` wraps each named function at every module binding of
it, so calls between endcalc's own modules are seen too.  Modules are
resolved with ``importlib.import_module``: attribute access on the
package would be wrong, because the function ``endcalc.classify``
shadows the submodule of the same name.

Tracing is switched per op: :meth:`Tracer.begin_op` puts either the
wrappers or the original functions in place, by a seeded coin, so the
untraced ops of the same process measure the tracing overhead.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, and ``op`` is the benchmark operation the span
belongs to (-1 during set-up).  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, Iterable, List, Set, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self, seed: int) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._coin = random.Random("trace:%d" % seed)
        self._bindings: List[tuple] = []  # (namespace, attr, original, traced)
        self._on = False
        self.traced_ops: Set[int] = set()

    def install(self, targets: Iterable[Tuple[str, str]]) -> None:
        """Wrap (module, function) pairs, e.g. ("endcalc.dsl", "parse"),
        and trace from now on."""
        for modname, fname in targets:
            module = importlib.import_module(modname)
            original = vars(module)[fname]
            traced = self._wrap(modname.rpartition(".")[2] + "." + fname,
                                original)
            for name in list(sys.modules):
                if name == "endcalc" or name.startswith("endcalc."):
                    namespace = vars(sys.modules[name])
                    self._bindings += [(namespace, attr, original, traced)
                                       for attr, value in namespace.items()
                                       if value is original]
        self._switch(True)

    def begin_op(self, op: int) -> bool:
        """Trace op number ``op``, or not, by the coin; return which."""
        self.op = op
        on = self._coin.random() < 0.5
        self._switch(on)
        if on:
            self.traced_ops.add(op)
        return on

    def stop(self) -> None:
        """Put the original functions back."""
        self._switch(False)

    def _switch(self, on: bool) -> None:
        if on != self._on:
            for namespace, attr, original, traced in self._bindings:
                namespace[attr] = traced if on else original
            self._on = on

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op)

        return traced

    def totals(self, setup: bool = False) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds), over the spans
        of the ops, or of the set-up when ``setup`` is true."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if (op < 0) != setup:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path) -> None:
        """One tab-separated line per span, times in microseconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("name\tstart_us\tend_us\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                f.write("%s\t%.1f\t%.1f\t%d\t%d\n"
                        % (name, (start - origin) * 1e6,
                           (end - origin) * 1e6, parent, op))
