"""Span tracer that wraps the public functions of the quatforms modules.

The wrappers are installed from outside the package, by rebinding every
module attribute that refers to a wrapped function, and removed again by
``uninstall``.  Each call becomes a span with a name, start, end, parent
and trace id (the op it belongs to).  Aggregates are kept per span name
(calls, total seconds, self seconds = duration minus the time covered by
child spans) and per (parent, child) edge, so call counts can be read
"under" a given caller.  Full span records are kept up to a cap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("rootsys", "subsys", "involution", "complexform", "classify", "cases", "cli")


class Tracer:
    def __init__(self, span_cap: int = 50_000) -> None:
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, trace id, name, start, end)
        self.span_cap = span_cap
        self.trace_id = 0
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span called ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id = sid + 1
        frame = [name, 0.0, sid]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            a = self.agg.get(name)
            if a is None:
                a = self.agg[name] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
                self.edges[(parent[0], name)] += 1
            if len(self.spans) < self.span_cap:
                self.spans.append(
                    (sid, parent[2] if parent else None, self.trace_id, name, t0, t1)
                )

    def _wrap(self, name: str, fn, name_of=None, on_call=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            span_name = name_of(args) if name_of is not None else name
            result = self.span(span_name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer module, everywhere bound."""
        if self._patches:
            return
        from quatforms import classify, cli, subsys

        def count_forms(tracer, report):
            tracer.counters["classify.forms_found"] += len(report.found)

        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "quatforms" or n.startswith("quatforms."))]
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"quatforms.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if mod is cli and attr == "run":
                    w = self._wrap("cli.run", obj, name_of=lambda a: f"cli.run.{a[0].verb}")
                elif mod is classify and attr == "classify_equal_rank":
                    w = self._wrap("classify.classify_equal_rank", obj, on_result=count_forms)
                else:
                    w = self._wrap(f"{layer}.{attr}", obj)
                wrappers[id(obj)] = (obj, w)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        # Subsystem validates closure in __post_init__; its span stands for
        # the public constructor, and it counts the roots it checks.
        post = subsys.Subsystem.__post_init__

        def count_roots(tracer, args):
            tracer.counters["subsys.Subsystem.roots_checked"] += len(args[0].roots)

        self._patches.append((subsys.Subsystem, "__post_init__", post,
                              self._wrap("subsys.Subsystem", post, on_call=count_roots)))
        for owner, attr, _orig, w in self._patches:
            setattr(owner, attr, w)

    def uninstall(self) -> None:
        for owner, attr, orig, _w in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict, parent: int | None = None) -> None:
        """Add another tracer's snapshot (from a traced child process).

        The child's spans, if sent, join the current trace with fresh ids,
        its root spans under span id ``parent``; their times stay on the
        child's clock, counted from its start.
        """
        for k, (calls, total, self_s) in snap["agg"].items():
            a = self.agg.setdefault(k, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for p, c, n in snap["edges"]:
            self.edges[(p, c)] += n
        self.counters.update(snap["counters"])
        base = self._next_id
        for sid, pid, name, a, b in snap.get("spans", ()):
            if len(self.spans) < self.span_cap:
                self.spans.append((base + sid, parent if pid is None else base + pid,
                                   self.trace_id, name, a, b))
            self._next_id = max(self._next_id, base + sid + 1)
