"""Span tracing of offdetect's public functions, installed from outside.

``Tracer.install()`` replaces every public function of each offdetect
module (the names in its ``__all__`` that the module defines), plus
``FeaturePipeline.featurize``, with a wrapper that records a span: its
name, its parent (the innermost span open when it started), its wall and
CPU time, and its self time (wall time minus the time its child spans
cover).  Every module namespace that imported the function gets the
wrapper, so calls between modules are seen too.  Nothing under ``src/``
changes.

Spans are aggregated in memory per call path (the chain of span names from
the root), which keeps the parent links while bounding memory for the
tens of thousands of per-tweet calls; ``call_tree()`` returns them once the
traced process is done.  Hooks attached to a few functions turn their
arguments or results into work counters, recorded after the span closes.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("corpus", "embed", "dmd", "rks", "learn", "evaluation", "model_io", "experiment", "cli")


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [node key, child wall time]
        self._nodes: dict[tuple, list[float]] = {}  # path -> [calls, wall, self, cpu]
        self.counters: dict[str, float] = defaultdict(float)
        self._originals: dict[str, object] = {}

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn`` so that each call records a span called ``name``;
        ``hook(tracer, bound_arguments, result)`` runs after the span closes."""
        signature = inspect.signature(fn)
        stack, nodes = self._stack, self._nodes
        clock, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            key = (stack[-1][0] if stack else ()) + (name,)
            frame = [key, 0.0]
            stack.append(frame)
            cpu0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = clock() - t0
                cpu = cpu_clock() - cpu0
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                node = nodes.get(key)
                if node is None:
                    node = nodes[key] = [0, 0.0, 0.0, 0.0]
                node[0] += 1
                node[1] += wall
                node[2] += wall - frame[1]
                node[3] += cpu
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def original(self, name: str):
        """The unwrapped function behind span ``name`` (for hooks)."""
        return self._originals[name]

    def install(self, hooks: dict | None = None) -> None:
        """Wrap the public functions of every offdetect module in place."""
        hooks = hooks or {}
        modules = {short: importlib.import_module(f"offdetect.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    self._originals[name] = fn
                    wrappers[fn] = self.span(name, fn, hooks.get(name))
        for mod in [*modules.values(), importlib.import_module("offdetect")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        pipeline = modules["experiment"].FeaturePipeline
        name = "experiment.featurize"
        self._originals[name] = pipeline.featurize
        pipeline.featurize = self.span(name, pipeline.featurize, hooks.get(name))

    def record(self, name: str, wall: float, cpu: float = 0.0) -> None:
        """Add a root span measured by the caller (e.g. the package import)."""
        node = self._nodes.setdefault((name,), [0, 0.0, 0.0, 0.0])
        node[0] += 1
        node[1] += wall
        node[2] += wall
        node[3] += cpu

    def call_tree(self) -> list[dict]:
        """One entry per call path: name, parent index, calls, wall/self/cpu seconds."""
        index: dict[tuple, int] = {}
        tree = []
        for key in sorted(self._nodes, key=lambda k: (len(k), k)):
            calls, wall, self_s, cpu = self._nodes[key]
            index[key] = len(tree)
            tree.append({
                "name": key[-1],
                "parent": index.get(key[:-1]),
                "calls": calls,
                "wall_s": wall,
                "self_s": self_s,
                "cpu_s": cpu,
            })
        return tree


def totals(tree: list[dict]) -> dict[str, dict]:
    """Per span name: calls, wall time of outermost calls, self time, CPU time.

    Wall and CPU time count only calls not nested in a call of the same
    name, so recursion is not counted twice."""
    out: dict[str, dict] = {}
    for node in tree:
        entry = out.setdefault(node["name"], {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        entry["calls"] += node["calls"]
        entry["self_s"] += node["self_s"]
        ancestor = node["parent"]
        while ancestor is not None and tree[ancestor]["name"] != node["name"]:
            ancestor = tree[ancestor]["parent"]
        if ancestor is None:
            entry["wall_s"] += node["wall_s"]
            entry["cpu_s"] += node["cpu_s"]
    return out
