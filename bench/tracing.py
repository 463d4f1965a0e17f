"""In-memory span tracer that observes scenopt from outside.

The tracer rebinds the public functions of each scenopt module (and the
few public methods named in ``METHODS``) to timing wrappers, wherever the
package holds a reference to them: module attributes and module-level
dicts such as the CLI's algorithm table.  Nothing under ``src/`` is edited;
``uninstall`` puts every original back.

A span records (id, name, start, end, parent id, thread CPU seconds,
thread id); start and end are wall-clock.  The parent is the
innermost open span on the same thread; a span opened on a worker thread
with nothing open there is parented to the innermost open span of the
thread that installed the tracer, which is the one waiting on the pool.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict

# Layers whose ``__all__`` functions are wrapped, in import order.
FUNCTION_LAYERS = (
    "probkernel", "bounds", "program", "lp", "scenario_core",
    "discard", "validate", "cuboid_bench",
)

# (module, class, method, span name) for the public methods that are layer
# boundaries of their own.
METHODS = (
    ("scenario_core", "AssembledProgram", "__init__", "scenario_core.AssembledProgram"),
    ("program", "NormalSampler", "draw", "program.sampler.draw"),
    ("program", "UniformSampler", "draw", "program.sampler.draw"),
    ("program", "ChoiceSampler", "draw", "program.sampler.draw"),
    ("program", "ProductSampler", "draw", "program.sampler.draw"),
    ("program", "LinearRowsGenerator", "rows_batch", "program.generator.rows_batch"),
    ("program", "CuboidCoordinateGenerator", "rows_batch", "program.generator.rows_batch"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack is not stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, span_id, parent = tracer._open()
            start = time.perf_counter()
            cpu = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, cpu, threading.get_ident())
                )
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def install(self, hooks: dict | None = None) -> None:
        """Rebind every public function and listed method of scenopt."""
        hooks = hooks or {}
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "scenopt" or key.startswith("scenopt."))
        ]
        for layer in FUNCTION_LAYERS:
            module = importlib.import_module(f"scenopt.{layer}")
            for public in module.__all__:
                original = getattr(module, public)
                if not isinstance(original, types.FunctionType):
                    continue
                name = f"{layer}.{public}"
                self._rebind(modules, original, self.wrap(name, original, hooks.get(name)))
        for layer, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"scenopt.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original, hooks.get(name)))

    def _rebind(self, modules, original, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, key, original))
                            value[key] = wrapped

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "cpu", "thread"],
            "names": names,
            "spans": [
                [sid, index[name], round(start, 7), round(end, 7), parent, round(cpu, 7), thread]
                for sid, name, start, end, parent, cpu, thread in sorted(self.spans)
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per span name: calls, self time (duration minus the union of the
    child spans' intervals, clipped to the span) and self CPU time (the
    span's thread CPU time minus that of its children on the same thread)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    child_cpu: dict[int, float] = defaultdict(float)
    info = {sid: (start, end, thread) for sid, _, start, end, _, _, thread in spans}
    for sid, _, start, end, parent, cpu, thread in spans:
        if parent in info:
            p_start, p_end, p_thread = info[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
            if thread == p_thread:
                child_cpu[parent] += cpu
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    self_cpu_s: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, cpu, _ in spans:
        calls[name] += 1
        self_s[name] += (end - start) - _covered(children.get(sid, []))
        self_cpu_s[name] += cpu - child_cpu.get(sid, 0.0)
    return {"calls": dict(calls), "self_s": dict(self_s), "self_cpu_s": dict(self_cpu_s)}


def count_under(spans, child: str, ancestor: str, direct: bool = False) -> int:
    """Spans named ``child`` below a span named ``ancestor`` (only as the
    immediate parent when ``direct``)."""
    info = {span[0]: (span[1], span[4]) for span in spans}
    total = 0
    for _, name, _, _, parent, _, _ in spans:
        if name != child:
            continue
        while parent in info:
            parent_name, grand = info[parent]
            if parent_name == ancestor:
                total += 1
                break
            if direct:
                break
            parent = grand
    return total
