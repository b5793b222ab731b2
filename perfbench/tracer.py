"""Outside-in layer tracer for the simulator's host time.

The tracer attributes host time to layers of ``src/repro`` by wrapping
public functions and methods from outside the package: nothing under
``src/`` is edited, and the program's own ``Telemetry`` handle stays
detached (attaching it would force the reference engine and so change
what runs).

Each wrapped call records its layer's call count and *self time*: the
call's duration minus the time covered by wrapped calls it made.  Every
nanosecond of a traced region therefore lands in exactly one place:
some layer's self time, or the region's own self time (the benchmark's
unattributed time).  Calls at coarse boundaries (a cell, a ``run``, a
fault, a runahead episode, a cache get/put) also become spans with a
parent link and the id of the cell they belong to; per-instruction
boundaries keep counts and summed self time only, since a span per call
would swamp the run.  Everything stays in memory until :meth:`to_dict`.

Install before the traced region and always uninstall after it::

    tracer = LayerTracer()
    tracer.install(LAYER_TARGETS)
    try:
        with tracer.region("cell", "ITS seed=1"):
            ...
    finally:
        tracer.uninstall()
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

WRAPPED_MARK = "__perfbench_original__"
"""Attribute every wrapper carries, pointing at the function it wraps."""

ROOT_LAYER = "bench"
"""Layer name of regions the benchmark opens itself (its own time)."""


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module:qualname`` attributed to ``layer``.

    ``span`` marks a coarse boundary that also records spans;
    ``on_return`` sees each call's return value (for counting work such
    as trace records) after the call's clock has stopped.
    """

    layer: str
    path: str
    span: bool = False
    on_return: Optional[Callable[["LayerTracer", object], None]] = None


@dataclass
class LayerStats:
    """Per-layer totals: calls made and self time in nanoseconds."""

    calls: int = 0
    self_ns: int = 0


@dataclass
class Span:
    """One coarse-boundary call, kept in memory until the run ends."""

    sid: int
    name: str
    layer: str
    cell: int
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    self_ns: int = 0


class LayerTracer:
    """Wraps callables, accounts self time per layer and records spans.

    *clock* returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[Span] = []
        # Frames of open wrapped calls: [start_ns, child_ns, span-or-None].
        self._stack: list[list] = []
        self._cell = 0
        self._patches: list[tuple[object, str, object, bool]] = []
        self._fork_hook = False

    # -- accounting -----------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the named work counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2].sid
        return None

    def _enter(self, name: str, layer: str, span: bool) -> list:
        record = None
        if span:
            record = Span(
                sid=len(self.spans),
                name=name,
                layer=layer,
                cell=self._cell,
                parent=self._parent_span(),
                start_ns=0,
            )
            self.spans.append(record)
        frame = [0, 0, record]
        self._stack.append(frame)
        frame[0] = self.clock()
        return frame

    def _exit(self, frame: list, stats: LayerStats) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("layer tracer stack out of order")
        duration = end - frame[0]
        own = duration - frame[1]
        stats.calls += 1
        stats.self_ns += own
        if self._stack:
            self._stack[-1][1] += duration
        record = frame[2]
        if record is not None:
            record.start_ns = frame[0]
            record.end_ns = end
            record.self_ns = own

    @contextlib.contextmanager
    def region(self, name: str, label: str = "") -> Iterator[None]:
        """A span the benchmark opens itself; its self time is the
        benchmark's own, unattributed time.  A ``cell`` region starts a
        new cell id shared by every span recorded inside it."""
        frame = self._enter(f"{name}:{label}" if label else name, ROOT_LAYER, True)
        outer_cell = self._cell
        if name == "cell":
            self._cell = frame[2].cell = frame[2].sid
        try:
            yield
        finally:
            self._exit(frame, self.layer(ROOT_LAYER))
            self._cell = outer_cell

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, original: Callable, target: Target) -> Callable:
        stats = self.layer(target.layer)
        name = target.path.rpartition(":")[2]
        enter, leave, span, on_return = self._enter, self._exit, target.span, target.on_return

        def wrapper(*args, **kwargs):
            frame = enter(name, target.layer, span)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(frame, stats)
            if on_return is not None:
                on_return(self, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(wrapper, WRAPPED_MARK, original)
        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target.

        A method is replaced on its class.  A module-level function is
        replaced in every loaded module of its package that bound it, so
        ``from x import f`` call sites are traced too.
        """
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrapper(original, target))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, target)
            package = module_name.partition(".")[0]
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or loaded_name.partition(".")[0] != package:
                    continue
                for bound, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, bound, wrapper)
        if not self._fork_hook and hasattr(os, "register_at_fork"):
            # Pool workers forked mid-trace run untraced originals: their
            # counts could not reach this process anyway.
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hook = True

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------------

    def total_self_s(self) -> float:
        """Self time summed over every layer, the benchmark's included."""
        return sum(s.self_ns for s in self.stats.values()) / 1e9

    def to_dict(self) -> dict:
        """Layer totals, counters and spans as plain JSON data."""
        return {
            "layers": {
                name: {"calls": s.calls, "self_s": s.self_ns / 1e9}
                for name, s in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [vars(span) for span in self.spans],
        }


def find_wrappers(package: str = "repro") -> list[str]:
    """Names of every tracer wrapper still bound in *package*'s loaded
    modules or their classes; empty once a tracer is uninstalled."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.partition(".")[0] != package:
            continue
        for name, value in list(vars(module).items()):
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{module_name}:{name}")
            elif isinstance(value, type) and value.__module__ == module_name:
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPED_MARK):
                        found.append(f"{module_name}:{name}.{attr}")
    return found
