"""The layer tracer's accounting, spans and clean removal."""

import pytest

import repro.analysis.experiments
import repro.engine
from layers import LAYER_TARGETS
from tracer import LayerTracer, Target, find_wrappers


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


CLOCK = FakeClock()


class Toy:
    """A nested call tree whose every step advances the fake clock."""

    def leaf(self) -> None:
        CLOCK.advance(5)

    def inner(self) -> None:
        CLOCK.advance(10)
        self.leaf()
        CLOCK.advance(1)
        self.leaf()

    def outer(self) -> None:
        CLOCK.advance(100)
        self.inner()
        CLOCK.advance(7)
        self.inner()

    def broken(self) -> None:
        CLOCK.advance(4)
        raise ValueError("boom")


def _targets(inner_layer: str) -> list[Target]:
    return [
        Target("outer", f"{__name__}:Toy.outer", span=True),
        Target(inner_layer, f"{__name__}:Toy.inner"),
        Target("leaf", f"{__name__}:Toy.leaf"),
        Target("broken", f"{__name__}:Toy.broken", span=True),
    ]


def _traced(inner_layer: str) -> LayerTracer:
    tracer = LayerTracer(clock=CLOCK)
    tracer.install(_targets(inner_layer))
    try:
        with tracer.region("cell", "toy"):
            CLOCK.advance(3)
            Toy().outer()
            with pytest.raises(ValueError):
                Toy().broken()
    finally:
        tracer.uninstall()
    return tracer


def test_self_time_is_exact_on_a_nested_call_tree():
    start = CLOCK.now
    tracer = _traced("inner")
    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].self_ns) == (4, 20)
    assert (stats["inner"].calls, stats["inner"].self_ns) == (2, 22)
    assert (stats["outer"].calls, stats["outer"].self_ns) == (1, 107)
    assert (stats["broken"].calls, stats["broken"].self_ns) == (1, 4)
    assert (stats["bench"].calls, stats["bench"].self_ns) == (1, 3)
    assert tracer.total_self_s() * 1e9 == pytest.approx(CLOCK.now - start)


def test_a_layer_nested_in_itself_sums_its_self_time():
    tracer = _traced("leaf")
    assert (tracer.stats["leaf"].calls, tracer.stats["leaf"].self_ns) == (6, 42)


def test_spans_link_parents_and_share_the_cell_id():
    tracer = _traced("inner")
    cell, outer, broken = tracer.spans
    assert cell.parent is None and cell.cell == cell.sid
    assert outer.name == "Toy.outer" and outer.parent == cell.sid and outer.cell == cell.sid
    assert outer.end_ns - outer.start_ns == 107 + 22 + 20
    assert broken.parent == cell.sid and broken.self_ns == 4


def test_uninstall_restores_every_original():
    originals = {name: vars(Toy)[name] for name in ("outer", "inner", "leaf", "broken")}
    _traced("inner")
    assert {name: vars(Toy)[name] for name in originals} == originals


def test_every_layer_wrapper_is_removed_after_the_traced_run():
    original = repro.engine.build_simulation
    tracer = LayerTracer()
    tracer.install(LAYER_TARGETS)
    try:
        assert find_wrappers()
        # Bound by name elsewhere in the package: patched there too.
        assert repro.analysis.experiments.build_simulation is not original
    finally:
        tracer.uninstall()
    assert find_wrappers() == []
    assert repro.engine.build_simulation is original
    assert repro.analysis.experiments.build_simulation is original
