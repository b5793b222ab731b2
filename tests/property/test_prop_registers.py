"""Property test: the register file's INV bitmask against a list of bools.

``RegisterFile`` keeps its per-register INV bits (Section 3.4.2) as one
integer mask.  Random sequences of every INV operation, with checkpoints
and restores mixed in, must leave it agreeing with the plainest model:
one bool per register.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.registers import RegisterFile

SIZES = st.integers(min_value=1, max_value=20)


@st.composite
def scripts(draw):
    n = draw(SIZES)
    reg = st.integers(0, n - 1)
    op = st.one_of(
        st.tuples(st.just("set"), reg, st.booleans()),
        st.tuples(st.just("is"), reg),
        st.tuples(st.just("any"), st.lists(reg, max_size=5)),
        st.tuples(st.just("count")),
        st.tuples(st.just("clear")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore"), st.integers(0, 10**6)),
    )
    initial = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, initial, draw(st.lists(op, max_size=60))


@given(scripts())
@settings(max_examples=200)
def test_inv_mask_matches_list_of_bools(script):
    n, initial, ops = script
    regs = RegisterFile(n)
    for reg, invalid in enumerate(initial):
        regs.set_invalid(reg, invalid)
    model = list(initial)
    shadows = []  # (shadow, model at checkpoint time)
    for op in ops:
        name = op[0]
        if name == "set":
            __, reg, invalid = op
            regs.set_invalid(reg, invalid)
            model[reg] = invalid
        elif name == "is":
            assert regs.is_invalid(op[1]) is model[op[1]]
        elif name == "any":
            assert regs.any_invalid(op[1]) is any(model[r] for r in op[1])
        elif name == "count":
            assert regs.invalid_count() == sum(model)
        elif name == "clear":
            regs.clear_all_invalid()
            model = [False] * n
        elif name == "checkpoint":
            shadow = regs.checkpoint()
            assert shadow.inv_bits == tuple(model)
            shadows.append((shadow, list(model)))
        elif shadows:
            shadow, saved = shadows[op[1] % len(shadows)]
            regs.restore(shadow)
            model = list(saved)
        assert [regs.is_invalid(r) for r in range(n)] == model
    assert regs.invalid_count() == sum(model)


@given(SIZES, st.data())
def test_out_of_range_register_raises(n, data):
    regs = RegisterFile(n)
    reg = data.draw(st.integers(min_value=n, max_value=n + 64))
    with pytest.raises(IndexError):
        regs.is_invalid(reg)
    with pytest.raises(IndexError):
        regs.set_invalid(reg)
    assert regs.invalid_count() == 0
