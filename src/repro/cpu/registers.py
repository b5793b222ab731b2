"""Register file with per-register INV bits, and its shadow copy.

Section 3.4.2 expands the register file with an "INV" bit per register so
invalidity cascades through dependent instructions; Section 3.4.3's
state-recovery policy checkpoints the architectural state (PC, SP, branch
history, return-address stack) to a shadow register file on ITS entry and
restores it before ITS ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

NUM_REGISTERS = 16
"""Architectural general-purpose registers in the trace ISA."""


@dataclass
class ShadowRegisterFile:
    """A checkpoint of the architectural state."""

    inv_mask: int
    num_registers: int
    pc: int
    sp: int
    branch_history: int
    return_stack: tuple[int, ...]

    @property
    def inv_bits(self) -> tuple[bool, ...]:
        """The checkpointed INV bits, one per register."""
        return tuple(bool(self.inv_mask >> r & 1) for r in range(self.num_registers))


class RegisterFile:
    """Architectural registers tracked by validity only.

    The INV bits live in one integer mask, bit *r* for register *r*, so
    a dependence check is a mask test and a checkpoint is an int copy.
    ``pc``/``sp``/``branch_history``/``return_stack`` exist so the
    state-recovery policy has real state to checkpoint and restore; the
    simulator advances ``pc`` as the committed instruction index.
    """

    def __init__(self, num_registers: int = NUM_REGISTERS) -> None:
        if num_registers <= 0:
            raise ValueError("need at least one register")
        self.num_registers = num_registers
        self.inv_mask = 0
        self.pc = 0
        self.sp = 0
        self.branch_history = 0
        self.return_stack: list[int] = []

    # -- INV bits -----------------------------------------------------------

    def _bit(self, reg: int) -> int:
        if not 0 <= reg < self.num_registers:
            raise IndexError(f"register {reg} out of range [0, {self.num_registers})")
        return 1 << reg

    def is_invalid(self, reg: int) -> bool:
        """INV status of one register."""
        return bool(self.inv_mask & self._bit(reg))

    def any_invalid(self, regs: Iterable[int]) -> bool:
        """True if any of *regs* is marked INV."""
        return any(self.inv_mask & self._bit(r) for r in regs)

    def set_invalid(self, reg: int, invalid: bool = True) -> None:
        """Set or clear one register's INV bit."""
        if invalid:
            self.inv_mask |= self._bit(reg)
        else:
            self.inv_mask &= ~self._bit(reg)

    def invalid_count(self) -> int:
        """How many registers are currently INV."""
        return bin(self.inv_mask).count("1")

    def clear_all_invalid(self) -> None:
        """Clear every INV bit (normal-mode registers are always valid)."""
        self.inv_mask = 0

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> ShadowRegisterFile:
        """Copy the architectural state into a shadow register file."""
        return ShadowRegisterFile(
            inv_mask=self.inv_mask,
            num_registers=self.num_registers,
            pc=self.pc,
            sp=self.sp,
            branch_history=self.branch_history,
            return_stack=tuple(self.return_stack),
        )

    def restore(self, shadow: ShadowRegisterFile) -> None:
        """Restore the state captured by :meth:`checkpoint`."""
        self.inv_mask = shadow.inv_mask
        self.pc = shadow.pc
        self.sp = shadow.sp
        self.branch_history = shadow.branch_history
        self.return_stack = list(shadow.return_stack)

    def record_branch(self, taken: bool) -> None:
        """Shift the branch outcome into the history register."""
        self.branch_history = ((self.branch_history << 1) | int(taken)) & 0xFFFF
