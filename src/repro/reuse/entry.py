"""IRB entry format.

Figure 4 of the paper gives the entry layout: ⟨PC, Operand1, Operand2,
Result, CTR⟩.  The CTR field is a small saturating reuse counter; we use
it for the conflict-miss-reduction replacement policy (Section 3.1's
"simple mechanism that can possibly reduce conflict misses in the IRB").

For the *name-based* variant (Section 3.3), operands hold (register,
version) pairs instead of values: an entry is reusable while neither
source register has been overwritten since insertion, which the same
equality test decides (a new write bumps the register's version).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IRBEntry:
    """One Instruction Reuse Buffer entry.

    Attributes:
        pc: tag (full PC; the model stores exact tags).
        op1 / op2: captured operand values (value-based mode) or
            (register, version) tuples (name-based mode).  ``None`` marks
            an absent operand.
        result: the captured outcome — result value for ALU ops, effective
            address for loads/stores, next PC for branches.
        ctr: saturating reuse counter for CTR-guided replacement.
    """

    pc: int
    op1: object
    op2: object
    result: object
    ctr: int = 0

    def matches(self, op1: object, op2: object) -> bool:
        """The reuse test: do the current operands equal the captured ones?"""
        return self.op1 == op1 and self.op2 == op2
