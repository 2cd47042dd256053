"""Property-based cross-model pipeline tests.

Random micro-programs are pushed through all nine timing models; whatever
the program, the structural invariants must hold: everything commits
exactly once, no deadlock, redundancy never beats the redundancy-free
machine, and fault-free redundant runs never flag mismatches.

Example budgets and deadlines come from the hypothesis profiles in
``conftest.py`` (``dev`` locally, ``ci`` under CI).
"""

import dataclasses

from hypothesis import given, strategies as st

from repro.core import MachineConfig
from repro.isa import Opcode, int_reg
from repro.simulation import MODELS, simulate
from repro.validation import REDUNDANT_MODELS, jitter_slack, reuse_slack

from helpers import assemble
from repro.workloads.executor import FunctionalExecutor

ALL_MODELS = tuple(sorted(MODELS))

_REGS = [int_reg(i) for i in range(1, 12)]

_alu_op = st.tuples(
    st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.SLT]),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
).map(lambda t: (t[0], t[1], t[2], t[3], 0))

_imm_op = st.tuples(
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.integers(-1000, 1000),
).map(lambda t: (Opcode.ADDI, t[0], t[1], None, t[2]))

_longlat_op = st.tuples(
    st.sampled_from([Opcode.MUL, Opcode.DIV]),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
).map(lambda t: (t[0], t[1], t[2], t[3], 0))

_fp_op = st.tuples(
    st.sampled_from([Opcode.FADD, Opcode.FMUL, Opcode.FDIV]),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
).map(lambda t: (t[0], t[1], t[2], t[3], 0))

_load_op = st.tuples(
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.integers(0, 30),
).map(lambda t: (Opcode.LOAD, t[0], t[1], None, t[2] * 8))

_store_op = st.tuples(
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.integers(0, 30),
).map(lambda t: (Opcode.STORE, None, t[0], t[1], t[2] * 8))

# Byte-granular addressing: nothing forces the generated offsets onto
# word boundaries, so the LSQ and the duplicate stream must cope.
_misaligned_op = st.tuples(
    st.sampled_from([Opcode.LOAD, Opcode.STORE]),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
    st.integers(0, 240),
).map(
    lambda t: (t[0], t[1], t[2], None, t[3])
    if t[0] is Opcode.LOAD
    else (t[0], None, t[1], t[2], t[3])
)

_any_op = st.one_of(_imm_op, _alu_op, _longlat_op, _load_op, _store_op)

programs = st.lists(_any_op, min_size=1, max_size=30)
loops = st.integers(1, 3)


@st.composite
def branchy_programs(draw):
    """A program salted with forward conditional branches.

    Targets stay inside the image (the trailing JUMP at ``len(ops)*4`` is
    a valid target), and whether each branch is taken depends on register
    values, so examples exercise taken, not-taken and mixed paths.
    """
    body = list(draw(st.lists(_any_op, min_size=4, max_size=24)))
    n = len(body)
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, n - 1))
        opcode = draw(st.sampled_from([Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE]))
        src1 = draw(st.sampled_from(_REGS))
        src2 = draw(st.sampled_from(_REGS))
        target_index = draw(st.integers(position + 1, n))
        body[position] = (opcode, None, src1, src2, 0, target_index * 4)
    return body


@st.composite
def misaligned_adjacent_programs(draw):
    """Memory traffic at byte-adjacent, arbitrarily aligned addresses.

    Each drawn access is doubled: a partner touches the very next byte,
    so overlapping/adjacent LSQ entries appear in every example.
    """
    accesses = draw(st.lists(_misaligned_op, min_size=2, max_size=12))
    body = []
    for row in accesses:
        body.append(row)
        opcode, dst, src1, src2, imm = row
        body.append((opcode, dst, src1, src2, imm + 1))
    fillers = draw(st.lists(st.one_of(_imm_op, _alu_op), min_size=1, max_size=6))
    return body + fillers


def _trace_for(ops, loops):
    program = assemble(ops)
    count = (len(ops) + 1) * loops
    return FunctionalExecutor(program).run(count)


@given(ops=programs, loops=loops)
def test_all_models_commit_everything(ops, loops):
    trace = _trace_for(ops, loops)
    for model in ALL_MODELS:
        result = simulate(trace, model)
        assert result.stats.committed == len(trace), model


@given(ops=branchy_programs(), loops=loops)
def test_branch_mixes_commit_on_all_models(ops, loops):
    trace = _trace_for(ops, loops)
    for model in ALL_MODELS:
        result = simulate(trace, model)
        assert result.stats.committed == len(trace), model
        assert result.stats.branches > 0, model


@given(ops=misaligned_adjacent_programs(), loops=loops)
def test_misaligned_adjacent_memory_on_all_models(ops, loops):
    trace = _trace_for(ops, loops)
    for model in ALL_MODELS:
        result = simulate(trace, model)
        assert result.stats.committed == len(trace), model


@given(ops=programs, loops=loops)
def test_redundancy_never_wins(ops, loops):
    # Out-of-order scheduling is non-monotonic in resource pressure, so
    # the bounds carry the same second-order slack as the fuzz invariants
    # (docs/VALIDATION.md); real redundancy bugs overshoot it by 10x+.
    trace = _trace_for(ops, loops)
    sie = simulate(trace, "sie").stats.cycles
    die = simulate(trace, "die").stats.cycles
    for model in REDUNDANT_MODELS:
        cycles = simulate(trace, model).stats.cycles
        assert cycles >= sie - jitter_slack(sie), model
    die_irb = simulate(trace, "die-irb").stats.cycles
    assert die_irb <= die + reuse_slack(die)  # the IRB pipeline is not free


@given(ops=programs, loops=loops)
def test_fault_free_redundancy_is_clean(ops, loops):
    trace = _trace_for(ops, loops)
    for model in REDUNDANT_MODELS:
        result = simulate(trace, model)
        assert result.stats.check_mismatches == 0, model
        assert result.stats.pairs_checked == len(trace), model


@given(ops=branchy_programs(), loops=loops)
def test_fault_free_srt_is_clean(ops, loops):
    trace = _trace_for(ops, loops)
    result = simulate(trace, "srt")
    assert result.stats.check_mismatches == 0
    assert result.stats.committed == len(trace)


@given(
    ops=programs,
    ruu=st.sampled_from([8, 32, 128]),
    width=st.sampled_from([2, 8]),
)
def test_tiny_machines_never_deadlock(ops, ruu, width):
    trace = _trace_for(ops, 2)
    config = dataclasses.replace(
        MachineConfig.baseline(),
        ruu_size=ruu,
        lsq_size=max(2, ruu // 2),
        fetch_width=width,
        decode_width=width,
        issue_width=width,
        commit_width=width,
    )
    for model in ("sie", "die", "die-irb", "srt", "die-cluster-split"):
        result = simulate(trace, model, config=config)
        assert result.stats.committed == len(trace)
