"""Unit and property tests for the branch-prediction substrate."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.branch import (
    BimodalPredictor,
    BranchTargetBuffer,
    GsharePredictor,
    HybridPredictor,
    ReturnAddressStack,
    SaturatingCounter,
    make_predictor,
)


class TestSaturatingCounter:
    def test_initial_is_weakly_not_taken(self):
        counter = SaturatingCounter(bits=2)
        assert counter.value == 2
        assert counter.taken

    def test_saturates_high(self):
        counter = SaturatingCounter(bits=2)
        for _ in range(10):
            counter.update(True)
        assert counter.value == 3

    def test_saturates_low(self):
        counter = SaturatingCounter(bits=2)
        for _ in range(10):
            counter.update(False)
        assert counter.value == 0

    @given(st.lists(st.booleans(), max_size=50), st.integers(1, 4))
    def test_value_always_in_range(self, outcomes, bits):
        counter = SaturatingCounter(bits=bits)
        for outcome in outcomes:
            counter.update(outcome)
            assert 0 <= counter.value <= counter.max

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)


class TestBimodal:
    def test_learns_always_taken(self):
        pred = BimodalPredictor(entries=64)
        for _ in range(4):
            pred.update(0x100, True, pred.predict(0x100))
        assert pred.predict(0x100)

    def test_learns_always_not_taken(self):
        pred = BimodalPredictor(entries=64)
        for _ in range(4):
            pred.update(0x100, False, pred.predict(0x100))
        assert not pred.predict(0x100)

    def test_accuracy_tracking(self):
        pred = BimodalPredictor(entries=64)
        for _ in range(100):
            pred.update(0x40, True, pred.predict(0x40))
        assert pred.stats.accuracy > 0.9

    def test_distinct_pcs_use_distinct_counters(self):
        pred = BimodalPredictor(entries=64)
        for _ in range(4):
            pred.update(0x100, True, True)
            pred.update(0x104, False, False)
        assert pred.predict(0x100)
        assert not pred.predict(0x104)

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=100)


class TestGshare:
    def test_learns_alternating_pattern(self):
        # T,N,T,N is invisible to bimodal but trivial for global history.
        pred = GsharePredictor(entries=1024, history_bits=8)
        outcomes = [bool(i % 2) for i in range(400)]
        correct = 0
        for outcome in outcomes:
            predicted = pred.predict(0x200)
            correct += predicted == outcome
            pred.update(0x200, outcome, predicted)
        assert correct / len(outcomes) > 0.9

    def test_history_updates(self):
        pred = GsharePredictor(history_bits=4)
        pred.update(0x10, True, True)
        pred.update(0x10, False, True)
        assert pred.history == 0b10

    def test_history_masked(self):
        pred = GsharePredictor(history_bits=3)
        for _ in range(10):
            pred.update(0x10, True, True)
        assert pred.history == 0b111


class TestHybrid:
    def test_beats_components_on_mixed_workload(self):
        hybrid = HybridPredictor()
        # Two branches: one alternating (gshare territory), one biased
        # (bimodal territory).
        for i in range(300):
            for pc, outcome in ((0x30, bool(i % 2)), (0x60, True)):
                predicted = hybrid.predict(pc)
                hybrid.update(pc, outcome, predicted)
        assert hybrid.stats.accuracy > 0.85

    def test_factory(self):
        for kind in ("bimodal", "gshare", "hybrid", "taken", "nottaken", "perfect"):
            predictor = make_predictor(kind)
            assert hasattr(predictor, "predict")

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_predictor("tage")

    def test_reset_stats_keeps_training(self):
        pred = BimodalPredictor(entries=64)
        for _ in range(8):
            pred.update(0x100, True, pred.predict(0x100))
        pred.reset_stats()
        assert pred.stats.lookups == 0
        assert pred.predict(0x100)  # trained state survives


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        assert btb.lookup(0x400) is None
        btb.update(0x400, 0x1000)
        assert btb.lookup(0x400) == 0x1000

    def test_update_replaces_target(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        btb.update(0x400, 0x1000)
        btb.update(0x400, 0x2000)
        assert btb.lookup(0x400) == 0x2000

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(sets=1, ways=2)
        btb.update(0x0, 0xA)
        btb.update(0x4, 0xB)
        btb.lookup(0x0)  # refresh 0x0
        btb.update(0x8, 0xC)  # evicts 0x4
        assert btb.lookup(0x0) == 0xA
        assert btb.lookup(0x4) is None

    def test_hit_rate_accounting(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        btb.lookup(0x4)
        btb.update(0x4, 0x8)
        btb.lookup(0x4)
        assert btb.hits == 1 and btb.misses == 1
        assert btb.hit_rate == 0.5

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 4095)), max_size=60))
    def test_lookup_returns_last_update(self, updates):
        btb = BranchTargetBuffer(sets=4, ways=4)
        last = {}
        for pc4, target in updates:
            pc = pc4 * 4
            btb.update(pc, target)
            last[pc] = target
        # Whatever is still resident must be the most recent target.
        for pc, target in last.items():
            found = btb.lookup(pc)
            assert found is None or found == target


class TestRAS:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(0x10)
        ras.push(0x20)
        assert ras.pop() == 0x20
        assert ras.pop() == 0x10

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(depth=4)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        for value in (1, 2, 3):
            ras.push(value)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=40))
    def test_depth_never_exceeded(self, operations):
        ras = ReturnAddressStack(depth=3)
        for index, op in enumerate(operations):
            if op == "push":
                ras.push(index)
            else:
                ras.pop()
            assert len(ras) <= 3


PREDICTOR_KINDS = ("bimodal", "gshare", "hybrid", "taken", "nottaken", "perfect")


def _branches(seed, count=600, invert=False):
    """Outcomes over a few hot pcs: biased, alternating and random."""
    rng = random.Random(seed)
    pcs = [0x400 + 4 * i for i in range(12)]
    out = []
    for step in range(count):
        pc = rng.choice(pcs)
        if pc % 3 == 0:
            taken = True
        elif pc % 3 == 1:
            taken = bool(step % 2)
        else:
            taken = rng.random() < 0.7
        out.append((pc, taken != invert))
    return out


def _train(predictor, branches):
    predictions = []
    for pc, taken in branches:
        predicted = predictor.predict(pc)
        predictor.update(pc, taken, predicted)
        predictions.append(predicted)
    return predictions


class TestPredictorCopy:
    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_copy_predicts_like_original(self, kind):
        original, twin = make_predictor(kind), make_predictor(kind)
        _train(original, _branches(1))
        _train(twin, _branches(1))
        clone = original.copy()
        assert type(clone) is type(original)
        assert clone.stats == original.stats
        predictions = _train(original, _branches(2))
        assert _train(clone, _branches(2)) == predictions
        assert _train(twin, _branches(2)) == predictions
        assert clone.stats == original.stats == twin.stats

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_training_copy_leaves_original_untouched(self, kind):
        original, twin = make_predictor(kind), make_predictor(kind)
        _train(original, _branches(3))
        _train(twin, _branches(3))
        clone = original.copy()
        _train(clone, _branches(4, invert=True))  # untrain every counter
        clone.reset_stats()
        assert _train(original, _branches(5)) == _train(twin, _branches(5))
        assert original.stats == twin.stats


def _btb_ops(seed, count=400):
    rng = random.Random(seed)
    return [
        (rng.random() < 0.5, 4 * rng.randrange(16), rng.randrange(1 << 12))
        for _ in range(count)
    ]


def _drive_btb(btb, ops):
    answers = []
    for is_lookup, pc, target in ops:
        if is_lookup:
            answers.append(btb.lookup(pc))
        else:
            btb.update(pc, target)
    return answers


class TestBTBCopy:
    def test_copy_answers_like_original(self):
        original, twin = BranchTargetBuffer(4, 2), BranchTargetBuffer(4, 2)
        _drive_btb(original, _btb_ops(1))
        _drive_btb(twin, _btb_ops(1))
        clone = original.copy()
        assert (clone.hits, clone.misses) == (original.hits, original.misses)
        answers = _drive_btb(original, _btb_ops(2))
        assert _drive_btb(clone, _btb_ops(2)) == answers
        assert _drive_btb(twin, _btb_ops(2)) == answers
        assert (clone.hits, clone.misses) == (original.hits, original.misses)
        assert (twin.hits, twin.misses) == (original.hits, original.misses)

    def test_driving_copy_leaves_original_untouched(self):
        original, twin = BranchTargetBuffer(4, 2), BranchTargetBuffer(4, 2)
        _drive_btb(original, _btb_ops(3))
        _drive_btb(twin, _btb_ops(3))
        clone = original.copy()
        _drive_btb(clone, _btb_ops(4))
        clone.reset_stats()
        assert _drive_btb(original, _btb_ops(5)) == _drive_btb(twin, _btb_ops(5))
        assert (original.hits, original.misses) == (twin.hits, twin.misses)
