"""Unit tests for :class:`ValueMemo` and :class:`ValueColumn`.

A memo holds ``extract(value)`` per slot as a typed array, filled on demand.
When an image moves on, ``ValueMemo.moved`` copies the memo into the new
image's slots and the old memo keeps its arrays, so an epoch still surveyed
reads what it held without extracting it again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.columnar import (
    VALUE_MEMO_EXTRACTORS,
    ValueColumn,
    ValueMemo,
    object_column,
)


def counted(fn):
    """``fn`` as an extractor that records every value it is called on."""
    calls = []

    def extract(value):
        calls.append(value)
        return fn(value)

    return extract, calls


def read(memo, extract, metas, slots):
    """``extract`` at ``slots``, where slot ``i`` holds ``metas[i]``."""
    slots = np.asarray(slots, dtype=np.int64)
    return memo.lookup(extract, slots, metas, slots)


def insert_two_at_two():
    """A move of four slots into six: two new slots open at position 2."""
    return np.array([0, 1, 4, 5], dtype=np.int64), 6


class TestLookup:
    def test_ints_come_back_as_int64(self):
        memo = ValueMemo(3)
        metas = object_column([10, 20, 30])
        values = read(memo, int, metas, [2, 0])
        assert values.dtype == np.int64
        assert values.tolist() == [30, 10]

    def test_floats_come_back_as_float64(self):
        memo = ValueMemo(2)
        metas = object_column([0.5, 1.5])
        values = read(memo, float, metas, [0, 1])
        assert values.dtype == np.float64
        assert values.tolist() == [0.5, 1.5]

    def test_each_slot_is_extracted_once(self):
        memo = ValueMemo(4)
        extract, calls = counted(lambda value: value * 2)
        metas = object_column([1, 2, 3, 4])
        assert read(memo, extract, metas, [0, 1, 1, 0]).tolist() == [2, 4, 4, 2]
        assert read(memo, extract, metas, [1, 2, 0]).tolist() == [4, 6, 2]
        assert sorted(calls) == [1, 2, 3]

    def test_an_empty_read_extracts_nothing_and_keeps_no_entry(self):
        memo = ValueMemo(2)
        extract, calls = counted(lambda value: value)
        assert read(memo, extract, object_column([1, 2]), []).size == 0
        assert calls == [] and memo.extractors() == []

    @pytest.mark.parametrize(
        "column",
        [
            [1, "a"],  # a string has no array form
            [1, 2.5],  # mixed int and float
            [True, False],  # bool is not int
            [1.0, float("nan")],  # NaN has no order to agree on
            [1, 2**62],  # beyond the int64 range two stamps subtract in
            [None, None],
        ],
    )
    def test_values_without_an_array_form_answer_none(self, column):
        memo = ValueMemo(2)
        assert read(memo, lambda value: value, object_column(column), [0, 1]) is None

    def test_no_array_form_lasts_for_the_memos_life(self):
        memo = ValueMemo(3)
        extract, calls = counted(lambda value: value)
        metas = object_column(["x", 2, 3])
        assert read(memo, extract, metas, [0]) is None
        assert read(memo, extract, metas, [1, 2]) is None
        assert calls == ["x"]

    def test_a_later_fill_of_another_type_turns_the_array_off(self):
        memo = ValueMemo(2)
        metas = object_column([1, 2.5])
        extract = lambda value: value  # noqa: E731 - one extractor for both reads
        assert read(memo, extract, metas, [0]).tolist() == [1]
        assert read(memo, extract, metas, [1]) is None
        assert read(memo, extract, metas, [0]) is None

    def test_an_extractor_that_raises_answers_none(self):
        def broken(value):
            raise KeyError(value)

        assert read(ValueMemo(1), broken, object_column([{}]), [0]) is None

    def test_an_unhashable_extractor_answers_none(self):
        class Unhashable:
            __hash__ = None

            def __call__(self, value):
                return value

        memo = ValueMemo(1)
        assert read(memo, Unhashable(), object_column([1]), [0]) is None
        assert memo.extractors() == []

    def test_the_oldest_extractor_makes_room(self):
        memo = ValueMemo(1)
        metas = object_column([7])
        extractors = [lambda value, k=k: value + k for k in range(VALUE_MEMO_EXTRACTORS + 1)]
        for extract in extractors:
            read(memo, extract, metas, [0])
        assert memo.extractors() == extractors[1:]


class TestMoved:
    def test_values_land_at_their_destinations(self):
        memo = ValueMemo(4)
        read(memo, int, object_column([1, 2, 3, 4]), [0, 1, 2, 3])
        later = memo.moved(*insert_two_at_two())
        extract, calls = counted(int)
        later_metas = object_column([1, 2, 50, 60, 3, 4])
        # The carried slots answer without extracting; the new ones extract.
        assert later.extractors() == [int]
        assert read(later, int, later_metas, [0, 1, 4, 5]).tolist() == [1, 2, 3, 4]
        assert read(later, extract, later_metas, [2, 3]).tolist() == [50, 60]
        assert calls == [50, 60]

    def test_new_slots_start_unfilled(self):
        memo = ValueMemo(4)
        extract, calls = counted(int)
        read(memo, extract, object_column([1, 2, 3, 4]), [0, 1, 2, 3])
        later = memo.moved(*insert_two_at_two())
        metas = object_column([1, 2, 50, 60, 3, 4])
        assert read(later, extract, metas, [0, 2, 3, 5]).tolist() == [1, 50, 60, 4]
        assert calls == [1, 2, 3, 4, 50, 60]

    def test_extractors_without_an_array_form_are_not_carried(self):
        memo = ValueMemo(2)
        extract = lambda value: value  # noqa: E731 - one extractor across the move
        assert read(memo, extract, object_column(["x", 1]), [0]) is None
        later = memo.moved(np.array([0, 1]), 2)
        assert later.extractors() == []
        assert read(later, extract, object_column([3, 1]), [0, 1]).tolist() == [3, 1]

    def test_the_move_copies(self):
        memo = ValueMemo(2)
        read(memo, int, object_column([1, 2]), [0, 1])
        later = memo.moved(np.array([0, 1]), 2)
        assert memo.extractors() == later.extractors() == [int]
        assert memo._by_extract[int] is not later._by_extract[int]

    def test_forget_unfills_the_new_memos_slots_only(self):
        memo = ValueMemo(2)
        extract, calls = counted(int)
        read(memo, extract, object_column([1, 2]), [0, 1])
        later = memo.moved(np.array([0, 1]), 2)
        later.forget([1])
        assert read(later, extract, object_column([1, 20]), [0, 1]).tolist() == [1, 20]
        assert calls == [1, 2, 20]


class TestRetainedEpochs:
    def test_an_old_epoch_reads_what_it_held_without_extracting(self):
        memo = ValueMemo(4)
        metas = object_column([1, 2, 3, 4])
        extract, calls = counted(int)
        read(memo, extract, metas, [0, 1, 2, 3])
        memo.moved(*insert_two_at_two())
        assert read(memo, extract, metas, [3, 0, 2]).tolist() == [4, 1, 3]
        assert sorted(calls) == [1, 2, 3, 4]

    def test_a_rewritten_slot_keeps_its_old_value_in_the_old_epoch(self):
        memo = ValueMemo(2)
        extract, calls = counted(int)
        read(memo, extract, object_column([1, 2]), [0, 1])
        later = memo.moved(np.array([0, 1]), 2)
        later.forget([1])
        assert read(later, extract, object_column([1, 20]), [1]).tolist() == [20]
        assert read(memo, extract, object_column([1, 2]), [1, 0]).tolist() == [2, 1]
        assert calls == [1, 2, 20]

    def test_an_old_epoch_fills_only_its_own_memo(self):
        """A read two moves behind touches neither later memo: what an
        epoch extracts after the move stays its own."""
        first = ValueMemo(2)
        second = first.moved(np.array([1, 2]), 3)  # one slot opens at 0
        third = second.moved(np.array([0, 1, 2]), 3)
        extract, calls = counted(int)
        assert read(first, extract, object_column([1, 2]), [0, 1]).tolist() == [1, 2]
        assert second.extractors() == third.extractors() == []
        assert read(third, extract, object_column([9, 1, 2]), [1, 2]).tolist() == [1, 2]
        assert second.extractors() == []
        assert sorted(calls) == [1, 1, 2, 2]


class TestValueColumn:
    def test_positions_read_their_own_slots(self):
        memo = ValueMemo(3)
        column = ValueColumn(memo, object_column([10, 20, 30]))
        assert column.values(int, np.array([2, 0])).tolist() == [30, 10]
        assert memo.extractors() == [int]

    def test_a_base_offsets_the_positions(self):
        memo = ValueMemo(4)
        column = ValueColumn(memo, object_column([10, 20, 30, 40]), base=2)
        assert column.values(int, np.array([0, 1])).tolist() == [30, 40]

    def test_a_slot_map_shares_one_memo_slot_between_positions(self):
        memo = ValueMemo(2)
        extract, calls = counted(int)
        slots = np.array([1, 0, 1, 0])
        column = ValueColumn(memo, object_column([7, 3, 7, 3]), slots=slots)
        assert column.values(extract, np.arange(4)).tolist() == [7, 3, 7, 3]
        assert sorted(calls) == [3, 7]
