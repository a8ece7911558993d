"""Tests for Tape layout management."""

import pickle

import pytest

from repro.hardware import ObjectExtent, Tape, TapeId, TapeSpec


@pytest.fixture
def tape():
    return Tape(TapeId(0, 0), TapeSpec(capacity_mb=1000, max_rewind_s=10))


class TestObjectExtent:
    def test_end(self):
        assert ObjectExtent(1, 10, 5).end_mb == 15

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            ObjectExtent(1, -1, 5)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            ObjectExtent(1, 0, 0)

    def test_overlap_detection(self):
        a = ObjectExtent(1, 0, 10)
        b = ObjectExtent(2, 5, 10)
        c = ObjectExtent(3, 10, 10)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)  # adjacent is not overlapping


class TestTapeLayout:
    def test_fresh_tape_is_empty(self, tape):
        assert len(tape) == 0
        assert tape.used_mb == 0
        assert tape.free_mb == 1000

    def test_append_object(self, tape):
        e1 = tape.append_object(7, 100)
        e2 = tape.append_object(8, 50)
        assert e1.start_mb == 0
        assert e2.start_mb == 100
        assert tape.used_mb == 150
        assert tape.object_ids == (7, 8)

    def test_append_beyond_capacity_rejected(self, tape):
        tape.append_object(1, 900)
        with pytest.raises(ValueError):
            tape.append_object(2, 200)

    def test_extent_lookup(self, tape):
        tape.append_object(42, 100)
        assert tape.extent_of(42).size_mb == 100
        assert tape.holds(42)
        assert not tape.holds(99)

    def test_extent_lookup_missing_raises(self, tape):
        with pytest.raises(KeyError):
            tape.extent_of(1)

    def test_write_layout_sorts_by_start(self, tape):
        tape.write_layout(
            [ObjectExtent(2, 100, 50), ObjectExtent(1, 0, 100)]
        )
        assert tape.object_ids == (1, 2)

    def test_write_layout_rejects_overlap(self, tape):
        with pytest.raises(ValueError):
            tape.write_layout([ObjectExtent(1, 0, 100), ObjectExtent(2, 50, 100)])

    def test_write_layout_rejects_duplicate_object(self, tape):
        with pytest.raises(ValueError):
            tape.write_layout([ObjectExtent(1, 0, 10), ObjectExtent(1, 10, 10)])

    def test_write_layout_rejects_capacity_overflow(self, tape):
        with pytest.raises(ValueError):
            tape.write_layout([ObjectExtent(1, 900, 200)])

    def test_write_layout_replaces_previous(self, tape):
        tape.append_object(1, 100)
        tape.write_layout([ObjectExtent(2, 0, 10)])
        assert tape.object_ids == (2,)
        assert not tape.holds(1)

    def test_layout_may_have_gaps(self, tape):
        tape.write_layout([ObjectExtent(1, 0, 10), ObjectExtent(2, 500, 10)])
        assert tape.used_mb == 510

    def test_iteration_in_position_order(self, tape):
        tape.write_layout([ObjectExtent(2, 100, 10), ObjectExtent(1, 0, 10)])
        assert [e.object_id for e in tape] == [1, 2]


class TestTapeIdInvariants:
    """TapeId is a named tuple; everything observable stays as it was."""

    def test_hash_is_the_field_pair_hash(self):
        for lib, slot in [(0, 0), (1, 7), (12, 3)]:
            assert hash(TapeId(lib, slot)) == hash((lib, slot))

    def test_str_repr_and_order(self):
        tid = TapeId(2, 11)
        assert str(tid) == "L2.T11"
        assert f"{tid}" == "L2.T11"
        assert repr(tid) == "TapeId(library=2, slot=11)"
        assert (tid.library, tid.slot) == (2, 11)
        ids = [TapeId(1, 0), TapeId(0, 5), TapeId(0, 2), TapeId(1, 1)]
        assert sorted(ids) == [TapeId(0, 2), TapeId(0, 5), TapeId(1, 0), TapeId(1, 1)]
        assert TapeId(0, 9) < TapeId(1, 0)

    def test_pickle_round_trip(self):
        tid = TapeId(3, 4)
        back = pickle.loads(pickle.dumps(tid))
        assert back == tid and type(back) is TapeId and str(back) == "L3.T4"

    def test_sweep_cache_key_form_is_unchanged(self):
        from repro.experiments.cache import canonical_json

        assert canonical_json({"tape": TapeId(1, 2), "tapes": [TapeId(0, 3)]}) == (
            '{"tape":{"__dataclass__":"TapeId","library":1,"slot":2},'
            '"tapes":[{"__dataclass__":"TapeId","library":0,"slot":3}]}'
        )
