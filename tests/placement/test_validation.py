"""``PlacementResult.validate`` rejects every broken object accounting.

Each case builds a hand-made layout that breaks one rule and pins the
exact :class:`PlacementError` message, so a fast path for the common
single-whole-extent object cannot drop or reword a check.
"""

import re

import pytest

from repro.catalog import ObjectCatalog
from repro.hardware import LibrarySpec, ObjectExtent, SystemSpec, TapeId, TapeSpec
from repro.placement import PlacementError, PlacementResult

SPEC = SystemSpec(
    num_libraries=2,
    library=LibrarySpec(num_drives=2, num_tapes=4, tape=TapeSpec(capacity_mb=1_000)),
)
CATALOG = ObjectCatalog([100.0, 200.0, 50.0], [0.5, 0.3, 0.2])
T0, T1 = TapeId(0, 0), TapeId(1, 0)


def _validate(layouts):
    PlacementResult(scheme="hand", layouts=layouts, initial_mounts={}).validate(CATALOG, SPEC)


def _valid_layouts():
    return {
        T0: [ObjectExtent(0, 0.0, 100.0), ObjectExtent(1, 100.0, 200.0)],
        T1: [ObjectExtent(2, 0.0, 50.0)],
    }


def test_valid_layout_passes():
    _validate(_valid_layouts())


def test_whole_and_striped_objects_pass():
    layouts = _valid_layouts()
    layouts[T1] = [ObjectExtent(2, 0.0, 20.0, part=0, parts=2)]
    layouts[T0].append(ObjectExtent(2, 300.0, 30.0, part=1, parts=2))
    _validate(layouts)


@pytest.mark.parametrize(
    "breakage,message",
    [
        (
            "whole object with the wrong size",
            "object 2 placed with total size 60.0, catalog says 50.0",
        ),
        ("missing object", "1 objects were not placed"),
        ("whole object on two tapes", "object 2: 2 of 1 fragments placed"),
        ("striped object missing a part", "object 2: 1 of 2 fragments placed"),
        ("striped object with a part twice", "object 2: duplicate or missing fragment parts"),
        ("inconsistent parts counts", "object 2: inconsistent fragment counts"),
        ("striped parts with the wrong total", "object 2 placed with total size 40.0, "
         "catalog says 50.0"),
    ],
)
def test_broken_accounting_raises_same_message(breakage, message):
    layouts = _valid_layouts()
    if breakage == "whole object with the wrong size":
        layouts[T1] = [ObjectExtent(2, 0.0, 60.0)]
    elif breakage == "missing object":
        layouts[T1] = []
    elif breakage == "whole object on two tapes":
        layouts[T0].append(ObjectExtent(2, 300.0, 50.0))
    elif breakage == "striped object missing a part":
        layouts[T1] = [ObjectExtent(2, 0.0, 25.0, part=0, parts=2)]
    elif breakage == "striped object with a part twice":
        layouts[T1] = [ObjectExtent(2, 0.0, 25.0, part=0, parts=2)]
        layouts[T0].append(ObjectExtent(2, 300.0, 25.0, part=0, parts=2))
    elif breakage == "inconsistent parts counts":
        layouts[T1] = [ObjectExtent(2, 0.0, 25.0, part=0, parts=2)]
        layouts[T0].append(ObjectExtent(2, 300.0, 25.0, part=0, parts=1))
    else:
        layouts[T1] = [ObjectExtent(2, 0.0, 20.0, part=0, parts=2)]
        layouts[T0].append(ObjectExtent(2, 300.0, 20.0, part=1, parts=2))
    with pytest.raises(PlacementError, match=f"^{re.escape(message)}$"):
        _validate(layouts)
