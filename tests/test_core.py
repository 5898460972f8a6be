import inspect
import math

import pytest
from hypothesis import given, strategies as st

from dynbin.algorithms import DelayPolicy
from dynbin.core import (
    Instance,
    Item,
    UnresolvedDurationError,
    read_jsonl,
    validate,
    vol,
    with_durations,
    write_jsonl,
)
from dynbin.engine import LedgerEntry, simulate
from references import mu, span


def make(items, scale=4, **kw):
    return Instance(items=tuple(items), scale=scale, **kw)


class TestItem:
    def test_departure(self):
        assert Item(0, 2.0, 1, 3.0).departure == 5.0

    def test_deferred_departure_raises(self):
        with pytest.raises(UnresolvedDurationError):
            Item(0, 0.0, 1, None).departure


class TestVolSpan:
    def test_vol(self):
        inst = make([Item(0, 0.0, 2, 3.0), Item(1, 1.0, 1, 4.0)])
        assert vol(inst) == 2 / 4 * 3 + 1 / 4 * 4

    def test_span_merges_half_open_abutment(self):
        # [0,1) and [1,2) leave no gap
        inst = make([Item(0, 0.0, 1, 1.0), Item(1, 1.0, 1, 1.0)])
        assert span(inst) == 2.0

    def test_span_with_gap(self):
        inst = make([Item(0, 0.0, 1, 1.0), Item(1, 5.0, 1, 2.0)])
        assert span(inst) == 3.0

    def test_deferred_raises(self):
        inst = make([Item(0, 0.0, 1, None)])
        with pytest.raises(UnresolvedDurationError):
            vol(inst)
        with pytest.raises(UnresolvedDurationError):
            span(inst)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0.01, 50, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_span_bounds(self, windows):
        items = [Item(i, a, 1, d) for i, (a, d) in enumerate(windows)]
        inst = make(items)
        s = span(inst)
        assert max(d for _, d in windows) <= s + 1e-9
        assert s <= sum(d for _, d in windows) + 1e-9


def test_mu():
    inst = make([Item(0, 0.0, 1, 2.0), Item(1, 0.0, 1, 8.0)])
    assert mu(inst) == 4.0


def test_with_durations():
    inst = make([Item(0, 0.0, 1, None), Item(1, 0.0, 1, 2.0)])
    resolved = with_durations(inst, {0: 5.0})
    assert not resolved.has_deferred()
    assert resolved.items[0].duration == 5.0
    assert resolved.items[1].duration == 2.0


def test_value_types_keep_their_contract():
    item = Item(0, 1.0, 2)
    entry = LedgerEntry(1.0, 0, 2, 0, 1, "class:0", "rule")
    for value, name in ((item, "duration"), (entry, "time")):
        with pytest.raises(AttributeError):
            setattr(value, name, 5.0)
    assert item.deferred
    with pytest.raises(UnresolvedDurationError):
        item.departure

    inst = make([Item(3, 0.0, 1, None), Item(7, 1.0, 2, 2.0), Item(5, 2.0, 1, None)])
    resolved = with_durations(inst, {3: 4.0, 7: 9.0, 5: 1.5})
    assert [it.id for it in resolved.items] == [3, 7, 5]
    assert [it.duration for it in resolved.items] == [4.0, 2.0, 1.5]
    fixed = [(it.id, it.arrival, it.size_num) for it in resolved.items]
    assert fixed == [(it.id, it.arrival, it.size_num) for it in inst.items]

    # d=25, C=100: two migrations, so two ledger rows
    one = make([Item(0, 0.0, 1, 25.0)], scale=2)
    result = simulate(one, DelayPolicy(100.0), delay_cost=100.0)
    fields = list(inspect.signature(LedgerEntry).parameters)
    assert fields == ["time", "item", "size_num", "source", "destination", "class_key", "rule"]
    rows = result.to_dict()["ledger"]
    assert len(rows) == 2
    assert rows == [[getattr(e, name) for name in fields] for e in result.ledger.entries]


def test_with_durations_missing_id():
    inst = make([Item(0, 0.0, 1, None)])
    with pytest.raises(UnresolvedDurationError):
        with_durations(inst, {})


class TestValidate:
    def test_clean(self):
        assert validate(make([Item(0, 0.0, 1, 1.0)])) == []

    def test_duplicate_id(self):
        bad = make([Item(0, 0.0, 1, 1.0), Item(0, 1.0, 1, 1.0)])
        assert any("duplicate id" in v for v in validate(bad))

    def test_oversize_and_nonpositive(self):
        bad = make([Item(0, 0.0, 9, 1.0), Item(1, 0.0, 0, 1.0)])
        msgs = validate(bad)
        assert any("exceeds bin capacity" in v for v in msgs)
        assert any("size must be positive" in v for v in msgs)

    def test_negative_times(self):
        bad = make([Item(0, -1.0, 1, 0.0)])
        msgs = validate(bad)
        assert any("negative arrival" in v for v in msgs)
        assert any("duration must be positive" in v for v in msgs)

    @pytest.mark.parametrize(
        "item, problems",
        [
            (Item(4, 0.0, 1, math.inf), ["item 4: duration must be finite"]),
            (Item(4, math.inf, 1, 1.0), ["item 4: arrival must be finite"]),
            (Item(4, math.inf, 1, math.inf),
             ["item 4: arrival must be finite", "item 4: duration must be finite"]),
            (Item(4, -math.inf, 1, -math.inf),
             ["item 4: negative arrival", "item 4: duration must be positive"]),
            (Item(4, math.nan, 1, math.nan),
             ["item 4: arrival is NaN", "item 4: duration must be positive"]),
            (Item(4, math.inf, 1, None), ["item 4: arrival must be finite"]),
        ],
    )
    def test_times_must_be_finite(self, item, problems):
        # each item's findings in order: arrival, then duration
        assert validate(make([Item(0, 0.0, 1, 1.0), item])) == problems


def test_jsonl_roundtrip(tmp_path):
    inst = make(
        [Item(0, 0.0, 2, 1.5), Item(1, 0.25, 1, None)],
        seed=7,
        adversary={"name": "longest-per-bin", "mu": 5.0, "long_count": 2},
        rng="python-random-mt19937",
    )
    path = tmp_path / "inst.jsonl"
    write_jsonl(inst, path)
    back = read_jsonl(path)
    assert back == inst
