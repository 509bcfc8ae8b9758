"""Unit tests for SubscriptionFilter: epochs, control passthrough, keys.

Row by row, a filter is its :meth:`~SubscriptionFilter.select` on a one-row block.
"""

import pytest

from repro.deploy import SubscriptionFilter
from repro.errors import ConfigurationError
from repro.spe.tuples import StreamTuple, TupleBlock


def even(values):
    return values["seq"] % 2 == 0


def odd(values):
    return values["seq"] % 2 == 1


def stable(seq, stime):
    return StreamTuple.insertion(tuple_id=seq, stime=stime, values={"seq": seq})


def kept(filt, item):
    """Whether ``item`` reaches ``filt``'s consumer: a one-row select."""
    selected = filt.select(TupleBlock.of((item,)))
    assert len(selected) <= 1
    assert filt.passes(item) == bool(selected)
    return bool(selected)


def test_initial_epoch_governs_everything():
    filt = SubscriptionFilter(even, name="shard1.slice")
    assert kept(filt, stable(2, 0.5))
    assert not kept(filt, stable(3, 99.0))
    assert filt.epochs == 1


def test_control_tuples_always_pass():
    filt = SubscriptionFilter(lambda values: False, name="never")
    assert kept(filt, StreamTuple.boundary(tuple_id=0, stime=1.0))
    assert kept(filt, StreamTuple.undo(tuple_id=1, stime=1.0, undo_from_id=0))
    assert kept(filt, StreamTuple.rec_done(tuple_id=2, stime=1.0))
    assert not kept(filt, stable(0, 1.0))


def test_advance_installs_predicate_from_cut_stime():
    filt = SubscriptionFilter(even, name="shard1.slice")
    filt.advance(10.0, odd)
    # Below the cut the old epoch still routes; at and above, the new one.
    assert kept(filt, stable(2, 9.999))
    assert not kept(filt, stable(3, 9.999))
    assert kept(filt, stable(3, 10.0))
    assert not kept(filt, stable(2, 10.0))
    assert filt.epochs == 2


def test_tentative_tuples_use_their_stime_epoch():
    filt = SubscriptionFilter(even, name="s")
    filt.advance(5.0, odd)
    tentative_old = StreamTuple.tentative(tuple_id=0, stime=4.0, values={"seq": 2})
    tentative_new = StreamTuple.tentative(tuple_id=1, stime=6.0, values={"seq": 2})
    assert kept(filt, tentative_old)
    assert not kept(filt, tentative_new)


def test_key_changes_on_advance_so_batches_never_mix_epochs():
    filt = SubscriptionFilter(even, name="shard1.slice")
    before = filt.key
    filt.advance(3.0, odd)
    assert filt.key != before


def test_cut_must_move_forward():
    filt = SubscriptionFilter(even, name="s")
    filt.advance(5.0, odd)
    with pytest.raises(ConfigurationError, match="advance"):
        filt.advance(5.0, even)
    with pytest.raises(ConfigurationError, match="advance"):
        filt.advance(4.0, even)


def test_name_required():
    with pytest.raises(ConfigurationError):
        SubscriptionFilter(even, name="")
