"""Trace bus subscription and recording."""

from repro.sim.tracing import TraceBus


def test_inactive_bus_drops_records():
    bus = TraceBus()
    bus.publish(1.0, "net.drop", reason="test")  # must not raise
    assert not bus.active


def test_exact_subscription():
    bus = TraceBus()
    seen = []
    bus.subscribe("net.drop", seen.append)
    bus.publish(1.0, "net.drop", reason="x")
    bus.publish(2.0, "sched.pick")
    assert len(seen) == 1
    assert seen[0].data["reason"] == "x"


def test_prefix_subscription():
    bus = TraceBus()
    seen = []
    bus.subscribe("net", seen.append)
    bus.publish(1.0, "net.drop")
    bus.publish(2.0, "net.enqueue")
    bus.publish(3.0, "sched.pick")
    assert [r.category for r in seen] == ["net.drop", "net.enqueue"]


def test_wildcard_subscription():
    bus = TraceBus()
    seen = []
    bus.subscribe("*", seen.append)
    bus.publish(1.0, "a")
    bus.publish(2.0, "b.c")
    assert len(seen) == 2


def test_recording_filters_by_category():
    bus = TraceBus()
    captured = bus.record(categories=["sched"])
    bus.publish(1.0, "sched.pick", entity="t1")
    bus.publish(2.0, "net.drop")
    records = bus.stop_recording()
    assert records is captured
    assert [r.category for r in records] == ["sched.pick"]


def test_recording_all():
    bus = TraceBus()
    bus.record()
    bus.publish(1.0, "anything")
    assert len(bus.stop_recording()) == 1


def test_stop_recording_without_start():
    bus = TraceBus()
    assert bus.stop_recording() == []


def test_publish_memoizes_matched_handlers():
    bus = TraceBus()
    seen = []
    bus.subscribe("net", seen.append)
    bus.publish(1.0, "net.drop")
    assert "net.drop" in bus._match_cache
    assert bus._match_cache["net.drop"] == (seen.append,)
    # Non-matching categories memoize an empty handler tuple too.
    bus.publish(2.0, "sched.pick")
    assert bus._match_cache["sched.pick"] == ()
    assert [r.category for r in seen] == ["net.drop"]


def test_subscribe_invalidates_match_cache():
    bus = TraceBus()
    first, second = [], []
    bus.subscribe("net", first.append)
    bus.publish(1.0, "net.drop")  # memoizes net.drop -> (first.append,)
    bus.subscribe("net.drop", second.append)
    bus.publish(2.0, "net.drop")
    assert len(first) == 2
    assert len(second) == 1  # the late subscriber sees post-subscribe records


def test_memoized_dispatch_preserves_subscription_order():
    bus = TraceBus()
    order = []
    bus.subscribe("net", lambda r: order.append("prefix"))
    bus.subscribe("*", lambda r: order.append("wildcard"))
    bus.subscribe("net.drop", lambda r: order.append("exact"))
    bus.publish(1.0, "net.drop")
    bus.publish(2.0, "net.drop")  # second publish runs through the memo
    assert order == ["prefix", "wildcard", "exact"] * 2


def test_subscribe_during_publish_is_safe_and_takes_effect_next_publish():
    """A handler may subscribe new handlers mid-publish.

    The in-flight dispatch iterates a memoized tuple snapshot, so the
    mutation must neither raise nor deliver the current record to the
    new subscriber -- but the very next publish must reach it (the
    subscribe invalidated the memo even though a publish was live).
    """
    bus = TraceBus()
    late = []

    def self_extending(record):
        if not late:  # subscribe exactly once, from inside dispatch
            bus.subscribe("net", late.append)
            late.append(None)  # sentinel: subscription happened

    bus.subscribe("net", self_extending)
    bus.publish(1.0, "net.drop")  # triggers the mid-publish subscribe
    assert late == [None]  # current record NOT delivered to late sub
    bus.publish(2.0, "net.drop")
    assert len(late) == 2  # next record IS delivered
    assert late[1].time == 2.0


def test_subscribe_same_category_during_publish_does_not_mutate_live_tuple():
    """The memoized handler tuple must be a snapshot, not an alias of
    the live subscriber list: appending to `_subscribers[key]` from a
    handler must not grow the sequence publish() is iterating."""
    bus = TraceBus()
    calls = []

    def handler_a(record):
        calls.append("a")
        # Appends to the same subscription key mid-dispatch.
        bus.subscribe("x", lambda r: calls.append("b"))

    bus.subscribe("x", handler_a)
    bus.publish(1.0, "x")
    # Exactly one call: handler_b must not run for the record that was
    # in flight when it subscribed.
    assert calls == ["a"]
    bus.publish(2.0, "x")
    assert calls == ["a", "a", "b"]


def test_recording_category_match_is_memoized_and_reset():
    bus = TraceBus()
    bus.record(categories=["sched"])
    bus.publish(1.0, "sched.pick")
    bus.publish(2.0, "net.drop")
    assert bus._record_match_cache == {"sched.pick": True, "net.drop": False}
    records = bus.stop_recording()
    assert [r.category for r in records] == ["sched.pick"]
    # A new recording with different categories must not reuse the memo.
    bus.record(categories=["net"])
    bus.publish(3.0, "net.drop")
    assert [r.category for r in bus.stop_recording()] == ["net.drop"]


def test_active_follows_subscribe_record_and_stop():
    """``active`` is a plain attribute kept by the three mutators, and
    ``publish`` does nothing while it is off."""
    bus = TraceBus()
    assert bus.active is False
    captured = bus.record()
    assert bus.active is True
    bus.stop_recording()
    assert bus.active is False
    bus.publish(1.0, "net.drop")  # off again: nothing is kept
    assert captured == []
    seen = []
    bus.subscribe("net", seen.append)
    assert bus.active is True
    bus.record(categories=["sched"])
    bus.stop_recording()
    assert bus.active is True  # the subscriber is still attached
    bus.publish(2.0, "net.drop")
    assert [record.category for record in seen] == ["net.drop"]
