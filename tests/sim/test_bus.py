"""Every emit site delivers exactly the fields its topic declares, and
only while its own topic has a subscriber.

``Simulator.on`` checks subscribers against
:data:`repro.sim.bus.TOPIC_FIELDS`; this checks the other side.  One
short critical-pressure session fires all 19 emit sites: every one of
the 16 topics, the three ``video.frame`` phases and both
``sched.preempt`` kinds.
"""

from collections import Counter, defaultdict

import pytest

from repro.core.session import StreamingSession
from repro.sim.bus import SCHED_PREEMPT, TOPIC_FIELDS, VIDEO_FRAME

#: Topics whose deliveries come in variants, and the field naming one.
VARIANT_FIELD = {VIDEO_FRAME: "phase", SCHED_PREEMPT: "kind"}


def _deliveries(topics):
    """Run the session with ``topics`` subscribed; return, per
    (topic, variant), the field sets delivered and the delivery count."""
    session = StreamingSession(
        device="nexus5", pressure="critical", resolution="480p",
        frame_rate=60, duration_s=4, seed=7,
    )
    fields_seen = defaultdict(set)
    counts = Counter()

    def strict(topic):
        def handler(time, **fields):
            variant = fields.get(VARIANT_FIELD.get(topic))
            fields_seen[topic, variant].add(tuple(sorted(fields)))
            counts[topic, variant] += 1
        return handler

    for topic in topics:
        session.device.sim.on(topic, strict(topic))
    session.run()
    return dict(fields_seen), counts


@pytest.fixture(scope="module")
def all_topics():
    return _deliveries(TOPIC_FIELDS)


def test_every_emit_site_delivers_exactly_its_declared_fields(all_topics):
    delivered, _counts = all_topics
    expected = {
        (topic, variant): {tuple(sorted(fields))}
        for topic, fields in TOPIC_FIELDS.items()
        for variant in {
            VIDEO_FRAME: ("decode", "render", "skip"),
            SCHED_PREEMPT: ("preempt", "rotate"),
        }.get(topic, (None,))
    }
    assert len(expected) == 19
    assert delivered == expected


@pytest.mark.parametrize("topic", sorted(TOPIC_FIELDS))
def test_each_topic_alone_gets_every_delivery(all_topics, topic):
    """An emit gated on another topic's subscribers fires only while
    that topic is subscribed too: alone, its topic loses deliveries."""
    _delivered, every = all_topics
    _fields, alone = _deliveries([topic])
    assert alone == Counter(
        {key: n for key, n in every.items() if key[0] == topic}
    )
