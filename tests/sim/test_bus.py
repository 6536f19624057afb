"""Every emit site delivers exactly the fields its topic declares.

``Simulator.on`` checks subscribers against
:data:`repro.sim.bus.TOPIC_FIELDS`; this checks the other side.  One
short critical-pressure session fires all 19 emit sites: every one of
the 16 topics, the three ``video.frame`` phases and both
``sched.preempt`` kinds.
"""

from collections import defaultdict

from repro.core.session import StreamingSession
from repro.sim.bus import TOPIC_FIELDS


def test_every_emit_site_delivers_exactly_its_declared_fields():
    session = StreamingSession(
        device="nexus5", pressure="critical", resolution="480p",
        frame_rate=60, duration_s=4, seed=7,
    )
    #: (topic, phase or kind) -> the field sets delivered under it.
    delivered = defaultdict(set)

    def strict(topic):
        def handler(time, **fields):
            variant = fields["phase"] if topic == "video.frame" else (
                fields["kind"] if topic == "sched.preempt" else None
            )
            delivered[topic, variant].add(tuple(sorted(fields)))
        return handler

    for topic in TOPIC_FIELDS:
        session.device.sim.on(topic, strict(topic))
    session.run()

    expected = {
        (topic, variant): {tuple(sorted(fields))}
        for topic, fields in TOPIC_FIELDS.items()
        for variant in {
            "video.frame": ("decode", "render", "skip"),
            "sched.preempt": ("preempt", "rotate"),
        }.get(topic, (None,))
    }
    assert len(expected) == 19
    assert dict(delivered) == expected
