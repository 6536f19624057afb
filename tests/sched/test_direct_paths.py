"""The scheduler's direct paths change its code paths, not its decisions.

``Scheduler.post`` wakes a sleeping thread straight onto an idle core,
and ``Scheduler._slice_end`` sleeps a finished thread, or re-arms an
unfinished slice, without the rotation logic.  Random ``post``,
``post_io`` (and so ``io_complete``), ``kill`` and ``pin_to`` sequences
on a bare scheduler must come out exactly as they do on the explicit
routes of :mod:`tests.sched.explicit_routes`: the same completion order
and times, per-core busy time, switch, preemption and elision counts,
and per-thread state totals.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sched import SchedClass, Scheduler, make_cores
from repro.sim import Simulator

from .explicit_routes import use_explicit_routes

#: Unequal clocks, so slices end on rounding residues as well as on
#: completions and quantum expiries.
FREQS = (1.0, 1.7, 2.26)

op_strategy = st.tuples(
    st.sampled_from(("post", "post_chain", "post_io", "kill", "pin_to")),
    st.integers(min_value=0, max_value=5),          # thread index
    st.integers(min_value=1, max_value=14_000),     # work ref-us / io delay
    st.integers(min_value=0, max_value=25_000),     # start time
    st.integers(min_value=1, max_value=7),          # pin_to core mask
)

workload_strategy = st.fixed_dictionaries({
    "n_cores": st.integers(min_value=1, max_value=3),
    "classes": st.lists(
        st.sampled_from(list(SchedClass)[:3]), min_size=6, max_size=6
    ),
    "ops": st.lists(op_strategy, min_size=1, max_size=30),
})


def _run(workload):
    sim = Simulator(seed=1)
    sched = Scheduler(sim, make_cores(list(FREQS[:workload["n_cores"]])))
    threads = [
        sched.spawn(f"t{i}", cls) for i, cls in enumerate(workload["classes"])
    ]
    completions = []

    def done(tag):
        return lambda: completions.append((tag, sim.now))

    def apply(n, kind, index, amount, mask):
        thread = threads[index]
        tag = f"{n}:{kind}"
        if kind == "post":
            # Odd work amounts post without a callback, so completions
            # take the direct sleep path as well as the general one.
            thread.post(amount / 3, done(tag) if amount % 2 else None)
        elif kind == "post_chain":
            # The completion re-enters the scheduler with a wakeup.
            other = threads[(index + 1) % len(threads)]

            def chain():
                completions.append((tag, sim.now))
                other.post(amount / 7)

            thread.post(amount, chain)
        elif kind == "post_io":
            thread.post_io(
                lambda: sim.schedule(amount, sched.io_complete, thread),
                done(tag),
            )
            thread.post(amount / 5)
        elif kind == "kill":
            sched.kill(thread)
        else:
            cores = range(workload["n_cores"])
            thread.pin_to([core for core in cores if mask >> core & 1] or [cores[-1]])

    for n, (kind, index, amount, at, mask) in enumerate(workload["ops"]):
        sim.schedule(at, apply, n, kind, index, amount, mask)
    sim.run()
    return {
        "completions": completions,
        "busy": [core.busy_time for core in sched.cores],
        "switches": sched.context_switches,
        "preemptions": sched.preemption_count,
        "elided": sched.elided_slices,
        "states": [
            (t.name, t.state, dict(t.accounting.totals)) for t in threads
        ],
        "end": sim.now,
    }


#: A waiter that ``pin_to`` widened onto an idle core is still queued
#: when another thread wakes: the waiter must get that core, so the
#: wakeup fast path may only run with every runqueue empty.
WIDENED_WAITER = {
    "n_cores": 2,
    "classes": [SchedClass.FOREGROUND] * 6,
    "ops": [
        ("post", 1, 10_000, 0, 1),     # t1 takes the faster core 1
        ("pin_to", 0, 1, 0, 0b10),     # t0 may use core 1 only
        ("post", 0, 5_000, 1, 1),      # ... so it queues behind t1
        ("pin_to", 0, 1, 2, 0b11),     # widened; core 0 sits idle
        ("post", 2, 100, 3, 1),        # a new wakeup
    ],
}


@settings(max_examples=150, deadline=None)
@given(workload=workload_strategy)
@example(workload=WIDENED_WAITER)
def test_direct_paths_match_explicit_routes(workload):
    direct = _run(workload)
    with pytest.MonkeyPatch.context() as patch:
        use_explicit_routes(patch)
        explicit = _run(workload)
    assert direct == explicit
