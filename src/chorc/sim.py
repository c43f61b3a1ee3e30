"""Deterministic simulation harness for synthesized component systems.

Each component runs the send/receive loop of its automaton: at all-send
locations it picks an enabled send and performs the interaction (blocking
rendezvous for synchronous ports, buffered delivery with backpressure for
asynchronous ones); at receive locations it consumes the head of a port
queue; internal and silent transitions execute locally.

Logical concurrency is driven by a cooperative round-robin scheduler. On
its turn a component asks the system semantics for the steps it starts,
through the successor function the explorer uses,
``cbs.sys_steps_tagged`` restricted to that component, drops those that
backpressure refuses and takes one of the rest; the run ends at the step
limit or after a full round of turns in which no component could move. A
component whose part has not changed since the semantics last found that
it starts nothing cannot move either, so the scheduler keeps every
component's cached steps (``cbs.known_steps``), which rule such a turn
out: it counts idle without asking. A step writes only the parts of its
actor and of that interaction's receivers, so the scheduler works per
step only on the components a successor moved or wrote to. It tests
only their buffers against the capacity: every other part is the
current state's, which passed that test when it was reached. Once it
takes the step, it reads only their cache entries afresh, and the asked
component's after each ask, and replaces only their fragments of the
trace line. The scheduler never
asks for a component whose turn it is not, so no guard runs that the
per-turn scheduler would not run. Each step taken becomes one trace
line, read off the step's event: its rule and the ports of its label.
The line is joined from JSON fragments that a per-run memo encodes once
each: every component's id, every (component position, location) pair
and every event's ports and rule. The run keeps one location fragment
per component in sorted component-id order, so the line is the one
``json.dumps(..., sort_keys=True)`` would write. All
remaining nondeterminism (which enabled step a component takes on its
turn) is resolved by a per-component PRNG seeded from the run seed, so a
given (system, seed) pair always reproduces the same trace byte for byte.
Every executed action is one step of the composite-system semantics, which
makes any reachable final state a member of the exhaustive exploration's
terminal set by construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import compress
from json.encoder import encode_basestring_ascii as _encode
from operator import is_not

from .cbs import CompositeSystem, SysState, is_terminal, known_steps, sys_steps_tagged
from .core import Event, Memo
from .promela import MAX_LEN


@dataclass
class RunResult:
    # "completed": every component at its end location, buffers empty;
    # "deadlock": the state has no successor and is not terminal;
    # "backpressure": every successor was refused because it would overfill
    #   a queue beyond max_chan_len;
    # "step-limit": max_steps were taken and the state still has successors.
    outcome: str
    steps: int
    final: SysState
    events: list = field(default_factory=list)  # serialized JSONL lines


def _fields(event: Event) -> str:
    """The "ports" and "rule" members of a step's trace line: the port ids
    of its label (none for a hidden step) and its rule."""
    ports = sorted(event.label) if isinstance(event.label, frozenset) else []
    return f'"ports":[{",".join(map(_encode, ports))}],"rule":{_encode(event.rules[0])}'


def simulate(sys: CompositeSystem, seed: int, max_steps: int = 100_000,
             max_chan_len: int = MAX_LEN) -> RunResult:
    rngs = [random.Random(f"{seed}:{c.id}") for c in sys.components]
    state = sys.initial_state()
    positions = sys._steps
    # A trace line is its actor's id, every component's location in id
    # order, its event's fields and the step number (see the docstring).
    n = len(sys.components)
    everyone = range(n)
    ids = [_encode(c.id) for c in sys.components]
    pairs = [Memo(lambda loc, key=key: f"{key}:{_encode(loc)}") for key in ids]
    order = sorted(everyone, key=lambda i: sys.components[i].id)
    rank = {i: r for r, i in enumerate(order)}  # position -> its index in locations
    locations = [pairs[i][state[i].loc] for i in order]
    fields = Memo(_fields)
    known = known_steps(sys, state)
    events = []
    steps = idle = ci = 0
    # Round-robin turns; n idle turns in a row mean no component can move.
    while steps < max_steps and idle < n:
        if known[ci] == ():  # a component known to start nothing makes no call
            idle += 1
            ci = (ci + 1) % n
            continue
        mine = []
        for step in sys_steps_tagged(sys, state, (ci,)):
            # Backpressure: refuse deliveries that would overfill a queue,
            # which only the parts the step moved can hold.
            succ = step[1]
            moved = [*compress(everyone, map(is_not, succ, state))]
            fits = True
            for j in moved:
                for _, q in succ[j].queues:
                    if len(q) > max_chan_len:
                        fits = False
            if fits:
                mine.append((step, moved))
        known[ci] = positions[ci].get(state[ci])  # the ask filled it
        if mine:
            (event, succ), moved = mine[rngs[ci].randrange(len(mine))]
            steps += 1
            for j in moved:
                part = succ[j]
                locations[rank[j]] = pairs[j][part.loc]
                known[j] = positions[j].get(part)
            events.append(f'{{"comp":{ids[ci]},"locations":{{{",".join(locations)}}},'
                          f'{fields[event]},"step":{steps}}}')
            state = succ
            idle = 0
        else:
            idle += 1
        ci = (ci + 1) % n

    succs = sys_steps_tagged(sys, state)
    if steps >= max_steps and succs:
        outcome = "step-limit"
    elif is_terminal(sys, state):
        outcome = "completed"
    elif succs:
        outcome = "backpressure"
    else:
        outcome = "deadlock"
    sigma = state.sigma
    final = {k: sigma[k] for k in sorted(sigma.keys())}
    events.append(json.dumps(
        {"outcome": outcome, "steps": steps, "final": final},
        sort_keys=True, separators=(",", ":")))
    return RunResult(outcome=outcome, steps=steps, final=state, events=events)


def trace_text(result: RunResult) -> str:
    return "".join(line + "\n" for line in result.events)
