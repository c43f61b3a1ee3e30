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
it starts nothing cannot move either, so after each step the scheduler
reads every component's cached steps (``cbs.known_steps``), which rule
such a turn out: it counts idle without asking. The scheduler never asks
for a component whose turn it is not, so no guard runs that the per-turn
scheduler would not run. Each step taken becomes one trace
line, read off the step's event: its rule and the ports of its label. The
line is joined from JSON fragments that a per-run memo encodes once each:
every component's id, every (component position, location) pair and every
event's ports and rule, the pairs in sorted component-id order, so the
line is the one ``json.dumps(..., sort_keys=True)`` would write. All
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
    return f'"ports":[{",".join(map(json.dumps, ports))}],"rule":{json.dumps(event.rules[0])}'


def simulate(sys: CompositeSystem, seed: int, max_steps: int = 100_000,
             max_chan_len: int = MAX_LEN) -> RunResult:
    rngs = [random.Random(f"{seed}:{c.id}") for c in sys.components]
    state = sys.initial_state()
    # A trace line is its actor's id, every component's location in id
    # order, its event's fields and the step number (see the docstring).
    n = len(sys.components)
    ids = [json.dumps(c.id) for c in sys.components]
    pairs = [Memo(lambda loc, key=key: f"{key}:{json.dumps(loc)}") for key in ids]
    order = sorted(range(n), key=lambda i: sys.components[i].id)
    fields = Memo(_fields)
    known = known_steps(sys, state)
    events = []
    steps = idle = ci = 0
    # Round-robin turns; n idle turns in a row mean no component can move.
    while steps < max_steps and idle < n:
        # A component known to start nothing makes no call. Backpressure:
        # refuse deliveries that would overfill a queue.
        mine = known[ci] != () and [
            step for step in sys_steps_tagged(sys, state, (ci,))
            if all(len(q) <= max_chan_len for part in step[1] for _, q in part.queues)]
        if mine:
            event, succ = mine[rngs[ci].randrange(len(mine))]
            steps += 1
            locations = ",".join([pairs[i][succ[i].loc] for i in order])
            events.append(f'{{"comp":{ids[ci]},"locations":{{{locations}}},'
                          f'{fields[event]},"step":{steps}}}')
            state = succ
            known = known_steps(sys, state)
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
