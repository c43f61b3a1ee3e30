"""Deterministic simulation harness for synthesized component systems.

Each component runs the send/receive loop of its automaton: at all-send
locations it picks an enabled send and performs the interaction (blocking
rendezvous for synchronous ports, buffered delivery with backpressure for
asynchronous ones); at receive locations it consumes the head of a port
queue; internal and silent transitions execute locally.

Logical concurrency is driven by a cooperative round-robin scheduler. On
its turn a component asks the system semantics for the steps it starts
(``cbs.component_steps``), drops those that backpressure refuses and takes
one of the rest; the run ends at the step limit or after a full round of
turns in which no component could move. Each step taken becomes one trace
line, read off the step's event: its rule and the ports of its label. All
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

from .cbs import (
    CompositeSystem, SysState, component_steps, is_terminal, sys_steps_tagged,
)
from .core import Event
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


def _event_line(step: int, actor: str, event: Event, succ: SysState,
                sys: CompositeSystem) -> str:
    """One trace line: the step's rule, the port ids of its label (none for
    a hidden step) and every component's location after it."""
    ports = sorted(event.label) if isinstance(event.label, frozenset) else []
    locs = {c.id: loc for c, loc in zip(sys.components, succ.locations)}
    return json.dumps(
        {"step": step, "comp": actor, "rule": event.rules[0], "ports": ports,
         "locations": locs},
        sort_keys=True, separators=(",", ":"))


def simulate(sys: CompositeSystem, seed: int, max_steps: int = 100_000,
             max_chan_len: int = MAX_LEN) -> RunResult:
    rngs = [random.Random(f"{seed}:{c.id}") for c in sys.components]
    state = sys.initial_state()
    events = []
    steps = idle = ci = 0
    # Round-robin turns; n idle turns in a row mean no component can move.
    while steps < max_steps and idle < len(sys.components):
        # Backpressure: refuse deliveries that would overfill a queue.
        mine = [step for step in component_steps(sys, state, ci)
                if all(len(q) <= max_chan_len for _, q in step[1].buffers)]
        if mine:
            event, succ = mine[rngs[ci].randrange(len(mine))]
            steps += 1
            events.append(_event_line(steps, sys.components[ci].id, event, succ, sys))
            state = succ
            idle = 0
        else:
            idle += 1
        ci = (ci + 1) % len(sys.components)

    succs = sys_steps_tagged(sys, state)
    if steps >= max_steps and succs:
        outcome = "step-limit"
    elif is_terminal(sys, state):
        outcome = "completed"
    elif succs:
        outcome = "backpressure"
    else:
        outcome = "deadlock"
    final = {k: state.sigma[k] for k in sorted(state.sigma.keys())}
    events.append(json.dumps(
        {"outcome": outcome, "steps": steps, "final": final},
        sort_keys=True, separators=(",", ":")))
    return RunResult(outcome=outcome, steps=steps, final=state, events=events)


def trace_text(result: RunResult) -> str:
    return "".join(line + "\n" for line in result.events)
