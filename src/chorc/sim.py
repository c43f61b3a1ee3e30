"""Deterministic simulation harness for synthesized component systems.

Each component runs the send/receive loop of its automaton: at all-send
locations it picks an enabled send and performs the interaction (blocking
rendezvous for synchronous ports, buffered delivery with backpressure for
asynchronous ones); at receive locations it consumes the head of a port
queue; internal and silent transitions execute locally.

Logical concurrency is driven by a cooperative round-robin scheduler. All
remaining nondeterminism (which enabled action a component takes on its
turn) is resolved by a per-component PRNG seeded from the run seed, so a
given (system, seed) pair always reproduces the same trace byte for byte.
Every executed action is one step of the composite-system semantics, which
makes any reachable final state a member of the exhaustive exploration's
terminal set by construction.

The successors of a state are computed once, when the scheduler first
needs them: the steps that backpressure does not refuse are split, in
successor order, into one list per component that initiates them (the
sender of an interaction, the moving component of a local step). Each turn
is then a lookup of the turn's component in those lists; they are dropped
when a step moves the system to a new state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .cbs import CompositeSystem, SysState, is_terminal, sys_steps_tagged
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


def _event_line(step: int, actor: str, rule: str, label, succ: SysState,
                sys: CompositeSystem) -> str:
    ports = sorted(label) if isinstance(label, frozenset) else []
    locs = {c.id: loc for c, loc in zip(sys.components, succ.locations)}
    return json.dumps(
        {"step": step, "comp": actor, "rule": rule, "ports": ports,
         "locations": locs},
        sort_keys=True, separators=(",", ":"))


def simulate(sys: CompositeSystem, seed: int, max_steps: int = 100_000,
             max_chan_len: int = MAX_LEN, collect_events: bool = True) -> RunResult:
    rngs = {c.id: random.Random(f"{seed}:{c.id}") for c in sys.components}
    # Send port id -> id of the first component that owns it.
    senders = {}
    for c in sys.components:
        for p in c.ports:
            if p.is_send:
                senders.setdefault(p.pid, c.id)

    def actor(src: SysState, rule, label, succ) -> str:
        """Component that initiated a step from ``src``: the owner of the
        label's send port, or for a local step the first component whose
        location changed."""
        if rule in ("recv", "internal"):
            for comp, before, after in zip(sys.components, src.locations,
                                           succ.locations):
                if before != after:
                    return comp.id
            raise AssertionError("local step moved no component")
        return next(senders[pid] for pid in label if pid in senders)

    state = sys.initial_state()
    succs = by_actor = None  # successors of ``state``, computed on demand
    events = []
    steps = 0
    order = [c.id for c in sys.components]

    while steps < max_steps:
        progressed = False
        for cid in order:
            if steps >= max_steps:
                break
            if by_actor is None:
                succs = sys_steps_tagged(sys, state)
                by_actor = {}
                for step in succs:
                    # Backpressure: refuse deliveries that would overfill a queue.
                    if any(len(q) > max_chan_len for _, q in step[2].buffers):
                        continue
                    by_actor.setdefault(actor(state, *step), []).append(step)
            mine = by_actor.get(cid)
            if not mine:
                continue
            rule, label, succ = mine[rngs[cid].randrange(len(mine))]
            steps += 1
            if collect_events:
                events.append(_event_line(steps, cid, rule, label, succ, sys))
            state = succ
            succs = by_actor = None
            progressed = True
        if not progressed:
            break

    if succs is None:
        succs = sys_steps_tagged(sys, state)
    if steps >= max_steps and succs:
        outcome = "step-limit"
    elif is_terminal(sys, state):
        outcome = "completed"
    elif succs:
        outcome = "backpressure"
    else:
        outcome = "deadlock"
    if collect_events:
        final = {k: state.sigma[k] for k in sorted(state.sigma.keys())}
        events.append(json.dumps(
            {"outcome": outcome, "steps": steps, "final": final},
            sort_keys=True, separators=(",", ":")))
    return RunResult(outcome=outcome, steps=steps, final=state, events=events)


def trace_text(result: RunResult) -> str:
    return "".join(line + "\n" for line in result.events)
