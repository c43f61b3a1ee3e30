"""Oracle tests for the choreography small-step semantics.

Each named rule has a dedicated test whose expected successor set is written
out by hand against the definitions; the final test measures rule-tag
coverage over the whole corpus.
"""

import dataclasses
import os
import re
import subprocess
import sys
from typing import NamedTuple, Optional

import pytest

from chorc import chorsem
from chorc.chorsem import TAU, Running, chor_steps_tagged, explore, lts_to_dot
from chorc.cbs import CompositeSystem, sys_explore
from chorc.core import BinOp, EvalError, Event, Lit, Ref, Update, Valuation, explore_lts
from chorc.lang import Branch, Chor, Comm, Loop, Nil, Par, Seq, check_well_formed, faults
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, SynthError, synthesize
from chorc.verify import equiv_check

from conftest import CHOR_RULES, ROOT, generated, load_stem

DECLS = """
comp A {
  var x: int = 2;
  var b: bool = true;
  port p: ss of int binds x;
  port a: as of int binds x;
  port d: ss of bool binds b;
}
comp B {
  var y: int = 0;
  var c: bool = true;
  port r: r of int binds y;
  port s: ss of int binds y;
  port d: ss of bool binds c;
}
comp C {
  var z: int = 0;
  port r: r of int binds z;
}
comp D {
  var w: int = 0;
  port r: r of int binds w;
  port s: ss of int binds w;
}
"""


def setup(body):
    decl, _, ch = parse_source(DECLS + f"choreography t = {body}")
    return ch, decl.initial_valuation()


def terminated(config):
    """Whether a configuration, partitioned or flat, is final: its term has
    terminated and its pool is empty."""
    return config.term is None and not config.pending


def steps(body):
    ch, sigma = setup(body)
    return chor_steps_tagged(Running(ch, sigma)), sigma


class TestNil:
    def test_nil_terminates_silently(self):
        succs, sigma = steps("nil")
        assert succs == [(Event(("nil",), (), TAU), Running(None, sigma))]


class TestSynchSendRcv:
    def test_transfer_then_sender_then_receiver_updates(self):
        succs, sigma = steps("A.p[x > 0, x := x - 1] -> { B.r[y := y * 10] }")
        assert len(succs) == 1
        event, succ = succs[0]
        assert event.rules == ("synch-sendrcv",)
        assert event.label == frozenset({"A.p", "B.r"})
        assert [p.pid for p in event.ports] == ["A.p", "B.r"]
        # y receives x=2, then the sender update runs, then the receiver's.
        expect = sigma.set("B.y", 20).set("A.x", 1)
        assert succ == Running(None, expect)

    def test_false_guard_blocks(self):
        succs, _ = steps("A.p[x < 0] -> { B.r }")
        assert succs == []

    def test_multicast(self):
        succs, sigma = steps("A.p -> { B.r, C.r }")
        (event, succ), = succs
        assert event.label == frozenset({"A.p", "B.r", "C.r"})
        assert succ == Running(None, sigma.set("B.y", 2).set("C.z", 2))


class TestAsynchSendRcv1:
    def test_send_captures_value_before_sender_update(self):
        succs, sigma = steps("A.a[x > 0, x := 0] -> { B.r[y := y + 1] }")
        (event, succ), = succs
        assert event.rules == ("asynch-sendrcv-1",)
        assert event.label == frozenset({"A.a"})  # receivers are not synchronized
        assert isinstance(succ, Running) and succ.term is None
        assert succ.sigma["A.x"] == 0  # sender update applied
        ((comp, queue),) = succ.pending
        assert comp == "B"  # queued for the receiving component
        (receipt, value), = queue
        assert receipt.port.pid == "B.r"
        assert value == 2  # captured before x := 0

    def test_two_sends_queue_fifo(self):
        succs, _ = steps("A.a[true, x := x + 1] -> { B.r } ; A.a -> { B.r }")
        (_, mid), = succs
        succs2 = chor_steps_tagged(mid)
        send2 = [s for e, s in succs2 if "asynch-sendrcv-1" in e.rules]
        assert send2, "second send must be possible before delivery"
        ((chan, queue),) = send2[0].pending
        # First send captures x=2 before its own update; the second sees 3.
        assert [val for _, val in queue] == [2, 3]


class TestAsynchSendRcv2:
    def test_delivery_sets_variable_then_update(self):
        succs, _ = steps("A.a -> { B.r[y := y + 1] }")
        (_, mid), = succs
        succs2 = chor_steps_tagged(mid)
        (event, succ), = succs2
        assert event.rules == ("asynch-sendrcv-2",)
        assert event.label == frozenset({"B.r"})
        assert succ.term is None and succ.pending == ()
        assert succ.sigma["B.y"] == 3  # y := 2 then y := y + 1

    def test_only_queue_heads_are_deliverable(self):
        succs, _ = steps("A.a[true, x := 5] -> { B.r } ; A.a -> { B.r }")
        (_, mid), = succs
        # Take the second send as well: queue now holds [2, 5].
        send2 = [s for e, s in chor_steps_tagged(mid)
                 if "asynch-sendrcv-1" in e.rules]
        state = send2[0]
        deliveries = [s for e, s in chor_steps_tagged(state)
                      if e.rules == ("asynch-sendrcv-2",)]
        assert len(deliveries) == 1  # one channel, one head
        assert deliveries[0].sigma["B.y"] == 2

    def test_final_only_when_pool_drains(self):
        succs, _ = steps("A.a -> { B.r } ; A.a -> { C.r }")
        (_, s1), = succs
        # Deliver to B before the second send: still Running (term remains).
        d = [s for e, s in chor_steps_tagged(s1)
             if e.rules == ("asynch-sendrcv-2",)]
        assert all(isinstance(s, Running) for s in d)


class TestReceiverOrder:
    """A component with a pending delivery consumes it before it acts."""

    def test_receiver_sends_only_after_its_delivery(self):
        succs, _ = steps("A.a -> { B.r } ; B.s -> { C.r }")
        (_, mid), = succs
        (event, succ), = chor_steps_tagged(mid)
        assert event.rules == ("asynch-sendrcv-2",) and succ.pending == ()
        (event, _), = chor_steps_tagged(succ)
        assert event.rules == ("synch-sendrcv",)

    def test_others_move_ahead_of_a_delivery(self):
        succs, _ = steps("A.a -> { B.r } ; D.s -> { C.r }")
        (_, mid), = succs
        assert {e.rules[-1] for e, _ in chor_steps_tagged(mid)} == \
            {"asynch-sendrcv-2", "synch-sendrcv"}

    def test_loop_exit_waits_for_the_delivery(self):
        """A loop's exit moves no port but is its master's step: it waits
        for the master's pending delivery, whose value decides the loop."""
        decl, _, ch = parse_source(LOOP_AFTER_DELIVERY)
        sigma = decl.initial_valuation()
        assert [d for d in check_well_formed(decl, ch) if d.severity == "error"] == []
        keys = ("A.x", "B.k", "C.z")
        assert {tuple(f[k] for k in keys) for f in explore(ch, sigma).finals} == {(0, 2, 2)}
        for profile in PROFILES:
            report = equiv_check(decl, ch, synthesize(decl, ch, profile))
            assert report.verdict == "equivalent", (profile, report.reasons)


#: A loop whose master receives the value that decides it: exiting at once
#: with the initial ``k`` is not a run of any component.
LOOP_AFTER_DELIVERY = """
comp A { var x: int = 0; port a: as of int binds x; }
comp B { var k: int = 5; port q: r of int binds k; port c: ss of int binds k;
         port s: ss of int binds k; }
comp C { var z: int = 0; port r: r of int binds z; }
choreography c = A.a -> { B.q } ; while (B.c[k < 2, k := k + 1]) { B.s -> { C.r } }
"""


class TestMasterBranching:
    def test_only_true_guards_offered(self):
        succs, _ = steps(
            "choice A { A.d[b] => nil | A.d[not b] => A.p -> { B.r } }")
        assert len(succs) == 1
        event, succ = succs[0]
        assert event.rules == ("master-branching",)
        assert event.label == frozenset({"A.d"})

    def test_nondeterministic_when_both_hold(self):
        succs, _ = steps("choice A { A.d => nil | A.d => nil }")
        assert len(succs) == 2

    def test_choice_update_applied(self):
        succs, sigma = steps("choice A { A.d[b, b := not b] => nil }")
        (_, succ), = succs
        assert succ.sigma["A.b"] is False


class TestIterative:
    def test_true_guard_unfolds_to_seq(self):
        succs, sigma = steps("while (A.p[x > 0, x := x - 1]) { B.s -> { C.r } }")
        (event, succ), = succs
        assert event.rules == ("iterative-tt",)
        assert event.label == frozenset({"A.p"})
        assert isinstance(succ.term, Seq)
        assert succ.sigma["A.x"] == 1

    def test_false_guard_terminates(self):
        succs, sigma = steps("while (A.p[x < 0]) { B.s -> { C.r } }")
        (event, succ), = succs
        assert event.rules == ("iterative-ff",)
        assert event.label == TAU and event.ports == ()
        assert succ == Running(None, sigma)


class TestSequential:
    def test_seq1_first_keeps_running(self):
        succs, _ = steps(
            "( A.p -> { B.r } ; B.s -> { C.r } ) ; D.s -> { C.r }")
        (event, succ), = succs
        assert event.rules == ("sequential-1", "sequential-2", "synch-sendrcv")
        assert isinstance(succ.term, Seq)

    def test_seq2_first_terminates(self):
        succs, _ = steps("A.p -> { B.r } ; B.s -> { C.r }")
        (event, succ), = succs
        assert event.rules == ("sequential-2", "synch-sendrcv")
        # The residual term is exactly the second operand.
        assert succ.term == setup("B.s -> { C.r }")[0]


class TestParallel:
    def test_par1_and_par2_interleave_independent_operands(self):
        succs, _ = steps(
            "( A.p -> { B.r } ; B.s -> { A.p } ) || ( C.r ; nil )"
            .replace("( C.r ; nil )", "( while (D.s[w < 1, w := w + 1]) { D.s -> { C.r } } ; nil )"))
        chains = {e.rules[0] for e, _ in succs}
        assert "parallel-1" in chains and "parallel-2" in chains

    def test_par3_left_terminates_to_right(self):
        succs, _ = steps("( A.p -> { B.r } ) || ( D.s -> { C.r } )")
        left = [s for e, s in succs if e.rules[0] == "parallel-3"]
        assert left and left[0].term == setup("D.s -> { C.r }")[0]

    def test_par4_right_terminates_to_left(self):
        succs, _ = steps("( A.p -> { B.r } ) || ( D.s -> { C.r } )")
        right = [s for e, s in succs if e.rules[0] == "parallel-4"]
        assert right and right[0].term == setup("A.p -> { B.r }")[0]

    def test_dependent_operands_run_left_first(self):
        # Both operands involve A: only the left may move.
        succs, _ = steps("( A.p -> { B.r } ) || ( A.p -> { C.r } )")
        assert {e.rules[0] for e, _ in succs} == {"parallel-3"}


class TestBruteForceCrossCheck:
    def brute(self, ch, sigma, fuel=10000):
        """Independent oracle: depth-first closure collecting finals."""
        finals = set()
        seen = set()
        stack = [Running(ch, sigma)]
        while stack and fuel:
            fuel -= 1
            cfg = stack.pop()
            if cfg in seen:
                continue
            seen.add(cfg)
            for _, succ in chor_steps_tagged(cfg):
                if terminated(succ):
                    finals.add(succ.sigma)
                else:
                    stack.append(succ)
        assert fuel, "fuel exhausted"
        return finals

    def test_explore_matches_brute_force(self, corpus):
        for path, decl, name, ch in corpus:
            sigma = decl.initial_valuation()
            res = explore(ch, sigma)
            assert not res.truncated, path
            assert res.finals == self.brute(ch, sigma, fuel=500_000), path


class TestRuleCoverage:
    def test_corpus_covers_every_rule(self, corpus):
        seen = set()
        for path, decl, name, ch in corpus:
            res = explore(ch, decl.initial_valuation())
            seen |= res.rules_seen
        missing = set(CHOR_RULES) - seen
        assert not missing, f"rules never exercised by the corpus: {missing}"


class TestEventLabels:
    def test_label_is_the_moving_ports(self, corpus):
        """A choreography step is hidden exactly when no port moves;
        otherwise its label is the set of the moving ports' ids."""
        for path, decl, name, ch in corpus:
            for edges in explore(ch, decl.initial_valuation()).graph.values():
                for event, _ in edges:
                    if event.ports:
                        assert event.label == frozenset(p.pid for p in event.ports), path
                    else:
                        assert event.label == TAU, path


def forget_step_tables():
    """Drop the step table kept on every live term, as in a fresh process."""
    for cls in (Nil, Comm, Branch, Loop, Seq, Par):
        for ref in list(cls._nodes.values()):
            term = ref()
            if term is not None:
                vars(term).pop("_steps", None)


class TestStepTables:
    def test_each_term_is_compiled_once(self, monkeypatch):
        decl, _, ch = parse_source(generated("interleave", 7))
        forget_step_tables()
        compiled = []  # keeps every compiled term alive, so ids stay unique
        compile_table = chorsem._compile

        def counting(term):
            compiled.append(term)
            return compile_table(term)

        monkeypatch.setattr(chorsem, "_compile", counting)
        res = explore(ch, decl.initial_valuation())
        assert len({id(term) for term in compiled}) == len(compiled)
        # A few dozen distinct terms serve thousands of configurations.
        assert 10 * len(compiled) < len(res.graph)
        # One table per term structure: no two compiled terms print alike.
        assert len({repr(term) for term in compiled}) == len(compiled) == 88
        # The tables stay with the terms: exploring the choreography again,
        # from a fresh parse too, compiles nothing.
        explore(ch, decl.initial_valuation())
        again_decl, _, again = parse_source(generated("interleave", 7))
        explore(again, again_decl.initial_valuation())
        assert len(compiled) == 88


def reachable(ch, sigma):
    """Brute-force oracle: every configuration reachable from the initial
    one, deduplicated by a plain set (structural equality)."""
    seen = {Running(ch, sigma)}
    todo = list(seen)
    while todo:
        for _, succ in chor_steps_tagged(todo.pop()):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


class TestHashConsing:
    def test_identical_async_comms_dedup_as_brute_force(self):
        # Both branches hold textually identical asynchronous comms, parsed
        # into distinct objects; their residual receives meet in one queue.
        comms = "A.a -> { B.r[y := y + 1] } ; A.a -> { B.r[y := y + 1] }"
        ch, sigma = setup(f"choice A {{ A.d => {comms} | A.d[b] => {comms} }}")
        left, right = (succ for _, succ in chor_steps_tagged(Running(ch, sigma)))
        assert left == right and left.term is right.term
        res = explore(ch, sigma)
        assert set(res.graph) == reachable(ch, sigma)
        queues = [queue for c in res.graph if isinstance(c, Running)
                  for _, queue in c.pending if len(queue) == 2]
        assert queues and all(q[0][0] is q[1][0] for q in queues)

    def test_configurations_equal_across_parses(self):
        body = "A.a -> { B.r, C.r } ; ( A.a -> { B.r } || D.s -> { C.r } )"
        first, second = (explore(*setup(body)) for _ in range(2))
        assert set(first.graph) == set(second.graph)
        stored = {c: c for c in second.graph}
        pooled = [c for c in first.graph if isinstance(c, Running) and c.pending]
        assert pooled
        for config in pooled:
            twin = stored[config]
            assert hash(twin) == hash(config)
            # Both parses share their terms, so one receipt serves both.
            assert twin.pending[0][1][0][0] is config.pending[0][1][0][0]

    def test_truncated_then_full_matches_fresh(self):
        decl, _, ch = load_stem("producer_consumer")
        sigma = decl.initial_valuation()
        assert explore(ch, sigma, max_configs=50).truncated
        assert explore(ch, sigma, max_depth=3).truncated
        full = explore(ch, sigma)
        fresh_decl, _, fresh_ch = load_stem("producer_consumer")
        fresh = explore(fresh_ch, fresh_decl.initial_valuation())
        assert full.graph == fresh.graph
        assert lts_to_dot(full) == lts_to_dot(fresh)

    def test_final_repr_is_pinned(self):
        # A terminated term prints as a final only once its pool is empty.
        (_, final), = steps("nil")[0]
        assert repr(final) == "Final(sigma={A.b=True, A.x=2, B.c=True, B.y=0, C.z=0, D.w=0})"
        (_, sent), = steps("A.a -> { B.r }")[0]
        assert sent.term is None and repr(sent).startswith("Running(term=None, ")

    def test_running_repr_is_pinned(self):
        # No output prints this text (the DOT dump prints no term), but
        # failing assertions and debugging show configurations by it.
        succs, _ = steps("A.a[x > 0, x := 0] -> { B.r[y := y + 1], C.r } ; A.a -> { B.r }")
        port_b = ("Port(name='r', owner='B', var=Variable(name='y', owner='B', "
                  "dtype='int'), ctype='r')")
        port_c = ("Port(name='r', owner='C', var=Variable(name='z', owner='C', "
                  "dtype='int'), ctype='r')")
        assert repr(succs[0][1]) == (
            "Running(term=Comm(send=GuardedSend(port=Port(name='a', owner='A', "
            "var=Variable(name='x', owner='A', dtype='int'), ctype='as'), "
            "guard=Lit(value=True), update=Update(assignments=())), "
            f"rcvs=(({port_b}, Update(assignments=())),)), "
            "sigma={A.b=True, A.x=0, B.c=True, B.y=0, C.z=0, D.w=0}, "
            f"pending=(('B', (({port_b}, Update(assignments=(('B.y', "
            "BinOp(op='+', left=Ref(qname='B.y'), right=Lit(value=1))),)), 2),)), "
            f"('C', (({port_c}, Update(assignments=()), 2),))))")


#: Prints, for each choreography file named, the cyclic garbage that
#: parsing and exploring it leave, in a fresh interpreter with the
#: collector off, so that nothing else holds its terms.
GARBAGE = """
import gc, sys
from chorc.chorsem import explore
from chorc.parser import parse_source

for path in sys.argv[1:]:
    gc.collect()
    gc.disable()
    with open(path) as fh:
        decl, _, ch = parse_source(fh.read())
    res = explore(ch, decl.initial_valuation())
    del decl, ch, res
    print(gc.collect())
    gc.enable()
"""


def has_loop(ch):
    todo = [ch]
    while todo:
        term = todo.pop()
        if isinstance(term, Loop):
            return True
        if isinstance(term, Branch):
            todo += [cont for _, cont in term.conts]
        elif isinstance(term, Seq):
            todo += (term.first, term.second)
        elif isinstance(term, Par):
            todo += (term.left, term.right)
    return False


class TestReferenceCounted:
    def test_explorations_without_loops_leave_no_cyclic_garbage(self, corpus):
        # A loop's step table reaches the loop, so only a loop-free term,
        # with its tables, plans, caches, parts and pools, is freed by
        # reference counting alone.
        paths = [path for path, _, _, ch in corpus if not has_loop(ch)]
        assert len(paths) == 11
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-c", GARBAGE, *paths], capture_output=True,
                              text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert dict(zip(paths, proc.stdout.split())) == dict.fromkeys(paths, "0")


NODE = re.compile(r'^  n(\d+) \[shape=(\w+), label="(\w*)"(, style=dashed)?\];$')
EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="([^"]*)"\];$')


def assert_dot_draws(res, where):
    """``lts_to_dot(res)`` draws ``res`` in its own order: node ``n<i>`` is
    stored state ``i``, then each distinct left-out successor follows; a
    node's shape and label say whether it is final or a deadlock, and it is
    dashed exactly when it was not expanded; the edges of each expanded
    state follow in stored order, with their labels."""
    lines = lts_to_dot(res).splitlines()
    assert lines[:2] == ["digraph lts {", "  rankdir=LR;"] and lines[-1] == "}", where
    nodes = [NODE.match(line).groups() for line in lines[2:] if NODE.match(line)]
    edges = [EDGE.match(line).groups() for line in lines[2:] if EDGE.match(line)]
    assert len(nodes) + len(edges) == len(lines) - 3, where
    reached = res.states + list(dict.fromkeys(res.fresh))
    expanded = len(res.ends)
    assert [int(n) for n, _, _, _ in nodes] == list(range(len(reached))), where
    for (_, shape, label, _), config in zip(nodes, reached):
        if chorsem._final(config):
            assert (shape, label) == ("doublecircle", "final"), where
        else:
            assert (shape, label) == ("box" if config in res.deadlocks else "circle", ""), where
    assert [int(n) for n, _, _, dashed in nodes if dashed] == \
        list(range(expanded, len(reached))), where
    number = {config: i for i, config in enumerate(reached)}
    assert len(number) == len(reached), where
    assert [(int(a), int(b), label) for a, b, label in edges] == [
        (i, number[succ],
         "tau" if event.label == TAU else "{" + ", ".join(sorted(event.label)) + "}")
        for i in range(expanded) for event, succ in res.edges(i)], where


class TestDot:
    def test_one_dashed_node_per_unexpanded_state(self):
        decl, _, ch = load_stem("producer_consumer")
        for limits in ({}, {"max_configs": 50}):
            res = explore(ch, decl.initial_valuation(), **limits)
            dot = lts_to_dot(res)
            drawn = set(res.graph) | {succ for edges in res.graph.values()
                                      for _, succ in edges}
            assert dot.count("style=dashed") == len(drawn - set(res.graph)), limits
        assert "style=dashed" in dot

    def test_draws_the_exploration_in_its_order(self, corpus):
        """Every corpus file, in full and under each limit."""
        for path, decl, _, ch in corpus:
            for limits in ({}, {"max_configs": 1}, {"max_configs": 3}, {"max_configs": 40},
                           {"max_depth": 2}, {"max_depth": 5}):
                assert_dot_draws(explore(ch, decl.initial_valuation(), **limits),
                                 (path, limits))

    @pytest.mark.parametrize("name", ["interleave", "longchain"])
    def test_draws_generated_explorations_in_their_order(self, name):
        decl, _, ch = parse_source(generated(name, 7))
        for limits in ({}, {"max_configs": 40}):
            res = explore(ch, decl.initial_valuation(), **limits)
            assert res.truncated == bool(limits)
            assert_dot_draws(res, (name, limits))

    def test_draws_deadlocks_as_boxes(self):
        ch, sigma = setup("A.p[x > 0, x := 0] -> { B.r } ; A.p[x > 0] -> { B.r }")
        res = explore(ch, sigma)
        assert len(res.deadlocks) == 1
        assert_dot_draws(res, "deadlock")
        assert lts_to_dot(res).count("shape=box") == 1


# --------------------------------------------------------------------------
# Oracle: the flat configurations that the partitioned ones replaced
# --------------------------------------------------------------------------

class FlatRunning(NamedTuple):
    """A configuration as it was stored before it was split into parts:
    the term, one global valuation and the pending pool."""

    term: Optional[Chor]
    sigma: Valuation
    pending: tuple = ()


def leaf(term, rules):
    """The subterm of ``term`` that moves in the step that ``rules``
    derives: the term that the rule path leads to."""
    for rule in rules[:-1]:
        if rule in ("sequential-1", "sequential-2"):
            term = term.first
        elif rule in ("parallel-1", "parallel-3"):
            term = term.left
        else:
            term = term.right
    return term


def movers(term, rule):
    """The components that act in the step by ``rule`` of ``term``, a
    ``leaf``."""
    if rule == "nil":
        return set()
    if rule == "synch-sendrcv":
        return {term.send.port.owner} | {port.owner for port, _ in term.rcvs}
    if rule == "asynch-sendrcv-1":
        return {term.send.port.owner}
    if rule == "master-branching":
        return {term.master}
    assert rule in ("iterative-tt", "iterative-ff"), rule
    return {term.cond.port.owner}


def run(f, sigma):
    """Apply update ``f`` to ``sigma``, an assignment at a time."""
    for target, rhs in f.assignments:
        sigma = sigma.set(target, rhs.compiled(sigma))
    return sigma


def flat_chor_steps(config):
    """The successor function on flat configurations, as it was before
    configurations were split: every guard and update runs on the global
    valuation, uncached. The pool holds one FIFO queue per receiving
    component, sorted by component; a component with a pending entry only
    consumes its oldest one, and no term step it acts in fires. Each step's
    guard, transfer, updates and residual receives are read off the term
    that its rule path leads to; a choice's arm is the k-th step with its
    rules, since a choice's arms lift alike. Only the event, which its
    edges share, and the next term are taken from the static step table."""
    term, sigma, pending = config
    out = []
    for i, (comp, queue) in enumerate(pending):
        receipt, value = queue[0]
        after = run(receipt.update, sigma.set(receipt.port.var.qname, value))
        rest = pending[:i] + ((comp, queue[1:]),) * (len(queue) > 1) + pending[i + 1:]
        out.append((receipt.event, FlatRunning(term, after, rest)))
    if term is not None:
        waiting = {comp for comp, _ in pending}
        arms = {}
        for event, _, nxt in chorsem._steps(term):
            node, rule = leaf(term, event.rules), event.rules[-1]
            k = arms[event.rules] = arms.get(event.rules, -1) + 1
            if movers(node, rule) & waiting:
                continue
            queues = dict(pending)
            if rule == "nil":
                after = sigma
            elif rule in ("synch-sendrcv", "asynch-sendrcv-1"):
                gs = node.send
                if not gs.guard.compiled(sigma):
                    continue
                payload = sigma[gs.port.var.qname]
                if rule == "asynch-sendrcv-1":
                    after = run(gs.update, sigma)
                    for port, f in node.rcvs:
                        queues[port.owner] = queues.get(port.owner, ()) + (
                            (chorsem.Receipt(port, f), payload),)
                else:  # the transfer, the sender's update, the receivers'
                    after = sigma
                    for port, _ in node.rcvs:
                        after = after.set(port.var.qname, payload)
                    for f in (gs.update, *[f for _, f in node.rcvs]):
                        after = run(f, after)
            else:
                gs = node.conts[k][0] if rule == "master-branching" else node.cond
                if bool(gs.guard.compiled(sigma)) == (rule == "iterative-ff"):
                    continue
                after = sigma if rule == "iterative-ff" else run(gs.update, sigma)
            queues = tuple(sorted(queues.items()))
            out.append((event, FlatRunning(nxt, after, queues)))
    return out


def flat_explore(ch, sigma0, max_configs=200_000, max_depth=10_000):
    return explore_lts(FlatRunning(ch, sigma0), flat_chor_steps, terminated, max_configs,
                       max_depth)


def view(config):
    """What a configuration shows: its term, valuation and pool."""
    return config.term, config.sigma, config.pending


def assert_same_lts(res, flat, what):
    """The same stored configurations and edges, in order, with the very
    same event objects, and the same terminals, deadlocks, truncation and
    finals."""
    assert [view(c) for c in res.graph] == [view(c) for c in flat.graph], what
    for (c, edges), (f, flat_edges) in zip(res.graph.items(), flat.graph.items()):
        assert [(e, view(s)) for e, s in edges] == \
            [(e, view(s)) for e, s in flat_edges], (what, view(c))
        assert all(e is g for (e, _), (g, _) in zip(edges, flat_edges)), (what, view(c))
    assert {view(c) for c in res.terminals} == {view(c) for c in flat.terminals}, what
    assert {view(c) for c in res.deadlocks} == {view(c) for c in flat.deadlocks}, what
    assert (res.truncated, res.finals) == (flat.truncated, flat.finals), what


#: Receive updates and guards that read another component's variable, which
#: ``check_well_formed`` rejects and the semantics refuses.
FOREIGN = [
    "A.a -> { B.r[y := C.z + 1] } ; D.s[true, w := w + 2] -> { C.r } ; "
    "A.a -> { B.r[y := y + C.z] }",
    "while (A.d[x < 4, x := x + 1]) { A.p[C.z < 2] -> { D.r[w := w + B.y] } } || "
    "while (B.d[y < 3, y := y + 1]) { B.s -> { C.r[z := z + A.x] } }",
    "while (A.p[x < 4 and C.z == 0, x := x + 1]) { A.a -> { C.r[z := A.x - z] } ; "
    "D.s[true, w := w + C.z] -> { C.r[z := 0] } }",
    # One kind of step each: a synchronous and an asynchronous receiver, a
    # sender, a choice arm and a loop's test.
    "A.p -> { B.r, C.r[z := z + B.y] }",
    "A.a -> { B.r, C.r[z := A.x] }",
    "A.p[true, x := D.w + C.z] -> { B.r }",
    "choice A { A.d[B.c] => nil | A.d => nil }",
    "while (D.s[w < C.z]) { D.s -> { C.r } }",
]

#: Components alike, each with a synchronous and an asynchronous send port,
#: a receive port of their type and a receive port of another type.
NEAR_DECLS = "".join(
    f"comp {c} {{ var x: int = 0; var b: bool = true; port s: ss of int binds x; "
    f"port a: as of int binds x; port r: r of int binds x; port t: r of bool binds b; }}\n"
    for c in "PQR")


def near_misses() -> list:
    """(code, well-formed body, breach): a well-formed term of each kind
    that a ``lang.faults`` rule applies to, with a synchronous or an
    asynchronous send and its receivers, a choice arm or a loop's test, and
    per rule one edit of it that breaks that rule alone, in the part its id
    names. A breach of None drops every receiver, which the grammar cannot
    write."""
    sync = "P.s[x < 1, x := x + 1] -> { Q.r[x := x * 2], R.r }"
    comm = [("send", "empty-receivers", None, None),
            ("receiver", "recv-port-type", "Q.r", "Q.s"),
            ("receiver", "comm-dtype", "Q.r", "Q.t"),
            ("receiver", "distinct-receivers", "R.r", "Q.r"),
            ("receiver", "distinct-receivers", "Q.r", "P.r"),
            ("receiver", "locality", "x * 2", "R.x * 2")]
    terms = [
        ("synchronous", sync, [("send", "send-port-type", "P.s", "P.r"),
                               ("send", "locality", "x < 1", "Q.x < 1")] + comm),
        ("asynchronous", sync.replace("P.s", "P.a"),
         [("send", "send-port-type", "P.a", "P.r"),
          ("send", "locality", "x := x + 1", "x := R.x + 1")] + comm),
        ("choice", "choice P { P.s[x < 1] => Q.s -> { R.r } | P.a[true, x := 1] => nil }",
         [("arm", "send-port-type", "P.s", "P.r"), ("arm", "branch-port-ownership", "P.s", "Q.s"),
          ("arm", "locality", "x < 1", "R.x < 1")]),
        ("loop", "while (P.s[x < 3, x := x + 1]) { Q.s -> { R.r } }",
         [("test", "send-port-type", "P.s", "P.r"), ("test", "locality", "x < 3", "x < Q.x")]),
    ]
    return [pytest.param(code, base, old and base.replace(old, new), id=f"{kind} {part}: {code}")
            for kind, base, edits in terms for part, code, old, new in edits]


def assert_not_synthesized(decl, ch, error):
    """``synthesize`` refuses ``ch`` under each profile with ``error``'s
    code and message."""
    for profile in PROFILES:
        with pytest.raises(SynthError) as err:
            synthesize(decl, ch, profile)
        assert str(err.value) == f"{error.code}: {error.message}", profile


#: Division and modulo by zero, reached only after some steps.
DIV_ZERO = [
    "A.a[true, x := x - 1] -> { B.r } ; A.a[true, x := x - 1] -> { C.r } ; "
    "A.p[true, x := 10 / x] -> { D.r }",
    "A.a -> { B.r[y := y mod 2] } ; ( A.p[true, x := 0] -> { D.r } || B.s -> { C.r } ) ; "
    "A.p[5 mod x > 0] -> { D.r }",
    "A.a[true, x := 0] -> { B.r } ; A.a -> { B.r[y := 3 / y] } ; B.s -> { C.r }",
]


class TestFlatOracle:
    """Partitioned configurations give the LTS of the flat ones."""

    def test_corpus(self, corpus):
        for path, decl, _, ch in corpus:
            sigma = decl.initial_valuation()
            for limits in ({}, {"max_configs": 40}, {"max_depth": 3}):
                assert_same_lts(explore(ch, sigma, **limits),
                                flat_explore(ch, sigma, **limits), (path, limits))

    @pytest.mark.parametrize("name", ["interleave", "longchain"])
    def test_generated(self, name):
        decl, _, ch = parse_source(generated(name, 7))
        sigma = decl.initial_valuation()
        for _ in range(2):  # the second time on full caches
            assert_same_lts(explore(ch, sigma), flat_explore(ch, sigma), name)
        assert_same_lts(explore(ch, sigma, max_configs=100),
                        flat_explore(ch, sigma, max_configs=100), name)

    @pytest.mark.parametrize("source", ["corpus", "interleave", "longchain"])
    def test_steps_never_merge_parts(self, monkeypatch, corpus, source):
        """Each move runs on its own component's part, so exploring never
        lays several parts out as one valuation. An unread variable of a
        component no term names gives every action a frame of its own, in
        which it is laid out again with empty caches, so every step runs."""
        if source == "corpus":
            chors = [(path, decl, ch) for path, decl, _, ch in corpus]
        else:
            decl, _, ch = parse_source(generated(source, 1))
            chors = [(source, decl, ch)]

        def merged(*args):
            raise AssertionError("a step laid several parts out as one valuation")
        for where, decl, ch in chors:
            sigma = Valuation({**decl.initial_valuation(), "Unnamed.probe": 0})
            with monkeypatch.context() as patched:
                patched.setattr(Valuation, "union", classmethod(merged))
                res = explore(ch, sigma)
            assert_same_lts(res, flat_explore(ch, sigma), where)
            assert res.finals, where

    def test_synchronous_receivers_must_be_distinct(self):
        """A receiver that is the sender or another receiver is refused, as
        ``distinct-receivers`` reports."""
        for body, owner in (("A.p -> { B.r, C.r, B.r }", "B"), ("D.s -> { C.r, D.r }", "D")):
            decl, _, ch = parse_source(DECLS + f"choreography t = {body}")
            assert [d.code for d in check_well_formed(decl, ch)] == ["distinct-receivers"]
            with pytest.raises(EvalError, match=f"^component {owner} occurs twice in "
                                                f"communication on {body[:3]}$"):
                explore(ch, decl.initial_valuation())

    def test_asynchronous_receivers_must_be_distinct(self):
        decl, _, ch = parse_source(DECLS + "choreography t = A.a -> { B.r, B.r }")
        assert [d.code for d in check_well_formed(decl, ch)] == ["distinct-receivers"]
        with pytest.raises(EvalError, match="^component B occurs twice in communication on A.a$"):
            explore(ch, decl.initial_valuation())

    def test_a_transfer_between_types_is_refused(self):
        """An ``EvalError``, which the CLI reports, with the ``comm-dtype``
        diagnostic's text."""
        decl, _, ch = parse_source(DECLS + "choreography t = A.d -> { B.r }")
        found = check_well_formed(decl, ch)
        assert [d.code for d in found] == ["comm-dtype"]
        with pytest.raises(EvalError) as err:
            explore(ch, decl.initial_valuation())
        assert str(err.value) == found[0].message == "receiver B.r:int does not match sender A.d:bool"

    @pytest.mark.parametrize("update, message", [
        ("b := x + 1", "assignment of a value of type int to a variable of type bool: A.b"),
        ("x := b", "assignment of a value of type bool to a variable of type int: A.x")])
    def test_an_ill_typed_assignment_is_refused(self, update, message):
        """``check_well_formed`` reports ``assign-type``, and the explorer
        refuses the step with ``EvalError`` rather than bind a variable to a
        value of another type, where ``1 == True`` would merge parts."""
        decl, _, ch = parse_source(DECLS + f"choreography t = A.p[true, {update}] -> {{ B.r }}")
        assert [d.code for d in check_well_formed(decl, ch)] == ["assign-type"]
        with pytest.raises(EvalError) as err:
            explore(ch, decl.initial_valuation())
        assert str(err.value) == message

    def test_an_ill_typed_send_update_is_refused_by_the_system(self):
        """A synthesized system whose send update is replaced by an
        ill-typed one raises the text the choreography's explorer raises."""
        decl, _, ch = parse_source(DECLS + "choreography t = A.p[true, x := x + 1] -> { B.r }")
        bad = Update((("A.b", BinOp("+", Ref("A.x"), Lit(1))),))
        for profile in PROFILES:
            system = synthesize(decl, ch, profile)
            comps = tuple(dataclasses.replace(c, transitions=tuple(
                dataclasses.replace(t, update=bad) if t.update.assignments else t
                for t in c.transitions)) for c in system.components)
            assert comps != system.components
            with pytest.raises(EvalError) as err:
                sys_explore(CompositeSystem(comps, system.gamma))
            assert str(err.value) == (
                "assignment of a value of type int to a variable of type bool: A.b")

    @pytest.mark.parametrize("code, base, breach", near_misses())
    def test_each_fault_is_refused(self, code, base, breach):
        """A term that breaks one ``faults`` rule is refused with the
        message of its first fault, and ``synthesize`` refuses it under
        each profile with the code and message of its first well-formedness
        error; the term it was edited from is explored and synthesized."""
        decl, _, ch = parse_source(NEAR_DECLS + f"choreography t = {base}")
        assert check_well_formed(decl, ch) == [] and explore(ch, decl.initial_valuation()).finals
        for profile in PROFILES:
            synthesize(decl, ch, profile)
        if breach is None:
            ch = Comm(ch.send, ())
        else:
            decl, _, ch = parse_source(NEAR_DECLS + f"choreography t = {breach}")
        found = check_well_formed(decl, ch)
        assert [d.code for d in found] == [code]
        with pytest.raises(EvalError) as err:
            explore(ch, decl.initial_valuation())
        assert str(err.value) == faults(ch)[0].message
        assert_not_synthesized(decl, ch, found[0])

    @pytest.mark.parametrize("body, code", [
        ("A.p[x] -> { B.r }", "guard-type"),
        ("A.p[true, x := b] -> { B.r }", "assign-type"),
        ("A.p[true, b := x + 1] -> { B.r }", "assign-type"),
    ])
    def test_ill_typed_terms_are_not_synthesized(self, body, code):
        """``faults`` states no type rule, but ``synthesize`` refuses a term
        that breaks one with ``check_well_formed``'s error."""
        decl, _, ch = parse_source(DECLS + f"choreography t = {body}")
        found = check_well_formed(decl, ch)
        assert [d.code for d in found] == [code]
        assert_not_synthesized(decl, ch, found[0])

    @pytest.mark.parametrize("body", FOREIGN)
    def test_foreign_reads(self, body):
        """Exploring raises ``EvalError`` with a ``locality`` diagnostic's
        message, naming a component and a foreign variable it uses."""
        decl, _, ch = parse_source(DECLS + f"choreography t = {body}")
        locality = r".+ on component (\S+) uses foreign variable (\S+)"
        reported = set(re.findall(locality, "\n".join(
            d.message for d in check_well_formed(decl, ch) if d.code == "locality")))
        assert reported
        with pytest.raises(EvalError, match="uses foreign variable ") as err:
            explore(ch, decl.initial_valuation())
        assert re.fullmatch(locality, str(err.value)).groups() in reported

    def test_one_receiver_takes_many_values(self):
        """Sends that differ only in the value they queue each get their own
        cache entry, and each delivery assigns its own value."""
        ch, sigma = setup("while (A.d[x < 4, x := x + 1]) { A.a -> { B.r[c := y > 2] } } ; "
                          "B.s[true, y := 0] -> { D.r }")
        assert_same_lts(explore(ch, sigma), flat_explore(ch, sigma), "values")

    def test_one_term_under_two_frames(self):
        """A term parsed again under other declarations is the same term,
        with the same actions; each action is laid out again in the frame
        it runs in. The extra component ``Ab`` sorts between ``A`` and
        ``B``, so every later component's part moves."""
        body = ("while (A.d[x < 4, x := x + 1]) { A.a -> { B.r[y := y + 1] } } || "
                "D.s[true, w := w + 2] -> { C.r[z := z + 1] }")
        extra = "comp Ab { var v: int = 5; port r: r of int binds v; }\n"
        frames, terms = [], []
        for decls in (DECLS, DECLS + extra, DECLS):
            decl, _, ch = parse_source(decls + f"choreography t = {body}")
            sigma = decl.initial_valuation()
            res = explore(ch, sigma)
            assert len(res.graph) > 5 and res.terminals
            assert_same_lts(res, flat_explore(ch, sigma), decls)
            frames.append([act.frame for _, act, _ in chorsem._steps(ch)])
            terms.append(ch)
        assert terms[0] is terms[1] is terms[2]
        for before, after in zip(frames, frames[1:]):
            assert all(a is not b for a, b in zip(before, after))
        assert all(a is c for a, c in zip(frames[0], frames[2]))

    def test_terms_in_turn_share_one_frame(self):
        """Terms explored in turn under one declaration share one frame: the
        second term sends to C, at which the first never receives, and each
        of C's deliveries is taken, as B's are when the first term runs
        again."""
        first = "A.a[true, x := x + 1] -> { B.r[y := y + 1] } ; A.p -> { D.r }"
        second = "A.a -> { C.r[z := z + 1] } || D.s -> { B.r }"
        terms, frames = [], []
        for body in (first, second, first):
            ch, sigma = setup(body)
            res = explore(ch, sigma)
            assert_same_lts(res, flat_explore(ch, sigma), body)
            terms.append(ch)  # keeps the term's actions, and so the frame, alive
            frames.append(res.states[0][2])
            assert any(c.pending for c in res.states)
        assert frames[0] is frames[1] is frames[2]

    @pytest.mark.parametrize("body", DIV_ZERO)
    def test_division_by_zero_raises_at_the_same_configuration(self, body):
        decl, _, ch = parse_source(DECLS + f"choreography t = {body}")
        sigma = decl.initial_valuation()
        raised = []
        for start, steps in ((Running(ch, sigma), chor_steps_tagged),
                             (FlatRunning(ch, sigma), flat_chor_steps)):
            expanded = []

            def traced(config, steps=steps, expanded=expanded):
                expanded.append(view(config))
                return steps(config)
            with pytest.raises(EvalError) as err:
                explore_lts(start, traced, terminated, 1000, 1000)
            raised.append((str(err.value), expanded))
        assert raised[0] == raised[1]
        assert len(raised[0][1]) > 1

    def test_assigning_an_unbound_variable_is_an_error(self):
        decl, _, ch = parse_source(DECLS + "choreography t = A.a -> { B.r } ; A.p -> { C.r }")
        sigma = Valuation({k: v for k, v in decl.initial_valuation().items() if k != "C.z"})
        with pytest.raises(EvalError, match="does not bind: C.z"):
            explore(ch, sigma)

    def test_queueing_for_a_component_without_a_part_is_an_error(self):
        # C binds only C.z, so without it C has no part to queue in.
        decl, _, ch = parse_source(DECLS + "choreography t = A.a -> { C.r }")
        sigma = Valuation({k: v for k, v in decl.initial_valuation().items() if k != "C.z"})
        with pytest.raises(EvalError, match="does not bind: C.z"):
            explore(ch, sigma)
