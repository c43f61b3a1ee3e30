"""Oracle tests for the choreography small-step semantics.

Each named rule has a dedicated test whose expected successor set is written
out by hand against the definitions; the final test measures rule-tag
coverage over the whole corpus.
"""

from chorc import chorsem
from chorc.chorsem import (
    CHOR_RULES, TAU, Final, Running, chor_steps_tagged, explore,
    initial_config, lts_to_dot,
)
from chorc.core import Event
from chorc.lang import Seq
from chorc.parser import parse_source

from conftest import load_stem

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


def steps(body):
    ch, sigma = setup(body)
    return chor_steps_tagged(initial_config(ch, sigma)), sigma


class TestNil:
    def test_nil_terminates_silently(self):
        succs, sigma = steps("nil")
        assert succs == [(Event(("nil",), (), TAU), Final(sigma))]


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
        assert succ == Final(expect)

    def test_false_guard_blocks(self):
        succs, _ = steps("A.p[x < 0] -> { B.r }")
        assert succs == []

    def test_multicast(self):
        succs, sigma = steps("A.p -> { B.r, C.r }")
        (event, succ), = succs
        assert event.label == frozenset({"A.p", "B.r", "C.r"})
        assert succ == Final(sigma.set("B.y", 2).set("C.z", 2))


class TestAsynchSendRcv1:
    def test_send_captures_value_before_sender_update(self):
        succs, sigma = steps("A.a[x > 0, x := 0] -> { B.r[y := y + 1] }")
        (event, succ), = succs
        assert event.rules == ("asynch-sendrcv-1",)
        assert event.label == frozenset({"A.a"})  # receivers are not synchronized
        assert isinstance(succ, Running) and succ.term is None
        assert succ.sigma["A.x"] == 0  # sender update applied
        ((chan, queue),) = succ.pending
        assert chan == ("A.a", "B.r")
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
        assert isinstance(succ, Final)
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
        assert succ == Final(sigma)


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
        stack = [initial_config(ch, sigma)]
        while stack and fuel:
            fuel -= 1
            cfg = stack.pop()
            if cfg in seen:
                continue
            seen.add(cfg)
            for _, succ in chor_steps_tagged(cfg):
                if isinstance(succ, Final):
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


class TestStepTables:
    def test_each_term_is_compiled_once(self, monkeypatch):
        decl, _, ch = load_stem("microservice")
        compiled = []  # keeps every compiled term alive, so ids stay unique
        compile_table = chorsem._compile

        def counting(term, tables):
            compiled.append(term)
            return compile_table(term, tables)

        monkeypatch.setattr(chorsem, "_compile", counting)
        res = explore(ch, decl.initial_valuation())
        assert len({id(term) for term in compiled}) == len(compiled)
        # A few dozen distinct terms serve thousands of configurations.
        assert 10 * len(compiled) < len(res.graph)
        # One table per term structure, however many objects carry it.
        assert len(set(compiled)) == len(compiled) == 94
        # The tables stay with the root: exploring it again compiles nothing.
        explore(ch, decl.initial_valuation())
        assert len(compiled) == 94


def reachable(ch, sigma):
    """Brute-force oracle: every configuration reachable from the initial
    one, deduplicated by a plain set (structural equality)."""
    seen = {initial_config(ch, sigma)}
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
        left, right = (succ for _, succ in chor_steps_tagged(initial_config(ch, sigma)))
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
            assert twin.pending[0][1][0][0] is not config.pending[0][1][0][0]

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

    def test_running_repr_is_pinned(self):
        # lts_to_dot orders nodes by this text, so it must not change.
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
            f"pending=((('A.a', 'B.r'), (({port_b}, Update(assignments=(('B.y', "
            "BinOp(op='+', left=Ref(qname='B.y'), right=Lit(value=1))),)), 2),)), "
            f"(('A.a', 'C.r'), (({port_c}, Update(assignments=()), 2),))))")


class TestDot:
    def test_sort_key_built_once_per_configuration(self, monkeypatch):
        keyed = []
        config_key = chorsem._config_key

        def counting(config):
            keyed.append(config)
            return config_key(config)

        monkeypatch.setattr(chorsem, "_config_key", counting)
        decl, _, ch = load_stem("producer_consumer")
        for limits in ({}, {"max_configs": 50}):
            res = explore(ch, decl.initial_valuation(), **limits)
            keyed.clear()
            dot = lts_to_dot(res)
            drawn = set(res.graph) | {succ for edges in res.graph.values()
                                      for _, succ in edges}
            assert len(keyed) == len(set(keyed)) == len(drawn), limits
            assert dot.count("style=dashed") == len(drawn - set(res.graph)), limits
        assert "style=dashed" in dot
