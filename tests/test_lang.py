"""Tests for term shapes (participants, start and end sets) and static
well-formedness."""

import pytest

from chorc import lang, synthesis
from chorc.core import SKIP, TRUE, BinOp, Lit, Ref, Update
from chorc.lang import (
    Branch, Comm, GuardedSend, Loop, Nil, Par, Seq, Shape, check_well_formed, shape, shared,
)
from chorc.parser import parse_source
from chorc.synthesis import PROFILES, synthesize

from conftest import corpus_paths, generated, load, load_stem
from test_enumeration import declared_ports, terms

DECLS = """
comp A {
  var x: int = 1;
  var b: bool = true;
  port p: ss of int binds x;
  port a: as of int binds x;
  port d: ss of bool binds b;
  port i: r of int binds x;
}
comp B {
  var y: int = 0;
  port r: r of int binds y;
  port s: ss of int binds y;
}
comp C {
  var z: int = 0;
  port r: r of int binds z;
}
"""


def chor(body):
    return parse_source(DECLS + f"choreography t = {body}")


class TestSets:
    def test_comm(self):
        _, _, ch = chor("A.p -> { B.r, C.r }")
        assert shape(ch).participants == {"A", "B", "C"}
        assert shape(ch).starts == {"A"}
        assert shape(ch).ends == {"B", "C"}
        assert shape(ch).sender_ends == {"A"}

    def test_async_comm_end(self):
        _, _, ch = chor("A.a -> { B.r }")
        # An asynchronous send completes at the sender.
        assert shape(ch).ends == {"A"}

    def test_seq(self):
        _, _, ch = chor("A.p -> { B.r } ; B.s -> { C.r }")
        assert shape(ch).starts == {"A"}
        assert shape(ch).ends == {"C"}
        assert shape(ch).sender_ends == {"B"}

    def test_par_union(self):
        _, _, ch = chor("( A.p -> { B.r } ) || ( B.s -> { C.r } )")
        assert shape(ch).participants == {"A", "B", "C"}
        assert shape(ch).starts == {"A", "B"}
        assert shared(ch) == {"B"}

    def test_branch(self):
        _, _, ch = chor("choice A { A.d => B.s -> { C.r } | A.d => nil }")
        assert shape(ch).participants == {"A", "B", "C"}
        assert shape(ch).starts == {"A"}
        # Not the master: the arms' sender ends, when there are any.
        assert shape(ch).sender_ends == {"B"}
        _, _, ch = chor("choice A { A.d => nil | A.d => nil }")
        assert shape(ch).sender_ends == {"A"}

    def test_loop(self):
        _, _, ch = chor("while (A.p[x > 0]) { A.a -> { B.r } }")
        assert shape(ch).participants == {"A", "B"}
        assert shape(ch).starts == {"A"}

    def test_nil(self):
        _, _, ch = chor("nil")
        assert shape(ch).participants == frozenset()


# The four folds that ``shape`` replaced, frozen as they were, to check it
# against.

def ref_participants(ch):
    if isinstance(ch, Nil):
        return frozenset()
    if isinstance(ch, Comm):
        return frozenset({ch.send.port.owner} | {p.owner for p, _ in ch.rcvs})
    if isinstance(ch, Branch):
        out = {ch.master}
        for gs, cont in ch.conts:
            out.add(gs.port.owner)
            out |= ref_participants(cont)
        return frozenset(out)
    if isinstance(ch, Loop):
        return frozenset({ch.cond.port.owner}) | ref_participants(ch.body)
    if isinstance(ch, (Seq, Par)):
        a, b = (ch.first, ch.second) if isinstance(ch, Seq) else (ch.left, ch.right)
        return ref_participants(a) | ref_participants(b)
    raise AssertionError(ch)


def ref_start_set(ch):
    if isinstance(ch, Nil):
        return frozenset()
    if isinstance(ch, Comm):
        return frozenset({ch.send.port.owner})
    if isinstance(ch, Branch):
        return frozenset({ch.master})
    if isinstance(ch, Loop):
        return frozenset({ch.cond.port.owner})
    if isinstance(ch, Seq):
        return ref_start_set(ch.first)
    if isinstance(ch, Par):
        return ref_start_set(ch.left) | ref_start_set(ch.right)
    raise AssertionError(ch)


def ref_end_set(ch):
    if isinstance(ch, Nil):
        return frozenset()
    if isinstance(ch, Comm):
        if ch.send.port.ctype == "ss":
            return frozenset(p.owner for p, _ in ch.rcvs)
        return frozenset({ch.send.port.owner})
    if isinstance(ch, Branch):
        out = set()
        for gs, cont in ch.conts:
            out.add(gs.port.owner)
            out |= ref_participants(cont)
        return frozenset(out)
    if isinstance(ch, Loop):
        return frozenset({ch.cond.port.owner})
    if isinstance(ch, Seq):
        return ref_end_set(ch.second)
    if isinstance(ch, Par):
        return ref_end_set(ch.left) | ref_end_set(ch.right)
    raise AssertionError(ch)


def ref_end_set_compat(ch):
    if isinstance(ch, Nil):
        return frozenset()
    if isinstance(ch, Comm):
        return frozenset({ch.send.port.owner})
    if isinstance(ch, Branch):
        out = frozenset()
        for _, cont in ch.conts:
            out |= ref_end_set_compat(cont)
        return out if out else frozenset({ch.master})
    if isinstance(ch, Loop):
        return frozenset({ch.cond.port.owner})
    if isinstance(ch, Seq):
        return ref_end_set_compat(ch.second)
    if isinstance(ch, Par):
        return ref_end_set_compat(ch.left) | ref_end_set_compat(ch.right)
    raise AssertionError(ch)


def subterms(ch):
    """Every subterm of ``ch``, itself included, each once."""
    seen, todo = {}, [ch]
    while todo:
        term = todo.pop()
        if id(term) in seen:
            continue
        seen[id(term)] = term
        if isinstance(term, Branch):
            todo += [cont for _, cont in term.conts]
        elif isinstance(term, Loop):
            todo.append(term.body)
        elif isinstance(term, Seq):
            todo += [term.first, term.second]
        elif isinstance(term, Par):
            todo += [term.left, term.right]
    return list(seen.values())


def reference_inputs():
    """The corpus, interleave and longchain of seeds 0 and 1, and the depth-2
    enumeration, as (name, term)."""
    out = [(path, load(path)[2]) for path in corpus_paths()]
    out += [(f"{name} {seed}", parse_source(generated(name, seed))[2])
            for name in ("interleave", "longchain") for seed in (0, 1)]
    return out + [(f"depth-2 {i}", term) for i, term in enumerate(terms(declared_ports(), 2))]


def test_shape_matches_the_folds_it_replaced():
    checked = 0
    for name, ch in reference_inputs():
        for term in subterms(ch):
            assert shape(term) == Shape(ref_participants(term), ref_start_set(term),
                                        ref_end_set(term), ref_end_set_compat(term)), name
            if isinstance(term, Par):
                assert shared(term) == (ref_participants(term.left)
                                        & ref_participants(term.right)), name
            checked += 1
    assert checked > 3672


def choice_chain(n):
    """A ``||`` of ``n`` distinct choices over the same components."""
    return " || ".join(f"choice A {{ A.d[x > {i}] => B.s -> {{ C.r }} | A.d => nil }}"
                       for i in range(n))


@pytest.mark.parametrize("load_input", [
    lambda: load_stem("microservice"),
    lambda: chor(choice_chain(300)),
], ids=["16_microservice", "par-chain-300"])
def test_each_term_is_folded_once(monkeypatch, load_input):
    """Checking and synthesizing under both profiles works out each term's
    shape at most once, where the folds ``shape`` replaced walked a subterm
    again for every enclosing ``||``, choice and loop."""
    decl, _, ch = load_input()
    for term in subterms(ch):
        vars(term).pop("_shape", None)
    folded, twice = {}, []
    fold = lang.shape

    def counting(term):
        if "_shape" not in vars(term):
            if id(term) in folded:
                twice.append(term)
            folded[id(term)] = term  # kept alive, so no other term takes its id
        return fold(term)

    monkeypatch.setattr(lang, "shape", counting)
    monkeypatch.setattr(synthesis, "shape", counting)
    check_well_formed(decl, ch)
    for profile in PROFILES:
        synthesize(decl, ch, profile)
    assert folded and twice == []


class TestWellFormed:
    def diags(self, body):
        decl, _, ch = chor(body)
        return check_well_formed(decl, ch)

    def errors(self, body):
        return [d for d in self.diags(body) if d.severity == "error"]

    def test_corpus_clean(self, corpus):
        for path, decl, name, ch in corpus:
            errs = [d for d in check_well_formed(decl, ch)
                    if d.severity == "error"]
            assert errs == [], path

    def test_receive_on_send_port_rejected(self):
        assert any(d.code == "recv-port-type"
                   for d in self.errors("A.p -> { B.s }"))

    def test_send_on_receive_port_rejected(self):
        assert any(d.code == "send-port-type"
                   for d in self.errors("A.i -> { B.r }"))

    def test_dtype_mismatch_rejected(self):
        assert any(d.code == "comm-dtype"
                   for d in self.errors("A.d -> { B.r }"))

    def test_foreign_variable_rejected_at_parse_time(self):
        import pytest

        from chorc.parser import ParseError
        with pytest.raises(ParseError):
            chor("A.p[y > 0] -> { B.r }")

    # A guarded send is checked alike in each of its three contexts.
    CONTEXTS = {
        "send": "PORT -> { B.r }",
        "choice": "choice A { PORT => nil }",
        "loop condition": "while (PORT) { nil }",
    }
    GUARDED_SEND_CASES = [
        ("send-port-type", "A.i", "port A.i is not a send port"),
        ("guard-type", "A.p[x + 1]", "CONTEXT A.p guard is not boolean"),
        ("locality", "A.p[B.y > 0]", "CONTEXT A.p on component A uses foreign variable B.y"),
        ("assign-type", "A.p[true, x := true]",
         "CONTEXT A.p: assigning bool to A.x of type int"),
        # An operand of the wrong type fails the type inference itself.
        ("guard-type", "A.p[x + true]",
         "CONTEXT A.p guard: operator '+' needs int operands, got int/bool"),
        ("assign-type", "A.p[true, x := x + true]",
         "CONTEXT A.p: operator '+' needs int operands, got int/bool"),
        # Each other operator's operand rule.
        ("guard-type", "A.p[-b > 0]", "CONTEXT A.p guard: unary minus needs an int operand"),
        ("guard-type", "A.p[not x]", "CONTEXT A.p guard: not needs a bool operand"),
        ("guard-type", "A.p[x == b]",
         "CONTEXT A.p guard: comparison '==' across types int/bool"),
        ("guard-type", "A.p[b < true]", "CONTEXT A.p guard: ordering '<' on bool"),
        ("guard-type", "A.p[x and b]",
         "CONTEXT A.p guard: operator 'and' needs bool operands, got int/bool"),
        ("assign-type", "A.p[true, b := x or b]",
         "CONTEXT A.p: operator 'or' needs bool operands, got int/bool"),
    ]

    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize("code,port,message", GUARDED_SEND_CASES)
    def test_guarded_send_diagnostics(self, context, code, port, message):
        body = self.CONTEXTS[context].replace("PORT", port)
        errors = [(d.code, d.message) for d in self.errors(body)]
        assert errors == [(code, message.replace("CONTEXT", context))]

    def test_update_of_an_undeclared_variable(self):
        # The parser resolves every target, so only a term built through
        # the library can assign a variable that nothing declares.
        decl, _, ch = chor("A.p -> { B.r }")
        bad = Comm(GuardedSend(ch.send.port, TRUE, Update((("A.nope", Lit(1)),))), ch.rcvs)
        assert [(d.code, d.message) for d in check_well_formed(decl, bad)] == [
            ("unknown-var", "send A.p: unknown target A.nope")]

    @pytest.mark.parametrize("where, message", [
        ("guard", "send A.p guard: unknown variable 'A.nope'"),
        ("update", "send A.p: unknown variable 'A.nope'"),
    ])
    def test_read_of_an_undeclared_variable(self, where, message):
        # Only a term built through the library can read one, as above.
        decl, _, ch = chor("A.p -> { B.r }")
        nope = BinOp("+", Ref("A.nope"), Lit(1))
        gs = (GuardedSend(ch.send.port, BinOp(">", nope, Lit(0)), SKIP) if where == "guard"
              else GuardedSend(ch.send.port, TRUE, Update((("A.x", nope),))))
        assert [(d.code, d.message) for d in check_well_formed(decl, Comm(gs, ch.rcvs))] == [
            ("guard-type" if where == "guard" else "assign-type", message)]

    def test_locality_errors_sorted_by_variable(self):
        decl, _, ch = parse_source(
            "comp A { var x: int = 1; port p: ss of int binds x; }\n"
            "comp B { var y: int = 0; var z: int = 0; var w: int = 0; "
            "port r: r of int binds y; }\n"
            "choreography c = A.p[B.y + B.z + B.w > 0] -> { B.r }")
        foreign = [d.message.rsplit(" ", 1)[1] for d in check_well_formed(decl, ch)
                   if d.code == "locality"]
        assert foreign == ["B.w", "B.y", "B.z"]

    def test_guard_must_be_boolean(self):
        assert any(d.code == "guard-type"
                   for d in self.errors("A.p[x + 1] -> { B.r }"))

    def test_branch_master_owns_ports(self):
        assert any(d.code == "branch-port-ownership"
                   for d in self.errors("choice A { B.s => nil }"))

    def test_duplicate_receiver_component_rejected(self):
        assert any(d.code == "distinct-receivers"
                   for d in self.errors("A.p -> { B.r, B.r }"))

    def test_dependent_parallel_is_a_warning_only(self):
        diags = self.diags("( A.p -> { B.r } ) || ( A.p -> { C.r } )")
        shared = [d for d in diags if d.code == "parallel-independence"]
        assert shared and all(d.severity == "warning" for d in shared)
        assert not [d for d in diags if d.severity == "error"]

    def test_buying_warns_about_shared_payment_stage(self):
        decl, _, ch = (lambda t: (t[0], t[1], t[2]))(load_stem("buying"))
        kinds = {d.code for d in check_well_formed(decl, ch)}
        assert "parallel-independence" in kinds
