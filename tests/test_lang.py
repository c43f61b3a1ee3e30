"""Tests for participant sets, start/end sets and static well-formedness."""

import pytest

from chorc.lang import check_well_formed, end_set, participants, start_set
from chorc.parser import parse_source

from conftest import load_stem

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
        assert participants(ch) == {"A", "B", "C"}
        assert start_set(ch) == {"A"}
        assert end_set(ch) == {"B", "C"}

    def test_async_comm_end(self):
        _, _, ch = chor("A.a -> { B.r }")
        # An asynchronous send completes at the sender.
        assert end_set(ch) == {"A"}

    def test_seq(self):
        _, _, ch = chor("A.p -> { B.r } ; B.s -> { C.r }")
        assert start_set(ch) == {"A"}
        assert end_set(ch) == {"C"}

    def test_par_union(self):
        _, _, ch = chor("( A.p -> { B.r } ) || ( B.s -> { C.r } )")
        assert participants(ch) == {"A", "B", "C"}
        assert start_set(ch) == {"A", "B"}

    def test_branch(self):
        _, _, ch = chor("choice A { A.d => B.s -> { C.r } | A.d => nil }")
        assert participants(ch) == {"A", "B", "C"}
        assert start_set(ch) == {"A"}

    def test_loop(self):
        _, _, ch = chor("while (A.p[x > 0]) { A.a -> { B.r } }")
        assert participants(ch) == {"A", "B"}
        assert start_set(ch) == {"A"}

    def test_nil(self):
        _, _, ch = chor("nil")
        assert participants(ch) == frozenset()


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
    ]

    @pytest.mark.parametrize("context", CONTEXTS)
    @pytest.mark.parametrize("code,port,message", GUARDED_SEND_CASES)
    def test_guarded_send_diagnostics(self, context, code, port, message):
        body = self.CONTEXTS[context].replace("PORT", port)
        errors = [(d.code, d.message) for d in self.errors(body)]
        assert errors == [(code, message.replace("CONTEXT", context))]

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
