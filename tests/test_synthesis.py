"""Tests for controller-free synthesis of component systems."""

import dataclasses

import pytest

from chorc.cbs import check_structure, serialize_system, sys_explore, system_to_dot
from chorc.core import BinOp, Lit, Neg, Not, Ref, Update
from chorc.parser import parse_source
from chorc.promela import PromelaOptions, generate_promela, ltl_templates
from chorc.synthesis import PROFILES, SynthError, synthesize
from chorc.verify import equiv_check

from conftest import load_stem


def synth_stem(stem, profile="default"):
    decl, _, ch = load_stem(stem)
    return decl, ch, synthesize(decl, ch, profile)


def comp(sys, cid):
    return next(c for c in sys.components if c.id == cid)


def used_ports(c):
    return {t.port.name for t in c.transitions if t.port is not None}


class TestShape:
    def test_no_controllers(self, corpus):
        # The synthesized system contains exactly the declared components.
        from chorc.synthesis import synthesize as synth
        for path, decl, name, ch in corpus:
            for profile in PROFILES:
                sys = synth(decl, ch, profile)
                assert tuple(c.id for c in sys.components) == decl.component_ids(), path

    def test_structure_clean_on_corpus(self, corpus):
        for path, decl, name, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                assert check_structure(sys) == [], (path, profile)
                for c in sys.components:  # no two silent edges alike
                    silent = [(t.src, t.dst) for t in c.transitions if t.port is None]
                    assert len(silent) == len(set(silent)), (path, profile, c.id)

    def test_every_component_has_init_and_end(self, corpus):
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch)
            for c in sys.components:
                assert c.init in c.locations
                assert c.end in c.locations

    def test_deterministic_output(self):
        from chorc.cbs import serialize_system
        decl, ch, sys = synth_stem("buying")
        _, _, sys2 = synth_stem("buying")
        assert serialize_system(sys) == serialize_system(sys2)


class TestNoStepTablesUnlessStepped:
    """Synthesis checks a system from its components' text facts; the step
    tables, with their compiled guard and update closures, are built only
    when the system first steps."""

    def test_checking_and_emitting_build_no_step_table(self, corpus, monkeypatch):
        # Every read of a node's closure is counted, whether or not the
        # node has built it before.
        asked = []
        for cls in (Lit, Ref, BinOp, Not, Neg, Update):
            build = cls.__dict__["compiled"].fn
            monkeypatch.setattr(cls, "compiled", property(
                lambda node, build=build: asked.append(node) or build(node)))
        for path, decl, _, ch in corpus:
            for profile in PROFILES:
                sys = synthesize(decl, ch, profile)
                serialize_system(sys)
                system_to_dot(sys)
                generate_promela(sys, PromelaOptions())
                ltl_templates(sys)
                assert asked == [], (path, profile)
                assert "_steps" not in vars(sys), (path, profile)
                for c in sys.components:
                    fields = {f.name for f in dataclasses.fields(c)}
                    assert set(vars(c)) - fields <= {"_findings", "_by_src"}, (path, profile)
        sys_explore(sys)  # the counting sees the closures a first step builds
        assert asked and all("_tables" in vars(c) for c in sys.components)


class TestToyShape:
    """The producer/consumer pair pins the exact expected structure."""

    def test_p1_locations_and_ports(self):
        decl, ch, sys = synth_stem("producer_consumer")
        p1 = comp(sys, "P1")
        assert len(p1.locations) == 6
        # Five ports drive the automaton: the loop-entry copy of cond, the
        # loop break, the stream copy of s, the incoming ack copy and the
        # sequencing receive.
        assert used_ports(p1) == {"cond#1", "brk@1", "s#1", "ack#1", "cr@1"}

    def test_pairs_are_interaction_disjoint(self):
        decl, ch, sys = synth_stem("producer_consumer")
        pair1, pair2 = {"P1", "C1"}, {"P2", "C2"}
        for inter in sys.gamma:
            owners = {inter.send.owner} | {r.owner for r in inter.receivers}
            assert owners <= pair1 or owners <= pair2


class TestBuyingCounts:
    def test_default_profile_interaction_count(self):
        _, _, sys = synth_stem("buying", "default")
        assert len(sys.gamma) == 21

    def test_compat_profile_interaction_count(self):
        _, _, sys = synth_stem("buying", "compat")
        assert len(sys.gamma) == 27

    def test_compat_seller_arm_count(self):
        _, _, sys = synth_stem("buying", "compat")
        seller = comp(sys, "S")
        # 14 locations with outgoing behavior plus the end location.
        assert len(seller.locations) == 15
        assert seller.end in seller.locations
        assert not [t for t in seller.transitions if t.src == seller.end]


class TestControlMachinery:
    def test_branch_uses_fresh_control_ports(self):
        decl, ch, sys = synth_stem("branch_two")
        names = {t.port.name for c in sys.components
                 for t in c.transitions if t.port is not None}
        assert any(n.startswith("br@") for n in names)

    def test_default_profile_branch_join_is_epsilon(self):
        _, _, sys = synth_stem("branch_two", "default")
        assert any(t.port is None for c in sys.components for t in c.transitions)

    def test_compat_profile_branch_join_merges(self):
        _, _, sys = synth_stem("branch_two", "compat")
        assert not any(t.port is None for c in sys.components
                       for t in c.transitions)

    def test_loop_backedges_and_break(self):
        _, _, sys = synth_stem("loop_countdown")
        names = {t.port.name for c in sys.components
                 for t in c.transitions if t.port is not None}
        assert any(n.startswith("cont@") for n in names)
        assert any(n.startswith("brk@") for n in names)
        assert any(t.port is None for c in sys.components for t in c.transitions)

    def test_loop_on_asynchronous_condition_port(self):
        # With an asynchronous loop entry, A could run ahead and break while
        # B still held the entry and the body's message in its buffers:
        # B then sat at its end location with full buffers, a deadlock.
        decl, _, ch = parse_source(
            "comp A { var x: int = 1; port c: as of int binds x; port p: as of int binds x; }\n"
            "comp B { var y: int = 0; port r: r of int binds y; }\n"
            "choreography c = while (A.c[x < 3, x := x + 1]) { A.p -> { B.r } }\n")
        for profile in PROFILES:
            sys = synthesize(decl, ch, profile)
            rep = equiv_check(decl, ch, sys)
            assert (rep.verdict, rep.sys_deadlocks) == ("equivalent", 0), (profile, rep.reasons)
            cont = [i.send for i in sys.gamma if i.receivers[0].name.startswith("cont@")]
            assert [p.ctype for p in cont] == ["ss"], profile

    def test_port_copies_are_single_use(self, corpus):
        # Every synthesized send-port copy occurs in exactly one interaction.
        for path, decl, name, ch in corpus:
            sys = synthesize(decl, ch)
            seen = {}
            for inter in sys.gamma:
                seen[inter.send.pid] = seen.get(inter.send.pid, 0) + 1
            assert all(n == 1 for n in seen.values()), path

    def test_control_variables_shadow_user_state(self):
        decl, ch, sys = synth_stem("branch_two")
        declared = {v.qname for c in decl.components for v, _ in c.vars}
        for c in sys.components:
            for v, _ in c.vars:
                assert v.qname in declared or v.name.startswith("%")


class TestSeqSync:
    def test_skipped_when_receiver_carries_the_chain(self):
        # Each stage's receiver is the next stage's sender, so the default
        # profile never needs an extra synchronization.
        _, _, sys = synth_stem("seq_chain", "default")
        names = {t.port.name for c in sys.components
                 for t in c.transitions if t.port is not None}
        assert not any(n.startswith(("cs@", "cr@")) for n in names)

    def test_inserted_when_anchor_missing_from_starts(self):
        _, _, sys = synth_stem("producer_consumer", "default")
        names = {t.port.name for c in sys.components
                 for t in c.transitions if t.port is not None}
        assert any(n.startswith("cs@") for n in names)
        assert any(n.startswith("cr@") for n in names)

    def test_profiles_may_disagree_on_sync_placement(self):
        _, _, d = synth_stem("seq_pingpong", "default")
        _, _, c = synth_stem("seq_pingpong", "compat")
        # The ping-pong chain needs no sync under the default ends, but the
        # compat ends anchor on the sender and add one.
        assert len(c.gamma) == len(d.gamma) + 1


    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("body", ["nil ; A.p -> { B.r }", "A.p -> { B.r } ; nil"])
    def test_none_next_to_nil(self, body, profile):
        # nil starts and ends nowhere, so nothing waits on it: the system is
        # the lone send's, and behaves as the term does.
        decl, _, ch = parse_source(
            "comp A { var x: int = 0; port p: ss of int binds x; }\n"
            "comp B { var y: int = 0; port r: r of int binds y; }\n"
            f"choreography t = {body}")
        sys = synthesize(decl, ch, profile)
        assert [(i.send.pid, [r.pid for r in i.receivers]) for i in sys.gamma] == [
            ("A.p#1", ["B.r#1"])]
        assert equiv_check(decl, ch, sys).verdict == "equivalent"


class TestLongChain:
    """A chain of 900 synchronous sends from A to B. Synthesis and its
    checks take time linear in its length (see CHANGES.md for the
    per-interaction times)."""

    N = 900

    @pytest.mark.parametrize("profile, interactions", [
        # The default profile adds one sync per `;`: B ends the send before
        # it and A starts the one after. Under compat, A both ends and starts.
        ("default", 2 * N - 1), ("compat", N)])
    def test_chain(self, profile, interactions):
        decl, _, ch = parse_source(
            "comp A { var x: int = 0; port p: ss of int binds x; }\n"
            "comp B { var y: int = 0; port r: r of int binds y; }\n"
            "choreography chain = " + " ; ".join(["A.p -> { B.r }"] * self.N))
        sys = synthesize(decl, ch, profile)
        assert len(sys.gamma) == interactions
        assert check_structure(sys) == []


class TestErrors:
    def test_bad_profile_rejected(self):
        decl, _, ch = load_stem("nil")
        with pytest.raises((SynthError, ValueError, AssertionError)):
            synthesize(decl, ch, "nope")
