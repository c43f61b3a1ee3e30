"""Parser tests: corpus acceptance, round-tripping and error reporting."""

import pytest

from chorc.lang import Branch, Comm, Loop, Nil, Par, Seq, format_chor
from chorc.parser import ParseError, parse_chor_source, parse_decls, parse_source

from conftest import load_stem

MINI = """
comp A {
  var x: int = 3;
  var b: bool = true;
  port p: ss of int binds x;
  port q: as of int binds x;
}
comp B {
  var y: int = 0;
  port r: r of int binds y;
}
choreography mini = A.p[x > 0, x := x - 1] -> { B.r[y := y + 1] }
"""


class TestParseSource:
    def test_mini(self):
        decl, name, ch = parse_source(MINI)
        assert name == "mini"
        assert decl.component_ids() == ("A", "B")
        assert isinstance(ch, Comm)
        assert ch.send.port.pid == "A.p"
        assert [p.pid for p, _ in ch.rcvs] == ["B.r"]

    def test_initial_valuation(self):
        decl, _, _ = parse_source(MINI)
        sigma = decl.initial_valuation()
        assert sigma["A.x"] == 3
        assert sigma["A.b"] is True
        assert sigma["B.y"] == 0

    def test_corpus_parses(self, corpus):
        assert len(corpus) >= 13
        for path, decl, name, ch in corpus:
            assert decl.component_ids(), path
            assert name, path

    def test_operator_structure(self):
        # ';' binds tighter than '||'; both are right-associative.
        _, _, ch = load_stem("par_pairs")
        assert isinstance(ch, Par)
        _, _, ch = load_stem("seq_chain")
        assert isinstance(ch, Seq)
        assert isinstance(ch.second, Seq)

    def test_loop_and_branch_nodes(self):
        _, _, ch = load_stem("loop_countdown")
        loop = ch
        while not isinstance(loop, Loop):
            loop = loop.first if isinstance(loop, Seq) else loop.second
        assert isinstance(loop.body, (Comm, Seq))
        _, _, ch = load_stem("branch_two")
        br = ch
        while not isinstance(br, Branch):
            br = br.first if isinstance(br, Seq) else br.second
        assert len(br.conts) == 2

    def test_nil(self):
        _, _, ch = load_stem("nil")
        assert isinstance(ch, Nil)

    def test_comments_and_whitespace(self):
        src = "// leading\n" + MINI + "// trailing\n"
        parse_source(src)


class TestTwoFileMode:
    def test_split_sources(self):
        head, _, tail = MINI.partition("choreography")
        decl = parse_decls(head)
        name, ch = parse_chor_source("choreography" + tail, decl)
        assert name == "mini"
        assert isinstance(ch, Comm)


class TestRoundTrip:
    def test_corpus_round_trips(self, corpus):
        for path, decl, name, ch in corpus:
            text = f"choreography {name} = {format_chor(ch)}"
            name2, ch2 = parse_chor_source(text, decl)
            assert name2 == name
            assert ch2 == ch, path


class TestErrors:
    def err(self, source):
        with pytest.raises(ParseError) as exc:
            parse_source(source)
        return exc.value

    def test_unknown_component(self):
        e = self.err("comp A { var x: int = 0; port p: ss of int binds x; }\n"
                     "choreography t = Z.p -> { A.p }")
        assert "Z" in str(e)

    def test_unknown_port(self):
        self.err("comp A { var x: int = 0; port p: ss of int binds x; }\n"
                 "choreography t = A.nope -> { A.p }")

    def test_missing_semicolon(self):
        self.err("comp A { var x: int = 0 port p: ss of int binds x; }\n"
                 "choreography t = nil")

    def test_bad_literal(self):
        self.err("comp A { var x: int = true; port p: ss of int binds x; }\n"
                 "choreography t = nil")

    def test_positions_reported(self):
        e = self.err("comp A { var x: int = 0; port p: ss of int binds x; }\n"
                     "choreography t = @@")
        assert e.line >= 1 and e.col >= 1

    def test_duplicate_component(self):
        self.err("comp A { var x: int = 0; port p: ss of int binds x; }\n"
                 "comp A { var y: int = 0; port q: r of int binds y; }\n"
                 "choreography t = nil")

    def test_trailing_garbage(self):
        self.err(MINI + "\nextra tokens here")

    @pytest.mark.parametrize("raw", ["\n", "\r"])
    def test_raw_line_break_in_string(self, raw):
        e = self.err(f'comp A {{ var s: str = "a{raw}b"; port p: ss of str binds s; }}\n'
                     "choreography t = nil")
        assert e.message == "unterminated string literal"
        assert (e.line, e.col) == (1, 23)

    @pytest.mark.parametrize("source, message, line, col", [
        ('comp A { var x: int = 0; }\nchoreography t = A.p -> { @ }',
         "unexpected character '@'", 2, 27),
        ('comp A { var s: str = "abc', "unterminated string literal", 1, 23),
        ('comp A { var s: str = "ab\\', "unterminated escape", 1, 26),
        ('comp A { var s: str = "a\\tb\\', "unterminated escape", 1, 28),
        ('comp A { var s: str = "a\\qb"; }', "unknown escape \\q", 1, 25),
        # The leftmost fault decides: the escape comes before the line break.
        ('comp A { var s: str = "a\\pb\ncomp B { }', "unknown escape \\p", 1, 25),
        # Identifiers and integers are ASCII only.
        ("comp A {\n  var n: int = ²;\n}", "unexpected character '²'", 2, 16),
        ("comp é { }", "unexpected character 'é'", 1, 6),
        ("comp Aé { }", "unexpected character 'é'", 1, 7),
        # A trailing comment does not advance the end-of-input position.
        ("comp A { }\nchoreography t = // nothing yet",
         "expected 'IDENT', found 'EOF'", 2, 18),
    ], ids=["unexpected", "eof-in-literal",
            "eof-after-backslash", "eof-after-escapes", "unknown-escape",
            "unknown-escape-unterminated", "superscript-two", "e-acute",
            "e-acute-in-ident", "eof-after-comment"])
    def test_lexer_errors(self, source, message, line, col):
        e = self.err(source)
        assert (e.message, e.line, e.col) == (message, line, col)
