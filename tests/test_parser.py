"""Parser tests: corpus acceptance, round-tripping and error reporting."""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorc import parser
from chorc.lang import Branch, Comm, Loop, Nil, Par, Seq, format_chor
from chorc.parser import ParseError, parse_chor_source, parse_decls, parse_source

from conftest import ROOT, corpus_path, corpus_paths, load_stem

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
        # A character that starts no token, last in the input.
        ("comp A { }\n@", "unexpected character '@'", 2, 1),
        # A trailing comment does not advance the end-of-input position.
        ("comp A { }\nchoreography t = // nothing yet",
         "expected 'IDENT', found 'EOF'", 2, 18),
    ], ids=["unexpected", "eof-in-literal",
            "eof-after-backslash", "eof-after-escapes", "unknown-escape",
            "unknown-escape-unterminated", "superscript-two", "e-acute",
            "e-acute-in-ident", "unexpected-last", "eof-after-comment"])
    def test_lexer_errors(self, source, message, line, col):
        e = self.err(source)
        assert (e.message, e.line, e.col) == (message, line, col)

    # A declaration error is reported at the name it is about.
    @pytest.mark.parametrize("old, new, message, line, col", [
        ("comp B {", "comp A {", "duplicate component 'A'", 6, 6),
        ("  var x: int = 5;", "  var x: int = 5; var x: int;",
         "duplicate variable 'x' in A", 3, 23),
        ("  port p: ss of int binds x;", "  port p: ss of int binds x; port p: as of int binds x;",
         "duplicate port 'p' in A", 4, 35),
        ("binds x;", "binds z;", "port 'p' binds unknown variable 'z'", 4, 27),
        ("ss of int", "ss of bool", "port 'p' of bool binds x: int", 4, 28),
    ], ids=["component", "variable", "port", "unknown-variable", "variable-type"])
    def test_declaration_error_positions(self, old, new, message, line, col):
        with open(corpus_path("comm_sync")) as fh:
            text = fh.read()
        e = self.err(text.replace(old, new))
        assert (e.message, e.line, e.col) == (message, line, col)

    def test_payload_annotation(self):
        # The optional ``: <dtype>`` after a communication's receivers
        # names the payload's type: it must be the send port's, and it
        # changes nothing in the term.
        with open(corpus_path("comm_sync")) as fh:
            text = fh.read()
        end = "{ B.q[y := y * 2] }"
        assert parse_source(text.replace(end, end + " : <int>"))[2] is parse_source(text)[2]
        e = self.err(text.replace(end, end + " : <bool>"))
        assert str(e) == "11:75: annotation <bool> does not match port A.p of int"
        e = self.err(text.replace(end, "{ }"))
        assert e.message == "communication needs at least one receiver"

    # An unknown component is reported at its name in every context.
    @pytest.mark.parametrize("term, name, col", [
        ("choice Z { A.p => nil }", "Z", 28),
        ("Q.p -> { B.r }", "Q", 21),
        ("while (W.p) { nil }", "W", 28),
    ], ids=["choice-master", "send", "loop"])
    def test_unknown_component_position(self, term, name, col):
        e = self.err("comp A { var x: int = 0; port p: as of int binds x; }\n"
                     "comp B { var y: int = 0; port r: r of int binds y; }\n"
                     f"choreography main = {term}")
        assert (e.message, e.line, e.col) == (f"unknown component {name!r}", 3, col)


# -- the lexer against a reference ------------------------------------------

#: The lexer's token pattern, frozen as it was when every run of white
#: space and every newline was a match of its own.
REFERENCE_TOKEN = re.compile("|".join((
    r"(?P<space>[ \t\r]+|//[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<INT>[0-9]+)",
    r'(?P<STRING>"[^"\\\n\r]*(?:\\[nrt"\\][^"\\\n\r]*)*")',
    r"(?P<symbol>\|\||:=|=>|\->|==|!=|<=|>=|\{|\}|\(|\)|\[|\]|,|;|\.|:|<|>|\+|\-|\*|/|=|\|)",
)))


def reference_tokenize(source: str) -> list:
    """The lexer as it was before the one-pass ``finditer`` loop: one
    ``match`` of ``REFERENCE_TOKEN`` per position and a ``re.sub`` for the
    escapes."""
    Token, tokens = parser.Token, []
    line, line_start, pos, n = 1, 0, 0, len(source)
    m = None
    while pos < n:
        m = REFERENCE_TOKEN.match(source, pos)
        if m is None:
            raise parser._lex_error(source, pos, line, pos - line_start + 1)
        kind, col, pos = m.lastgroup, pos - line_start + 1, m.end()
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start = line + 1, pos
            continue
        text = m.group()
        if kind == "IDENT":
            tokens.append(Token(text if text in parser.KEYWORDS else "IDENT", text, line, col))
        elif kind == "symbol":
            tokens.append(Token(text, text, line, col))
        elif kind == "STRING":
            body = text[1:-1]
            if "\\" in body:
                body = re.sub(r"\\(.)", lambda e: parser._ESCAPES[e[1]], body)
            tokens.append(Token("STRING", body, line, col))
        else:
            tokens.append(Token(kind, text, line, col))
    if m is not None and m.group().startswith("//"):
        pos = m.start()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up there
    spec.loader.exec_module(gen)
    return gen


_GEN = _load_gen()
SOURCES = [Path(path).read_text() for path in corpus_paths()] + [
    make(seed).text for make in _GEN.GENERATORS.values() for seed in (0, 1)] + [
    # String literals with every escape, for edits inside literals.
    'comp A { var s: str = "a\\tb\\n"; var t: str = "q\\"\\\\r\\r";\n'
    '  port p: as of str binds s; }\n'
    'comp B { var u: str = ""; port r: r of str binds u; }\n'
    'choreography c = A.p[s == "x\\\\", s := "y\\"z"] -> { B.r[u := "w"] }\n']
#: What an edit inserts: white space, line breaks, comment and string
#: delimiters, a backslash, two non-ASCII characters and every symbol.
ALPHABET = [" ", "\t", "\r", "\n", "//", '"', "\\", "é", "²", *parser._SYMBOLS]


def lex(tokenize, source):
    """The token tuples, or the error's message and position."""
    try:
        return [tuple(t) for t in tokenize(source)]
    except ParseError as e:
        return ("error", e.message, e.line, e.col)


#: An edit: where (a fraction of the text, or of its quotes, so that
#: escapes inside string literals get edited too), and what: text to insert
#: or a number of characters to delete.
_edits = st.lists(st.tuples(
    st.booleans(),
    st.floats(0, 1, exclude_max=True),
    st.one_of(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3).map("".join),
              st.integers(1, 8))),
    min_size=1, max_size=4)


def apply_edits(source, edits):
    for in_quotes, at, edit in edits:
        quotes = [i + 1 for i, c in enumerate(source) if c == '"']
        if in_quotes and quotes:
            i = quotes[int(at * len(quotes))]
        else:
            i = int(at * (len(source) + 1))
        if isinstance(edit, int):
            source = source[:i] + source[i + edit:]
        else:
            source = source[:i] + edit + source[i:]
    return source


class TestLexerReference:
    def test_sources_agree(self):
        for source in SOURCES:
            assert lex(parser.tokenize, source) == lex(reference_tokenize, source)

    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    @given(st.sampled_from(range(len(SOURCES))), _edits)
    def test_edited_sources_agree(self, which, edits):
        source = apply_edits(SOURCES[which], edits)
        assert lex(parser.tokenize, source) == lex(reference_tokenize, source)

    def test_tokens_are_tuples(self):
        tok = parser.tokenize("comp")[0]
        assert tok == parser.Token("comp", "comp", 1, 1) == ("comp", "comp", 1, 1)
        assert (tok.kind, tok.text, tok.line, tok.col) == ("comp", "comp", 1, 1)


class TestErrorPositions:
    """The parser keeps token offsets and works out a line and column only
    for the error it raises. A lexical error is the one ``tokenize``
    raises, and any other error is at the position of one of its tokens."""

    @staticmethod
    def check(source):
        try:
            positions = {(t.line, t.col) for t in parser.tokenize(source)}
        except ParseError as lexed:
            with pytest.raises(ParseError) as exc:
                parse_source(source)
            e = exc.value
            assert (e.message, e.line, e.col) == (lexed.message, lexed.line, lexed.col)
            return
        try:
            parse_source(source)
        except ParseError as e:
            assert (e.line, e.col) in positions, e

    def test_sources(self):
        for source in SOURCES:
            self.check(source)

    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    @given(st.sampled_from(range(len(SOURCES))), _edits)
    def test_edited_sources(self, which, edits):
        self.check(apply_edits(SOURCES[which], edits))
