"""Lexer and recursive-descent parser for the .chor input language.

A source file declares components followed by one named choreography::

    comp P1 {
        var n: int = 3;
        port s: as of int binds n;
    }

    choreography main = while (P1.cond[n > 0, n := n - 1]) { ... }

Inside a port's ``[guard, update]`` bracket, bare variable names refer to
variables of the port's owner; foreign variables must be qualified (and are
then rejected by the well-formedness checker).
"""

from __future__ import annotations

import re
import string
from typing import NamedTuple

from .core import (
    BINARY_OPS, BinOp, Expr, FALSE, Lit, Neg, Not, Port, Ref, SKIP, TRUE,
    UNARY_PREC, Update, Variable, default_value,
)
from .lang import (
    Branch, Chor, Comm, ComponentDecl, GuardedSend, Loop, Nil, Par, Seq,
    SystemDecl,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # IDENT, INT, STRING, OP, EOF
    text: str
    line: int
    col: int


KEYWORDS = {
    "comp", "var", "port", "of", "binds", "choreography", "choice", "while",
    "nil", "skip", "true", "false", "not", "and", "or", "mod",
}

# Longest first so that e.g. ":=" is not read as ":" "=".
_SYMBOLS = (
    "||", ":=", "=>", "->", "==", "!=", "<=", ">=",
    "{", "}", "(", ")", "[", "]", ",", ";", ".", ":", "<", ">",
    "+", "-", "*", "/", "=", "|",
)

# The characters that continue a string literal: anything but a quote, a
# backslash or a line break, or one of the five escapes.
_STRING_BODY = r'[^"\\\n\r]*(?:\\[nrt"\\][^"\\\n\r]*)*'
_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}

# One alternative per token class, tried in this order at the current
# position. Identifiers and integers are ASCII only (see docs/grammar.md).
_CLASSES = (r"[A-Za-z_][A-Za-z0-9_]*", "[0-9]+", f'"{_STRING_BODY}"', *map(re.escape, _SYMBOLS))
# The lexer's pattern: white space and comments, then a token, else one
# character that starts no token, else the end; its one group is the token.
# The last alternative is empty, so a match never fails and never gives
# white space back: it needs no possessive quantifier or atomic group, which
# Python 3.10 lacks.
_TOKEN = re.compile(rf"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*({'|'.join(_CLASSES)}|.|)")
# A keyword's or a symbol's kind is its text, and the end's is EOF. An
# identifier or an integer takes its kind from its first character. A string
# literal has none here, nor has a character that starts no token.
_KINDS = {**{text: text for text in (*KEYWORDS, *_SYMBOLS)}, "": "EOF"}
_FIRST = {**dict.fromkeys(string.ascii_letters + "_", "IDENT"),
          **dict.fromkeys(string.digits, "INT")}
_STRING_PREFIX = re.compile(f'"{_STRING_BODY}')
_ESCAPE = re.compile(r"\\(.)")


def _lex(source: str) -> tuple[list[str], list[str]]:
    """The tokens' kinds and texts, the end token included, from one
    ``findall``: offsets are worked out only for an error (``_starts``)."""
    texts = _TOKEN.findall(source)
    if texts[-2:] == ["", ""]:  # the end, after white space, matched twice
        texts.pop()
    kind_of, first_of = _KINDS.get, _FIRST.get
    kinds = [kind_of(text) or first_of(text[0]) for text in texts]
    if None in kinds:  # a string literal, or a character that starts no token
        for i, text in enumerate(texts):
            if kinds[i] is None:
                if len(text) == 1:  # starts no token: a string has two quotes
                    pos = _starts(source)[i]
                    raise _lex_error(source, pos, *_position(source, pos))
                kinds[i] = "STRING"
                texts[i] = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text[1:-1])
    return kinds, texts


def _starts(source: str) -> list[int]:
    """The start offset of each token of ``_lex``, the end token included."""
    starts = []
    for m in _TOKEN.finditer(source):
        if not m[1]:
            # A comment does not advance the column, so input that ends in
            # one has its end token where the comment starts.
            comment = source.find("//", max(m.start(), source.rfind("\n", m.start()) + 1))
            starts.append(len(source) if comment < 0 else comment)
            return starts
        starts.append(m.start(1))


def _position(source: str, offset: int) -> tuple[int, int]:
    """The line and column of ``offset``, both from 1."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, line_start) + 1, offset - line_start + 1


def tokenize(source: str) -> list[Token]:
    """The tokens with their lines and columns, the end token included."""
    tokens, line, line_start, last = [], 1, 0, 0
    for kind, text, start in zip(*_lex(source), _starts(source)):
        line += source.count("\n", last, start)
        line_start = max(line_start, source.rfind("\n", last, start) + 1)
        tokens.append(Token(kind, text, line, start - line_start + 1))
        last = start
    return tokens


def _lex_error(source: str, pos: int, line: int, col: int) -> ParseError:
    """The error for the text at ``pos``, which starts no token. A string
    literal fails at the first character that cannot continue it."""
    if source[pos] != '"':
        return ParseError(f"unexpected character {source[pos]!r}", line, col)
    stop = _STRING_PREFIX.match(source, pos).end()
    if stop == len(source) or source[stop] in "\n\r":
        return ParseError("unterminated string literal", line, col)
    if stop + 1 == len(source):
        return ParseError("unterminated escape", line, col + stop - pos)
    return ParseError(f"unknown escape \\{source[stop + 1]}", line, col + stop - pos)


class Parser:
    """Recursive descent over the token kinds, which it indexes by position."""

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts = _lex(source)
        self.pos = 0

    # -- token stream helpers ------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str) -> str:
        """The text of the current token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            got = self.texts[pos] or self.kinds[pos]
            raise self.error(f"expected {kind!r}, found {got!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def error(self, message: str, at: int | None = None) -> ParseError:
        """The error at token ``at``, by default the current one."""
        start = _starts(self.source)[self.pos if at is None else at]
        return ParseError(message, *_position(self.source, start))

    def component(self, cid: str, at: int) -> tuple[dict, dict]:
        """The ports and variables of component ``cid``; an error at token
        ``at`` if there is none."""
        names = self.names.get(cid)
        if names is None:
            raise self.error(f"unknown component {cid!r}", at)
        return names

    # -- declarations --------------------------------------------------------

    def parse_file(self) -> tuple[SystemDecl, str, Chor]:
        decl = self.parse_decls()
        return (decl, *self.parse_named_chor(decl))

    def parse_named_chor(self, decl: SystemDecl) -> tuple[str, Chor]:
        """``choreography NAME = term``, which must end the input. Names
        resolve through a table of ``decl``'s components, each with its
        ports and its variables' qualified names by name: the first of
        equal names wins."""
        self.names = {c.id: ({p.name: p for p in reversed(c.ports)},
                             {v.name: v.qname for v, _ in reversed(c.vars)})
                      for c in reversed(decl.components)}
        self.expect("choreography")
        name = self.expect("IDENT")
        self.expect("=")
        ch = self.parse_chor()
        self.expect("EOF")
        return name, ch

    def parse_decls(self) -> SystemDecl:
        comps = []
        seen = set()
        while self.at("comp"):
            at = self.pos + 1  # the component's id
            c = self.parse_component()
            if c.id in seen:
                raise self.error(f"duplicate component {c.id!r}", at)
            seen.add(c.id)
            comps.append(c)
        return SystemDecl(components=tuple(comps))

    def parse_component(self) -> ComponentDecl:
        self.expect("comp")
        cid = self.expect("IDENT")
        self.expect("{")
        variables: list[tuple[Variable, object]] = []
        var_by_name: dict[str, Variable] = {}
        ports: list[Port] = []
        port_names = set()
        while not self.accept("}"):
            if self.accept("var"):
                at = self.pos
                name = self.expect("IDENT")
                if name in var_by_name:
                    raise self.error(f"duplicate variable {name!r} in {cid}", at)
                self.expect(":")
                dtype = self.parse_dtype()
                var = Variable(name=name, owner=cid, dtype=dtype)
                init = default_value(dtype)
                if self.accept("="):
                    init = self.parse_literal(dtype)
                self.expect(";")
                var_by_name[name] = var
                variables.append((var, init))
            elif self.accept("port"):
                at = self.pos
                name = self.expect("IDENT")
                if name in port_names:
                    raise self.error(f"duplicate port {name!r} in {cid}", at)
                self.expect(":")
                at = self.pos
                ctype = self.expect("IDENT")
                if ctype not in ("ss", "as", "r", "in"):
                    raise self.error(f"unknown port type {ctype!r}", at)
                self.expect("of")
                dtype = self.parse_dtype()
                self.expect("binds")
                at = self.pos
                var_name = self.expect("IDENT")
                if var_name not in var_by_name:
                    raise self.error(f"port {name!r} binds unknown variable {var_name!r}", at)
                var = var_by_name[var_name]
                if var.dtype != dtype:
                    raise self.error(f"port {name!r} of {dtype} binds {var_name}: {var.dtype}",
                                     at)
                self.expect(";")
                port_names.add(name)
                ports.append(Port(name=name, owner=cid, var=var, ctype=ctype))
            else:
                raise self.error("expected 'var', 'port' or '}'")
        return ComponentDecl(id=cid, vars=tuple(variables), ports=tuple(ports))

    def parse_dtype(self) -> str:
        at = self.pos
        dtype = self.expect("IDENT")
        if dtype not in ("int", "bool", "str"):
            raise self.error(f"unknown type {dtype!r}", at)
        return dtype

    def parse_literal(self, dtype: str):
        if dtype == "int":
            neg = self.accept("-")
            value = int(self.expect("INT"))
            return -value if neg else value
        if dtype == "bool":
            if self.accept("true"):
                return True
            self.expect("false")
            return False
        return self.expect("STRING")

    # -- choreography terms --------------------------------------------------

    def parse_chor(self) -> Chor:
        return self.parse_chain("||", Par, self.parse_seq)

    def parse_seq(self) -> Chor:
        return self.parse_chain(";", Seq, self.parse_atom)

    def parse_chain(self, sep: str, cls, parse_operand) -> Chor:
        """Operands separated by ``sep``, joined by ``cls`` nested to the
        right. A loop reads them, so a chain's length adds no depth."""
        terms = [parse_operand()]
        while self.accept(sep):
            terms.append(parse_operand())
        term = terms.pop()
        while terms:
            term = cls(terms.pop(), term)
        return term

    def parse_atom(self) -> Chor:
        if self.accept("nil"):
            return Nil()
        if self.accept("("):
            ch = self.parse_chor()
            self.expect(")")
            return ch
        if self.accept("choice"):
            return self.parse_branch()
        if self.accept("while"):
            return self.parse_loop()
        return self.parse_comm()

    def parse_branch(self) -> Branch:
        at = self.pos
        master = self.expect("IDENT")
        self.component(master, at)
        self.expect("{")
        conts = []
        while True:
            gs = self.parse_guarded_send()
            self.expect("=>")
            conts.append((gs, self.parse_chor()))
            if not self.accept("|"):
                break
        self.expect("}")
        return Branch(master=master, conts=tuple(conts))

    def parse_loop(self) -> Loop:
        self.expect("(")
        cond = self.parse_guarded_send()
        self.expect(")")
        self.expect("{")
        body = self.parse_chor()
        self.expect("}")
        return Loop(cond=cond, body=body)

    def parse_comm(self) -> Comm:
        send = self.parse_guarded_send()
        self.expect("->")
        self.expect("{")
        rcvs = []
        if not self.at("}"):
            while True:
                port = self.parse_port_ref()
                update = SKIP
                if self.accept("["):
                    update = self.parse_update(port.owner)
                    self.expect("]")
                rcvs.append((port, update))
                if not self.accept(","):
                    break
        close = self.pos
        self.expect("}")
        if not rcvs:
            raise self.error("communication needs at least one receiver", close)
        if self.accept(":"):
            self.expect("<")
            at = self.pos
            dtype = self.parse_dtype()
            self.expect(">")
            if dtype != send.port.dtype:
                raise self.error(
                    f"annotation <{dtype}> does not match port "
                    f"{send.port.pid} of {send.port.dtype}", at)
        return Comm(send=send, rcvs=tuple(rcvs))

    def parse_guarded_send(self) -> GuardedSend:
        port = self.parse_port_ref()
        guard: Expr = TRUE
        update = SKIP
        if self.accept("["):
            if not self.at("]"):
                guard = self.parse_expr(port.owner)
                if self.accept(","):
                    update = self.parse_update(port.owner)
            self.expect("]")
        return GuardedSend(port=port, guard=guard, update=update)

    def parse_port_ref(self) -> Port:
        at = self.pos
        cid = self.expect("IDENT")
        self.expect(".")
        name = self.expect("IDENT")
        port = self.component(cid, at)[0].get(name)
        if port is None:
            raise self.error(f"component {cid} has no port {name!r}", at)
        return port

    # -- updates and expressions ---------------------------------------------

    def parse_update(self, owner: str) -> Update:
        if self.accept("skip"):
            return SKIP
        assignments = []
        while True:
            target = self.parse_var_ref(owner)
            self.expect(":=")
            assignments.append((target, self.parse_expr(owner)))
            if not self.accept(";"):
                break
        return Update(assignments=tuple(assignments))

    def parse_var_ref(self, owner: str) -> str:
        at = self.pos
        first = self.expect("IDENT")
        if self.accept("."):
            comp_id, name = first, self.expect("IDENT")
        else:
            comp_id, name = owner, first
        qname = self.component(comp_id, at)[1].get(name)
        if qname is None:
            raise self.error(f"component {comp_id} has no variable {name!r}", at)
        return qname

    def parse_expr(self, owner: str, min_prec: int = 1) -> Expr:
        """Precedence climbing over ``BINARY_OPS``: the longest expression
        whose binary operators bind at least as tightly as ``min_prec``."""
        left = self.parse_unary(owner)
        max_prec = UNARY_PREC
        while True:
            op = self.kinds[self.pos]
            info = BINARY_OPS.get(op)
            if info is None or not min_prec <= info.prec <= max_prec:
                return left
            self.pos += 1
            left = BinOp(op, left, self.parse_expr(owner, info.prec + 1))
            # Left-associative: the right operand took every tighter
            # operator. A comparison does not chain, so after one only
            # looser operators may follow.
            max_prec = info.prec - 1 if info.kind == "cmp" else info.prec

    def parse_unary(self, owner: str) -> Expr:
        if self.accept("not"):
            return Not(self.parse_unary(owner))
        if self.accept("-"):
            return Neg(self.parse_unary(owner))
        return self.parse_primary(owner)

    def parse_primary(self, owner: str) -> Expr:
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        kind = self.kinds[self.pos]
        if kind == "INT" or kind == "STRING":
            text = self.expect(kind)
            return Lit(int(text) if kind == "INT" else text)
        if self.accept("("):
            inner = self.parse_expr(owner)
            self.expect(")")
            return inner
        if kind == "IDENT":
            return Ref(self.parse_var_ref(owner))
        raise self.error("expected an expression")


def parse_source(source: str) -> tuple[SystemDecl, str, Chor]:
    """Parse a complete .chor file: declarations plus one named choreography."""
    return Parser(source).parse_file()


def parse_decls(source: str) -> SystemDecl:
    """Parse a declarations-only file (two-file configuration mode)."""
    p = Parser(source)
    decl = p.parse_decls()
    p.expect("EOF")
    return decl


def parse_chor_source(source: str, decl: SystemDecl) -> tuple[str, Chor]:
    """Parse a choreography-only file against an existing declaration."""
    return Parser(source).parse_named_chor(decl)
