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
_TOKEN = re.compile("|".join((
    r"(?P<space>[ \t\r]+|//[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<INT>[0-9]+)",
    f'(?P<STRING>"{_STRING_BODY}")',
    "(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
)))
_STRING_PREFIX = re.compile(f'"{_STRING_BODY}')
_ESCAPE = re.compile(r"\\(.)")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without NamedTuple's keyword handling
    line, line_start, pos = 1, 0, 0
    m = None
    for m in _TOKEN.finditer(source):
        start = m.start()
        if start != pos:  # finditer skipped text that starts no token
            raise _lex_error(source, pos, line, pos - line_start + 1)
        kind, pos = m.lastgroup, m.end()
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start = line + 1, pos
            continue
        text, col = m.group(), start - line_start + 1
        if kind == "IDENT":
            append(new(Token, (text if text in KEYWORDS else "IDENT", text, line, col)))
        elif kind == "symbol":
            append(new(Token, (text, text, line, col)))
        elif kind == "STRING":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body)
            append(new(Token, ("STRING", body, line, col)))
        else:
            append(new(Token, (kind, text, line, col)))
    if pos != len(source):
        raise _lex_error(source, pos, line, pos - line_start + 1)
    # A comment does not advance the column, so input that ends in one has
    # its end token where the comment starts.
    if m is not None and m.group().startswith("//"):
        pos = m.start()
    append(new(Token, ("EOF", "", line, pos - line_start + 1)))
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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token stream helpers ------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str) -> bool:
        return self.cur.kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.cur.kind == kind:
            tok = self.cur
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str) -> Token:
        tok = self.accept(kind)
        if tok is None:
            got = self.cur.text or self.cur.kind
            raise ParseError(f"expected {kind!r}, found {got!r}",
                             self.cur.line, self.cur.col)
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.col)

    @staticmethod
    def component(decl: SystemDecl, cid: str, at: Token) -> ComponentDecl:
        """The declaration of component ``cid``; an error at ``at`` if none."""
        try:
            return decl.component(cid)
        except KeyError:
            raise ParseError(f"unknown component {cid!r}", at.line, at.col) from None

    # -- declarations --------------------------------------------------------

    def parse_file(self) -> tuple[SystemDecl, str, Chor]:
        decl = self.parse_decls()
        return (decl, *self.parse_named_chor(decl))

    def parse_named_chor(self, decl: SystemDecl) -> tuple[str, Chor]:
        """``choreography NAME = term``, which must end the input."""
        self.expect("choreography")
        name = self.expect("IDENT").text
        self.expect("=")
        ch = self.parse_chor(decl)
        self.expect("EOF")
        return name, ch

    def parse_decls(self) -> SystemDecl:
        comps = []
        seen = set()
        while self.at("comp"):
            c = self.parse_component()
            if c.id in seen:
                self.fail(f"duplicate component {c.id!r}")
            seen.add(c.id)
            comps.append(c)
        return SystemDecl(components=tuple(comps))

    def parse_component(self) -> ComponentDecl:
        self.expect("comp")
        cid = self.expect("IDENT").text
        self.expect("{")
        variables: list[tuple[Variable, object]] = []
        var_by_name: dict[str, Variable] = {}
        ports: list[Port] = []
        port_names = set()
        while not self.accept("}"):
            if self.accept("var"):
                name = self.expect("IDENT").text
                if name in var_by_name:
                    self.fail(f"duplicate variable {name!r} in {cid}")
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
                name = self.expect("IDENT").text
                if name in port_names:
                    self.fail(f"duplicate port {name!r} in {cid}")
                self.expect(":")
                ctype_tok = self.expect("IDENT")
                if ctype_tok.text not in ("ss", "as", "r", "in"):
                    raise ParseError(f"unknown port type {ctype_tok.text!r}",
                                     ctype_tok.line, ctype_tok.col)
                self.expect("of")
                dtype = self.parse_dtype()
                self.expect("binds")
                var_name = self.expect("IDENT").text
                if var_name not in var_by_name:
                    self.fail(f"port {name!r} binds unknown variable {var_name!r}")
                var = var_by_name[var_name]
                if var.dtype != dtype:
                    self.fail(f"port {name!r} of {dtype} binds {var_name}: {var.dtype}")
                self.expect(";")
                port_names.add(name)
                ports.append(Port(name=name, owner=cid, var=var, ctype=ctype_tok.text))
            else:
                self.fail("expected 'var', 'port' or '}'")
        return ComponentDecl(id=cid, vars=tuple(variables), ports=tuple(ports))

    def parse_dtype(self) -> str:
        tok = self.expect("IDENT")
        if tok.text not in ("int", "bool", "str"):
            raise ParseError(f"unknown type {tok.text!r}", tok.line, tok.col)
        return tok.text

    def parse_literal(self, dtype: str):
        if dtype == "int":
            neg = bool(self.accept("-"))
            tok = self.expect("INT")
            return -int(tok.text) if neg else int(tok.text)
        if dtype == "bool":
            if self.accept("true"):
                return True
            self.expect("false")
            return False
        return self.expect("STRING").text

    # -- choreography terms --------------------------------------------------

    def parse_chor(self, decl: SystemDecl) -> Chor:
        left = self.parse_seq(decl)
        if self.accept("||"):
            return Par(left, self.parse_chor(decl))
        return left

    def parse_seq(self, decl: SystemDecl) -> Chor:
        left = self.parse_atom(decl)
        if self.accept(";"):
            return Seq(left, self.parse_seq(decl))
        return left

    def parse_atom(self, decl: SystemDecl) -> Chor:
        if self.accept("nil"):
            return Nil()
        if self.accept("("):
            ch = self.parse_chor(decl)
            self.expect(")")
            return ch
        if self.accept("choice"):
            return self.parse_branch(decl)
        if self.accept("while"):
            return self.parse_loop(decl)
        return self.parse_comm(decl)

    def parse_branch(self, decl: SystemDecl) -> Branch:
        master = self.expect("IDENT")
        self.component(decl, master.text, master)
        self.expect("{")
        conts = []
        while True:
            gs = self.parse_guarded_send(decl)
            self.expect("=>")
            conts.append((gs, self.parse_chor(decl)))
            if not self.accept("|"):
                break
        self.expect("}")
        return Branch(master=master.text, conts=tuple(conts))

    def parse_loop(self, decl: SystemDecl) -> Loop:
        self.expect("(")
        cond = self.parse_guarded_send(decl)
        self.expect(")")
        self.expect("{")
        body = self.parse_chor(decl)
        self.expect("}")
        return Loop(cond=cond, body=body)

    def parse_comm(self, decl: SystemDecl) -> Comm:
        send = self.parse_guarded_send(decl)
        self.expect("->")
        self.expect("{")
        rcvs = []
        if not self.at("}"):
            while True:
                port = self.parse_port_ref(decl)
                update = SKIP
                if self.accept("["):
                    update = self.parse_update(decl, port.owner)
                    self.expect("]")
                rcvs.append((port, update))
                if not self.accept(","):
                    break
        close = self.cur
        self.expect("}")
        if not rcvs:
            raise ParseError("communication needs at least one receiver",
                             close.line, close.col)
        if self.accept(":"):
            self.expect("<")
            tok = self.cur
            dtype = self.parse_dtype()
            self.expect(">")
            if dtype != send.port.dtype:
                raise ParseError(
                    f"annotation <{dtype}> does not match port "
                    f"{send.port.pid} of {send.port.dtype}",
                    tok.line, tok.col)
        return Comm(send=send, rcvs=tuple(rcvs))

    def parse_guarded_send(self, decl: SystemDecl) -> GuardedSend:
        port = self.parse_port_ref(decl)
        guard: Expr = TRUE
        update = SKIP
        if self.accept("["):
            if not self.at("]"):
                guard = self.parse_expr(decl, port.owner)
                if self.accept(","):
                    update = self.parse_update(decl, port.owner)
            self.expect("]")
        return GuardedSend(port=port, guard=guard, update=update)

    def parse_port_ref(self, decl: SystemDecl) -> Port:
        tok = self.expect("IDENT")
        self.expect(".")
        name = self.expect("IDENT").text
        for p in self.component(decl, tok.text, tok).ports:
            if p.name == name:
                return p
        raise ParseError(f"component {tok.text} has no port {name!r}",
                         tok.line, tok.col)

    # -- updates and expressions ---------------------------------------------

    def parse_update(self, decl: SystemDecl, owner: str) -> Update:
        if self.accept("skip"):
            return SKIP
        assignments = []
        while True:
            target = self.parse_var_ref(decl, owner)
            self.expect(":=")
            assignments.append((target, self.parse_expr(decl, owner)))
            if not self.accept(";"):
                break
        return Update(assignments=tuple(assignments))

    def parse_var_ref(self, decl: SystemDecl, owner: str) -> str:
        tok = self.expect("IDENT")
        first = tok.text
        if self.accept("."):
            comp_id, name = first, self.expect("IDENT").text
        else:
            comp_id, name = owner, first
        for var, _ in self.component(decl, comp_id, tok).vars:
            if var.name == name:
                return var.qname
        raise ParseError(f"component {comp_id} has no variable {name!r}",
                         tok.line, tok.col)

    def parse_expr(self, decl: SystemDecl, owner: str, min_prec: int = 1) -> Expr:
        """Precedence climbing over ``BINARY_OPS``: the longest expression
        whose binary operators bind at least as tightly as ``min_prec``."""
        left = self.parse_unary(decl, owner)
        max_prec = UNARY_PREC
        while True:
            op = self.cur.kind
            info = BINARY_OPS.get(op)
            if info is None or not min_prec <= info.prec <= max_prec:
                return left
            self.pos += 1
            left = BinOp(op, left, self.parse_expr(decl, owner, info.prec + 1))
            # Left-associative: the right operand took every tighter
            # operator. A comparison does not chain, so after one only
            # looser operators may follow.
            max_prec = info.prec - 1 if info.kind == "cmp" else info.prec

    def parse_unary(self, decl, owner) -> Expr:
        if self.accept("not"):
            return Not(self.parse_unary(decl, owner))
        if self.accept("-"):
            return Neg(self.parse_unary(decl, owner))
        return self.parse_primary(decl, owner)

    def parse_primary(self, decl, owner) -> Expr:
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        tok = self.accept("INT")
        if tok is not None:
            return Lit(int(tok.text))
        tok = self.accept("STRING")
        if tok is not None:
            return Lit(tok.text)
        if self.accept("("):
            inner = self.parse_expr(decl, owner)
            self.expect(")")
            return inner
        if self.at("IDENT"):
            return Ref(self.parse_var_ref(decl, owner))
        self.fail("expected an expression")


def parse_source(source: str) -> tuple[SystemDecl, str, Chor]:
    """Parse a complete .chor file: declarations plus one named choreography."""
    return Parser(tokenize(source)).parse_file()


def parse_decls(source: str) -> SystemDecl:
    """Parse a declarations-only file (two-file configuration mode)."""
    p = Parser(tokenize(source))
    decl = p.parse_decls()
    p.expect("EOF")
    return decl


def parse_chor_source(source: str, decl: SystemDecl) -> tuple[str, Chor]:
    """Parse a choreography-only file against an existing declaration."""
    return Parser(tokenize(source)).parse_named_chor(decl)
