"""Promela model generation and LTL property templates.

Every receive port in gamma gets a global channel: length 0 (rendezvous)
when the sending port is synchronous, length ``MAX_LEN`` when asynchronous.
Each component becomes a proctype with an explicit ``currentLocation``
variable and one guarded alternative per location inside a ``do`` loop; an
observable ``currPort_<comp>`` variable records the last port used, which is
what the LTL templates quantify over.

One function builds the statements of every transition, whatever its
port: a location with one receive, or one transition guarded ``true``,
runs them directly, with the receive's channel read in front; any other
location wraps them in an inner ``if`` with one alternative per
transition, whose condition is the guard or the channel read. A receive
must be unguarded, as synthesis always makes it: the channel read is its
only condition, so ``generate_promela`` refuses a receive guard rather
than drop it.

Synchronous interactions are acknowledged by the receivers. Two encodings
are supported:

* default: each synchronous receive port gets a dedicated rendezvous ack
  channel (``ack_<port>``); the payload channel carries data only.
* ``paper_ack``: the reverse acknowledgement travels on the payload channel
  itself (send then ``recvAck`` on the same channel; receivers use
  ``synchRecv``), reusing the data channel for acknowledgements.

String values are interned to small integers (Promela has no string type);
``strict`` mode rejects string-typed data instead. Interned codes agree with
the strings only on ``==`` and ``!=``, so ``+`` and the orderings on string
operands are refused.

``generate_promela`` builds the model's text, appending each line once at
its final indentation, and makes every refusal (``PromelaError``) before it
returns. The model's LTL formulas raise none; they are built from the
call's wiring and names when ``Model.ltl`` is first read (by
``inline_ltl`` during the call), so a caller that reads only the text
builds none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial

from .core import BinOp, Expr, Lit, Memo, Neg, Not, Port, Ref, TRUE, format_expr, strong_components
from .cbs import AtomicComponent, CompositeSystem, Transition

MAX_LEN = 8


class PromelaError(Exception):
    pass


#: SPIN's reserved words and predefined names, which a model may not declare:
#: a component ``init``, or variable ``code`` of component ``c`` (``c_code``).
KEYWORDS = frozenset("""active assert atomic bit bool break byte c_code c_decl
    c_expr c_state c_track chan d_step D_proctype do else empty enabled eval false
    fi for full get_priority goto hidden if in init inline int len local ltl mtype
    nempty never nfull notrace np_ od of pc_value pid print printf printm priority
    proctype provided return run select set_priority short show skip STDIN timeout
    trace true typedef unless unsigned xr xs _ _last _nr_pr _pid _priority""".split())


@dataclass
class PromelaOptions:
    paper_ack: bool = False
    strict: bool = False
    max_len: int = MAX_LEN
    inline_ltl: bool = False

    def __post_init__(self):
        if self.max_len < 1:  # a channel of length 0 is a rendezvous in SPIN
            raise PromelaError(f"channel length must be at least 1, got {self.max_len}")


_UNSAFE = re.compile(r"[^A-Za-z0-9_]")


def sanitize(name: str) -> str:
    """Turn a port/variable identifier into a Promela-safe symbol."""
    return name if name.isascii() and name.isidentifier() else _UNSAFE.sub("_", name)


def _qname_symbol(names: Memo, qname: str) -> str:
    owner, name = qname.split(".", 1)
    return f"{names[owner]}_{names[name.replace('%c', 'ctl')]}"


def _port_names(names: Memo, paper_ack: bool, port: Port) -> tuple:
    """A port's symbol, channel and acknowledgement channel."""
    symbol = names[port.pid]
    return symbol, f"ch_{symbol}", f"ch_{symbol}" if paper_ack else f"ack_{symbol}"


# --------------------------------------------------------------------------
# Expression translation
# --------------------------------------------------------------------------

#: The operators Promela spells differently; the rest keep their spelling.
_OPS = {"and": "&&", "or": "||"}

#: The operators that would act on the intern codes of string operands.
_NOT_ON_STRINGS = frozenset({"+", "<", "<=", ">", ">="})


class _Symbols:
    """The tables of one emission, which die with it. Each name is
    sanitized once, each qualified name and port gets its symbols once, and
    each expression node is translated once: ``exprs`` maps a node to its
    text. String values are interned to small integers in the order they are
    met; the types of the system's variables tell a string operand from an
    int."""

    def __init__(self, strict: bool, types: dict, paper_ack: bool = False):
        self.strict = strict
        self.types = types
        self.table: dict[str, int] = {}
        self.names = Memo(sanitize)
        self.qnames = Memo(partial(_qname_symbol, self.names))
        self.ports = Memo(partial(_port_names, self.names, paper_ack))
        self.exprs = {}

    def code(self, s: str) -> int:
        if self.strict:
            raise PromelaError(f"string value {s!r} not representable in strict mode")
        return self.table.setdefault(s, len(self.table) + 1)


def _pexpr(e: Expr, sym: _Symbols) -> str:
    return sym.exprs.get(e) or _ptext(e, sym)


def _literal(v, sym: _Symbols) -> str:
    # A bool prints as true or false; lower() leaves an int's digits alone.
    return str(sym.code(v)) if isinstance(v, str) else str(v).lower()


def _ptext(e: Expr, sym: _Symbols) -> str:
    """The Promela text of ``e``, kept in ``sym.exprs``. Operands are looked
    up there first."""
    if isinstance(e, BinOp):
        operand = e.left  # _pexpr inlined: one frame per level of a left-deep chain
        left = sym.exprs.get(operand) or _ptext(operand, sym)
        # No operation yields a string, so only a literal or a variable is one.
        if e.op in _NOT_ON_STRINGS and (
                sym.types.get(operand.qname) == "str" if isinstance(operand, Ref)
                else isinstance(operand, Lit) and isinstance(operand.value, str)):
            raise PromelaError(f"operator {e.op!r} on strings cannot be expressed "
                               f"in Promela: {format_expr(e)}")
        right = _pexpr(e.right, sym)
        # Floor modulo, as core.BINARY_OPS has it: C's truncating % shifted
        # into the divisor's sign. Only the divisor is repeated.
        out = (f"((({left} % {right}) + {right}) % {right})" if e.op == "mod"
               else f"({left} {_OPS.get(e.op, e.op)} {right})")
    elif isinstance(e, Ref):
        out = sym.qnames[e.qname]
    elif isinstance(e, Lit):
        out = _literal(e.value, sym)
    elif isinstance(e, Not):
        out = f"!({_pexpr(e.operand, sym)})"
    elif isinstance(e, Neg):
        out = f"-({_pexpr(e.operand, sym)})"
    else:
        raise AssertionError(e)
    sym.exprs[e] = out
    return out


# --------------------------------------------------------------------------
# Model generation
# --------------------------------------------------------------------------

class Model:
    """A generated model's text, and the system's LTL templates as
    ``(name, formula)`` pairs, which are built when first read."""

    def __init__(self, text: str, templates):
        self.text, self._templates = text, templates

    @cached_property
    def ltl(self) -> list:
        return self._templates()


def _port_interactions(sys: CompositeSystem) -> dict:
    """Port -> the first interaction of gamma that wires it."""
    out = {}
    for inter in sys.gamma:
        out.setdefault(inter.send, inter)
        for r in inter.receivers:
            out.setdefault(r, inter)
    return out


def _used_ports(sys: CompositeSystem) -> list:
    """Ports appearing on transitions, in stable component/transition order."""
    out = {}
    for comp in sys.components:
        for t in comp.transitions:
            if t.port is not None:
                out.setdefault(t.port)
    return list(out)


def generate_promela(sys: CompositeSystem, opts: PromelaOptions = None) -> Model:
    opts = opts or PromelaOptions()
    sym = _Symbols(opts.strict, {var.qname: var.dtype
                                 for comp in sys.components for var, _ in comp.vars},
                   opts.paper_ack)
    names, ports = sym.names, sym.ports
    lines = []
    w = lines.append

    # Taken name -> why it cannot be declared again.
    declared = dict.fromkeys(KEYWORDS, "is a Promela keyword")
    declared.update(dict.fromkeys(("value", "currentLocation"), "is a proctype local"))

    def declare(name: str) -> str:
        """Claim a top-level name: a macro, a global, a channel or a
        proctype. Sanitizing can map two names onto one (``a_b.c`` and
        ``a.b_c``), and a component can take a macro's name (``send``)."""
        if name in declared:
            raise PromelaError(f"Promela name {name} {declared[name]}")
        declared[name] = "is declared twice"
        return name

    w("/* Generated Promela model of a synthesized component system. */")
    w(f"#define {declare('MAX_LEN')} {opts.max_len}")
    w("")

    # Port symbols (currPort values).
    w("/* port symbols */")
    w(f"#define {declare('PORT_NONE')} 0")
    for i, p in enumerate(_used_ports(sys), start=1):
        w(f"#define {declare(ports[p][0])} {i}")
    w("")

    # Location symbols.
    w("/* location symbols */")
    for comp in sys.components:
        for i, loc in enumerate(comp.locations):
            w(f"#define {declare(names[loc])} {i}")
    w("")

    w("/* messaging macros */")
    for name, body in (("recv", "ch?value"), ("recvAck", "ch?(_)"),
                       ("send", "ch!value"), ("sendAck", "ch!ack"),
                       ("synchRecv", "ch?value; sendAck(ch)")):
        w(f"#define {declare(name)}(ch) {body}")
    w("")
    w(f"int {declare('ack')} = 0;")
    w("")

    # Observable current-port variable per component.
    w("/* observable state */")
    for comp in sys.components:
        w(f"int {declare('currPort_' + names[comp.id])} = PORT_NONE;")
    w("")

    # Component variables as prefixed globals.
    w("/* component variables */")
    for comp in sys.components:
        for var, init in comp.vars:
            dtype = "bool" if var.dtype == "bool" else "int"
            w(f"{dtype} {declare(sym.qnames[var.qname])} = {_literal(init, sym)};")
    w("")

    # Channels: one per receive port occurring in gamma.
    w("/* channels (one per receive port) */")
    for inter in sys.gamma:
        sync = inter.send.ctype == "ss"
        for r in inter.receivers:
            _, chan, ack = ports[r]
            w(f"chan {declare(chan)} = [{'0' if sync else 'MAX_LEN'}] of {{ int }};")
            if sync and not opts.paper_ack:
                w(f"chan {declare(ack)} = [0] of {{ int }};")
    w("")

    wiring = _port_interactions(sys)
    for comp in sys.components:
        declare(names[comp.id])
        _emit_process(lines, wiring, comp, sym, opts)
        w("")

    lines += ["init {", "  atomic {", *(f"    run {names[c.id]}();" for c in sys.components),
              "  }", "}"]
    # Every refusal has been made: the formulas raise none, so they wait
    # until they are read.
    model = Model("", partial(_templates, sys, wiring, names))
    if opts.inline_ltl:
        lines += [f"ltl {name} {{ {formula} }}" for name, formula in model.ltl]
    lines.append("")  # the empty last line ends the text with a newline

    if sym.table:
        header = ["/* interned strings:"]
        for s, c in sorted(sym.table.items(), key=lambda kv: kv[1]):
            # Still a Python literal of s, but one that cannot end the comment.
            literal = repr(s).replace("*/", "*\\x2f")
            header.append(f"   {c} = {literal}")
        header.append("*/")
        lines[:0] = header
    model.text = "\n".join(lines)
    return model


def _emit_process(lines, wiring, comp, sym, opts):
    """Append ``comp``'s proctype to ``lines``, each statement at its final
    indentation."""
    names, ports = sym.names, sym.ports
    cid = names[comp.id]
    w = lines.append
    lines += [f"proctype {cid}() {{", "  int value;",
              f"  int currentLocation = {names[comp.init]};", "  do", "  :: if"]
    for loc in comp.locations:
        outs = comp.outgoing(loc)
        if loc == comp.end:
            w(f"     :: (currentLocation == {names[loc]}) -> break;")
            continue
        if not outs:
            continue
        w(f"     :: (currentLocation == {names[loc]}) ->")
        p = outs[0].port
        if len(outs) == 1 and (outs[0].guard == TRUE or p is not None and p.ctype == "r"):
            # A lone receive blocks on its channel; a lone true guard is dropped.
            _emit_arm(lines, "        ", wiring, cid, outs[0], True, sym, opts)
            continue
        # Otherwise an inner if with one executability condition per transition.
        w("        if")
        for t in outs:
            p = t.port
            cond = (f"recv({ports[p][1]})" if p is not None and p.ctype == "r"
                    else f"({_pexpr(t.guard, sym)})")
            w(f"        :: {cond} ->")
            _emit_arm(lines, "           ", wiring, cid, t, False, sym, opts)
        w("        fi;")
    lines += ["     fi;", "  od;", "}"]


def _emit_arm(lines, pad, wiring, cid, t: Transition, read: bool, sym, opts):
    """Append the statements of ``t``, a transition of the component whose
    symbol is ``cid``, to ``lines``, each after ``pad``. A receive reads its
    channel first when ``read`` is set; otherwise the read is the
    alternative's condition."""
    qnames, ports, w = sym.qnames, sym.ports, lines.append
    p = t.port
    if p is not None:
        if p.ctype == "r":
            if t.guard != TRUE:
                raise PromelaError(
                    f"receive {p.pid} has a guard ({format_expr(t.guard)}), "
                    f"which Promela emission cannot express")
            inter = wiring.get(p)
            sync = inter is not None and inter.send.ctype == "ss"
            _, chan, ack = ports[p]
            if read and sync and opts.paper_ack:
                w(f"{pad}synchRecv({chan});")
            else:
                if read:
                    w(f"{pad}recv({chan});")
                if sync:
                    w(f"{pad}sendAck({ack});")
        elif p.ctype != "in":  # send
            inter = wiring.get(p)
            if inter is None:
                raise PromelaError(f"send port {p.pid} not wired in gamma")
            w(f"{pad}value = {qnames[p.var.qname]};")
            receivers = [ports[r] for r in inter.receivers]
            lines += [f"{pad}send({chan});" for _, chan, _ in receivers]
            if p.ctype == "ss":
                lines += [f"{pad}recvAck({ack});" for _, _, ack in receivers]
        w(f"{pad}currPort_{cid} = {ports[p][0]};")
        if p.ctype == "r":
            w(f"{pad}{qnames[p.var.qname]} = value;")
    for target, expr in t.update.assignments:
        w(f"{pad}{qnames[target]} = {_pexpr(expr, sym)};")
    w(f"{pad}currentLocation = {sym.names[t.dst]};")


# --------------------------------------------------------------------------
# LTL templates
# --------------------------------------------------------------------------

def _end_port(comp: AtomicComponent):
    """The port observed when a component reaches its end location."""
    if comp.end is None:
        return None
    for t in comp.transitions:
        if t.dst == comp.end and t.port is not None:
            return t.port
    return None


def _cyclic_transitions(comp: AtomicComponent) -> list:
    """Transitions that lie on a cycle of the component's location graph,
    in declaration order: those whose source and target share a strongly
    connected component, a self-loop included. Locations are numbered in
    declaration order, and any a transition names undeclared after them."""
    ids = {loc: i for i, loc in enumerate(comp.locations)}
    edges = [(ids.setdefault(t.src, len(ids)), ids.setdefault(t.dst, len(ids)))
             for t in comp.transitions]
    succ = [[] for _ in ids]
    for src, dst in edges:
        succ[src].append(dst)
    scc = strong_components(succ)
    return [t for t, (src, dst) in zip(comp.transitions, edges) if scc[src] == scc[dst]]


def _is_control(port: Port) -> bool:
    return "@" in port.name


def _next_data_send(comp: AtomicComponent, loc: str):
    """First non-control send reached from ``loc`` along a unique path of
    silent or control transitions, or None."""
    for _ in range(len(comp.transitions) + 1):
        outs = comp.outgoing(loc)
        if len(outs) != 1:
            return None
        t = outs[0]
        if t.port is not None and t.port.is_send and not _is_control(t.port):
            return t.port
        if t.port is None or _is_control(t.port):
            loc = t.dst
            continue
        return None
    return None


def _obs(names: Memo, comp_id: str, port: Port) -> str:
    return f"(currPort_{names[comp_id]} == {names[port.pid]})"


def ltl_templates(sys: CompositeSystem) -> list:
    """Instantiate the four property templates; returns (name, formula)
    pairs, keeping the first formula of each name."""
    return _templates(sys, _port_interactions(sys), Memo(sanitize))


def _templates(sys: CompositeSystem, wiring: dict, names: Memo) -> list:
    """``ltl_templates`` with the system's wiring and a memo of sanitized
    names, which ``generate_promela`` shares."""
    out = {}

    # 1. Correct termination: if any process reaches its ending interface,
    #    eventually all of them do.
    ends = [(c.id, _end_port(c)) for c in sys.components]
    ends = [(cid, p) for cid, p in ends if p is not None]
    if ends:
        any_end = " || ".join(_obs(names, cid, p) for cid, p in ends)
        all_end = " && ".join(_obs(names, cid, p) for cid, p in ends)
        out["termination"] = f"[] (({any_end}) -> <> ({all_end}))"

    cyclic = [_cyclic_transitions(comp) for comp in sys.components]

    # 2. Absence of livelock: no recurring receive port is used infinitely
    #    often.
    for comp, comp_cyclic in zip(sys.components, cyclic):
        for t in comp_cyclic:
            p = t.port
            if p is None or p.ctype != "r" or _is_control(p):
                continue
            out.setdefault(f"livelock_{names[p.pid]}",
                           f"! ([] <> {_obs(names, comp.id, p)})")

    # 3. Uniqueness of interface calls: a non-recurring send port fires at
    #    most once.
    for comp, comp_cyclic in zip(sys.components, cyclic):
        recurring = set(map(id, comp_cyclic))  # by identity: a Transition hashes its fields
        for t in comp.transitions:
            p = t.port
            if p is None or not p.is_send or _is_control(p) or id(t) in recurring:
                continue
            obs = _obs(names, comp.id, p)
            out.setdefault(f"uniqueness_{names[p.pid]}",
                           f"[] ({obs} -> X ([] (! {obs})))")

    # 4. Correct transaction: a send that follows a receive (possibly through
    #    silent/control synchronization steps) does not happen before the
    #    matching trigger send.
    for comp in sys.components:
        for t in comp.transitions:
            p = t.port
            if p is None or p.ctype != "r" or _is_control(p):
                continue
            inter = wiring.get(p)
            if inter is None or _is_control(inter.send):
                continue
            trigger = inter.send
            q = _next_data_send(comp, t.dst)
            if q is None:
                continue
            out.setdefault(f"transaction_{names[q.pid]}",
                           f"[] ((! {_obs(names, comp.id, q)}) U "
                           f"{_obs(names, trigger.owner, trigger)})")
    return list(out.items())


def format_ltl(ltl: list) -> str:
    return "".join(f"{name} : {formula}\n" for name, formula in ltl)


# --------------------------------------------------------------------------
# Minimal syntactic validator
# --------------------------------------------------------------------------

_LINE_PATTERNS = (
    r"^#define \w+(\(\w+\))? .+$",
    r"^(bool|int) \w+( = .+)?;$",
    r"^chan \w+ = \[\w+\] of \{ (int|bool) \};$",
    r"^proctype \w+\(\) \{$",
    r"^(init|atomic) \{$",
    r"^run \w+\(\);$",
    r"^(do|od;|if|fi;|\}|break;|skip;|:: if)$",
    r"^:: .*(->|;|break;)$",
    r"^ltl \w+ \{ .+ \}$",
    r"^[\w\[\]\(\)\.!?><=&|%+*/ _,-]+;$",  # plain statements
)
_LINE_SHAPE = re.compile("|".join(f"(?:{p})" for p in _LINE_PATTERNS))
_OPENER = re.compile(r"(?:^|\s)(do|if)$")  # a line that opens a do/if block
#: Lines of a shape above that hold no brace or balanced ones, and neither
#: open (end in ``do`` or ``if``) nor close a block: only the brace depth can
#: fail on them. ASCII ``\w`` matches faster; a line it misses takes every
#: test.
_QUIET = re.compile(r"(?!od;$|fi;$)[\w\[\]\(\)\.!?><=&|%+*/ _,-]+;|:: [^{}]*(?:->|;)"
                    r"|#define \w+(?:\(\w+\))? [^{}]+(?<!do)(?<!if)"
                    r"|chan \w+ = \[\w+\] of \{ (?:int|bool) \};", re.ASCII)
_CLOSES = {"od": "do", "od;": "do", "fi": "if", "fi;": "if"}


def _uncomment(line: str, in_comment: bool) -> tuple:
    """``line`` without the text inside ``/* ... */``, each comment read as
    a space, stripped, and whether a comment is open at its end."""
    kept = []
    while True:
        if in_comment:
            end = line.find("*/")
            if end < 0:
                return " ".join(kept).strip(), True
            line, in_comment = line[end + 2:], False
        start = line.find("/*")
        if start < 0:
            kept.append(line)
            return " ".join(kept).strip(), False
        kept.append(line[:start])
        line, in_comment = line[start + 2:], True


def validate_promela(text: str) -> list:
    """Shallow syntactic check: bracket balance, do/od and if/fi pairing,
    and line-level shape, on the text outside comments. Returns a list of
    error strings (empty = pass)."""
    errors = []
    depth_brace = 0
    stack = []
    in_comment = False
    quiet = _QUIET.fullmatch
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if in_comment or "/*" in line:
            line, in_comment = _uncomment(line, in_comment)
        if not line:
            continue
        if quiet(line):
            if depth_brace < 0:
                errors.append(f"line {lineno}: unbalanced '}}'")
            continue
        depth_brace += line.count("{") - line.count("}")
        if depth_brace < 0:
            errors.append(f"line {lineno}: unbalanced '}}'")
        opener = line.endswith(("do", "if")) and _OPENER.search(line)
        if opener:
            stack.append((opener.group(1), lineno))
        closes = _CLOSES.get(line)
        if closes and (not stack or stack.pop()[0] != closes):
            errors.append(f"line {lineno}: '{line[:2]}' without matching '{closes}'")
        if not _LINE_SHAPE.match(line):
            errors.append(f"line {lineno}: unrecognized statement: {line!r}")
    if depth_brace != 0:
        errors.append("unbalanced braces at end of file")
    for kind, lineno in stack:
        errors.append(f"line {lineno}: unclosed '{kind}'")
    return errors
