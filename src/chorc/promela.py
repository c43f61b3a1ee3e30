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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import (
    BinOp, Expr, Lit, Neg, Not, Port, Ref, TRUE, Update, Variable, format_expr,
)
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


_UNSAFE = re.compile(r"[^A-Za-z0-9_]")


def sanitize(name: str) -> str:
    """Turn a port/variable identifier into a Promela-safe symbol."""
    return _UNSAFE.sub("_", name)


# --------------------------------------------------------------------------
# Expression translation
# --------------------------------------------------------------------------

#: The operators Promela spells differently; the rest keep their spelling.
_OPS = {"and": "&&", "or": "||"}

#: The operators that would act on the intern codes of string operands.
_NOT_ON_STRINGS = frozenset({"+", "<", "<=", ">", ">="})


class _Strings:
    """Interning table for string literals/initial values, with the types
    of the system's variables, which tell a string operand from an int."""

    def __init__(self, strict: bool, types: dict):
        self.strict = strict
        self.types = types
        self.table: dict[str, int] = {}

    def code(self, s: str) -> int:
        if self.strict:
            raise PromelaError(
                f"string value {s!r} not representable in strict mode")
        if s not in self.table:
            self.table[s] = len(self.table) + 1
        return self.table[s]


def var_symbol(var: Variable) -> str:
    return qname_symbol(var.qname)


def qname_symbol(qname: str) -> str:
    owner, name = qname.split(".", 1)
    name = name.replace("%c", "ctl")
    return f"{sanitize(owner)}_{sanitize(name)}"


def _pexpr(e: Expr, strings: _Strings) -> str:
    return _ptyped(e, strings)[0]


def _ptyped(e: Expr, strings: _Strings) -> tuple:
    """The Promela text of ``e`` and whether ``e`` is a string, in one walk."""
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, bool):
            return ("true" if v else "false"), False
        if isinstance(v, str):
            return str(strings.code(v)), True
        return str(v), False
    if isinstance(e, Ref):
        return qname_symbol(e.qname), strings.types.get(e.qname) == "str"
    if isinstance(e, Not):
        return f"!({_pexpr(e.operand, strings)})", False
    if isinstance(e, Neg):
        return f"-({_pexpr(e.operand, strings)})", False
    if isinstance(e, BinOp):
        left, left_str = _ptyped(e.left, strings)
        if left_str and e.op in _NOT_ON_STRINGS:
            raise PromelaError(f"operator {e.op!r} on strings cannot be expressed "
                               f"in Promela: {format_expr(e)}")
        right = _pexpr(e.right, strings)
        if e.op == "mod":
            # Floor modulo, as core.BINARY_OPS has it: C's truncating %
            # shifted into the divisor's sign. Only the divisor is repeated.
            return f"((({left} % {right}) + {right}) % {right})", False
        # No operation yields a string: a string operand of + is refused.
        return f"({left} {_OPS.get(e.op, e.op)} {right})", False
    raise AssertionError(e)


def _passign(update: Update, strings: _Strings) -> list:
    return [
        f"{qname_symbol(target)} = {_pexpr(expr, strings)};"
        for target, expr in update.assignments
    ]


# --------------------------------------------------------------------------
# Model generation
# --------------------------------------------------------------------------

def port_symbol(port: Port) -> str:
    return sanitize(port.pid)


def chan_name(port: Port) -> str:
    return f"ch_{port_symbol(port)}"


def ack_chan_name(port: Port) -> str:
    return f"ack_{port_symbol(port)}"


@dataclass
class Model:
    text: str
    strings: dict              # str -> int
    ltl: list = field(default_factory=list)  # (name, formula)


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
    strings = _Strings(opts.strict, {var.qname: var.dtype
                                     for comp in sys.components for var, _ in comp.vars})
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
        w(f"#define {declare(port_symbol(p))} {i}")
    w("")

    # Location symbols.
    w("/* location symbols */")
    for comp in sys.components:
        for i, loc in enumerate(comp.locations):
            w(f"#define {declare(sanitize(loc))} {i}")
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
        w(f"int {declare('currPort_' + sanitize(comp.id))} = PORT_NONE;")
    w("")

    # Component variables as prefixed globals.
    w("/* component variables */")
    for comp in sys.components:
        for var, init in comp.vars:
            dtype = "bool" if var.dtype == "bool" else "int"
            w(f"{dtype} {declare(var_symbol(var))} = {_pexpr(Lit(init), strings)};")
    w("")

    # Channels: one per receive port occurring in gamma.
    w("/* channels (one per receive port) */")
    for inter in sys.gamma:
        sync = inter.send.ctype == "ss"
        for r in inter.receivers:
            length = "0" if sync else "MAX_LEN"
            w(f"chan {declare(chan_name(r))} = [{length}] of {{ int }};")
            if sync and not opts.paper_ack:
                w(f"chan {declare(ack_chan_name(r))} = [0] of {{ int }};")
    w("")

    wiring = _port_interactions(sys)
    for comp in sys.components:
        declare(sanitize(comp.id))
        lines.extend(_emit_process(wiring, comp, strings, opts))
        w("")

    w("init {")
    w("  atomic {")
    for comp in sys.components:
        w(f"    run {sanitize(comp.id)}();")
    w("  }")
    w("}")

    text = "\n".join(lines) + "\n"
    ltl = ltl_templates(sys)
    if opts.inline_ltl:
        chunks = [text]
        for name, formula in ltl:
            chunks.append(f"ltl {name} {{ {formula} }}\n")
        text = "".join(chunks)

    if strings.table:
        header = ["/* interned strings:"]
        for s, c in sorted(strings.table.items(), key=lambda kv: kv[1]):
            # Still a Python literal of s, but one that cannot end the comment.
            literal = repr(s).replace("*/", "*\\x2f")
            header.append(f"   {c} = {literal}")
        header.append("*/")
        text = "\n".join(header) + "\n" + text

    return Model(text=text, strings=dict(strings.table), ltl=ltl)


def _emit_process(wiring, comp, strings, opts):
    cid = sanitize(comp.id)
    lines = []
    w = lines.append
    w(f"proctype {cid}() {{")
    w("  int value;")
    w(f"  int currentLocation = {sanitize(comp.init)};")
    w("  do")
    w("  :: if")
    for loc in comp.locations:
        outs = comp.outgoing(loc)
        if loc == comp.end:
            w(f"     :: (currentLocation == {sanitize(loc)}) -> break;")
            continue
        if not outs:
            continue
        body = _emit_location(wiring, comp, outs, strings, opts)
        w(f"     :: (currentLocation == {sanitize(loc)}) ->")
        for stmt in body:
            w("        " + stmt)
    w("     fi;")
    w("  od;")
    w("}")
    return lines


def _emit_location(wiring, comp, outs, strings, opts):
    cid = sanitize(comp.id)

    def receives(t: Transition) -> bool:
        return t.port is not None and t.port.ctype == "r"

    def ack_chan(r: Port) -> str:
        return chan_name(r) if opts.paper_ack else ack_chan_name(r)

    def arm(t: Transition, read: bool) -> list:
        """The statements of ``t``. A receive reads its channel first when
        ``read`` is set; otherwise the read is the alternative's condition."""
        stmts = []
        p = t.port
        if receives(t):
            if t.guard != TRUE:
                raise PromelaError(
                    f"receive {p.pid} has a guard ({format_expr(t.guard)}), "
                    f"which Promela emission cannot express")
            inter = wiring.get(p)
            sync = inter is not None and inter.send.ctype == "ss"
            if read and sync and opts.paper_ack:
                stmts.append(f"synchRecv({chan_name(p)});")
            else:
                if read:
                    stmts.append(f"recv({chan_name(p)});")
                if sync:
                    stmts.append(f"sendAck({ack_chan(p)});")
        elif p is not None and p.ctype != "in":  # send
            inter = wiring.get(p)
            if inter is None:
                raise PromelaError(f"send port {p.pid} not wired in gamma")
            stmts.append(f"value = {var_symbol(p.var)};")
            stmts.extend(f"send({chan_name(r)});" for r in inter.receivers)
            if p.ctype == "ss":
                stmts.extend(f"recvAck({ack_chan(r)});" for r in inter.receivers)
        if p is not None:
            stmts.append(f"currPort_{cid} = {port_symbol(p)};")
            if p.ctype == "r":
                stmts.append(f"{var_symbol(p.var)} = value;")
        stmts.extend(_passign(t.update, strings))
        stmts.append(f"currentLocation = {sanitize(t.dst)};")
        return stmts

    if len(outs) == 1 and (receives(outs[0]) or outs[0].guard == TRUE):
        # A lone receive blocks on its channel; a lone true guard is dropped.
        return arm(outs[0], read=True)
    # Otherwise an inner if with one executability condition per transition.
    stmts = ["if"]
    for t in outs:
        if receives(t):
            cond = f"recv({chan_name(t.port)})"
        else:
            cond = f"({_pexpr(t.guard, strings)})"
        stmts.append(f":: {cond} ->")
        stmts.extend("   " + s for s in arm(t, read=False))
    stmts.append("fi;")
    return stmts


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
    connected component, a self-loop included. One iterative pass of
    Tarjan's algorithm finds the components."""
    succ = {}
    for t in comp.transitions:
        succ.setdefault(t.src, []).append(t.dst)
    index, low = {}, {}
    root_of = {}   # location -> the root of its component, once it is closed
    stack = []     # visited locations whose component is still open
    for start in succ:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        work = [(start, iter(succ[start]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if w not in root_of:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        root_of[w] = v
                        if w == v:
                            break
    return [t for t in comp.transitions if root_of[t.src] == root_of[t.dst]]


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


def _obs(comp_id: str, port: Port) -> str:
    return f"(currPort_{sanitize(comp_id)} == {port_symbol(port)})"


def ltl_templates(sys: CompositeSystem) -> list:
    """Instantiate the four property templates; returns (name, formula)
    pairs, keeping the first formula of each name."""
    out = {}

    # 1. Correct termination: if any process reaches its ending interface,
    #    eventually all of them do.
    ends = [(c.id, _end_port(c)) for c in sys.components]
    ends = [(cid, p) for cid, p in ends if p is not None]
    if ends:
        any_end = " || ".join(_obs(cid, p) for cid, p in ends)
        all_end = " && ".join(_obs(cid, p) for cid, p in ends)
        out["termination"] = f"[] (({any_end}) -> <> ({all_end}))"

    cyclic = [_cyclic_transitions(comp) for comp in sys.components]

    # 2. Absence of livelock: no recurring receive port is used infinitely
    #    often.
    for comp, comp_cyclic in zip(sys.components, cyclic):
        for t in comp_cyclic:
            p = t.port
            if p is None or p.ctype != "r" or _is_control(p):
                continue
            out.setdefault(f"livelock_{port_symbol(p)}",
                           f"! ([] <> {_obs(comp.id, p)})")

    # 3. Uniqueness of interface calls: a non-recurring send port fires at
    #    most once.
    for comp, comp_cyclic in zip(sys.components, cyclic):
        recurring = set(comp_cyclic)
        for t in comp.transitions:
            p = t.port
            if p is None or not p.is_send or _is_control(p) or t in recurring:
                continue
            obs = _obs(comp.id, p)
            out.setdefault(f"uniqueness_{port_symbol(p)}",
                           f"[] ({obs} -> X ([] (! {obs})))")

    # 4. Correct transaction: a send that follows a receive (possibly through
    #    silent/control synchronization steps) does not happen before the
    #    matching trigger send.
    wiring = _port_interactions(sys)
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
            out.setdefault(f"transaction_{port_symbol(q)}",
                           f"[] ((! {_obs(comp.id, q)}) U "
                           f"{_obs(trigger.owner, trigger)})")
    return list(out.items())


def format_ltl(ltl: list) -> str:
    return "".join(f"{name} : {formula}\n" for name, formula in ltl)


# --------------------------------------------------------------------------
# Minimal syntactic validator
# --------------------------------------------------------------------------

_LINE_PATTERNS = (
    r"^#define \w+(\(\w+\))? .+$",
    r"^(/\*.*)|(.*\*/)$",
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


def validate_promela(text: str) -> list:
    """Shallow syntactic check: bracket balance, do/od and if/fi pairing,
    and line-level shape. Returns a list of error strings (empty = pass)."""
    errors = []
    depth_brace = 0
    stack = []
    in_comment = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if in_comment:
            if "*/" in line:
                in_comment = False
            continue
        if line.startswith("/*") and "*/" not in line:
            in_comment = True
            continue
        depth_brace += line.count("{") - line.count("}")
        if depth_brace < 0:
            errors.append(f"line {lineno}: unbalanced '}}'")
        if line.endswith(("do", "if")):
            opener = _OPENER.search(line)
            if opener:
                stack.append((opener.group(1), lineno))
        if line in ("od", "od;"):
            if not stack or stack.pop()[0] != "do":
                errors.append(f"line {lineno}: 'od' without matching 'do'")
        if line in ("fi", "fi;"):
            if not stack or stack.pop()[0] != "if":
                errors.append(f"line {lineno}: 'fi' without matching 'if'")
        if not _LINE_SHAPE.match(line):
            errors.append(f"line {lineno}: unrecognized statement: {line!r}")
    if depth_brace != 0:
        errors.append("unbalanced braces at end of file")
    for kind, lineno in stack:
        errors.append(f"line {lineno}: unclosed '{kind}'")
    return errors
