"""Seeded generators for the benchmark's synthetic workloads.

Each generator takes the workload seed and returns a ``Case``: the ``.chor``
text handed to the program, plus the expected final valuations computed here,
independently of chorc, by a small reference evaluator.

The seed draws names, initial values, constants, arithmetic templates and the
order of the building blocks. It never changes the shape that sets the cost
(lane kinds and lengths, chain length, segment mix), so every seed yields the
same number of states and steps: the size band is a single point, and run-to-
run spread measures the program, not the generator.

Families (the ROADMAP's scale families are the building blocks):

``interleave``
    A width-3 ``||`` of independent lanes: two asynchronous producer/consumer
    loops of 2 items and one choice inside a 1-round loop. The choreography
    side has 15 * 15 * 8 = 1,800 configurations; the system side has 7,776
    states under the default profile and 4,536 under compat. A pass of two
    equivalence checks takes about 3 s on a 2-CPU machine, so that about ten
    passes fit in one run, and the process stays near 75 MB. One more item
    per lane multiplies the space by about 1.6 and the next lane by about 15.

``longchain``
    A sequence of 20 components; each hands over to the next through two
    synchronous sends, a guarded loop of three sends or a deterministic
    choice, and the last two hops are asynchronous. Guards and updates cover
    the whole expression grammar, ``/`` and ``mod`` included. The state
    space is small and linear (71 configurations, 156 system states under
    the default profile) but each state carries 100 variables, so per-state
    cost and the simulator's per-turn successor recomputation dominate: one
    simulation takes about 0.7 s for 130 steps, and the cost grows with the
    square of the chain length. 20 is the longest chain whose pass stays
    near 2 s, so that about a dozen passes fit in one run. The first hop is
    always a pair of synchronous sends, so that the first component has two
    used copies of one send port and the ``merge-port-copies`` mutation
    changes behaviour. Asynchronous hops are kept at the tail because every
    pending delivery may interleave with the rest of the chain in the
    choreography semantics, which would make the space grow with the square
    of the chain length.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    name: str
    text: str         # .chor source handed to the program
    keys: tuple       # sorted qualified names of the user variables
    finals: frozenset  # expected final valuations, as tuples over ``keys``
    components: int


# --------------------------------------------------------------------------
# Reference expressions: built here, rendered to .chor text and evaluated by
# this module with the documented semantics (``/`` floors, ``mod`` follows
# the divisor's sign). Values stay non-negative wherever ``/`` or ``mod``
# apply, so both readings of division agree.
# --------------------------------------------------------------------------

def lit(n):
    return ("lit", n)


def var(name):
    return ("var", name)


def render(e) -> str:
    kind = e[0]
    if kind == "lit":
        return str(e[1]).lower() if isinstance(e[1], bool) else str(e[1])
    if kind == "var":
        return e[1]
    if kind == "neg":
        return f"-{render(e[1])}"
    if kind == "not":
        return f"not {render(e[1])}"
    return f"({render(e[1])} {kind} {render(e[2])})"


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b,
    "mod": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
}


def evaluate(e, env: dict):
    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind == "var":
        return env[e[1]]
    if kind == "neg":
        return -evaluate(e[1], env)
    if kind == "not":
        return not evaluate(e[1], env)
    return _BINOPS[kind](evaluate(e[1], env), evaluate(e[2], env))


def render_update(assigns) -> str:
    return "; ".join(f"{t} := {render(e)}" for t, e in assigns)


def run_update(assigns, env: dict):
    for target, e in assigns:
        env[target] = evaluate(e, env)


def _decl(cid: str, vars_, ports) -> str:
    lines = [f"comp {cid} {{"]
    lines += [f"  var {n}: int = {v};" for n, v in vars_]
    lines += [f"  port {n}: {c} of int binds {b};" for n, c, b in ports]
    return "\n".join(lines + ["}"]) + "\n"


def _case(name, decls, chor, env_by_comp, finals_by_comp=None) -> Case:
    keys = tuple(sorted(f"{c}.{v}" for c, env in env_by_comp.items() for v in env))
    if finals_by_comp is None:
        finals = frozenset({tuple(env_by_comp[k.split(".")[0]][k.split(".")[1]]
                                  for k in keys)})
    else:
        finals = finals_by_comp(keys)
    text = "".join(decls) + f"choreography {name} =\n  {chor}\n"
    return Case(name=name, text=text, keys=keys, finals=finals,
                components=len(env_by_comp))


#: Name stems. None starts with "fi" or "od": the Promela validator takes any
#: line starting with those letters for the closing keyword of a block.
_STEMS = ("ax", "bo", "cy", "du", "ek", "fu", "go", "hu", "iv", "jo", "ka", "lu")


# --------------------------------------------------------------------------
# interleave
# --------------------------------------------------------------------------

#: Lane kinds and loop rounds; the seed only orders them.
INTERLEAVE_LANES = (("pc", 2), ("pc", 2), ("pick", 1))


def _lane_pc(i, rounds, rng):
    """Asynchronous producer/consumer loop; the consumer ends with
    m = m0 + rounds and tmp = the last item sent, base + 1."""
    p, c = f"{rng.choice(_STEMS)}P{i}", f"{rng.choice(_STEMS)}C{i}"
    base, m0, done = rng.randrange(0, 40), rng.randrange(0, 40), rng.randrange(1, 9)
    decls = [
        _decl(p, [("n", base + rounds), ("a", 0)],
              [("cond", "ss", "n"), ("s", "as", "n"), ("ack", "r", "a")]),
        _decl(c, [("m", m0), ("tmp", base - rng.randrange(0, 5)), ("done", done)],
              [("r", "r", "tmp"), ("ack", "ss", "done")]),
    ]
    chor = (f"( while ({p}.cond[n > {base}]) "
            f"{{ {p}.s[true, n := n - 1] -> {{ {c}.r[m := m + 1] }} }} ; "
            f"{c}.ack -> {{ {p}.ack }} )")
    finals = [{f"{p}.n": base, f"{p}.a": done, f"{c}.m": m0 + rounds,
               f"{c}.tmp": base + 1, f"{c}.done": done}]
    return decls, chor, finals


def _lane_pick(i, rounds, rng):
    """Choice inside a loop: each round the master bumps ``picks`` and sends
    it to either ``hi`` or ``lo``; every arm sequence is a final."""
    m, w = f"{rng.choice(_STEMS)}M{i}", f"{rng.choice(_STEMS)}W{i}"
    base, p0 = rng.randrange(0, 40), rng.randrange(10, 40)
    hi0, lo0 = p0 - rng.randrange(0, 5), p0 - rng.randrange(5, 10)
    decls = [
        _decl(m, [("k", base + rounds), ("picks", p0)],
              [("c", "ss", "k"), ("d", "ss", "picks"), ("p", "ss", "picks")]),
        _decl(w, [("hi", hi0), ("lo", lo0)], [("q", "r", "hi"), ("q2", "r", "lo")]),
    ]
    chor = (f"( while ({m}.c[k > {base}, k := k - 1]) {{ choice {m} {{ "
            f"{m}.d[true, picks := picks + 1] => {m}.p -> {{ {w}.q }} | "
            f"{m}.d[true, picks := picks + 1] => {m}.p -> {{ {w}.q2 }} }} }} )")
    finals = []
    for arms in itertools.product((0, 1), repeat=rounds):
        last = [hi0, lo0]
        for j, arm in enumerate(arms, start=1):
            last[arm] = p0 + j
        finals.append({f"{m}.k": base, f"{m}.picks": p0 + rounds,
                       f"{w}.hi": last[0], f"{w}.lo": last[1]})
    return decls, chor, finals


def interleave(seed: int) -> Case:
    rng = random.Random(f"interleave:{seed}")
    lanes = list(INTERLEAVE_LANES)
    rng.shuffle(lanes)
    decls, chors, lane_finals, comps = [], [], [], {}
    for i, (kind, rounds) in enumerate(lanes):
        d, c, f = (_lane_pc if kind == "pc" else _lane_pick)(i, rounds, rng)
        decls += d
        chors.append(c)
        lane_finals.append(f)
        for qname in f[0]:
            comp, v = qname.split(".")
            comps.setdefault(comp, {})[v] = None

    def finals(keys):
        out = set()
        for combo in itertools.product(*lane_finals):
            merged = {k: v for part in combo for k, v in part.items()}
            out.add(tuple(merged[k] for k in keys))
        return frozenset(out)

    return _case("interleave", decls, "\n  || ".join(chors), comps, finals)


# --------------------------------------------------------------------------
# longchain
# --------------------------------------------------------------------------

LONGCHAIN_COMPONENTS = 20
LOOP_ROUNDS = 3
#: Hand-over kinds for the synchronous part of the chain, used in turn; the
#: seed orders them. The first hop is always "sync" and the last two are
#: always asynchronous.
LONGCHAIN_MIX = ("sync", "loop", "choice")

_CHAIN_VARS = ("v", "c", "acc", "inb", "tot")
_CHAIN_PORTS = (("o", "ss", "v"), ("i", "r", "v"), ("a", "as", "v"),
                ("ai", "r", "inb"), ("lp", "ss", "c"), ("k", "ss", "acc"))


def _true_guard(rng, env):
    """A guard over the sender's variables that holds in ``env``."""
    t, m = rng.randrange(1, 50), rng.randrange(3, 11)
    templates = (
        ("or", ("<", var("v"), lit(t)), (">=", var("v"), lit(t))),
        ("and", (">=", var("v"), lit(0)), ("<", ("mod", var("acc"), lit(m)), lit(m))),
        ("not", ("<", ("+", ("*", var("v"), lit(2)), lit(1)), ("neg", lit(t)))),
        ("!=", ("*", ("+", var("acc"), lit(1)), lit(m)), lit(0)),
        ("<=", ("/", var("v"), lit(m)), var("v")),
        ("==", ("-", ("+", var("v"), lit(t)), lit(t)), var("v")),
    )
    g = rng.choice(templates)
    assert evaluate(g, env) is True, (render(g), env)
    return g


def _sender_update(rng):
    a, m, d = rng.randrange(2, 9), rng.randrange(50, 200), rng.randrange(2, 6)
    return rng.choice((
        [("acc", ("mod", ("+", var("acc"), ("*", var("v"), lit(a))), lit(m)))],
        [("acc", ("+", var("acc"), ("/", var("v"), lit(d))))],
        [("v", ("mod", ("+", var("v"), lit(a)), lit(m))), ("acc", ("+", var("acc"), lit(1)))],
    ))


def _receiver_update(rng):
    a, m, d = rng.randrange(2, 9), rng.randrange(50, 200), rng.randrange(2, 6)
    return rng.choice((
        [("acc", ("mod", ("+", ("*", var("acc"), lit(a)), var("v")), lit(m)))],
        [("tot", ("+", var("tot"), ("/", var("v"), lit(d))))],
        [("v", ("+", ("mod", var("v"), lit(m)), lit(a)))],
    ))


def _async_receiver_update(rng):
    # Touches only ``tot``, which nothing later reads, so the final does
    # not depend on when the delivery happens.
    d = rng.randrange(2, 6)
    return [("tot", ("+", var("tot"), ("mod", var("inb"), lit(d))))]


def _send_expr(src, dst, port, rport, g, fs, fr):
    upd = f", {render_update(fs)}" if fs else ""
    rupd = f"[{render_update(fr)}]" if fr else ""
    return f"{src}.{port}[{render(g)}{upd}] -> {{ {dst}.{rport}{rupd} }}"


def longchain(seed: int) -> Case:
    rng = random.Random(f"longchain:{seed}")
    n = LONGCHAIN_COMPONENTS
    stem = rng.choice(_STEMS)
    names = [f"{stem}{i}" for i in range(n)]
    env = {cid: {"v": rng.randrange(1, 60), "c": LOOP_ROUNDS,
                 "acc": rng.randrange(0, 30), "inb": 0, "tot": rng.randrange(0, 9)}
           for cid in names}
    decls = [_decl(cid, [(v, env[cid][v]) for v in _CHAIN_VARS], _CHAIN_PORTS)
             for cid in names]
    sync_hops = n - 3
    kinds = [LONGCHAIN_MIX[i % len(LONGCHAIN_MIX)] for i in range(1, sync_hops)]
    rng.shuffle(kinds)
    kinds = ["sync"] + kinds + ["async", "async"]
    pending = []  # asynchronous deliveries, applied once the chain ends
    parts = []
    for i, kind in enumerate(kinds):
        src, dst = names[i], names[i + 1]
        es, er = env[src], env[dst]

        def sync(g=None, fs=None, fr=None):
            g = _true_guard(rng, es) if g is None else g
            fs = _sender_update(rng) if fs is None else fs
            fr = _receiver_update(rng) if fr is None else fr
            assert evaluate(g, es) is True, (render(g), es)
            er["v"] = es["v"]
            run_update(fs, es)
            run_update(fr, er)
            return _send_expr(src, dst, "o", "i", g, fs, fr)

        if kind == "sync":
            parts.append(f"{sync()} ;\n  {sync()}")
        elif kind == "loop":
            g = _true_guard(rng, es)
            fs, fr = _sender_update(rng), _receiver_update(rng)
            while es["c"] > 0:
                es["c"] -= 1
                body = sync(g, fs, fr)
            parts.append(f"while ({src}.lp[c > 0, c := c - 1]) {{ {body} }}")
        elif kind == "choice":
            # The first arm is the one taken, so that the silent join the
            # ``drop-eps`` mutation removes lies on the executed path.
            parity = ("==", ("mod", var("v"), lit(2)), lit(es["v"] % 2))
            bump = rng.randrange(1, 9)
            arms = [(parity, [("acc", ("+", var("acc"), lit(bump)))]),
                    (("not", parity), [("acc", ("*", var("acc"), lit(2)))])]
            run_update(arms[0][1], es)
            texts = []
            for j, (g, f) in enumerate(arms):
                fs, fr = _sender_update(rng), _receiver_update(rng)
                if j == 0:
                    texts.append(sync(None, fs, fr))
                else:
                    texts.append(_send_expr(src, dst, "o", "i", lit(True), fs, fr))
            parts.append(f"choice {src} {{ " + " | ".join(
                f"{src}.k[{render(g)}, {render_update(f)}] => {t}"
                for (g, f), t in zip(arms, texts)) + " }")
        else:
            g = _true_guard(rng, es)
            fs, fr = _sender_update(rng), _async_receiver_update(rng)
            pending.append((dst, es["v"], fr))
            run_update(fs, es)
            parts.append(_send_expr(src, dst, "a", "ai", g, fs, fr))
    for dst, payload, fr in pending:
        env[dst]["inb"] = payload
        run_update(fr, env[dst])
    for cid in names:
        assert all(x >= 0 for x in env[cid].values()), env[cid]
    return _case("longchain", decls, " ;\n  ".join(parts), env)


GENERATORS = {"interleave": interleave, "longchain": longchain}
