"""Runtime tracing of chorc's layers, from outside the program.

``Tracer.install`` replaces each public layer function with a wrapper in
every ``chorc`` module that refers to it (``from .x import f`` copies the
reference, so each copy is patched). A wrapper records one span: name,
start, end and the span that was open when it started. The two successor
functions get a lighter wrapper that only counts calls and time and charges
them to the enclosing span. Spans stay in memory; ``layer_metrics``
derives the per-layer figures from them and ``dump`` writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (module, function, span name) for every traced layer entry point.
SPANS = (
    ("cli", "main", "cli.main"),
    ("parser", "parse_source", "parse_source"),
    ("lang", "check_well_formed", "check_well_formed"),
    ("synthesis", "synthesize", "synthesize"),
    ("verify", "invariant_suite", "invariant_suite"),
    ("verify", "equiv_check", "equiv_check"),
    ("chorsem", "explore", "explore"),
    ("cbs", "sys_explore", "sys_explore"),
    ("sim", "simulate", "simulate"),
    ("promela", "generate_promela", "generate_promela"),
    ("promela", "validate_promela", "validate_promela"),
    ("promela", "format_ltl", "format_ltl"),
)

#: Successor functions: counted and timed, charged to the enclosing span.
STEPS = (
    ("chorsem", "chor_steps_tagged", "chor_steps"),
    ("cbs", "sys_steps_tagged", "sys_steps"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "steps", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.steps = {}    # step name -> [calls, seconds]
        self.counts = {}   # work counted at this boundary


def _graph_counts(result) -> dict:
    edges = sum(len(succs) for succs in result.graph.values())
    return {"states": len(result.graph), "edges": edges}


def _count(name, args, result, tokens) -> dict:
    if name in ("explore", "sys_explore"):
        return _graph_counts(result)
    if name == "simulate":
        return {"steps": result.steps}
    if name == "synthesize":
        return {"interactions": len(result.gamma),
                "transitions": sum(len(c.transitions) for c in result.components)}
    if name == "generate_promela":
        return {"lines": result.text.count("\n")}
    if name == "parse_source":
        return {"tokens": tokens(args[0])}
    return {}


class Tracer:
    def __init__(self, tokenize):
        self.spans = []
        self._stack = []
        self._saved = []
        self._tokenize = tokenize
        self._tokens = {}

    def _token_count(self, source: str) -> int:
        if source not in self._tokens:
            self._tokens[source] = len(self._tokenize(source))
        return self._tokens[source]

    def _span(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            span.counts = _count(name, args, result, self._token_count)
            return result

        return wrapper

    def _step(self, name, fn):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                if stack:
                    acc = stack[-1].steps.setdefault(name, [0, 0.0])
                    acc[0] += 1
                    acc[1] += clock() - t0

        return wrapper

    def install(self, package: str = "chorc"):
        """Patch every reference to a traced function in ``package``."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == package or k.startswith(package + "."))]
        for kind, table in ((self._span, SPANS), (self._step, STEPS)):
            for mod, fname, name in table:
                orig = getattr(sys.modules[f"{package}.{mod}"], fname)
                wrapped = kind(name, orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def take(self) -> list:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def dump(self, spans) -> list:
        index = {id(s): i for i, s in enumerate(spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": None if s.parent is None else index[id(s.parent)],
                 "steps": s.steps, "counts": s.counts} for s in spans]


def self_times(spans) -> dict:
    """Per span name, the summed span time not covered by child spans or
    by successor-function calls charged to the span."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        steps = sum(sec for _, sec in s.steps.values())
        out[s.name] += (s.end - s.start) - child[id(s)] - steps
    return out


def layer_metrics(spans) -> dict:
    """Per-layer figures for one pass, from its spans."""
    total = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(float))
    steps = defaultdict(lambda: [0, 0.0])
    sim_step_calls = 0
    n_spans = defaultdict(int)
    for s in spans:
        total[s.name] += s.end - s.start
        n_spans[s.name] += 1
        for k, v in s.counts.items():
            counts[s.name][k] += v
        for k, (calls, sec) in s.steps.items():
            steps[k][0] += calls
            steps[k][1] += sec
            if s.name == "simulate" and k == "sys_steps":
                sim_step_calls += calls
    own = self_times(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    c_ex, s_ex = counts["explore"], counts["sys_explore"]
    m = {
        "chorsem.explore_s": total["explore"],
        "chorsem.configs": c_ex["states"],
        "chorsem.edges": c_ex["edges"],
        "chorsem.configs_per_s": ratio(c_ex["states"], total["explore"]),
        "chorsem.new_per_edge": ratio(c_ex["states"] - n_spans["explore"], c_ex["edges"]),
        "chorsem.step_calls": steps["chor_steps"][0],
        "chorsem.step_s": steps["chor_steps"][1],
        "cbs.explore_s": total["sys_explore"],
        "cbs.states": s_ex["states"],
        "cbs.edges": s_ex["edges"],
        "cbs.states_per_s": ratio(s_ex["states"], total["sys_explore"]),
        "cbs.new_per_edge": ratio(s_ex["states"] - n_spans["sys_explore"], s_ex["edges"]),
        "cbs.step_calls": steps["sys_steps"][0],
        "cbs.step_s": steps["sys_steps"][1],
        "sim.simulate_s": total["simulate"],
        "sim.steps": counts["simulate"]["steps"],
        "sim.step_calls": sim_step_calls,
        "sim.steps_per_step_call": ratio(counts["simulate"]["steps"], sim_step_calls),
        "sim.self_s": own["simulate"],
        "verify.invariant_s": total["invariant_suite"],
        "verify.equiv_self_s": own["equiv_check"],
        "parser.parse_s": total["parse_source"],
        "parser.tokens_per_s": ratio(counts["parse_source"]["tokens"], total["parse_source"]),
        "lang.check_s": total["check_well_formed"],
        "synthesis.synth_s": total["synthesize"],
        "synthesis.interactions": counts["synthesize"]["interactions"],
        "synthesis.transitions": counts["synthesize"]["transitions"],
        "promela.generate_s": total["generate_promela"],
        "promela.validate_s": total["validate_promela"],
        "promela.ltl_s": total["format_ltl"],
        "promela.lines": counts["generate_promela"]["lines"],
        "cli.self_s": own["cli.main"],
    }
    return m
