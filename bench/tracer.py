"""Layer tracing for the benchmark's traced run.

The tracer rebinds module attributes and class methods of an imported distsim
to timing wrappers, and restores them afterwards; no file of the program
changes.  Each wrapped call is a span with a name, start, end and parent.
Calls at high-frequency boundaries (words_in, program on_round, Message
construction) are not kept one by one: per parent span they keep a count, a
total time and the time of their direct children.  Everything stays in
memory until the run writes it out.

A span's self time is its duration minus the time of the child spans named
in the metric's definition (see layer_metrics).
"""

from __future__ import annotations

import functools
from time import perf_counter

START, CHILDREN = 1, 2  # frame fields: [name, start, children, span id]


class _JsonProxy:
    """Stands in for the json module inside distsim.cli, timing loads only."""

    def __init__(self, real, loads):
        self._real = real
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.span_ids: list[int] = []
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple, list] = {}
        self.transfers = 0
        self.colored_words = 0
        self._in_words_in = False
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _push(self, name: str, full: bool) -> list:
        sid = None
        if full:
            sid = self._next_id
            self._next_id += 1
        frame = [name, 0.0, None, sid]
        self.stack.append(frame)
        if full:
            self.span_ids.append(sid)
        frame[START] = perf_counter()
        return frame

    def _pop(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        name, start, children, sid = frame
        dur = end - start
        if self.stack:
            parent = self.stack[-1]
            if parent[CHILDREN] is None:
                parent[CHILDREN] = {}
            pc = parent[CHILDREN]
            pc[name] = pc.get(name, 0.0) + dur
        if sid is not None:
            self.span_ids.pop()
            parent_id = self.span_ids[-1] if self.span_ids else None
            self.spans.append((sid, name, start, end, parent_id, children or {}))
        else:
            parent_id = self.span_ids[-1] if self.span_ids else None
            agg = self.aggregates.get((parent_id, name))
            if agg is None:
                agg = self.aggregates[(parent_id, name)] = [0, 0.0, {}]
            agg[0] += 1
            agg[1] += dur
            if children:
                merged = agg[2]
                for k, v in children.items():
                    merged[k] = merged.get(k, 0.0) + v
        return dur

    def wrap(self, name: str, fn, *, full: bool = True, after=None):
        """Timing wrapper for fn; after(args, result) runs outside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(name, full)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap_words_in(self, fn):
        """words_in recurses through its module global, so only the
        outermost call is timed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj):
            if tracer._in_words_in:
                return fn(obj)
            tracer._in_words_in = True
            frame = tracer._push("engines.words_in", False)
            try:
                return fn(obj)
            finally:
                tracer._pop(frame)
                tracer._in_words_in = False
        return wrapper

    # -- installing and removing the wrappers ----------------------------------

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the layer boundaries of the distsim modules given by name
        ("cli", "core", "engines", "routing", "adapters", "algorithms")."""
        cli, core, engines = modules["cli"], modules["core"], modules["engines"]
        routing, adapters = modules["routing"], modules["adapters"]

        def count_transfers(_args, result):
            self.transfers += sum(len(rec.transfers) for rec in result.trace.rounds)

        def count_colored(args, _result):
            self.colored_words += len(args[2])

        for module in (cli, adapters, routing):
            for fname in ("run_clique", "run_congest", "run_mpc"):
                if fname in module.__dict__:
                    self._set(module, fname, self.wrap(
                        f"engines.{fname}", getattr(engines, fname),
                        after=count_transfers))
        for module in (cli, adapters):
            self._set(module, "plan_routing",
                      self.wrap("routing.plan_routing", routing.plan_routing))
        self._set(cli, "check_trace", self.wrap("engines.check_trace", engines.check_trace))
        self._set(cli, "execute_schedule",
                  self.wrap("routing.execute_schedule", routing.execute_schedule))
        for fname in ("simulate_cc_on_semimpc", "simulate_congest_on_semimpc",
                      "simulate_semimpc_on_cc"):
            self._set(cli, fname, self.wrap(f"adapters.{fname}", getattr(adapters, fname)))
        for fname in ("cmd_run", "cmd_verify", "cmd_simulate", "cmd_route"):
            self._set(cli, fname, self.wrap(f"cli.{fname}", getattr(cli, fname)))
        self._set(cli, "_dump_json", self.wrap("cli.dump_json", cli._dump_json))
        self._set(cli, "json", _JsonProxy(cli.json, self.wrap("cli.json_loads", cli.json.loads)))

        self._set(routing, "edge_color_bipartite", self.wrap(
            "routing.edge_color_bipartite", routing.edge_color_bipartite,
            after=count_colored))
        self._set(engines, "words_in", self._wrap_words_in(engines.words_in))

        demand = routing.DemandMatrix
        self._set(demand, "words", self.wrap("routing.DemandMatrix.words",
                                             demand.__dict__["words"]))
        message = core.Message
        self._set(message, "__post_init__", self.wrap(
            "core.Message", message.__dict__["__post_init__"], full=False))
        trace = core.RoundTrace
        for meth in ("max_traffic", "space_high_water", "sent_words", "recv_words",
                     "to_per_round_json"):
            self._set(trace, meth, self.wrap(f"core.RoundTrace.{meth}", trace.__dict__[meth]))
        self._set(trace, "from_per_round_json", staticmethod(self.wrap(
            "core.RoundTrace.from_per_round_json",
            trace.__dict__["from_per_round_json"].__func__)))

        for cls in _program_classes(engines.NodeProgram):
            if "on_round" in cls.__dict__:
                layer = cls.__module__.rpartition(".")[2]
                self._set(cls, "on_round", self.wrap(
                    f"{layer}.{cls.__name__}.on_round", cls.__dict__["on_round"],
                    full=False))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _program_classes(base: type) -> list[type]:
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# ---------------------------------------------------------------------------
# From spans to the per-layer table
# ---------------------------------------------------------------------------

ENGINES = ("engines.run_clique", "engines.run_congest", "engines.run_mpc")
SIMULATE = ("adapters.simulate_cc_on_semimpc", "adapters.simulate_congest_on_semimpc",
            "adapters.simulate_semimpc_on_cc")


def _is_program(name: str) -> bool:
    return name.endswith(".on_round")


def _sum_children(children: dict, pred) -> float:
    return sum(v for k, v in children.items() if pred(k))


def layer_metrics(tracer: Tracer, sequences: int) -> dict[str, float]:
    """Per-layer times and counts, each per command sequence (the traced
    totals divided by the number of traced sequences), plus the two ratios
    over the engines' non-self transfers."""
    m: dict[str, float] = {}

    def span_total(names) -> tuple[float, int]:
        durs = [end - start for _sid, name, start, end, _p, _c in tracer.spans
                if name in names]
        return sum(durs), len(durs)

    def span_self(names, excluded) -> float:
        return sum((end - start) - _sum_children(children, excluded)
                   for _sid, name, start, end, _p, children in tracer.spans
                   if name in names)

    def agg_total(pred) -> tuple[int, float, float]:
        """count, total time and time in nested program on_round calls."""
        count = total = nested = 0.0
        for (_parent, name), (c, t, children) in tracer.aggregates.items():
            if pred(name):
                count += c
                total += t
                nested += _sum_children(children, _is_program)
        return int(count), total, nested

    m["engines.run_s"] = span_total(ENGINES)[0]
    m["engines.self_s"] = span_self(
        ENGINES, lambda k: _is_program(k) or k == "engines.words_in")
    m["engines.transfers"] = tracer.transfers
    calls, total, _ = agg_total(lambda k: k == "engines.words_in")
    m["engines.words_in_s"], m["engines.words_in_calls"] = total, calls
    m["engines.check_trace_s"] = span_total(("engines.check_trace",))[0]

    m["core.messages"] = agg_total(lambda k: k == "core.Message")[0]
    m["core.trace_scan_s"], m["core.trace_scan_calls"] = span_total(
        tuple(f"core.RoundTrace.{x}" for x in
              ("max_traffic", "space_high_water", "sent_words", "recv_words")))
    m["core.to_json_s"] = span_total(("core.RoundTrace.to_per_round_json",))[0]
    m["core.from_json_s"] = span_total(("core.RoundTrace.from_per_round_json",))[0]

    m["routing.plan_s"], m["routing.plan_calls"] = span_total(("routing.plan_routing",))
    m["routing.demand_words_s"] = span_total(("routing.DemandMatrix.words",))[0]
    m["routing.color_s"] = span_total(("routing.edge_color_bipartite",))[0]
    m["routing.colored_words"] = tracer.colored_words
    m["routing.execute_s"] = span_total(("routing.execute_schedule",))[0]
    _, total, nested = agg_total(lambda k: _is_program(k) and k.startswith("routing."))
    m["routing.relay_s"] = total - nested

    m["adapters.simulate_s"] = span_total(SIMULATE)[0]
    m["adapters.self_s"] = span_self(
        SIMULATE, lambda k: k in ENGINES or k == "routing.plan_routing")
    _, total, nested = agg_total(lambda k: _is_program(k) and k.startswith("adapters."))
    m["adapters.relay_s"] = total - nested

    calls, total, _ = agg_total(lambda k: _is_program(k) and k.startswith("algorithms."))
    m["algorithms.on_round_s"], m["algorithms.on_round_calls"] = total, calls

    for cmd in ("run", "verify", "simulate", "route"):
        m[f"cli.{cmd}_s"] = span_total((f"cli.cmd_{cmd}",))[0]
    m["cli.dump_s"] = span_total(("cli.dump_json",))[0]
    m["cli.load_s"] = span_total(("cli.json_loads",))[0]

    m = {k: v / sequences for k, v in m.items()}
    transfers = m["engines.transfers"]
    m["engines.ns_per_transfer"] = m["engines.self_s"] * 1e9 / transfers if transfers else 0.0
    m["core.messages_per_transfer"] = m["core.messages"] / transfers if transfers else 0.0
    return m
