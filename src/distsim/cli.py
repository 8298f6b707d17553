"""Command-line harness: graph generation, native runs, simulations, routing
demos and trace verification.

Exit codes are fixed so CI can consume the tool: 0 for a clean result, 1 when
a budget was violated or a claimed bound failed, 2 for usage or input errors.
Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

from .adapters import (
    C_MACHINES,
    SimulationRefused,
    cc_on_semimpc_report,
    congest_on_semimpc_report,
    plan_episodes,
    semimpc_on_cc_report,
    simulate_cc_on_semimpc,
    simulate_congest_on_semimpc,
    simulate_semimpc_on_cc,
)
from .algorithms import BoruvkaConnectivity, FloodMinLabel, ForestMergeConnectivity
from .core import (Graph, RoundRecord, RoundTrace, components_oracle, gen_graph, load_graph,
                   word_width)
from .engines import (
    C_SPACE,
    EngineContractError,
    ModelKind,
    ModelParams,
    RunResult,
    check_trace,
    distribute_edges,
    run_clique,
    run_congest,
    run_mpc,
)
from .routing import DemandMatrix, Schedule, delivered_triples, execute_schedule, plan_routing

ALGORITHM_MODELS = {
    "boruvka": ModelKind.CLIQUE,
    "flood": ModelKind.CONGEST,
    "forest-merge": ModelKind.SEMI_MPC,
}

MODEL_FLAGS = {
    "clique": ModelKind.CLIQUE,
    "congest": ModelKind.CONGEST,
    "semimpc": ModelKind.SEMI_MPC,
}

# --machines when absent; files of runs that read no machine count record it
MACHINES = 4

# the --constants keys each run model and simulate direction read; no clique
# or CONGEST rule reads c_space, and route reads none
RUN_CONSTANTS = {
    ModelKind.CLIQUE: ("word_width",),
    ModelKind.CONGEST: ("word_width",),
    ModelKind.SEMI_MPC: ("c_space", "word_width"),
}
SIMULATE_CONSTANTS = {
    (ModelKind.CLIQUE, ModelKind.SEMI_MPC): ("c_space",),
    (ModelKind.SEMI_MPC, ModelKind.CLIQUE): ("c_space",),
    (ModelKind.CONGEST, ModelKind.SEMI_MPC): ("c_space", "c_machines"),
}


class UsageError(Exception):
    pass


_encode_scalar = json.JSONEncoder().encode
# rows of a ledger table spelled and written at once: the writer's memory
# peak is one chunk's text, not the file's
_CHUNK_ROWS = 4096


def _table_text(columns, lead: str, inner: str, spelled: dict) -> str:
    """A chunk of table rows given by its columns (one or more sequences of
    exact ints, of one non-zero length, such as a ledger's src, dst and
    words) as json.dumps indents the rows at the depth `inner`, after
    `lead`.  Each cell is spelled from one of the depth's two dicts in
    `spelled`, which map a value to its digits together with the separators
    and brackets before it: `head` for a row's first cell, which also closes
    the row before, and `rest` for every other cell; a value is spelled once
    per dict and file."""
    if inner not in spelled:
        spelled[inner] = ({}, {})
    head, rest = spelled[inner]
    row = inner + "  "
    for v in set(columns[0]).difference(head):
        head[v] = f"{inner}],{inner}[{row}{v}"
    for v in set(chain.from_iterable(columns[1:])).difference(rest):
        rest[v] = f",{row}{v}"
    parts = list(chain.from_iterable(zip(map(head.__getitem__, columns[0]),
                                         *[map(rest.__getitem__, c) for c in columns[1:]])))
    # the first row has no row before it to close: its text follows lead
    parts[0] = lead + parts[0][2 * len(inner) + 2:]
    parts.append(inner + "]")
    return "".join(parts)


def _chunks(obj):
    """(rows, columns) of each _CHUNK_ROWS rows of a list or tuple, or of a
    RoundRecord's transfers ([src, dst, words] rows): columns are the
    chunk's columns if it is a table, else None.  A ledger chunk is a table
    when each of its three column slices holds only exact ints; a chunk of
    a list is a table when its rows are lists or tuples of one non-zero
    length whose cells are all exact ints."""
    if type(obj) is RoundRecord:
        for start in range(0, len(obj.src), _CHUNK_ROWS):
            columns = [c[start:start + _CHUNK_ROWS] for c in (obj.src, obj.dst, obj.words)]
            exact = all(list(map(type, c)).count(int) == len(c) for c in columns)
            yield zip(*columns), columns if exact else None
        return
    for start in range(0, len(obj), _CHUNK_ROWS):
        rows = obj[start:start + _CHUNK_ROWS]
        columns = None
        if set(map(type, rows)) <= {list, tuple}:
            lengths = set(map(len, rows))
            width = lengths.pop()
            cells = list(chain.from_iterable(rows)) if width and not lengths else ()
            if set(map(type, cells)) == {int}:
                columns = [cells[k::width] for k in range(width)]
        yield rows, columns


def _write_json(obj, pad: str, write, spelled: dict) -> None:
    """Pass exactly the text of json.dumps(obj, indent=2, sort_keys=True),
    nested at the depth whose line prefix is `pad` (a newline plus spaces),
    to `write` piece by piece.  A RoundRecord stands for its transfers, the
    [src, dst, words] rows.  A list, a tuple and a ledger go in chunks of
    _CHUNK_ROWS rows (_chunks), each written at once if it is a table
    (_table_text, which spells its cells from `spelled`), else row by row."""
    inner = pad + "  "
    kind = type(obj)
    if kind is dict and all(type(key) is str for key in obj):
        lead = "{" + inner
        for key in sorted(obj):
            write(lead + _encode_scalar(key) + ": ")
            _write_json(obj[key], inner, write, spelled)
            lead = "," + inner
        write(pad + "}" if obj else "{}")
    elif kind is list or kind is tuple or kind is RoundRecord:
        if kind is not RoundRecord and obj and all(type(x) is int for x in obj):
            write("[" + inner + ("," + inner).join(map(str, obj)) + pad + "]")
            return
        first = lead = "[" + inner
        for rows, columns in _chunks(obj):
            if columns is None:
                for x in rows:
                    write(lead)
                    _write_json(x, inner, write, spelled)
                    lead = "," + inner
            else:
                write(_table_text(columns, lead, inner, spelled))
                lead = "," + inner
        write("[]" if lead is first else pad + "]")
    elif kind in (str, int, float, bool) or obj is None:
        write(_encode_scalar(obj))
    else:
        # anything else (non-str keys, subclasses) exactly as json.dumps spells it
        write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad))


class _FileTrace(RoundTrace):
    """A trace whose per_round data keeps each round's RoundRecord as its
    transfers entry, so that a run's to_json_dict is the document
    _write_json spells: the writer reads the rows from the columns, and
    they are never built."""

    def to_per_round_json(self) -> list[dict]:
        return [{"transfers": rec, "space": list(rec.space)} for rec in self.rounds]


def _file_run(run: RunResult) -> RunResult:
    """The run with its trace as a _FileTrace."""
    return replace(run, trace=_FileTrace(run.trace.num_participants, run.trace.rounds))


def _dump_json(doc: dict, path: str) -> None:
    """Write doc as json.dumps(doc, indent=2, sort_keys=True) plus a newline,
    each RoundRecord in it as its transfer rows, to the file at path,
    streamed.  The cell spellings of its ledger tables
    (see _table_text) live for this call alone.  A write that fails part-way
    leaves no file behind."""
    spelled: dict = {}
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            _write_json(doc, "\n", fh.write, spelled)
            fh.write("\n")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_constants(pairs: list[str], keys: tuple[str, ...]) -> dict[str, int]:
    out: dict[str, int] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"constants must look like key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        if key not in keys:
            raise UsageError(
                f"unknown constant {key!r}; expected one of {', '.join(keys)}")
        if key in out:
            raise UsageError(f"constant {key} is given twice")
        try:
            out[key] = int(value)
        except ValueError:
            raise UsageError(f"constant {key} needs an integer, got {value!r}") from None
        if out[key] < 1:
            raise UsageError(f"constant {key} must be a positive integer, got {value!r}")
    return out


def _make_program(args, model: ModelKind, g: Graph):
    """The algorithm's program, refused unless it runs on the given model."""
    if ALGORITHM_MODELS[args.algorithm] != model:
        raise UsageError(
            f"algorithm {args.algorithm!r} runs on "
            f"{ALGORITHM_MODELS[args.algorithm].value}, not {model.value}")
    if args.algorithm == "boruvka":
        return BoruvkaConnectivity(g.n)
    if args.algorithm == "flood":
        return FloodMinLabel(g.n)
    return ForestMergeConnectivity(g.n, args.machines)


def _read_machines(args, model: ModelKind) -> None:
    """Refuse --machines where no semi-MPC run reads it; absent, it is MACHINES."""
    if args.machines is None:
        args.machines = MACHINES
    elif model != ModelKind.SEMI_MPC:
        raise UsageError("--machines is read only by semi-MPC runs")


def _semi_mpc_input(args, g: Graph, constants: dict[str, int]):
    """Semi-MPC params for args.machines machines, and the edge words placed
    on them by the seeded shuffle."""
    params = ModelParams.semi_mpc(
        g.n, args.machines, ell=2 * g.m, word_width_bits=constants.get("word_width"),
        c_space=constants.get("c_space", C_SPACE))
    return params, distribute_edges(g, args.machines, args.seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.p is not None and args.kind != "gnp":
        raise UsageError("--p is read only by --kind gnp")
    g = gen_graph(args.kind, args.n, prob=args.p, seed=args.seed)
    Path(args.out).write_text(g.to_edge_list_text(), encoding="utf-8")
    print(f"wrote {args.kind} graph: n={g.n} m={g.m} -> {args.out}")
    return 0


def cmd_run(args) -> int:
    model = MODEL_FLAGS[args.model]
    constants = _parse_constants(args.constants, RUN_CONSTANTS[model])
    _read_machines(args, model)
    g = load_graph(Path(args.graph).read_text(encoding="utf-8"))
    prog = _make_program(args, model, g)
    if model == ModelKind.SEMI_MPC:
        params, inputs = _semi_mpc_input(args, g, constants)
        result = run_mpc(prog, inputs, params)
        result.graph = g
    else:
        factory, run = ((ModelParams.clique, run_clique) if model == ModelKind.CLIQUE
                        else (ModelParams.congest, run_congest))
        params = factory(g.n, word_width_bits=constants.get("word_width"))
        result = run(prog, g, params)

    doc = _file_run(result).to_json_dict()
    doc["config"] = _config([result], str(args.graph), args.seed, constants)
    _dump_json(doc, args.out)

    print(f"model={args.model} algorithm={args.algorithm} n={g.n} m={g.m}")
    print(f"rounds={result.rounds_used} "
          f"max_traffic={result.trace.max_traffic()} "
          f"max_space={max(result.trace.space_high_water(), default=0)}")
    print(f"violations={len(result.violations)} "
          f"output_digest={_digest(result.outputs)}")
    if result.violations:
        worst = result.violations[0]
        print(f"first violation: {worst.rule} at round {worst.round} "
              f"(measured {worst.measured}, allowed {worst.allowed})")
        return 1
    return 0


def cmd_simulate(args) -> int:
    source = MODEL_FLAGS[args.source]
    target = MODEL_FLAGS[args.target]
    if (source, target) not in SIMULATE_CONSTANTS:
        raise UsageError(f"unsupported pair: {args.source} -> {args.target}")
    constants = _parse_constants(args.constants, SIMULATE_CONSTANTS[source, target])
    if args.round_budget is not None and source != ModelKind.CONGEST:
        raise UsageError("--round-budget is read only by --from congest")
    _read_machines(args, source)
    g = load_graph(Path(args.graph).read_text(encoding="utf-8"))
    prog = _make_program(args, source, g)

    c_space = constants.get("c_space", C_SPACE)
    if source == ModelKind.CLIQUE:
        report = simulate_cc_on_semimpc(prog, g, c_space=c_space, seed=args.seed)
    elif source == ModelKind.SEMI_MPC:
        params, inputs = _semi_mpc_input(args, g, constants)
        report = simulate_semimpc_on_cc(prog, inputs, params)
    else:
        report = simulate_congest_on_semimpc(
            prog, g, round_budget=args.round_budget, c_space=c_space,
            c_machines=constants.get("c_machines", C_MACHINES), seed=args.seed)

    doc = replace(report, native=_file_run(report.native),
                  simulated=_file_run(report.simulated)).to_json_dict()
    doc["config"] = _config([report.native, report.simulated], str(args.graph), args.seed,
                            constants, args.round_budget)
    _dump_json(doc, args.out)

    print(f"simulate {args.source} -> {args.target} "
          f"algorithm={args.algorithm} n={g.n} m={g.m}")
    print(f"native_rounds={report.native.rounds_used} "
          f"simulated_rounds={report.simulated.rounds_used}")
    for name, good in sorted(report.bound_checks.items()):
        print(f"  {name}: {'pass' if good else 'FAIL'}")
    if not report.all_ok:
        failed = [k for k, v in sorted(report.bound_checks.items()) if not v]
        print(f"bound failure: {', '.join(failed)}")
        return 1
    return 0


def cmd_route(args) -> int:
    doc = json.loads(Path(args.demand).read_text(encoding="utf-8"))
    # nothing is coerced: from_rows refuses counts that are not ints
    if type(doc) is not list or not doc or any(type(row) is not list for row in doc):
        raise UsageError("demand file must hold a dense square array")
    dm = DemandMatrix.from_rows(doc)
    # route takes the loads a semi-MPC machine may send or receive in a round
    # at the default c_space: at most C_SPACE * n words per node
    limit = C_SPACE * dm.n
    max_degree = dm.max_degree
    if max_degree > limit:  # name the first row, else column, above it
        for name, loads in zip(("row", "column"), dm.loads()):
            for i, total in enumerate(loads):
                if total > limit:
                    raise UsageError(f"{name} {i} demands {total} words, above {limit}")
    sched = plan_routing(dm)
    # the replay needs only the schedule: free the demand's cells before it
    summary = f"demand n={dm.n} words={dm.total_words} max_degree={max_degree}"
    del dm
    payloads = {(s, d, q): (s * 31 + d * 7 + q) % (1 << 8)
                for (s, d, q) in sched.assignment}
    record = execute_schedule(sched, payloads, value_width=8)

    out = _file_run(record.run).to_json_dict()
    out.update(_route_fields(sched, record.delivered))
    _dump_json(out, args.out)

    print(summary)
    print(f"schedule_rounds={sched.num_rounds} "
          f"engine_rounds={record.run.rounds_used} "
          f"delivered={out['delivered_words']}")
    return 0 if record.run.clean else 1


def _graph_from_json(doc: dict) -> Graph:
    """The graph a run file records.  Nothing is coerced: the vertex count
    and every edge endpoint must be an int (not a bool), and the edge count
    m the number of edges, else ValueError."""
    edges = []
    for u, v in doc["edges"]:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"graph edge {[u, v]!r} holds a value that is not an integer")
        edges.append((u, v))
    if type(doc["n"]) is not int:
        raise ValueError(f"graph vertex count {doc['n']!r} is not an integer")
    if type(doc["m"]) is not int or doc["m"] != len(edges):
        raise ValueError(f"graph field 'm' holds {doc['m']!r}, not its {len(edges)} edges")
    return Graph(n=doc["n"], edges=tuple(edges))


def _recheck_run(doc: dict, report_models: dict):
    """Re-check the run a document records from its params, ledger and graph
    alone: its params, trace, violations, and the summary fields the
    document misstates, among them `model` and, in a report, the
    `report_models` field (source_model or target_model): each must name
    the params' model kind.  Returns the run, with the file's `outputs`
    (see _expected_outputs), and the names of the misstated fields."""
    _refuse_unless_object(doc["params"], "params")
    params = ModelParams.from_json_dict(doc["params"])
    trace = RoundTrace.from_per_round_json(params.p, doc["per_round"])
    cap = params.effective_round_cap()  # the engine runs no round past it
    if trace.num_rounds > cap:
        raise ValueError(f"per_round holds {trace.num_rounds} rounds, above the round cap {cap}")
    graph = None
    if doc.get("graph") is not None:
        _refuse_unless_object(doc["graph"], "graph")
        graph = _graph_from_json(doc["graph"])
        if graph.n != params.n:
            raise ValueError(f"graph field 'n' holds {graph.n!r}, not params n = {params.n}")
        # a semi-MPC run's input is its graph's edge words (_semi_mpc_input)
        if params.kind == ModelKind.SEMI_MPC and params.ell != 2 * graph.m:
            raise ValueError(f"params field 'ell' holds {params.ell!r}, not"
                             f" 2m = {2 * graph.m}")
    run = RunResult(params, doc["outputs"], trace, check_trace(trace, params, graph), graph)
    # the fields as the writer derives them for this run
    written = _file_run(run).to_json_dict()
    written.update(dict.fromkeys(report_models, written["model"]))
    claimed = {**doc, **report_models}
    # compared as JSON text, so neither 7.0 nor true can stand for an int
    wrong = [key for key in ("model", *report_models, "rounds", "space_high_water", "violations")
             if json.dumps(claimed[key], sort_keys=True)
             != json.dumps(written[key], sort_keys=True)]
    return run, wrong


def _rederived_report(config: dict, native: RunResult, simulated: RunResult):
    """The report of a report file's runs, from their adapter's report
    function.  Its other inputs: the episodes re-planned from the native
    ledger, and the file's config: its round budget (the native round
    count when null) and its constants' c_machines (C_MACHINES when
    absent).  A native run of no rounds is refused: every engine run
    takes one."""
    if native.rounds_used == 0:
        raise ValueError("native field 'rounds' holds 0, not at least 1")
    pair = (native.params.kind, simulated.params.kind)
    if pair == (ModelKind.CLIQUE, ModelKind.SEMI_MPC):
        return cc_on_semimpc_report(native, simulated)
    if pair == (ModelKind.SEMI_MPC, ModelKind.CLIQUE):
        return semimpc_on_cc_report(native, simulated, plan_episodes(native))
    if pair != (ModelKind.CONGEST, ModelKind.SEMI_MPC):
        raise ValueError(f"no adapter simulates {pair[0].value} on {pair[1].value}")
    budget = config["round_budget"]
    budget = native.rounds_used if budget is None else budget
    if type(budget) is not int or budget < native.rounds_used:
        raise ValueError(f"config field 'round_budget' holds {budget!r}, not an"
                         f" integer of at least the {native.rounds_used} native rounds")
    constants = config["constants"]
    c_machines = constants.get("c_machines", C_MACHINES) if type(constants) is dict else None
    if type(c_machines) is not int or c_machines < 1:
        raise ValueError(f"config field 'constants' holds {json.dumps(constants)},"
                         " not a positive integer c_machines")
    return congest_on_semimpc_report(native, simulated, budget, c_machines)


def _config(runs: list[RunResult], graph, seed, given, round_budget=None) -> dict:
    """The config that `run` (one run) or `simulate` (its native and
    simulated run) writes for its runs on the graph file, seed and constants
    `given`.  The runs fix the model flags, `algorithm`, `machines` (the
    native p where --machines sized it, else MACHINES) and the constants the
    command reads: word_width (the native run's) and c_space (every run's),
    present where `given` holds them or the runs hold other than
    word_width(n) and C_SPACE; c_machines is given's.  A report's
    round_budget is null unless its source is CONGEST.  Runs that no one
    config writes are refused (ValueError)."""
    native = runs[0].params
    kinds = tuple(run.params.kind for run in runs)
    flags = {kind: flag for flag, kind in MODEL_FLAGS.items()}
    algorithms = {kind: name for name, kind in ALGORITHM_MODELS.items()}
    config = {"algorithm": algorithms[native.kind], "graph": graph, "seed": seed,
              "machines": native.p if native.kind == ModelKind.SEMI_MPC else MACHINES}
    if len(runs) == 1:
        config["model"], keys = flags[native.kind], RUN_CONSTANTS[native.kind]
    else:
        config.update(zip(("from", "to"), map(flags.get, kinds)))
        config["round_budget"] = round_budget if native.kind == ModelKind.CONGEST else None
        keys = SIMULATE_CONSTANTS.get(kinds, ())
    constants = {key: given[key] for key in keys if key in given} if type(given) is dict else {}
    for key, values, default in (("word_width", {native.word_width_bits}, word_width(native.n)),
                                 ("c_space", {run.params.c_space for run in runs}, C_SPACE)):
        if key not in keys:  # the command sets it to its default in every run
            values.add(default)
        if len(values) > 1:
            raise ValueError(f"no one config sets {key} {' and '.join(map(str, sorted(values)))}")
        if key in constants or default not in values:
            constants[key] = values.pop()
    config["constants"] = constants
    return config


def _route_fields(sched: Schedule, delivered) -> dict:
    """A route file's `routing`, the schedule, and `delivered_words`, the
    number of words `delivered` (delivered_triples) holds."""
    return {"routing": sched.to_json_dict(), "delivered_words": sum(map(len, delivered))}


def _difference(held, want) -> str:
    """How held's JSON text differs from want's: two lists by their first
    differing item, else by their lengths, so a long table is not printed
    whole; anything else by both values."""
    if type(held) is list and type(want) is list:
        for k, (got, expected) in enumerate(zip(held, want)):
            if json.dumps(got) != json.dumps(expected):
                return f"item {k} holds {json.dumps(got)}, not {json.dumps(expected)}"
        return f"holds {len(held)} items, not {len(want)}"
    return f"holds {json.dumps(held)}, not {json.dumps(want)}"


def _refuse_unless_derived(held: dict, want: dict, name: str = "") -> None:
    """Refuse (ValueError) a field of held unless its JSON text is want's, so
    neither 7.0 nor 1 stands for 7 or true; dicts key by key, naming the field
    and how it differs (_difference)."""
    for key in sorted(held.keys() | want.keys()):
        field = f"{name} field {key!r}".lstrip()
        if key not in held or key not in want:
            raise ValueError(f"{field} is {'missing' if key in want else 'unknown'}")
        if type(held[key]) is dict and type(want[key]) is dict:
            _refuse_unless_derived(held[key], want[key], key)
        elif json.dumps(held[key]) != json.dumps(want[key]):
            raise ValueError(f"{field} {_difference(held[key], want[key])}")


_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _refuse_unless_object(value, name: str) -> None:
    """Refuse (ValueError) a value that is not a JSON object, naming its JSON
    type and not the value, which may be a long array."""
    if type(value) is not dict:
        raise ValueError(f"{name} holds {_JSON_TYPES[type(value)]}, not an object")


def _expected_outputs(params: ModelParams, graph: Graph | None):
    """The outputs a clean run of the model's one algorithm writes on its
    graph, from components_oracle: each vertex's [label] for boruvka and
    flood, every label on machine 0 and nothing elsewhere for forest-merge.
    None for a run without its graph, a semi-MPC report's native run."""
    if graph is None:
        return None
    labels = components_oracle(graph)
    if params.kind == ModelKind.SEMI_MPC:
        return [labels] + [[]] * (params.p - 1)
    return [[label] for label in labels]


def cmd_verify(args) -> int:
    """Re-check a run or route file, or both runs of a simulate report."""
    label = ""
    try:
        doc = json.loads(Path(args.trace).read_text(encoding="utf-8"))
        _refuse_unless_object(doc, "file")
        report, route = "native" in doc and "simulated" in doc, "routing" in doc
        # run and report files are checked against the config their command
        # wrote, a route file against its schedule
        name = "routing" if route else "config"
        _refuse_unless_object(doc[name], name)
        config = {} if route else doc["config"]
        runs = [("", doc, {})]
        if report:
            for key in ("native", "simulated"):
                _refuse_unless_object(doc[key], key)
            runs = [("native: ", doc["native"], {"source_model": doc["source_model"]}),
                    ("simulated: ", doc["simulated"], {"target_model": doc["target_model"]})]
        checked = []
        for label, run, report_models in runs:
            checked.append((label, *_recheck_run(run, report_models)))
        label, native, wrong = checked[0]
        # every command records its native run's graph but simulate --from semimpc
        if native.graph is None and not (report and native.params.kind == ModelKind.SEMI_MPC):
            raise KeyError("graph")
        label = ""
        # a route file's outputs are (src, seq, value) triples: delivered_triples
        if native.clean and not route:
            expected = _expected_outputs(native.params, native.graph)
            if expected is not None and json.dumps(native.outputs) != json.dumps(expected):
                wrong.append("outputs")
        derived = {}
        if native.clean and not any(misstated for _l, _r, misstated in checked):
            if report:
                derived = _rederived_report(config, native, checked[1][1]).derived_fields()
            elif route:
                # re-planned from the file's own entries' (src, dst) pairs;
                # the payload values are not checked
                pairs = [(s, d) for s, d, *_e in doc["routing"]["entries"]]
                demand = DemandMatrix.from_transfers(native.params.n, [s for s, _d in pairs],
                                                     [d for _s, d in pairs], [1] * len(pairs))
                derived = _route_fields(plan_routing(demand),
                                        delivered_triples(native.outputs))
        _refuse_unless_derived({key: doc[key] for key in derived}, derived)
        if not route:
            _refuse_unless_derived(config, _config(
                [run for _l, run, _w in checked], config.get("graph"), config.get("seed"),
                config.get("constants"), config.get("round_budget")), "config")
    except (LookupError, TypeError, ValueError) as exc:
        # LookupError covers KeyError and IndexError, ValueError JSONDecodeError
        print(f"error: malformed trace file: {label}{exc}", file=sys.stderr)
        return 2
    code = 0
    for label, run, wrong in checked:
        print(f"{label}model={run.params.kind.value} rounds={run.rounds_used} "
              f"violations={len(run.violations)}")
        for v in run.violations[:10]:
            print(f"  {v.rule} at round {v.round}: "
                  f"measured {v.measured}, allowed {v.allowed}")
        for key in wrong:
            print("  outputs in the file differ from the graph's components" if key == "outputs"
                  else f"  {key} in the file differs from the ledger's")
        if run.violations or wrong:
            code = 1
    return code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distsim",
        description="Round-based simulator for CONGEST, the congested clique "
                    "and semi-MPC with budget checking and cross-model "
                    "simulation adapters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an edge-list graph file")
    p.add_argument("--kind", required=True,
                   choices=["path", "cycle", "complete", "gnp", "star"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None,
                   help="edge probability for gnp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run an algorithm natively under a model")
    run.add_argument("--model", required=True, choices=sorted(MODEL_FLAGS))
    run.set_defaults(func=cmd_run, out="run_result.json")

    sim = sub.add_parser("simulate",
                         help="run an algorithm through a simulation adapter")
    sim.add_argument("--from", dest="source", required=True,
                     choices=sorted(MODEL_FLAGS))
    sim.add_argument("--to", dest="target", required=True,
                     choices=sorted(MODEL_FLAGS))
    sim.add_argument("--round-budget", type=int, default=None)
    sim.set_defaults(func=cmd_simulate, out="simulation_report.json")

    for p in (run, sim):  # both run an algorithm on a graph file
        p.add_argument("--algorithm", required=True,
                       choices=sorted(ALGORITHM_MODELS))
        p.add_argument("--graph", required=True)
        p.add_argument("--machines", type=int, default=None,
                       help=f"machine count for semi-MPC runs (default {MACHINES})")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--constants", nargs="*", default=[],
                       metavar="KEY=VALUE")
        p.add_argument("--out")

    p = sub.add_parser("route",
                       help="plan and execute a routing demand matrix")
    p.add_argument("--demand", required=True,
                   help="JSON file holding a dense n x n word-count array")
    p.add_argument("--out", default="route_result.json")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("verify", help="re-check an emitted trace file")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # The built-in programs, their states, messages and ledgers create no
    # reference cycles, so reference counting frees all they allocate, and
    # the cyclic collector would only walk the run's many containers again
    # and again to find nothing.  It is paused for the command alone and
    # left as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, EngineContractError) as exc:
        # ValueError covers GraphFormatError and json.JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
