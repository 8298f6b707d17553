import contextlib
import enum
import errno
import gc
import hashlib
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsim import Graph, gen_graph
from distsim import cli
from distsim.cli import _CHUNK_ROWS, _dump_json, main

from conftest import random_connected_graph


def run_cli(*argv):
    return main(list(argv))


# -- gen ------------------------------------------------------------------------

def test_gen_path(tmp_path):
    out = tmp_path / "p5.txt"
    assert run_cli("gen", "--kind", "path", "--n", "5", "--out", str(out)) == 0
    assert out.read_text() == "5 4\n0 1\n1 2\n2 3\n3 4\n"


def test_gen_gnp_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run_cli("gen", "--kind", "gnp", "--n", "64", "--p", "0.05",
                       "--seed", "7", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_probability(tmp_path, capsys):
    code = run_cli("gen", "--kind", "gnp", "--n", "8", "--p", "1.5",
                   "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "probability out of range" in capsys.readouterr().err


def test_gen_unknown_flag_usage_error(tmp_path):
    assert run_cli("gen", "--kind", "torus", "--n", "8",
                   "--out", str(tmp_path / "x.txt")) == 2


@pytest.mark.parametrize("kind", ["path", "cycle", "complete", "star"])
def test_gen_refuses_a_probability_it_does_not_read(kind, tmp_path, capsys):
    # only gnp reads --p; the others used to ignore it and exit 0
    out = tmp_path / "x.txt"
    assert run_cli("gen", "--kind", kind, "--n", "8", "--p", "0.5",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: --p is read only by --kind gnp\n"
    assert not out.exists()


# -- run ------------------------------------------------------------------------

@pytest.fixture
def graph_file(tmp_path):
    g = random_connected_graph(20, 6, 3)
    path = tmp_path / "g.txt"
    path.write_text(g.to_edge_list_text())
    return str(path)


def test_run_clique_boruvka(graph_file, tmp_path):
    out = tmp_path / "run.json"
    code = run_cli("run", "--model", "clique", "--algorithm", "boruvka",
                   "--graph", graph_file, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "CLIQUE"
    assert doc["violations"] == []
    assert doc["rounds"] >= 1
    assert len(doc["per_round"]) == doc["rounds"]


def test_run_model_algorithm_mismatch(graph_file, capsys):
    code = run_cli("run", "--model", "congest", "--algorithm", "boruvka",
                   "--graph", graph_file)
    assert code == 2
    assert "runs on CLIQUE" in capsys.readouterr().err


def test_run_byte_identical_reruns(graph_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("run", "--model", "semimpc", "--algorithm",
                       "forest-merge", "--graph", graph_file,
                       "--machines", "4", "--seed", "9",
                       "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_missing_graph_file(tmp_path):
    assert run_cli("run", "--model", "clique", "--algorithm", "boruvka",
                   "--graph", str(tmp_path / "nope.txt")) == 2


def test_run_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 5\n")
    code = run_cli("run", "--model", "clique", "--algorithm", "boruvka",
                   "--graph", str(bad))
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_run_engine_contract_error_exits_2(graph_file, tmp_path, capsys):
    # 20 vertices: Boruvka sends vertex ids up to 19, which overflow 3 bits
    out = tmp_path / "run.json"
    code = run_cli("run", "--model", "clique", "--algorithm", "boruvka",
                   "--graph", graph_file, "--constants", "word_width=3",
                   "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: payload word ")
    assert err.rstrip().endswith("overflows 3-bit words")
    assert "Traceback" not in err
    assert not out.exists()


def test_run_writes_output_only_to_a_file(graph_file, capsys):
    # an empty --out names no file: nothing is written, not even to stdout
    code = run_cli("run", "--model", "clique", "--algorithm", "boruvka",
                   "--graph", graph_file, "--out", "")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.fixture
def gnp48_file(tmp_path):
    """G(48, 0.2), seed 3, as `gen --kind gnp --n 48 --p 0.2 --seed 3` writes it."""
    path = tmp_path / "gnp48.txt"
    path.write_text(gen_graph("gnp", 48, prob=0.2, seed=3).to_edge_list_text())
    return str(path)


def test_run_violation_exits_1_and_names_the_first(gnp48_file, tmp_path, capsys):
    # at c_space = 1 a machine may receive s = 48 words a round
    out = tmp_path / "run.json"
    assert run_cli("run", "--model", "semimpc", "--algorithm", "forest-merge",
                   "--machines", "48", "--graph", gnp48_file,
                   "--constants", "c_space=1", "--out", str(out)) == 1
    assert capsys.readouterr().out.endswith(
        "first violation: recv-budget at round 4 (measured 72, allowed 48)\n")
    # the file records the aborted run, and verify finds the same violations
    assert run_cli("verify", "--trace", str(out)) == 1


RUN_CLIQUE = ("run", "--model", "clique", "--algorithm", "boruvka")
RUN_CONGEST = ("run", "--model", "congest", "--algorithm", "flood")
RUN_SEMIMPC = ("run", "--model", "semimpc", "--algorithm", "forest-merge")
SIM_CLIQUE = ("simulate", "--from", "clique", "--to", "semimpc", "--algorithm", "boruvka")
SIM_SEMIMPC = ("simulate", "--from", "semimpc", "--to", "clique",
               "--algorithm", "forest-merge")
SIM_CONGEST = ("simulate", "--from", "congest", "--to", "semimpc", "--algorithm", "flood")


@pytest.mark.parametrize("argv,constants,code", [
    # every key a command (or a run model or simulate direction) reads is
    # accepted ...
    (RUN_CLIQUE, ("word_width=7",), 0),
    (RUN_CONGEST, ("word_width=7",), 0),
    (RUN_SEMIMPC, ("c_space=4", "word_width=7"), 0),
    (SIM_CLIQUE, ("c_space=4",), 0),
    (SIM_SEMIMPC, ("c_space=4",), 0),
    (SIM_CONGEST, ("c_space=4", "c_machines=2"), 0),
    (SIM_SEMIMPC, ("c_space=8",), 0),
    # ... and every other key is refused: each used to be recorded in the
    # output's config and never read
    (RUN_CLIQUE, ("c_total=1",), 2),
    (RUN_CONGEST, ("polylog_exp=0",), 2),
    (RUN_SEMIMPC, ("surcharge=9",), 2),
    (RUN_SEMIMPC, ("c_load=0",), 2),
    (RUN_CLIQUE, ("c_machines=0",), 2),
    (SIM_CLIQUE, ("word_width=3",), 2),
    (SIM_CLIQUE, ("surcharge=9",), 2),
    (SIM_SEMIMPC, ("c_machines=0",), 2),
    (SIM_SEMIMPC, ("c_total=1",), 2),
    (SIM_CONGEST, ("surcharge=9",), 2),
    (SIM_CONGEST, ("polylog_exp=0",), 2),
    # keys that only moved a verdict or a planner's refusal threshold are
    # refused too (more at the end)
    (SIM_CLIQUE, ("c_traffic=4",), 2),
    # no clique or CONGEST rule checks space or traffic, and no semi-MPC rule
    # checks c_traffic: each used to land only in the output's params
    (RUN_CLIQUE, ("c_space=1",), 2),
    (RUN_CLIQUE, ("c_traffic=1",), 2),
    (RUN_CONGEST, ("c_space=1",), 2),
    (RUN_CONGEST, ("c_traffic=1",), 2),
    (RUN_SEMIMPC, ("c_traffic=1",), 2),
    (SIM_CONGEST, ("c_traffic=1",), 2),
    # the rest of the verdict-only keys
    (SIM_SEMIMPC, ("c_traffic=4",), 2),
    (SIM_SEMIMPC, ("surcharge=2",), 2),
    (SIM_CONGEST, ("c_load=2",), 2),
])
def test_constants_are_only_those_the_command_reads(argv, constants, code,
                                                    graph_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--constants", *constants,
                   "--out", str(out)) == code
    if code:
        assert capsys.readouterr().err.startswith("error: unknown constant ")
        assert not out.exists()


@pytest.mark.parametrize("argv,constant", [
    (RUN_CLIQUE, "word_width=0"),
    (RUN_CONGEST, "word_width=-3"),
    (RUN_SEMIMPC, "c_space=0"),
    (RUN_SEMIMPC, "word_width=0"),
    (SIM_CLIQUE, "c_space=0"),
    (SIM_SEMIMPC, "c_space=-1"),
    (SIM_CONGEST, "c_machines=0"),
    (SIM_CONGEST, "c_space=-2"),
])
def test_constants_must_be_positive(argv, constant, graph_file, tmp_path, capsys):
    # word_width=0 used to run at the default width and record 0 in config,
    # c_machines=0 ran on one machine and failed three checks, and
    # c_space=-2 was refused as a memory hog ("uses memory 0.00x")
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--constants", constant,
                   "--out", str(out)) == 2
    key, _, value = constant.partition("=")
    assert capsys.readouterr().err == (
        f"error: constant {key} must be a positive integer, got '{value}'\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,constants", [
    (RUN_CLIQUE, ("word_width=9", "word_width=12")),
    (RUN_SEMIMPC, ("c_space=4", "word_width=7", "c_space=8")),
    (SIM_CONGEST, ("c_machines=2", "c_machines=2")),
])
def test_constants_refuse_a_repeated_key(argv, constants, graph_file, tmp_path,
                                         capsys):
    # the last value used to win silently, even over an equal one
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--constants", *constants,
                   "--out", str(out)) == 2
    key = constants[-1].partition("=")[0]
    assert capsys.readouterr().err == f"error: constant {key} is given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, constant, message", [
    (RUN_SEMIMPC, "c_space", "constants must look like key=value, got 'c_space'"),
    (SIM_CONGEST, "c_machines:2", "constants must look like key=value, got 'c_machines:2'"),
    (RUN_CLIQUE, "word_width=x", "constant word_width needs an integer, got 'x'"),
    (SIM_CLIQUE, "c_space=2.5", "constant c_space needs an integer, got '2.5'"),
])
def test_constants_refuse_a_malformed_pair(argv, constant, message, graph_file,
                                           tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--constants", constant,
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_route_takes_no_constants(tmp_path, capsys):
    (tmp_path / "demand.json").write_text("[[0, 1, 0], [0, 0, 2], [1, 0, 0]]")
    out = tmp_path / "out.json"
    assert run_cli("route", "--demand", str(tmp_path / "demand.json"),
                   "--constants", "c_traffic=4", "--out", str(out)) == 2
    assert "unrecognized arguments: --constants c_traffic=4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [RUN_SEMIMPC, SIM_SEMIMPC])
@pytest.mark.parametrize("machines", [0, 21])
def test_machine_count_out_of_range_exits_2(argv, machines, graph_file,
                                             tmp_path, capsys):
    # graph_file has n = 20 vertices
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--machines", str(machines),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: need 1 <= p <= n machines\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [RUN_CLIQUE, RUN_CONGEST, SIM_CLIQUE, SIM_CONGEST])
def test_machines_is_refused_where_no_semi_mpc_run_reads_it(argv, graph_file,
                                                           tmp_path, capsys):
    # the config keeps recording the default when the flag is absent ...
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["machines"] == 4
    out.unlink()
    # ... and the flag, which used to be recorded there and never read, is refused
    assert run_cli(*argv, "--graph", graph_file, "--machines", "7",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: --machines is read only by semi-MPC runs\n")
    assert not out.exists()


def test_readme_constants_table_matches_the_cli():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| command | keys |\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[1:]:
        commands, keys = line.strip().strip("|").split("|")
        names = tuple(re.findall(r"`([^`]+)`", keys))
        assert names or keys.strip() == "none", line
        for command in re.findall(r"`([^`]+)`", commands):
            documented[command] = names
    flag = {kind: name for name, kind in cli.MODEL_FLAGS.items()}
    expected = {f"run --model {flag[kind]}": keys
                for kind, keys in cli.RUN_CONSTANTS.items()}
    expected.update({f"simulate --from {flag[source]} --to {flag[target]}": keys
                     for (source, target), keys in cli.SIMULATE_CONSTANTS.items()})
    expected["route"] = ()  # route has no --constants flag
    assert documented == expected


# -- simulate ---------------------------------------------------------------------

def test_simulate_cc_to_semimpc(graph_file, tmp_path):
    out = tmp_path / "sim.json"
    code = run_cli("simulate", "--from", "clique", "--to", "semimpc",
                   "--algorithm", "boruvka", "--graph", graph_file,
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(doc["bound_checks"].values())
    assert doc["simulated"]["rounds"] == doc["native"]["rounds"] + 1


def test_simulate_congest_to_semimpc(graph_file, tmp_path):
    out = tmp_path / "sim.json"
    code = run_cli("simulate", "--from", "congest", "--to", "semimpc",
                   "--algorithm", "flood", "--graph", graph_file,
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["simulated"]["rounds"] <= doc["native"]["rounds"] + 3


def test_simulate_semimpc_to_clique(graph_file, tmp_path):
    out = tmp_path / "sim.json"
    code = run_cli("simulate", "--from", "semimpc", "--to", "clique",
                   "--algorithm", "forest-merge", "--graph", graph_file,
                   "--machines", "4", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["simulated"]["rounds"] <= 4 * doc["native"]["rounds"]


@pytest.mark.parametrize("argv", [SIM_CLIQUE, SIM_SEMIMPC])
def test_simulate_refuses_a_round_budget_it_does_not_read(argv, graph_file,
                                                          tmp_path, capsys):
    # only the CONGEST adapter reads --round-budget
    out = tmp_path / "sim.json"
    assert run_cli(*argv, "--graph", graph_file, "--round-budget", "5",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: --round-budget is read only by --from congest\n")
    assert not out.exists()


def test_simulate_congest_reads_the_round_budget(graph_file, tmp_path):
    out = tmp_path / "sim.json"
    assert run_cli(*SIM_CONGEST, "--graph", graph_file, "--round-budget", "40",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["measured_constants"]["round_budget"] == 40
    assert doc["config"]["round_budget"] == 40


def test_simulate_unsupported_pair(graph_file, capsys):
    code = run_cli("simulate", "--from", "semimpc", "--to", "congest",
                   "--algorithm", "forest-merge", "--graph", graph_file)
    assert code == 2
    assert "unsupported pair" in capsys.readouterr().err


def test_simulate_refusal_exits_1(tmp_path, capsys):
    # flood on a 20-vertex path runs 20 native rounds
    (tmp_path / "path.txt").write_text(gen_graph("path", 20).to_edge_list_text())
    out = tmp_path / "sim.json"
    assert run_cli(*SIM_CONGEST, "--graph", str(tmp_path / "path.txt"),
                   "--round-budget", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "refused: round budget 1 below the native round count 20\n")
    assert not out.exists()


def test_simulate_bound_failure_exits_1(graph_file, tmp_path, capsys, monkeypatch):
    simulate = cli.simulate_cc_on_semimpc

    def one_check_fails(*args, **kwargs):
        report = simulate(*args, **kwargs)
        report.bound_checks["space_ok"] = False
        return report

    monkeypatch.setattr(cli, "simulate_cc_on_semimpc", one_check_fails)
    out = tmp_path / "sim.json"
    assert run_cli(*SIM_CLIQUE, "--graph", graph_file, "--out", str(out)) == 1
    printed = capsys.readouterr().out
    assert "  space_ok: FAIL\n" in printed
    assert printed.endswith("bound failure: space_ok\n")
    assert json.loads(out.read_text())["bound_checks"]["space_ok"] is False


# semi-MPC -> clique report files as written before the routing episodes were
# planned from the native ledger; any change to them must be deliberate
PINNED_SEMIMPC_TO_CLIQUE = {
    ("gnp", 3): "736010b3d5101fb94650e37abc538c7a40ed7e8f227ae069c5b1a097d9434767",
    ("gnp", 8): "7ed3503c27b865df3eaac701d9370c936fc61ef55c338e7cd91ee9e38509f926",
    ("cycle", 3): "2fb49610c4db17dfaa316ab154c4ce211e7b18d213b609280d1870ffa6d16d2c",
    ("cycle", 8): "a53bfe3e642bfd5ac80d9110b414ef1355174867cabacb6fce929318daea9055",
}


@pytest.mark.parametrize("kind,machines", sorted(PINNED_SEMIMPC_TO_CLIQUE))
def test_simulate_semimpc_to_clique_bytes_pinned(kind, machines, tmp_path,
                                                 monkeypatch):
    # relative paths: the report records the graph path it was given
    monkeypatch.chdir(tmp_path)
    gen = {"gnp": ("--kind", "gnp", "--n", "48", "--p", "0.12", "--seed", "2"),
           "cycle": ("--kind", "cycle", "--n", "33")}[kind]
    assert run_cli("gen", *gen, "--out", "g.txt") == 0
    assert run_cli("simulate", "--from", "semimpc", "--to", "clique",
                   "--algorithm", "forest-merge", "--graph", "g.txt",
                   "--machines", str(machines), "--seed", "5",
                   "--out", "sim.json") == 0
    digest = hashlib.sha256((tmp_path / "sim.json").read_bytes()).hexdigest()
    assert digest == PINNED_SEMIMPC_TO_CLIQUE[(kind, machines)]


# files written before the one-word clique path (engine loop, Boruvka's
# broadcast, copy-free ledger rows) was made cheaper; any change to them must
# be deliberate
PINNED_CLIQUE_PATH = {
    "run-clique": "2ebef36a1514dce6e4480c83da5a09c812eb3df1e404969e164c65b4c60531f8",
    "clique-to-semimpc": "16e29332ecf318004a901ede6a3b156a2267a698c88daf2ce58742a953458dbc",
    "congest-to-semimpc": "90259d323ed634a9cb7d6bd6a8c2be5140e15ce1825a8ee06dd5e81d1a99db15",
}


@pytest.mark.parametrize("command", sorted(PINNED_CLIQUE_PATH))
def test_clique_path_bytes_pinned(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gnp.txt").write_text(
        gen_graph("gnp", 40, prob=0.1, seed=4).to_edge_list_text())
    (tmp_path / "tree.txt").write_text(
        random_connected_graph(40, 8, 3).to_edge_list_text())
    argv = {
        "run-clique": ("run", "--model", "clique", "--algorithm", "boruvka",
                       "--graph", "gnp.txt"),
        "clique-to-semimpc": ("simulate", "--from", "clique", "--to", "semimpc",
                              "--algorithm", "boruvka", "--graph", "gnp.txt"),
        "congest-to-semimpc": ("simulate", "--from", "congest", "--to", "semimpc",
                               "--algorithm", "flood", "--graph", "tree.txt"),
    }[command]
    assert run_cli(*argv, "--seed", "5", "--out", "out.json") == 0
    digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
    assert digest == PINNED_CLIQUE_PATH[command]


# -- route ------------------------------------------------------------------------

def test_route_demand(tmp_path):
    demand = tmp_path / "demand.json"
    demand.write_text("[[0, 1, 0], [0, 0, 2], [1, 0, 0]]")
    out = tmp_path / "route.json"
    assert run_cli("route", "--demand", str(demand), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["routing"]["rounds"] == 2
    assert doc["delivered_words"] == 4
    assert doc["violations"] == []


def test_route_all_zero_demand_takes_one_engine_round(tmp_path, capsys):
    # nothing to route still replays the absorb round, and the file verifies
    demand = tmp_path / "demand.json"
    demand.write_text("[[0,0,0],[0,0,0],[0,0,0]]")
    out = tmp_path / "route.json"
    assert run_cli("route", "--demand", str(demand), "--out", str(out)) == 0
    assert "schedule_rounds=0 engine_rounds=1 delivered=0" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["rounds"] == 1 and doc["violations"] == []
    assert run_cli("verify", "--trace", str(out)) == 0


@pytest.mark.parametrize("rows, lines", [
    ([[0, 2, 1], [1, 0, 0], [3, 0, 0]],
     ["demand n=3 words=7 max_degree=4", "schedule_rounds=4 engine_rounds=5 delivered=7"]),
    ([[0, 0], [0, 0]],
     ["demand n=2 words=0 max_degree=0", "schedule_rounds=0 engine_rounds=1 delivered=0"]),
], ids=["column-0-heaviest", "empty"])
def test_route_prints_its_summary(rows, lines, tmp_path, capsys):
    # max_degree is the largest row or column sum: column 0 holds 4 words
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps(rows))
    assert run_cli("route", "--demand", str(demand),
                   "--out", str(tmp_path / "route.json")) == 0
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")


def test_route_rejects_oversized_demand(tmp_path, capsys):
    n = 3
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = 4 * n + 1
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps(rows))
    assert run_cli("route", "--demand", str(demand),
                   "--out", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "error: row 0 demands 13 words, above 12\n"
    # every row within 4n, column 1 above it
    rows = [[0, 5, 0], [0, 5, 0], [0, 3, 0]]
    demand.write_text(json.dumps(rows))
    assert run_cli("route", "--demand", str(demand),
                   "--out", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "error: column 1 demands 13 words, above 12\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("text, message", [
    # route takes a bare array; an object, with or without "matrix", is refused
    ('{"rows": [[0]]}', "must hold a dense square array"),
    ('{"matrix": [1, 2]}', "must hold a dense square array"),
    ("[1, 2]", "must hold a dense square array"),
    ('"[[1]]"', "must hold a dense square array"),
    ("[]", "must hold a dense square array"),
    ('[["a"]]', "demand count 'a' at (0, 0) is not an integer"),
    ("[[0.5, 1], [1, 0]]", "demand count 0.5 at (0, 0) is not an integer"),
    ("[[true, 1], [1, 0]]", "demand count True at (0, 0) is not an integer"),
    ("[[0, 1], [1, 1.0]]", "demand count 1.0 at (1, 1) is not an integer"),
    ("[[0, 1], [1]]", "demand matrix must be n x n"),
], ids=["no-matrix-key", "matrix-of-ints", "row-not-list", "string", "empty",
        "string-count", "float-count", "bool-count", "integral-float-count",
        "ragged"])
def test_route_refuses_malformed_demand(tmp_path, capsys, text, message):
    # nothing is coerced: each file exits 2 with an error and writes nothing
    demand = tmp_path / "demand.json"
    demand.write_text(text)
    out = tmp_path / "r.json"
    assert run_cli("route", "--demand", str(demand), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _permutation_sum(n, seed):
    """Sum of n random permutation matrices: every row and column sum is n."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for _ in range(n):
        perm = list(range(n))
        rng.shuffle(perm)
        for s, d in enumerate(perm):
            rows[s][d] += 1
    return rows


# route files as written by the palette-scan colouring; any change to them
# must be deliberate
PINNED_ROUTE = {
    "full-load": "8c89d5b17b9746ff334a72e8d25e4229f3dd335d5fc7154fd2a6b7931edb318b",
    "star": "9535cd711fc16f4b0525bee7ca7dc46464f5c78f6ef99308b4478fbb204f6572",
}


@pytest.mark.parametrize("demand", sorted(PINNED_ROUTE))
def test_route_bytes_pinned(demand, tmp_path):
    if demand == "full-load":
        rows = _permutation_sum(24, 3)
    else:  # every node sends 4 words to node 0: column 0 carries 4n words
        rows = [[4] + [0] * 7 for _ in range(8)]
    (tmp_path / "demand.json").write_text(json.dumps(rows))
    out = tmp_path / "route.json"
    assert run_cli("route", "--demand", str(tmp_path / "demand.json"),
                   "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ROUTE[demand]


# -- verify -----------------------------------------------------------------------

def test_verify_clean_round_trip(graph_file, tmp_path):
    out = tmp_path / "run.json"
    run_cli("run", "--model", "congest", "--algorithm", "flood",
            "--graph", graph_file, "--out", str(out))
    assert run_cli("verify", "--trace", str(out)) == 0


def test_verify_simulation_traces_round_trip(graph_file, tmp_path, capsys):
    # a report's native run is the run file of the same command, config
    # aside; a run cut out of a report holds no config and is refused
    out, run = tmp_path / "sim.json", tmp_path / "run.json"
    doc = _simulate("clique", graph_file, out)
    assert run_cli(*RUN_CLIQUE, "--graph", graph_file, "--out", str(run)) == 0
    run_doc = json.loads(run.read_text())
    assert {**doc["native"], "config": run_doc["config"]} == run_doc
    capsys.readouterr()
    for side in ("native", "simulated"):
        piece = tmp_path / f"{side}.json"
        piece.write_text(json.dumps(doc[side]))
        assert run_cli("verify", "--trace", str(piece)) == 2
        assert capsys.readouterr().err == "error: malformed trace file: 'config'\n"


SIM_DIRECTIONS = {
    "clique": SIM_CLIQUE,
    "congest": SIM_CONGEST,
    "semimpc": SIM_SEMIMPC + ("--machines", "4"),
}


def _simulate(direction, graph_file, out):
    assert run_cli(*SIM_DIRECTIONS[direction], "--graph", graph_file,
                   "--out", str(out)) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("direction", sorted(SIM_DIRECTIONS))
def test_verify_reads_simulate_reports(direction, graph_file, tmp_path, capsys):
    # used to exit 2 on every report: "malformed trace file: 'params'"
    out = tmp_path / "sim.json"
    doc = _simulate(direction, graph_file, out)
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{side}: model={doc[side]['model']} rounds={doc[side]['rounds']} violations=0"
        for side in ("native", "simulated")]


def _inflate_first_transfer(run):
    _first_transfer(run)[2] = 10 ** 6


@pytest.mark.parametrize("doctor", [
    _inflate_first_transfer,
    lambda run: run.update(rounds=run["rounds"] + 1),
], ids=["ledger", "rounds"])
@pytest.mark.parametrize("side", ["native", "simulated"])
def test_verify_names_the_doctored_run_of_a_report(side, doctor, graph_file,
                                                    tmp_path, capsys):
    out = tmp_path / "sim.json"
    doc = _simulate("semimpc", graph_file, out)
    doctor(doc[side])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 1
    lines = capsys.readouterr().out.splitlines()
    other = "simulated" if side == "native" else "native"
    summary = {line.split(": ")[0]: line for line in lines if not line.startswith(" ")}
    assert summary[other].endswith(" violations=0")
    if doctor is _inflate_first_transfer:
        assert not summary[side].endswith(" violations=0")
    else:
        assert summary[side].endswith(" violations=0")
        assert "  rounds in the file differs from the ledger's" in lines


@pytest.mark.parametrize("side,key", [("native", "source_model"),
                                      ("simulated", "target_model")])
@pytest.mark.parametrize("direction", sorted(SIM_DIRECTIONS))
def test_verify_checks_a_report_names_its_models(direction, side, key, graph_file,
                                                  tmp_path, capsys):
    # a report's model names are its runs' params kinds; an edited one used
    # to verify with exit 0
    out = tmp_path / "sim.json"
    doc = _simulate(direction, graph_file, out)
    assert doc[key] == doc[side]["params"]["kind"]
    doc[key] = "CONGEST" if doc[key] != "CONGEST" else "CLIQUE"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 1
    expected = []
    for run in ("native", "simulated"):
        expected.append(f"{run}: model={doc[run]['model']} rounds={doc[run]['rounds']}"
                        " violations=0")
        if run == side:
            expected.append(f"  {key} in the file differs from the ledger's")
    assert capsys.readouterr().out.splitlines() == expected


def test_verify_refuses_a_report_with_a_malformed_run(graph_file, tmp_path,
                                                      capsys):
    out = tmp_path / "sim.json"
    doc = _simulate("clique", graph_file, out)
    del doc["simulated"]["params"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == "error: malformed trace file: simulated: 'params'\n"


@pytest.mark.parametrize("field,doctor", [
    ("rounds", lambda doc: doc.update(rounds=1)),
    ("rounds", lambda doc: doc.update(rounds=float(doc["rounds"]))),
    ("space_high_water",
     lambda doc: doc.update(space_high_water=[0] * len(doc["space_high_water"]))),
    ("violations", lambda doc: doc["violations"].append(
        {"rule": "pair-capacity", "round": 1, "src": 0, "dst": 1,
         "participant": None, "measured": 2, "allowed": 1})),
    ("model", lambda doc: doc.update(model="CONGEST")),
], ids=["rounds", "float-rounds", "space-high-water", "violations", "model"])
def test_verify_rederives_summary_fields(field, doctor, graph_file, tmp_path,
                                         capsys):
    # each used to verify with exit 0
    out = tmp_path / "run.json"
    assert run_cli(*RUN_CLIQUE, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["rounds"] > 1 and doc["violations"] == []
    doctor(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"  {field} in the file differs from the ledger's"]


def test_verify_doctored_trace(graph_file, tmp_path, capsys):
    out = tmp_path / "run.json"
    run_cli("run", "--model", "clique", "--algorithm", "boruvka",
            "--graph", graph_file, "--out", str(out))
    doc = json.loads(out.read_text())
    for rec in doc["per_round"]:
        if rec["transfers"]:
            rec["transfers"].append(rec["transfers"][0])
            break
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    assert run_cli("verify", "--trace", str(doctored)) == 1
    assert "pair-capacity" in capsys.readouterr().out


def test_verify_truncated_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "CLIQUE", "par')
    assert run_cli("verify", "--trace", str(bad)) == 2


def test_verify_rejects_trace_without_space(graph_file, tmp_path, capsys):
    out = tmp_path / "run.json"
    run_cli("run", "--model", "clique", "--algorithm", "boruvka",
            "--graph", graph_file, "--out", str(out))
    doc = json.loads(out.read_text())
    for change in ("drop", "shorten"):
        rec = dict(doc["per_round"][0])
        if change == "drop":
            del rec["space"]
        else:
            rec["space"] = rec["space"][:-1]
        broken = dict(doc, per_round=[rec] + doc["per_round"][1:])
        path = tmp_path / f"{change}.json"
        path.write_text(json.dumps(broken))
        assert run_cli("verify", "--trace", str(path)) == 2, change
        assert "malformed trace file" in capsys.readouterr().err


def test_verify_rejects_negative_space(graph_file, tmp_path, capsys):
    # used to verify: the high-water mark ignored the negative entry
    out = tmp_path / "run.json"
    assert run_cli("run", "--model", "clique", "--algorithm", "boruvka",
                   "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    doc["per_round"][1]["space"][3] = -5
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == ("error: malformed trace file: round 2"
                                       " lists negative space -5 for participant 3\n")


@pytest.fixture(scope="module")
def semimpc_run_doc(tmp_path_factory):
    """A forest-merge semi-MPC run with p = 48 machines and s = 1152 words."""
    work = tmp_path_factory.mktemp("semimpc")
    g = random_connected_graph(288, 900, 5)
    (work / "g.txt").write_text(g.to_edge_list_text())
    out = work / "run.json"
    assert run_cli("run", "--model", "semimpc", "--algorithm", "forest-merge",
                   "--machines", "48", "--graph", str(work / "g.txt"),
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert (doc["params"]["p"], doc["params"]["s"]) == (48, 1152)
    assert doc["per_round"][0]["transfers"]
    return doc


@pytest.mark.parametrize("extra", [
    # cancelling entries: used to verify with 0 violations
    [[1, 0, 1162], [1, 0, -1162]],
    # a destination past the last machine: used to end in an IndexError
    [[1, 48, 1]],
    # a negative source: used to charge its load to machine 47
    [[-1, 0, 1157]],
    [[0, 0, 1]],
    [[1, 0, 0]],
])
def test_verify_rejects_impossible_transfers(semimpc_run_doc, extra, tmp_path,
                                             capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(semimpc_run_doc))
    assert run_cli("verify", "--trace", str(path)) == 0
    doc = json.loads(json.dumps(semimpc_run_doc))
    doc["per_round"][0]["transfers"].extend(extra)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(path)) == 2
    err = capsys.readouterr().err
    assert "malformed trace file" in err and "impossible transfer" in err


def _first_transfer(doc):
    return next(rec["transfers"][0] for rec in doc["per_round"] if rec["transfers"])


def _set_first_transfer(doc, index, value):
    _first_transfer(doc)[index] = value


def _set_first_space(doc, value):
    doc["per_round"][0]["space"][0] = value


@pytest.mark.parametrize("doctor", [
    # each used to be coerced with int() and verify with exit 0
    lambda doc: _set_first_transfer(doc, 2, 1.9),
    lambda doc: _set_first_transfer(doc, 2, True),
    lambda doc: _set_first_transfer(doc, 0, str(_first_transfer(doc)[0])),
    lambda doc: _set_first_transfer(doc, 1, float(_first_transfer(doc)[1])),
    lambda doc: _set_first_space(doc, doc["per_round"][0]["space"][0] + 0.5),
    lambda doc: _set_first_space(doc, str(doc["per_round"][0]["space"][0])),
    lambda doc: _set_first_space(doc, False),
], ids=["float-words", "bool-words", "string-src", "float-dst",
        "float-space", "string-space", "bool-space"])
def test_verify_rejects_values_that_are_not_ints(graph_file, tmp_path, capsys,
                                                 doctor):
    out = tmp_path / "run.json"
    assert run_cli("run", "--model", "clique", "--algorithm", "boruvka",
                   "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert _first_transfer(doc)[2] == 1
    doctor(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    err = capsys.readouterr().err
    assert "malformed trace file" in err and "not an integer" in err


def _set(doc, section, key, value):
    doc[section][key] = value


@pytest.mark.parametrize("doctor", [
    # each used to be coerced with int() or float() and verify with exit 0
    lambda doc: _set(doc, "graph", "edges", [[0, 1.9]] + doc["graph"]["edges"][1:]),
    lambda doc: _set(doc, "graph", "edges", doc["graph"]["edges"][:1] + [["1", 2]]
                     + doc["graph"]["edges"][2:]),
    lambda doc: _set(doc, "graph", "edges", [[0, True]] + doc["graph"]["edges"][1:]),
    lambda doc: _set(doc, "graph", "n", 5.0),
    lambda doc: _set(doc, "params", "c_traffic", "4"),
    lambda doc: _set(doc, "params", "word_width_bits", 5.7),
    lambda doc: _set(doc, "params", "c_space", True),
    lambda doc: _set(doc, "params", "n", 5.0),
    lambda doc: _set(doc, "params", "round_cap", "9"),
    lambda doc: _set(doc, "params", "delta", "0.0"),
    lambda doc: _set(doc, "params", "delta", False),
    # the plain-MPC model kind is gone; it used to verify with exit 1
    lambda doc: _set(doc, "params", "kind", "MPC"),
    # s is derived and the total-space constants are fixed; each edit used
    # to verify with exit 0
    lambda doc: _set(doc, "params", "c_traffic", 99),
    lambda doc: _set(doc, "params", "c_total", 10 ** 6),
    lambda doc: _set(doc, "params", "polylog_exp", 9),
    lambda doc: _set(doc, "params", "s", 5),
    # delta is derived too; the edit used to verify with exit 0
    lambda doc: _set(doc, "params", "delta", 0.9),
], ids=["float-endpoint", "string-endpoint", "bool-endpoint", "float-graph-n",
        "string-c-traffic", "float-word-width", "bool-c-space", "float-n",
        "string-round-cap", "string-delta", "bool-delta", "plain-mpc-kind",
        "edited-c-traffic", "edited-c-total", "edited-polylog-exp", "edited-s",
        "edited-delta"])
def test_verify_rejects_coerced_graph_and_params(tmp_path, capsys, doctor):
    (tmp_path / "path.txt").write_text(gen_graph("path", 5).to_edge_list_text())
    out = tmp_path / "run.json"
    assert run_cli("run", "--model", "congest", "--algorithm", "flood",
                   "--graph", str(tmp_path / "path.txt"), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["graph"]["edges"][:2] == [[0, 1], [1, 2]]
    doctor(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert "malformed trace file" in capsys.readouterr().err


def test_verify_accepts_an_int_delta_and_no_round_cap(tmp_path):
    (tmp_path / "path.txt").write_text(gen_graph("path", 5).to_edge_list_text())
    out = tmp_path / "run.json"
    assert run_cli("run", "--model", "congest", "--algorithm", "flood",
                   "--graph", str(tmp_path / "path.txt"), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["round_cap"] is None
    doc["params"]["delta"] = 0
    del doc["params"]["round_cap"]
    out.write_text(json.dumps(doc))
    assert run_cli("verify", "--trace", str(out)) == 0


def test_verify_rejects_an_ell_other_than_twice_the_edges(gnp48_file, tmp_path,
                                                         capsys):
    # a semi-MPC run starts from its graph's 2m edge words; an edited ell
    # used to verify with exit 0
    out = tmp_path / "run.json"
    assert run_cli("run", "--model", "semimpc", "--algorithm", "forest-merge",
                   "--machines", "48", "--graph", gnp48_file,
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["ell"] == 2 * doc["graph"]["m"] == 466
    assert run_cli("verify", "--trace", str(out)) == 0
    doc["params"]["ell"] = 10 ** 6
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: malformed trace file: params field 'ell' holds 1000000,"
        " not 2m = 466\n")


@pytest.mark.parametrize("argv", [RUN_CLIQUE, RUN_CONGEST], ids=["clique", "congest"])
def test_verify_rejects_an_ell_where_only_semi_mpc_reads_it(argv, tmp_path, capsys):
    # an edited ell used to verify with exit 0
    graph, out = tmp_path / "g.txt", tmp_path / "run.json"
    assert run_cli("gen", "--kind", "gnp", "--n", "20", "--p", "0.2", "--seed", "1",
                   "--out", str(graph)) == 0
    assert run_cli(*argv, "--graph", str(graph), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["ell"] == 0
    doc["params"]["ell"] = 5
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: malformed trace file: {doc['params']['kind']} reads no input size ell:"
        " it must be 0, not 5\n")


@pytest.mark.parametrize("argv, run", [(RUN_CLIQUE, None), (SIM_CLIQUE, "simulated")],
                         ids=["run", "report"])
def test_verify_rejects_a_ledger_longer_than_its_round_cap(argv, run, graph_file, tmp_path,
                                                           capsys):
    # the engine runs no round past the cap; a file edited to a lower cap
    # used to verify with exit 0
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    edited = doc[run] if run else doc
    rounds, label = edited["rounds"], f"{run}: " if run else ""
    for cap, code in ((rounds, 0), (rounds - 1, 2), (1, 2)):
        edited["params"]["round_cap"] = cap
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(out)) == code
        assert capsys.readouterr().err == ("" if code == 0 else (
            f"error: malformed trace file: {label}per_round holds {rounds} rounds,"
            f" above the round cap {cap}\n"))


def test_verify_rejects_a_report_of_a_pair_no_adapter_simulates(tmp_path, capsys):
    # a clique -> semi-MPC report whose simulated run is restated as a clique
    # run: each run is well formed, but no adapter writes such a report
    graph, out = tmp_path / "g.txt", tmp_path / "report.json"
    assert run_cli("gen", "--kind", "path", "--n", "4", "--out", str(graph)) == 0
    assert run_cli(*SIM_CLIQUE, "--graph", str(graph), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    doc["simulated"]["params"].update(kind="CLIQUE", s=0, delta=0.0, ell=0)
    doc["simulated"]["model"] = doc["target_model"] = "CLIQUE"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: malformed trace file: no adapter simulates CLIQUE on CLIQUE\n")


@pytest.mark.parametrize("argv", [RUN_SEMIMPC, SIM_SEMIMPC], ids=["run", "report"])
@pytest.mark.parametrize("machines", [7, 4.0, "4"])
def test_verify_refuses_a_config_machine_count_other_than_p(argv, machines, graph_file,
                                                            tmp_path, capsys):
    # --machines sized the semi-MPC run; an edited count used to verify with
    # exit 0
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--machines", "4", "--graph", graph_file,
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["machines"] == doc.get("native", doc)["params"]["p"] == 4
    doc["config"]["machines"] = machines
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: malformed trace file: config field 'machines' holds"
        f" {json.dumps(machines)}, not 4\n")
    # a file saved without its config is refused, not left unchecked
    del doc["config"]
    out.write_text(json.dumps(doc))
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == "error: malformed trace file: 'config'\n"


@pytest.mark.parametrize("argv", [RUN_CLIQUE, RUN_CONGEST, SIM_CLIQUE, SIM_CONGEST],
                         ids=["run-clique", "run-congest", "report-clique", "report-congest"])
@pytest.mark.parametrize("machines", [7, True])
def test_verify_refuses_a_config_machine_count_no_run_reads(argv, machines, graph_file,
                                                            tmp_path, capsys):
    # these commands refuse --machines and record cli.MACHINES; an edited
    # count used to verify with exit 0
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["machines"] == cli.MACHINES == 4
    doc["config"]["machines"] = machines
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: malformed trace file: config field 'machines' holds"
        f" {json.dumps(machines)}, not 4\n")


# the graph_file fixture has n = 20, so the default word width is 7 bits
_MISSTATED_CONFIGS = [
    # the model flags must name the runs' kinds
    ("run-clique-model", RUN_CLIQUE, "model", "semimpc",
     "config field 'model' holds \"semimpc\", not \"clique\""),
    ("run-congest-model", RUN_CONGEST, "model", "clique",
     "config field 'model' holds \"clique\", not \"congest\""),
    ("run-semimpc-model-list", RUN_SEMIMPC, "model", ["semimpc"],
     "config field 'model' holds [\"semimpc\"], not \"semimpc\""),
    ("report-clique-from", SIM_CLIQUE, "from", "congest",
     "config field 'from' holds \"congest\", not \"clique\""),
    ("report-congest-to", SIM_CONGEST, "to", "clique",
     "config field 'to' holds \"clique\", not \"semimpc\""),
    ("report-semimpc-from", SIM_SEMIMPC, "from", "congest",
     "config field 'from' holds \"congest\", not \"semimpc\""),
    # word_width sets the native run's word width, c_space every run's
    ("run-clique-word-width", RUN_CLIQUE, "constants", {"word_width": 30},
     "constants field 'word_width' holds 30, not 7"),
    ("run-congest-word-width-float", RUN_CONGEST, "constants", {"word_width": 7.0},
     "constants field 'word_width' holds 7.0, not 7"),
    ("run-semimpc-c-space", RUN_SEMIMPC, "constants", {"c_space": 8},
     "constants field 'c_space' holds 8, not 4"),
    ("report-congest-c-space", SIM_CONGEST, "constants", {"c_space": 3, "c_machines": 2},
     "constants field 'c_space' holds 3, not 4"),
    ("report-semimpc-c-space-bool", SIM_SEMIMPC, "constants", {"c_space": True},
     "constants field 'c_space' holds true, not 4"),
    # only constants the command reads
    ("run-clique-c-space", RUN_CLIQUE, "constants", {"c_space": 4},
     "constants field 'c_space' is unknown"),
    ("report-clique-word-width", SIM_CLIQUE, "constants", {"word_width": 5},
     "constants field 'word_width' is unknown"),
    ("run-semimpc-list", RUN_SEMIMPC, "constants", [],
     "config field 'constants' holds [], not {}"),
]


@pytest.mark.parametrize("argv, key, value, message",
                         [case[1:] for case in _MISSTATED_CONFIGS],
                         ids=[case[0] for case in _MISSTATED_CONFIGS])
def test_verify_refuses_a_config_that_misstates_its_command(argv, key, value, message,
                                                            graph_file, tmp_path, capsys):
    # the config must describe a command that writes these runs; each edit
    # used to verify with exit 0
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc.get("native", doc)["params"]["word_width_bits"] == 7
    doc["config"][key] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: malformed trace file: {message}\n")


@pytest.mark.parametrize("argv, run, edit, stated, message", [
    # one --constants c_space sets both runs of a report
    (SIM_CLIQUE, "simulated", {"c_space": 5, "s": 100}, {"c_space": 5}, "c_space 4 and 5"),
    # a command that reads no such constant leaves it at its default
    (RUN_CLIQUE, None, {"c_space": 8}, {"c_space": 8}, "c_space 4 and 8"),
    (SIM_CLIQUE, "native", {"word_width_bits": 9}, {"word_width": 9}, "word_width 7 and 9"),
], ids=["report-c-space", "run-clique-c-space", "report-word-width"])
def test_verify_refuses_runs_no_one_config_writes(argv, run, edit, stated, message,
                                                  graph_file, tmp_path, capsys):
    # the config a command writes sets one value of each constant, whatever
    # the file's config states
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    (doc[run] if run else doc)["params"].update(edit)
    for constants in ({}, stated):
        doc["config"]["constants"] = constants
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"error: malformed trace file: no one config sets {message}\n")


@pytest.mark.parametrize("argv, constants", [
    (RUN_CLIQUE, ("word_width=9",)),
    (RUN_CONGEST, ("word_width=7",)),
    (RUN_SEMIMPC, ("c_space=8", "word_width=6")),
    (SIM_CLIQUE, ("c_space=6",)),
    (SIM_SEMIMPC, ("c_space=4",)),
    (SIM_CONGEST, ("c_space=5", "c_machines=1")),
], ids=["run-clique", "run-congest-default", "run-semimpc", "report-clique",
        "report-semimpc-default", "report-congest"])
def test_verify_accepts_the_constants_a_command_was_given(argv, constants, graph_file,
                                                          tmp_path):
    # a constant given on the command line verifies, at its default value
    # (word_width(20) = 7 bits, c_space 4) too; a word_width or c_space
    # away from its default no longer does once the config drops it
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--constants", *constants,
                   "--out", str(out)) == 0
    assert run_cli("verify", "--trace", str(out)) == 0
    doc = json.loads(out.read_text())
    stated = doc["config"]["constants"]
    assert len(stated) == len(constants)
    for key, default in (("word_width", 7), ("c_space", 4)):
        if stated.get(key, default) != default:
            doc["config"]["constants"] = {k: v for k, v in stated.items() if k != key}
            out.write_text(json.dumps(doc))
            assert run_cli("verify", "--trace", str(out)) == 2, key


# a file of each command kind, and the constants its command reads
_CONFIG_FILES = {
    "run-clique": (RUN_CLIQUE, ("word_width",)),
    "run-congest": (RUN_CONGEST, ("word_width",)),
    "run-semimpc": (RUN_SEMIMPC, ("c_space", "word_width")),
    "run-word-width": (RUN_CLIQUE + ("--constants", "word_width=9"), ("word_width",)),
    "report-clique": (SIM_CLIQUE + ("--constants", "c_space=5"), ("c_space",)),
    "report-semimpc": (SIM_SEMIMPC, ("c_space",)),
    "report-congest": (SIM_CONGEST + ("--round-budget", "40", "--constants", "c_machines=1"),
                       ("c_space", "c_machines")),
}
_DEFAULTS = {"word_width": 7, "c_space": 4, "c_machines": 2}  # word_width(20) = 7
_DELETED = object()


def _config_edits(config: dict):
    """Every single edit of a config, as (path, value): each key of it or of
    its constants deleted or set to another of a few JSON values, an unknown
    key added to each, and each constant the constants lack added at 5 and
    at its default."""
    for path, held in [((key,), config[key]) for key in config] + [
            (("constants", key), value) for key, value in config["constants"].items()]:
        yield path, _DELETED
        for value in (None, 5, "x", {}):
            if json.dumps(value) != json.dumps(held):
                yield path, value
    yield ("extra",), 1
    yield ("constants", "extra"), 1
    for key, default in _DEFAULTS.items():
        if key not in config["constants"]:
            yield ("constants", key), 5
            yield ("constants", key), default


def _free_edit(path, value, reads) -> bool:
    """Whether the runs leave this config edit free: a new graph or seed
    (the file's own, until verify replays the command), a c_machines that
    leaves machines_ok as it was (any positive one: on this graph the
    machine count caps at n = 20 from c_machines = 1 on), and a constant the
    command reads added at its default, which --constants writes too."""
    if path in (("graph",), ("seed",)):
        return value is not _DELETED
    if "c_machines" in reads:
        if path == ("constants",):
            return value == {}  # the default c_machines
        if path == ("constants", "c_machines"):
            return value is _DELETED or (type(value) is int and value > 0)
    return len(path) == 2 and path[1] in reads and value == _DEFAULTS[path[1]]


@pytest.mark.parametrize("kind", sorted(_CONFIG_FILES))
def test_verify_refuses_every_config_edit_the_runs_fix(kind, graph_file, tmp_path, capsys):
    # the config is the one its command writes for the file's runs; an
    # unknown key, a deleted graph or seed, and a round budget other than
    # null in a clique or semi-MPC report used to verify with exit 0
    argv, reads = _CONFIG_FILES[kind]
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    codes, want = {}, {}
    for path, value in _config_edits(doc["config"]):
        config = json.loads(json.dumps(doc["config"]))
        held = config["constants"] if len(path) == 2 else config
        if value is _DELETED:
            del held[path[-1]]
        else:
            held[path[-1]] = value
        out.write_text(json.dumps({**doc, "config": config}))
        edit = (".".join(path), "deleted" if value is _DELETED else json.dumps(value))
        codes[edit] = run_cli("verify", "--trace", str(out))
        want[edit] = 0 if _free_edit(path, value, reads) else 2
    capsys.readouterr()
    assert codes == want


ROUND_BUDGET = ("measured_constants", "round_budget")


@pytest.mark.parametrize("argv,path,value,message", [
    (SIM_CONGEST, ("assignment",), lambda doc: [0] * 20,
     "field 'assignment' item {moved} holds 0, not {machine}"),
    (SIM_CONGEST, ("high_degree_flag",), lambda doc: not doc["high_degree_flag"],
     "field 'high_degree_flag' holds {edited}, not {flag}"),
    (SIM_CONGEST, ("high_degree_flag",), lambda doc: int(doc["high_degree_flag"]),
     "field 'high_degree_flag' holds {edited}, not {flag}"),
    (SIM_CONGEST, ROUND_BUDGET, lambda doc: 99,
     "measured_constants field 'round_budget' holds 99, not {native}"),
    (SIM_CONGEST, ROUND_BUDGET, lambda doc: doc["native"]["rounds"] - 1,
     "measured_constants field 'round_budget' holds {edited}, not {native}"),
    (SIM_CONGEST, ROUND_BUDGET, lambda doc: float(doc["native"]["rounds"]),
     "measured_constants field 'round_budget' holds {edited}, not {native}"),
    (SIM_CONGEST + ("--round-budget", "40"), ROUND_BUDGET, lambda doc: 41,
     "measured_constants field 'round_budget' holds 41, not 40"),
    (SIM_SEMIMPC + ("--machines", "4"), ("episode_rounds",), lambda doc: [[1, 99]],
     "field 'episode_rounds' item 0 holds [1, 99], not {planned}"),
    (SIM_SEMIMPC + ("--machines", "4"), ("episode_rounds",),
     lambda doc: doc["episode_rounds"] * 2,
     "field 'episode_rounds' holds {twice} items, not {episodes}"),
], ids=["assignment", "high-degree-flag", "int-high-degree-flag", "round-budget",
        "round-budget-below-native", "float-round-budget", "round-budget-not-config",
        "episode-rounds", "episode-rounds-twice"])
def test_verify_refuses_a_derived_report_field(argv, path, value, message, graph_file,
                                               tmp_path, capsys):
    # each field follows from the report's runs; each edit used to verify
    # with exit 0
    out = tmp_path / "sim.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    assert run_cli("verify", "--trace", str(out)) == 0
    doc = json.loads(out.read_text())
    # a list field is named by its first differing item, or by its length
    assignment, planned = doc.get("assignment", [0]), doc.get("episode_rounds", [[0]])
    moved = next((v for v, machine in enumerate(assignment) if machine), 0)
    facts = {"p": doc["simulated"]["params"]["p"], "native": doc["native"]["rounds"],
             "flag": json.dumps(doc.get("high_degree_flag")),
             "moved": moved, "machine": assignment[moved],
             "planned": json.dumps(planned[0]), "episodes": len(planned),
             "twice": 2 * len(planned)}
    assert facts["p"] > 1 and 1 < facts["native"] < 40
    *outer, key = path
    field = doc[outer[0]] if outer else doc
    field[key] = value(doc)
    facts["edited"] = json.dumps(field[key])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: malformed trace file: {message.format(**facts)}\n")


def _report_leaf_edits(doc):
    """(section, key, edited value) per derived leaf of a report, section
    None for the report itself: each bound_checks entry flipped, each
    measured_constants value bumped, and the first assignment entry, the
    high-degree flag and the first episode's rounds changed."""
    edits = [(section, key, bump(value))
             for section, bump in (("bound_checks", lambda v: not v),
                                   ("measured_constants", lambda v: v + 1))
             for key, value in sorted(doc[section].items())]
    if "assignment" in doc:
        edits += [(None, "assignment", [doc["assignment"][0] + 1] + doc["assignment"][1:]),
                  (None, "high_degree_flag", not doc["high_degree_flag"])]
    if "episode_rounds" in doc:
        (native_round, rounds), *rest = doc["episode_rounds"]
        edits.append((None, "episode_rounds", [[native_round, rounds + 2]] + rest))
    return edits


@pytest.mark.parametrize("direction", sorted(SIM_DIRECTIONS))
def test_verify_refuses_any_edited_report_field(direction, graph_file, tmp_path, capsys):
    # every field verify re-derives from a report's runs, and an added key;
    # the bound_checks and measured_constants edits (but the CONGEST round
    # budget) used to verify with exit 0
    out = tmp_path / "sim.json"
    doc = _simulate(direction, graph_file, out)
    edits = _report_leaf_edits(doc) + [("bound_checks", "extra_ok", True)]
    assert doc["bound_checks"] and doc["measured_constants"]
    capsys.readouterr()
    for section, key, value in edits:
        edited = json.loads(json.dumps(doc))
        (edited[section] if section else edited)[key] = value
        out.write_text(json.dumps(edited))
        original = doc[section] if section else doc
        field = f"{section} field {key!r}" if section else f"field {key!r}"
        if key not in original:
            message = f"{field} is unknown"
        elif type(value) is list:  # the list edits change item 0 alone
            message = (f"{field} item 0 holds {json.dumps(value[0])},"
                       f" not {json.dumps(original[key][0])}")
        else:
            message = f"{field} holds {json.dumps(value)}, not {json.dumps(original[key])}"
        assert run_cli("verify", "--trace", str(out)) == 2, message
        assert capsys.readouterr().err == f"error: malformed trace file: {message}\n"


def test_verify_refuses_a_report_without_a_derived_key(graph_file, tmp_path, capsys):
    out = tmp_path / "sim.json"
    doc = _simulate("clique", graph_file, out)
    del doc["measured_constants"]["delta"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: malformed trace file: measured_constants field 'delta' is missing\n")


@pytest.mark.parametrize("group", [[0], [0, -2], [0, 5], [0, 1.0, 7]],
                         ids=["no-count", "negative-count", "past-the-end", "float-count"])
def test_verify_refuses_simulated_outputs_it_cannot_unpack(group, graph_file, tmp_path,
                                                           capsys):
    # a CONGEST report's machine streams hold (vertex, count, words...)
    # groups; a count of -2 once kept verify unpacking the same group forever
    out = tmp_path / "sim.json"
    doc = _simulate("congest", graph_file, out)
    stream = doc["simulated"]["outputs"][0]
    at = len(stream)
    stream.extend(group)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: malformed trace file: simulated outputs of machine 0 hold no"
        f" (vertex, count, words) group at word {at}\n")


def test_verify_refuses_a_report_whose_native_run_has_no_rounds(graph_file, tmp_path,
                                                                capsys):
    # every engine run takes a round; a native run of none, its summary
    # fields consistent, once crashed verify dividing by its round count
    out = tmp_path / "sim.json"
    doc = _simulate("semimpc", graph_file, out)
    native = doc["native"]
    native.update(per_round=[], rounds=0, space_high_water=[0] * native["params"]["p"])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: malformed trace file: native field 'rounds' holds 0, not at least 1\n")


def test_verify_checks_the_machine_count_against_c_machines(tmp_path, capsys):
    # machines_ok holds when p <= ceil(c_machines * T * m / n), capped at n;
    # c_machines comes from config.constants, else the default 2.  Three
    # edges on 20 vertices keep the count below n
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(Graph(n=20, edges=((0, 1), (2, 3), (4, 5))).to_edge_list_text())
    graph_file = str(graph_file)
    out = tmp_path / "sim.json"
    doc = _simulate("congest", graph_file, out)
    native, p = doc["native"], doc["simulated"]["params"]["p"]
    n, m, budget = native["params"]["n"], native["graph"]["m"], native["rounds"]
    assert p == -(-2 * budget * m // n) < n
    assert doc["bound_checks"]["machines_ok"] is True
    edits = [({"c_machines": 1}, 2, "bound_checks field 'machines_ok' holds true, not false"),
             ({"c_machines": 2}, 0, ""), ({"c_space": 4}, 0, ""),
             ({"c_machines": 0}, 2,
              "config field 'constants' holds {\"c_machines\": 0}, not a positive integer"
              " c_machines"),
             ({"c_machines": "2"}, 2,
              "config field 'constants' holds {\"c_machines\": \"2\"}, not a positive"
              " integer c_machines"),
             ([], 2, "config field 'constants' holds [], not a positive integer c_machines")]
    capsys.readouterr()
    for constants, code, message in edits:
        doc["config"]["constants"] = constants
        out.write_text(json.dumps(doc))
        assert run_cli("verify", "--trace", str(out)) == code, constants
        assert capsys.readouterr().err == (f"error: malformed trace file: {message}\n"
                                           if message else "")
    # a larger constant admits the same p
    assert run_cli(*SIM_CONGEST, "--graph", graph_file, "--constants", "c_machines=3",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["simulated"]["params"]["p"] > p
    assert run_cli("verify", "--trace", str(out)) == 0


@pytest.mark.parametrize("edit", [-1, 0.0], ids=["below-native", "float"])
def test_verify_takes_the_round_budget_of_config(edit, graph_file, tmp_path, capsys):
    # a null config budget is the native round count; any other must be an
    # int of at least T
    out = tmp_path / "sim.json"
    doc = _simulate("congest", graph_file, out)
    native = doc["native"]["rounds"]
    assert doc["config"]["round_budget"] is None
    assert doc["measured_constants"]["round_budget"] == native
    doc["config"]["round_budget"] = native + edit
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: malformed trace file: config field 'round_budget' holds"
        f" {native + edit!r}, not an integer of at least the {native} native rounds\n")


@pytest.mark.parametrize("direction,doctor,config,code", [
    # the oracle's label of vertex 3 is not 5; the edit leaves outputs_ok
    # true, and used to verify with exit 0
    ("clique", lambda doc: [doc[side]["outputs"].__setitem__(3, [5])
                            for side in ("native", "simulated")], True, 1),
    ("congest", lambda doc: doc["native"]["outputs"].__setitem__(0, [5]), True, 1),
    # a report saved without config is refused, its outputs unread
    ("congest", lambda doc: doc["native"]["outputs"].__setitem__(0, [5]), False, 2),
], ids=["clique-both-runs", "congest-native", "congest-native-no-config"])
def test_verify_checks_a_report_native_outputs(direction, doctor, config, code, graph_file,
                                               tmp_path, capsys):
    out = tmp_path / "sim.json"
    doc = _simulate(direction, graph_file, out)
    assert doc["native"]["outputs"][0] == doc["native"]["outputs"][3] != [5]
    doctor(doc)
    if not config:
        del doc["config"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err == "error: malformed trace file: 'config'\n"
        return
    assert captured.out.splitlines() == [
        f"native: model={doc['native']['model']} rounds={doc['native']['rounds']}"
        " violations=0",
        "  outputs in the file differ from the graph's components",
        f"simulated: model={doc['simulated']['model']}"
        f" rounds={doc['simulated']['rounds']} violations=0"]


def test_verify_reads_a_failing_and_a_zero_episode_report(tmp_path, capsys):
    # the simulated run of the first aborts (outputs null); the second's one
    # machine sends nothing, so it takes no routing episode
    gnp = tmp_path / "gnp.txt"
    gnp.write_text(gen_graph("gnp", 40, prob=0.15, seed=4).to_edge_list_text())
    path = tmp_path / "path.txt"
    path.write_text(gen_graph("path", 20).to_edge_list_text())
    failing, idle = tmp_path / "failing.json", tmp_path / "idle.json"
    assert run_cli(*SIM_CONGEST, "--graph", str(gnp), "--out", str(failing)) == 1
    assert run_cli(*SIM_SEMIMPC, "--machines", "1", "--graph", str(path),
                   "--out", str(idle)) == 0
    assert json.loads(failing.read_text())["simulated"]["outputs"] is None
    assert json.loads(idle.read_text())["episode_rounds"] == []
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(failing)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "native: model=CONGEST rounds=40 violations=0",
        "simulated: model=SEMI_MPC rounds=1 violations=1",
        "  recv-budget at round 1: measured 224, allowed 160"]
    assert run_cli("verify", "--trace", str(idle)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "native: model=SEMI_MPC rounds=1 violations=0",
        "simulated: model=CLIQUE rounds=1 violations=0"]


def _shift_route(tmp_path, n=16):
    """The route file of the demand where node i sends one word to i + 1."""
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps([[int(j == (i + 1) % n) for j in range(n)]
                                  for i in range(n)]))
    out = tmp_path / "route.json"
    assert run_cli("route", "--demand", str(demand), "--out", str(out)) == 0
    return out, json.loads(out.read_text())


def _move_first_intermediate(doc):
    entry = doc["routing"]["entries"][0]
    entry[3] = (entry[3] + 1) % doc["routing"]["n"]


@pytest.mark.parametrize("doctor,field", [
    (lambda doc: doc["routing"].update(rounds=99), "routing field 'rounds'"),
    (lambda doc: doc["routing"].update(phase_b_rounds=7), "routing field 'phase_b_rounds'"),
    (_move_first_intermediate, "routing field 'entries'"),
    (lambda doc: doc.update(delivered_words=doc["delivered_words"] + 5),
     "field 'delivered_words'"),
    # two words more leave the triple count as it was
    (lambda doc: doc["outputs"][1].extend([7, 7]), None),
], ids=["rounds", "phase-b-rounds", "intermediate", "delivered-words", "ragged-outputs"])
def test_verify_rederives_a_route_file(doctor, field, tmp_path, capsys):
    # each edit used to verify with exit 0
    out, doc = _shift_route(tmp_path)
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 0
    # payload values are not checked, and the triples need no note
    assert capsys.readouterr().out.splitlines() == ["model=CLIQUE rounds=3 violations=0"]
    original = json.loads(json.dumps(doc))
    doctor(doc)
    out.write_text(json.dumps(doc))
    assert run_cli("verify", "--trace", str(out)) == 2
    if field is None:
        assert capsys.readouterr().err == (
            "error: malformed trace file: outputs of node 1 hold 5 words,"
            " not (src, seq, value) triples\n")
        return
    name = field.split("'")[1]
    held, want = ((doc[name], original[name]) if name == "delivered_words"
                  else (doc["routing"][name], original["routing"][name]))
    if name == "entries":  # a list field is named by its first differing item
        field, held, want = f"{field} item 0", held[0], want[0]
    assert capsys.readouterr().err == (
        f"error: malformed trace file: {field} holds {json.dumps(held)},"
        f" not {json.dumps(want)}\n")


def test_verify_names_one_item_of_an_edited_route_table(tmp_path, capsys):
    # both whole entries tables used to be printed: 730 bytes at n = 16, and
    # about 98,000 ints per table at the full-load demand of n = 128
    out, doc = _shift_route(tmp_path)
    entries = doc["routing"]["entries"]
    want = list(entries[3])
    entries[3][3] = (want[3] + 1) % doc["routing"]["n"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    err = capsys.readouterr().err
    assert err == ("error: malformed trace file: routing field 'entries' item 3 holds"
                   f" {json.dumps(entries[3])}, not {json.dumps(want)}\n")
    assert len(err) < 200


@pytest.mark.parametrize("argv,doctor", [
    (RUN_CLIQUE, lambda outputs: outputs[3].__setitem__(0, 5)),
    (RUN_CONGEST, lambda outputs: outputs[19].__setitem__(0, 19)),
    (RUN_CONGEST, lambda outputs: outputs.pop()),
    (RUN_SEMIMPC, lambda outputs: outputs[1].extend(outputs[0])),
    (RUN_SEMIMPC, lambda outputs: outputs[0].__setitem__(7, 1)),
], ids=["clique-label", "congest-label", "congest-missing-vertex",
        "semimpc-labels-on-machine-1", "semimpc-label"])
def test_verify_checks_outputs_against_the_graph_components(argv, doctor, graph_file,
                                                            tmp_path, capsys):
    # outputs were not read: each edit used to verify with exit 0
    out = tmp_path / "run.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    doctor(doc["outputs"])
    out.write_text(json.dumps(doc))
    assert run_cli("verify", "--trace", str(out)) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  outputs in the file differ from the graph's components"]


@pytest.mark.parametrize("argv,code", [
    (RUN_CLIQUE, 0), (RUN_SEMIMPC, 0),
    # semi-MPC machines of 20 words each: the run ends on a violation
    (RUN_SEMIMPC + ("--constants", "c_space=1"), 1),
    (SIM_DIRECTIONS["semimpc"], 0),
], ids=["run-clique", "run-semimpc", "run-semimpc-violation", "report-semimpc"])
def test_verify_refuses_a_file_without_config(argv, code, graph_file, tmp_path, capsys):
    # without config such a file used to verify with outputs unchecked (a
    # run file said so) and the semi-MPC machine count unread; a CONGEST
    # report is test_verify_checks_a_report_native_outputs' no-config case
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == code
    assert run_cli("verify", "--trace", str(out)) == code
    doc = json.loads(out.read_text())
    del doc["config"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr() == ("", "error: malformed trace file: 'config'\n")


@pytest.mark.parametrize("argv,label", [
    (RUN_CLIQUE, ""), (RUN_SEMIMPC, ""), (SIM_CLIQUE, "native: "),
], ids=["run-clique", "run-semimpc", "report-clique"])
def test_verify_refuses_a_native_run_without_its_graph(argv, label, graph_file, tmp_path,
                                                       capsys):
    # only a semi-MPC report's native run records no graph (check_trace
    # already refuses a CONGEST run without one); without it the edited
    # outputs below used to verify with exit 0, and a semi-MPC run file's
    # ell went unchecked
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    native = doc.get("native", doc)
    del native["graph"]
    native["outputs"][0] = [7, 7, 7]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == f"error: malformed trace file: {label}'graph'\n"


def test_verify_refuses_an_algorithm_of_another_model(graph_file, tmp_path, capsys):
    out = tmp_path / "run.json"
    assert run_cli(*RUN_CLIQUE, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    doc["config"]["algorithm"] = "flood"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: malformed trace file: config field 'algorithm' holds \"flood\","
        " not \"boruvka\"\n")


@pytest.mark.parametrize("argv, code", [
    (SIM_DIRECTIONS["semimpc"], 0),
    # semi-MPC machines of 20 words each: the run ends on a violation
    (RUN_SEMIMPC + ("--constants", "c_space=1"), 1),
], ids=["report-semimpc", "run-semimpc-violation"])
@pytest.mark.parametrize("algorithm", ["boruvka", "nonsense", None])
def test_verify_checks_the_algorithm_of_every_file(argv, code, algorithm, graph_file,
                                                   tmp_path, capsys):
    # neither file has outputs verify compares with the graph's components:
    # each edit used to verify with the file's own exit code
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == code
    doc = json.loads(out.read_text())
    doc["config"]["algorithm"] = algorithm
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr() == ("", (
        f"error: malformed trace file: config field 'algorithm' holds {json.dumps(algorithm)},"
        " not \"forest-merge\"\n"))


NOT_OBJECTS = [(None, "null"), ([], "an array"), ("x", "a string")]


@pytest.mark.parametrize("argv", [RUN_CLIQUE, SIM_CONGEST], ids=["run", "report"])
@pytest.mark.parametrize("config, kind", NOT_OBJECTS, ids=["null", "list", "string"])
def test_verify_refuses_a_config_that_is_not_an_object(argv, config, kind, graph_file,
                                                       tmp_path, capsys):
    # each used to exit 2 with Python's own text, such as "'NoneType' object
    # is not subscriptable"
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    doc["config"] = config
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr() == ("", (
        f"error: malformed trace file: config holds {kind}, not an object\n"))


@pytest.mark.parametrize("run", ["native", "simulated"])
@pytest.mark.parametrize("value, kind", NOT_OBJECTS + [(list(range(10 ** 5)), "an array")],
                         ids=["null", "list", "string", "long-list"])
def test_verify_refuses_a_report_run_that_is_not_an_object(run, value, kind, graph_file,
                                                           tmp_path, capsys):
    # each used to exit 2 with Python's own text, such as "native: list
    # indices must be integers or slices, not str"; the value is not printed
    out = tmp_path / "out.json"
    assert run_cli(*SIM_CLIQUE, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    doc[run] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr() == (
        "", f"error: malformed trace file: {run} holds {kind}, not an object\n")


@pytest.mark.parametrize("value, kind", NOT_OBJECTS + [(3, "a number"), (2.5, "a number"),
                                                       (True, "a boolean")],
                         ids=["null", "list", "string", "int", "float", "bool"])
def test_verify_refuses_a_file_that_is_not_an_object(value, kind, tmp_path, capsys):
    # each used to exit 2 with Python's own text, such as "list indices must
    # be integers or slices, not str"
    out = tmp_path / "out.json"
    out.write_text(json.dumps(value))
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr() == (
        "", f"error: malformed trace file: file holds {kind}, not an object\n")


@pytest.mark.parametrize("argv, run, key", [
    (RUN_CLIQUE, None, "params"),
    (RUN_CONGEST, None, "graph"),
    (SIM_CLIQUE, "native", "params"),
    (SIM_CONGEST, "native", "graph"),
    (("route",), None, "routing"),
], ids=["run-params", "run-graph", "report-params", "report-graph", "route-routing"])
@pytest.mark.parametrize("value, kind", [([1], "an array"), (7, "a number"), ("x", "a string")],
                         ids=["list", "int", "string"])
def test_verify_refuses_a_run_field_that_is_not_an_object(argv, run, key, value, kind,
                                                          graph_file, tmp_path, capsys):
    # each used to exit 2 with Python's own text, such as "list indices must
    # be integers or slices, not str" or "native: 'int' object is not
    # subscriptable"
    out = tmp_path / "out.json"
    if argv[0] == "route":
        (tmp_path / "demand.json").write_text("[[0, 1, 0], [0, 0, 2], [1, 0, 0]]")
        argv += ("--demand", str(tmp_path / "demand.json"))
    else:
        argv += ("--graph", graph_file)
    assert run_cli(*argv, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    (doc[run] if run else doc)[key] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    label = f"{run}: " if run else ""
    assert capsys.readouterr() == (
        "", f"error: malformed trace file: {label}{key} holds {kind}, not an object\n")


@pytest.mark.parametrize("argv", [RUN_CLIQUE, RUN_CONGEST, RUN_SEMIMPC])
@pytest.mark.parametrize("key,value,message", [
    ("m", 999, "graph field 'm' holds 999, not its {m} edges"),
    ("m", 5.0, "graph field 'm' holds 5.0, not its {m} edges"),
    ("n", 99, "graph field 'n' holds 99, not params n = 20"),
], ids=["edited-m", "float-m", "edited-n"])
def test_verify_refuses_a_graph_that_misstates_its_size(argv, key, value, message,
                                                        graph_file, tmp_path, capsys):
    # the stored vertex and edge counts used to go unread: each edit
    # verified with exit 0
    out = tmp_path / "run.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    m = len(doc["graph"]["edges"])
    assert (doc["graph"]["n"], doc["graph"]["m"], doc["params"]["n"]) == (20, m, 20)
    doc["graph"][key] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: malformed trace file: {message.format(m=m)}\n")


def test_verify_congest_trace_without_graph_exits_2(graph_file, tmp_path,
                                                   capsys):
    out = tmp_path / "run.json"
    assert run_cli("run", "--model", "congest", "--algorithm", "flood",
                   "--graph", graph_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    del doc["graph"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--trace", str(bare)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "graph" in err


# -- the JSON writer ----------------------------------------------------------------

def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ("run", "--model", "clique", "--algorithm", "boruvka"),
    ("run", "--model", "congest", "--algorithm", "flood"),
    ("run", "--model", "semimpc", "--algorithm", "forest-merge", "--machines", "3"),
    ("simulate", "--from", "clique", "--to", "semimpc", "--algorithm", "boruvka"),
    ("simulate", "--from", "congest", "--to", "semimpc", "--algorithm", "flood"),
    ("simulate", "--from", "semimpc", "--to", "clique", "--algorithm",
     "forest-merge", "--machines", "3"),
])
def test_written_files_are_indented_sorted_json(argv, graph_file, tmp_path):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--graph", graph_file, "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert text == _canonical(text)


def test_written_route_file_is_indented_sorted_json(tmp_path):
    demand = tmp_path / "demand.json"
    demand.write_text("[[0, 2, 1], [1, 0, 0], [0, 1, 0]]")
    out = tmp_path / "route.json"
    assert run_cli("route", "--demand", str(demand), "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert text == _canonical(text)


_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.sampled_from([-1, 2 ** 64, -(2 ** 70), 2 ** 200]),
    st.floats(), st.sampled_from([-0.0, 1e300, 0.1, -1e-300]),
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00", "é", "雪", "\U0001f600"]),
)
_int_rows = st.lists(st.lists(st.integers(), max_size=4), max_size=5)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.lists(children, max_size=3), max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
    )


_documents = st.recursive(st.one_of(_scalars, _int_rows,
                                    _int_rows.map(lambda rows: [tuple(r) for r in rows])),
                          _containers, max_leaves=40)


@pytest.fixture(scope="module")
def dump_path(tmp_path_factory):
    return tmp_path_factory.mktemp("dump") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_dump_json_matches_json_dumps(dump_path, doc):
    _dump_json(doc, str(dump_path))
    assert (dump_path.read_text(encoding="utf-8")
            == json.dumps(doc, indent=2, sort_keys=True) + "\n")


# a file that already holds a longer text is replaced whole, not overlaid
@settings(max_examples=100, deadline=None)
@given(doc=_documents)
def test_dump_json_to_a_file_matches_json_dumps(dump_path, doc):
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    dump_path.write_text("x" * (len(expected) + 64), encoding="utf-8")
    _dump_json(doc, str(dump_path))
    assert dump_path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("late", [
    # an int row, a row that is not all ints and an empty row
    [[-5, 2 ** 70, 0], [1, "x", 2.5], []],
    [(7, 8), {"k": [1]}, [[1, 2]], None],
])
@pytest.mark.parametrize("head", [[0, 1, 1], "not a row"])
def test_dump_json_writes_long_tables_in_chunks(head, late, tmp_path):
    # more than three chunks: the last one is not a table, the others are
    rows = [head] + [(i, i + 1, 1) if i % 2 else [i, 2, i]
                     for i in range(1, 3 * _CHUNK_ROWS + 9)]
    rows[3 * _CHUNK_ROWS + 4:3 * _CHUNK_ROWS + 4] = late
    doc = {"outputs": [[1]], "transfers": rows}
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _dump_json(doc, str(tmp_path / "doc.json"))
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == expected


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


class _Count(int):
    """An int subclass json.dumps spells by int.__repr__."""


def _wide_rows(rows, width):
    return [[(r * 131 + c * 17) % 509 - 200 for c in range(width)] for r in range(rows)]


_SHARED = [[3, 0, 1], [1, 3, 0]]


@pytest.mark.parametrize("doc", [
    # a table cell that is an int subclass makes its chunk go row by row
    {"t": [[1, True, 0], [0, False, 1]]},
    {"t": [[1, 2], [_Level.LOW, 2]], "u": [(_Level.HIGH,), (5,)]},
    {"t": [[1, _Count(7)], [_Count(-3), 2]], "u": [[_Count(4)]]},
    {"t": [[True], [False]], "u": [[1, 2, 3]] * 3 + [[1, 2, True]]},
    # negative ints and ints wider than 64 bits are table cells like any other
    {"t": [[-1, 2 ** 64, -(2 ** 70)], [2 ** 200, -(2 ** 63) - 1, 0]]},
    {"t": [[-(2 ** 65)], [2 ** 65], [-1]]},
    # rows hundreds of columns wide, and one column
    {"t": _wide_rows(5, 384), "u": _wide_rows(3, 2)},
    {"t": _wide_rows(4, 1), "u": [_wide_rows(2, 700)]},
    # one value in the head, middle and tail of rows, at two depths, in a
    # one-column table and in every chunk of a long table
    {"a": _SHARED, "b": {"c": _SHARED, "d": [_SHARED, [[3], [1]]]},
     "e": _SHARED * (_CHUNK_ROWS + 3), "f": [[0, 3, 1]] * (2 * _CHUNK_ROWS)},
], ids=["bool", "int-enum", "int-subclass", "bool-column", "wide-ints",
        "wide-ints-one-column", "384-columns", "700-columns", "shared-values"])
def test_dump_json_spells_table_cells_as_json_dumps(doc, tmp_path):
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _dump_json(doc, str(tmp_path / "doc.json"))
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == expected


class _FullDisk:
    """A text file that takes writes until a ledger table chunk went out,
    then fails as a full disk does."""

    def __init__(self, *args, **kwargs):
        self._fh = open(*args, **kwargs)
        self.written = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        if self.written > _CHUNK_ROWS:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.written += len(text)
        return self._fh.write(text)


def test_dump_json_leaves_no_file_when_a_write_fails(tmp_path, monkeypatch):
    files = []

    def open_full_disk(*args, **kwargs):
        files.append(_FullDisk(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(cli, "open", open_full_disk, raising=False)
    path = tmp_path / "out.json"
    doc = {"transfers": [[i, i + 1, 1] for i in range(2 * _CHUNK_ROWS)]}
    with pytest.raises(OSError, match="No space left on device"):
        _dump_json(doc, str(path))
    assert files[0].written > _CHUNK_ROWS  # the first chunk reached the file
    assert not path.exists()


def test_dump_json_leaves_no_file_when_a_late_row_cannot_be_encoded(tmp_path):
    path = tmp_path / "out.json"
    doc = {"transfers": [[i, i + 1, 1] for i in range(2 * _CHUNK_ROWS)] + [[object()]]}
    with pytest.raises(TypeError):
        _dump_json(doc, str(path))
    assert not path.exists()


def test_dump_json_memory_peak_is_a_chunk_not_the_file(tmp_path):
    # the whole-text writer peaked at about 3.2 times the file size
    rows = [[i % 1000, i * 7 % 1000, 1 + i % 5] for i in range(200_000)]
    doc = {"per_round": [{"space": [3, 3, 3], "transfers": rows}]}
    path = tmp_path / "ledger.json"
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        _dump_json(doc, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 10 ** 7
    assert peak - live < size / 4, (peak - live, size)


# -- the cyclic collector ---------------------------------------------------------

@contextlib.contextmanager
def _collector(enabled):
    """Run the block with the cyclic collector enabled or disabled, then
    restore the state it had."""
    before = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if before else gc.disable()


def _exit_case(case, tmp_path, graph_file):
    """The argv of a command that exits with the code the case names."""
    if case == "clean":
        return ["run", "--model", "clique", "--algorithm", "boruvka",
                "--graph", graph_file, "--out", str(tmp_path / "run.json")]
    if case == "refused":
        (tmp_path / "path.txt").write_text(gen_graph("path", 20).to_edge_list_text())
        return [*SIM_CONGEST, "--graph", str(tmp_path / "path.txt"),
                "--round-budget", "1", "--out", str(tmp_path / "sim.json")]
    if case == "usage-error":
        return ["simulate", "--from", "semimpc", "--to", "congest",
                "--algorithm", "forest-merge", "--graph", graph_file]
    if case == "parse-error":
        return ["run", "--model", "torus"]
    (tmp_path / "bad.json").write_text('{"model": "CLIQUE", "par')
    return ["verify", "--trace", str(tmp_path / "bad.json")]


@pytest.mark.parametrize("case, code", [
    ("clean", 0), ("refused", 1), ("usage-error", 2), ("parse-error", 2),
    ("malformed-verify", 2)])
@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_the_caller_had_it(case, code, collecting,
                                                       graph_file, tmp_path):
    argv = _exit_case(case, tmp_path, graph_file)
    with _collector(collecting):
        assert main(argv) == code
        assert gc.isenabled() is collecting


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_for_the_command_alone(collecting, tmp_path,
                                                         monkeypatch):
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("crash")

    monkeypatch.setattr(cli, "cmd_gen", crash)
    with _collector(collecting):
        with pytest.raises(RuntimeError, match="crash"):
            main(["gen", "--kind", "path", "--n", "4", "--out", str(tmp_path / "g.txt")])
        assert gc.isenabled() is collecting
    assert seen == [False]


def _commands_on(n, work):
    """Every command that runs a built-in program, on inputs of size n; the
    verify command reads the file the run command writes."""
    graph = work / f"g{n}.txt"
    graph.write_text(random_connected_graph(n, n // 4, 3).to_edge_list_text())
    demand = work / f"d{n}.json"
    demand.write_text(json.dumps([[int(j == (i + 1) % n) for j in range(n)]
                                  for i in range(n)]))
    run_file = work / f"run{n}.json"
    commands = {
        "run": ["run", "--model", "clique", "--algorithm", "boruvka",
                "--graph", str(graph), "--out", str(run_file)],
        "verify": ["verify", "--trace", str(run_file)],
        "route": ["route", "--demand", str(demand), "--out", str(work / f"route{n}.json")],
    }
    for direction, argv in SIM_DIRECTIONS.items():
        commands[f"simulate-{direction}"] = [*argv, "--graph", str(graph),
                                             "--out", str(work / f"{direction}{n}.json")]
    return commands


@pytest.mark.parametrize("command", ["run", "verify", "simulate-clique",
                                     "simulate-congest", "simulate-semimpc", "route"])
def test_command_cyclic_garbage_does_not_grow_with_the_run(command, tmp_path):
    # with the collector paused only reference counting frees what a command
    # allocates, which is safe while the cyclic garbage a command leaves (the
    # argument parser's) does not grow with the input
    garbage = []
    for n in (16, 64):
        commands = _commands_on(n, tmp_path)
        if command == "verify":
            assert main(commands["run"]) == 0
        with _collector(False):
            gc.collect()
            assert main(commands[command]) == 0
            garbage.append(gc.collect())
    assert garbage[0] == garbage[1], garbage
