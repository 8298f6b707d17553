"""Running one workload in-process: set-up, the closed command loop, and the
checks on every command.

One client drives distsim.cli.main in a closed loop: a command starts only
after the previous one returned, and a sequence starts only after the
previous sequence finished.  No threads or child processes are used.

Host-normalized time.  On a shared host the speed of the same code drifts by
30-50% over tens of seconds, as other tenants come and go, which no number
of samples within one run can average out.  So every timed step (a set-up,
a command sequence) runs between two calls of a fixed reference workload,
and its time is also reported scaled by the reference's nominal duration
over the mean of the two reference times around it.  The ratio cancels the
host's speed drift; the scale keeps the unit in seconds.  The reference
takes about 0.3 s: the host's fast and slow stretches last seconds, and a
0.1 s reference sampled them too briefly to match a 2 s sequence (over
ten runs of congest-flood-semimpc, the quartile spread of wall_s was 0.10
of its median with it, 0.055 with this one).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_FILE = BENCH_DIR / "golden.json"
SETUP_REPEATS = 15
# About the duration of reference_work() on the host the benchmark was
# defined on (2 vCPUs, Python 3.11); it only scales ratios back to seconds.
REFERENCE_NOMINAL_S = 0.3
MODULES = ("cli", "core", "engines", "routing", "adapters", "algorithms")


class ProgramMissing(RuntimeError):
    """The checkout holds no distsim sources to benchmark."""


def import_distsim() -> dict:
    """Import distsim afresh from the checkout's src/, never from elsewhere."""
    if not (SRC / "distsim" / "__init__.py").is_file():
        raise ProgramMissing(f"no distsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "distsim" or m.startswith("distsim.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"distsim.{name}") for name in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"distsim was imported from {modules['cli'].__file__}")
    return modules


def reference_work() -> float:
    """A fixed pure-Python workload of the same kind of object churn as
    distsim (tuples, lists, dicts, JSON), independent of it; returns its
    duration in seconds."""
    t0 = perf_counter()
    for _ in range(6):
        rows = [tuple((i * 7 + j) % 97 for j in range(12)) for i in range(12000)]
        table = {i: [r[0], r[1], {r[2]: r[3]}] for i, r in enumerate(rows)}
        json.dumps(table)
    return perf_counter() - t0


def normalized(times: list, refs: list) -> list:
    """Host-normalized times: times[i] ran between refs[i] and refs[i + 1]."""
    return [t * REFERENCE_NOMINAL_S * 2 / (refs[i] + refs[i + 1])
            for i, t in enumerate(times)]


@dataclass
class Setup:
    modules: dict
    inputs: wl.Inputs
    workdir: Path
    commands: list
    times: list          # seconds of each set-up
    refs: list           # reference_work() seconds around them


def setup(workload: str, scale: str, seed: int, workdir: Path,
          repeats: int = SETUP_REPEATS) -> Setup:
    """Import distsim, generate the inputs and write the input files,
    `repeats` times, each between two reference runs; the last set-up is
    the one used."""
    times, refs = [], [reference_work()]
    for _ in range(repeats):
        t0 = perf_counter()
        modules = import_distsim()
        inputs = wl.make_inputs(workload, scale, seed, workdir)
        times.append(perf_counter() - t0)
        refs.append(reference_work())
    return Setup(modules, inputs, workdir, wl.commands(workload, inputs, workdir),
                 times, refs)


def invoke(cli_main, argv) -> tuple[int, str]:
    """One CLI command in-process; returns its exit code and everything it
    printed.  An exception escaping the CLI is a failed command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli_main(list(argv))
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, buf.getvalue()


@dataclass
class Loop:
    """Results of the closed loop over one workload's command sequence."""

    walls: list = field(default_factory=list)         # per sequence, seconds
    refs: list = field(default_factory=list)          # reference_work() around them
    command_walls: dict = field(default_factory=dict)  # name -> [seconds]
    traced: list = field(default_factory=list)        # per sequence: traced?
    attempted: int = 0
    failed: int = 0
    failed_by_command: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)  # name -> (stdout, sha)
    problems: list = field(default_factory=list)


def run_sequence(st: Setup, loop: Loop, traced: bool) -> None:
    cli_main = st.modules["cli"].main
    results = []
    with contextlib.chdir(st.workdir):
        t_start = perf_counter()
        for cmd in st.commands:
            t0 = perf_counter()
            rc, out = invoke(cli_main, cmd.argv)
            loop.command_walls.setdefault(cmd.name, []).append(perf_counter() - t0)
            results.append((cmd, rc, out))
        loop.walls.append(perf_counter() - t_start)
    loop.traced.append(traced)

    for cmd, rc, out in results:
        loop.attempted += 1
        sha = wl.file_sha256(cmd.out) if cmd.out and cmd.out.is_file() else None
        first = loop.fingerprints.setdefault(cmd.name, (out, sha))
        problem = None
        if rc != 0:
            problem = f"{cmd.name} exited {rc}: {out.strip()[-500:]}"
        elif first != (out, sha):
            problem = f"{cmd.name} output differs from its first run in this process"
        if problem:
            loop.failed += 1
            loop.failed_by_command[cmd.name] = loop.failed_by_command.get(cmd.name, 0) + 1
            loop.problems.append(problem)


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8")) if GOLDEN_FILE.is_file() else {}


def golden_key(workload: str, scale: str) -> str:
    return f"{workload}@{scale}"


def golden_for(golden: dict, workload: str, scale: str, seed: int) -> dict | None:
    """The golden counters recorded for this seed, or None."""
    return golden.get(golden_key(workload, scale), {}).get(str(seed))


def check_outputs(workload: str, scale: str, seed: int, st: Setup, loop: Loop,
                  golden: dict | None) -> dict:
    """Full check of the last sequence's outputs, which every earlier
    sequence matched byte for byte: model counters, bound checks, oracle
    labels and, where recorded for this seed, the golden counters.  A
    problem fails every run of that command.  Returns the counters."""
    core = st.modules["core"]
    labels = None
    if st.inputs.edges is not None:
        labels = core.components_oracle(core.Graph(n=st.inputs.n, edges=st.inputs.edges))
    expected = golden_for(golden or {}, workload, scale, seed)
    all_counters = {}
    for cmd in st.commands:
        out, _sha = loop.fingerprints[cmd.name]
        try:
            counters, problems = wl.check_command(workload, cmd, out, st.inputs, labels)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            counters, problems = {}, [f"unreadable output: {exc!r}"]
        if expected is not None and expected.get(cmd.name) != counters:
            problems.append("counters differ from the golden values: "
                            f"got {counters}, want {expected.get(cmd.name)}")
        all_counters[cmd.name] = counters
        if problems:
            runs = len(loop.command_walls[cmd.name])
            newly = runs - loop.failed_by_command.get(cmd.name, 0)
            loop.failed += newly
            loop.failed_by_command[cmd.name] = runs
            loop.problems.extend(f"{cmd.name}: {p}" for p in problems)
    return all_counters


def file_digests(st: Setup, loop: Loop) -> dict:
    """sha256 of each command's output file, from its first run."""
    return {cmd.name: loop.fingerprints[cmd.name][1] for cmd in st.commands if cmd.out}


def bytes_identical(workload: str, scale: str, seed: int, st: Setup, loop: Loop,
                    golden: dict) -> bool | None:
    """Whether the output files match golden.json byte for byte (None when
    no digests are recorded for this seed).  Reported, not failed: a change
    of output format keeps every model counter but changes the bytes."""
    expected = golden_for(golden, workload, scale, seed) or {}
    if "files_sha256" not in expected:
        return None
    return expected["files_sha256"] == file_digests(st, loop)


def output_bytes(st: Setup) -> int:
    return sum(cmd.out.stat().st_size for cmd in st.commands
               if cmd.out and cmd.out.is_file())
