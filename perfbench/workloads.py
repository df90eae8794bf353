"""The four workloads: their inputs, made from the seed, and their checks.

A workload is built from its program-side set-up (``child.setup``) and a
seed, and hands out *units* of ops: one pass over its types for the
classify workloads, one round of CLI invocations for ``cli-cold`` and a
block of single-element ops over every type for ``analyze-mixed``.  Runs stop
only at unit boundaries, so every run sees the same mix of inputs.

An op is one call into the program (one classify, analyze or recognize
call, or one CLI process).  ``call`` is the timed part; ``check`` runs
after it, outside the timing, and returns ``None`` or a problem.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
from child import CLASSICAL, EXCEPTIONAL, MIXED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# One analyze-mixed block: PER_TYPE ops on every type, RECOGNIZE_PER_TYPE
# of them recognize ops, in a seeded order.  A fixed mix per block keeps
# the seed from moving the cost of a block; the elements are all seeded.
PER_TYPE = 10
RECOGNIZE_PER_TYPE = 2
DENOMS = (2, 3, 4, 5, 6)
BASES = ("coroot", "coweight")

# One cli-cold round: every fixed command once, one pooled analyze per
# pool type and one classify per type with a seeded --json flag.
CLI_FIXED = (("cases",), ("table",), ("roots", "E8", "--json"), ("decompose", "E8"))
CLI_ANALYZE_TYPES = ("E8", "E7")
CLI_CLASSIFY_TYPES = ("G2", "F4", "E6")
CLI_RANKS = {"G2": 2, "F4": 4, "E6": 6}


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    candidates: Callable[[Any], int]


class Workload:
    """Hands out units in order; only the current unit is kept, so harness
    memory (part of peak_rss_mb) does not grow with the number of units."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._k = -1
        self._unit: list = []

    def unit(self, k: int, traced: bool = False) -> list[Op]:
        if k != self._k:
            if k != self._k + 1:
                raise ValueError("units are made in order")
            self._unit = self.make_unit()
            self._k = k
        return self.ops(self._unit, traced)

    def make_unit(self) -> list:
        raise NotImplementedError

    def ops(self, unit: list, traced: bool) -> list[Op]:
        return unit


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QUATFORMS_GOLDEN", None)
    return env


def run_process(argv: list[str], env: dict) -> tuple[int, bytes, bytes]:
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class ClassifyWorkload(Workload):
    """classify_equal_rank on each type once per pass, in a seeded order."""

    def __init__(self, name: str, labels: tuple[str, ...], state: dict, seed: int) -> None:
        import quatforms

        super().__init__(seed)
        self.name = name
        self.labels = labels
        self.state = state
        self.reference = load_reference()["classify"]
        self.q = quatforms

    def describe(self) -> str:
        return f"classify_equal_rank on {','.join(self.labels)}, one call per type per pass"

    def make_unit(self) -> list[Op]:
        order = list(self.labels)
        self.rng.shuffle(order)
        return [self._op(label) for label in order]

    def _op(self, label: str) -> Op:
        rs = self.state[label][0]
        ref = self.reference[label]
        q = self.q  # looked up per call, so the tracer's wrappers are seen
        return Op(label, lambda: q.classify_equal_rank(rs),
                  lambda report: checks.check_classify(report, ref),
                  lambda report: report.candidates)


class AnalyzeWorkload(Workload):
    """Seeded single-element ops: 80% analyze(), 20% recognize(Subsystem())."""

    name = "analyze-mixed"

    def __init__(self, state: dict, seed: int) -> None:
        import quatforms

        super().__init__(seed)
        self.q = quatforms
        self.state = state
        self.arith = {label: checks.Arith(rs) for label, (rs, _gd) in state.items()}

    def describe(self) -> str:
        return (f"blocks of {PER_TYPE} ops on each of {','.join(MIXED)} "
                f"({RECOGNIZE_PER_TYPE} recognize), denominators {DENOMS[0]}-{DENOMS[-1]}")

    def make_unit(self) -> list[Op]:
        plan = [(label, i < RECOGNIZE_PER_TYPE) for label in MIXED for i in range(PER_TYPE)]
        self.rng.shuffle(plan)
        return [self._op(label, recognize) for label, recognize in plan]

    def _op(self, label: str, recognize: bool) -> Op:
        rng, q = self.rng, self.q
        rs, gd = self.state[label]
        ar = self.arith[label]
        d = rng.choice(DENOMS)
        basis = "coroot" if recognize else rng.choice(BASES)
        coords = tuple(rng.randrange(d) for _ in range(rs.rank))
        exp = ar.expect(coords, d, basis)
        cent = exp.pop("cent")
        if recognize:
            roots = frozenset(cent)
            return Op(f"recognize {label}",
                      lambda: q.recognize(q.Subsystem(rs, roots)),
                      lambda ct: checks.check_type(ct, len(roots), rs.rank, "recognized"),
                      lambda _ct: 0)
        t = q.ToralElement(coords, d, basis)

        def check(a):
            problem = checks.check_analysis(a, exp, rs.rank)
            if problem is None and basis == "coroot":
                image = q.analyze(rs, gd, q.convert_to_coweight(rs, t))
                problem = checks.check_same_form(a, image)
            return problem

        return Op(f"analyze {label}", lambda: q.analyze(rs, gd, t), check, lambda _a: 1)


class CliWorkload(Workload):
    """Fresh `python -m quatforms.cli` processes, one round at a time."""

    name = "cli-cold"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        ref = load_reference()
        self.digests: dict[str, str] = ref["cli"]
        self.pool = {t: [c for c in ref["analyze_pool"] if c.split()[1] == t]
                     for t in CLI_ANALYZE_TYPES}
        self.env = child_env()

    def describe(self) -> str:
        return (f"rounds of {len(CLI_FIXED) + len(CLI_ANALYZE_TYPES) + len(CLI_CLASSIFY_TYPES)}"
                " CLI processes: cases, table, roots, decompose, analyze x2, classify x3")

    def make_unit(self) -> list[str]:
        rng = self.rng
        commands = [" ".join(c) for c in CLI_FIXED]
        commands += [rng.choice(self.pool[t]) for t in CLI_ANALYZE_TYPES]
        commands += [f"classify {t}" + (" --json" if rng.random() < 0.5 else "")
                     for t in CLI_CLASSIFY_TYPES]
        rng.shuffle(commands)
        return commands

    def ops(self, unit: list[str], traced: bool) -> list[Op]:
        return [self._op(c, traced) for c in unit]

    def _op(self, command: str, traced: bool) -> Op:
        args = command.split()
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "cli", *args]
        else:
            argv = [sys.executable, "-m", "quatforms.cli", *args]
        expected = self.digests[command]
        if args[0] == "classify":
            n = 2 ** CLI_RANKS[args[1]]
        else:
            n = 1 if args[0] == "analyze" else 0
        return Op(command, lambda: run_process(argv, self.env),
                  lambda res: checks.check_cli(res[:2], expected),
                  lambda _res: n)


def make(name: str, state, seed: int):
    if name == "classify-exceptional":
        return ClassifyWorkload(name, EXCEPTIONAL, state, seed)
    if name == "classify-classical":
        return ClassifyWorkload(name, CLASSICAL, state, seed)
    if name == "analyze-mixed":
        return AnalyzeWorkload(state, seed)
    if name == "cli-cold":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("classify-exceptional", "classify-classical", "analyze-mixed", "cli-cold")
