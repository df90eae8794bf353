"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup WORKLOAD   # program set-up, then "ready"
    python3 perfbench/child.py cli ARGS...      # traced `quatforms` CLI run

``setup`` does exactly the program-side set-up of a workload in a fresh
process and prints ``ready`` when it is done; the parent times the span
from spawning it to that line (``setup_s``).  ``cli`` imports the CLI,
installs the tracer, runs ``quatforms.cli.main(ARGS)`` with the CLI's own
stdout, and writes its span aggregates as the last line of stderr.

The set-up functions live here, not in the harness modules, so that a
set-up probe imports nothing but the package under test.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")
CLASSICAL = ("A8", "B9", "C7", "D9")
MIXED = ("E6", "E7", "E8", "F4", "G2", "A7", "B7", "C7", "D7", "B10", "D10")


def _systems(labels, registry: bool) -> dict:
    import quatforms as q

    systems = {}
    for label in labels:
        rs = q.build_root_system(q.parse_type(label))
        gd = q.quaternionic_decomposition(rs)
        if registry:
            q.golden_for_type(rs.type)
        systems[label] = (rs, gd)
    return systems


def setup(workload: str):
    """Program-side set-up of a workload: what runs before its first op."""
    if workload == "classify-exceptional":
        return _systems(EXCEPTIONAL, registry=True)
    if workload == "classify-classical":
        return _systems(CLASSICAL, registry=True)
    if workload == "analyze-mixed":
        return _systems(MIXED, registry=False)
    if workload == "cli-cold":
        import quatforms.cli  # noqa: F401

        return None
    raise ValueError(f"unknown workload {workload!r}")


def _traced_cli(args: list[str]) -> int:
    import json

    t0 = perf_counter()
    from quatforms import cli

    import_s = perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer(span_cap=5_000)
    tracer.install()
    try:
        rc = cli.main(args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    payload = tracer.snapshot()
    payload["agg"]["cli.import"] = [1, import_s, import_s]
    payload["import_s"] = import_s
    payload["spans"] = [[sid, pid, name, a - t0, b - t0]
                        for sid, pid, _trace, name, a, b in tracer.spans]
    sys.stderr.write("\n" + json.dumps(payload) + "\n")
    return rc


def main(argv: list[str]) -> int:
    if not (SRC / "quatforms" / "__init__.py").is_file():
        sys.stderr.write(f"child: no package source at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if len(argv) == 2 and argv[0] == "setup":
        setup(argv[1])
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if argv and argv[0] == "cli":
        return _traced_cli(argv[1:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
