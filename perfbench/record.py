"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: the ``to_json()`` of every classify
report the classify workloads produce, and the SHA-256 of the stdout of
every CLI command ``cli-cold`` can run, including a fixed pool of
``analyze`` commands that the workload seed picks from.  Run it only on a
commit whose outputs are trusted; the project keeps CLI text and JSON
byte-identical, so later commits must match these records.
"""

from __future__ import annotations

import json
import random
import sys

import checks
from child import CLASSICAL, EXCEPTIONAL
from workloads import (
    CLI_ANALYZE_TYPES,
    CLI_CLASSIFY_TYPES,
    CLI_FIXED,
    DENOMS,
    BASES,
    REFERENCE,
    SRC,
    child_env,
    run_process,
)

POOL_PER_TYPE = 32
POOL_SEED = 20031  # fixed: the pool is part of the reference, not of a run


def analyze_pool() -> list[str]:
    import quatforms as q

    rng = random.Random(POOL_SEED)
    pool = []
    for label in CLI_ANALYZE_TYPES:
        rank = q.parse_type(label).rank
        for _ in range(POOL_PER_TYPE):
            d = rng.choice(DENOMS)
            coords = ",".join(str(rng.randrange(d)) for _ in range(rank))
            cmd = f"analyze {label} --sym {coords} --denom {d} --basis {rng.choice(BASES)}"
            pool.append(cmd + (" --json" if rng.random() < 0.5 else ""))
    return pool


def main() -> int:
    sys.path.insert(0, str(SRC))
    import quatforms as q

    classify = {}
    for label in EXCEPTIONAL + CLASSICAL:
        report = q.classify_equal_rank(q.build_root_system(q.parse_type(label)))
        if not report.ok or report.no_golden_baseline:
            sys.stderr.write(f"record: {label} does not classify cleanly\n")
            return 1
        classify[label] = report.to_json()

    pool = analyze_pool()
    commands = [" ".join(c) for c in CLI_FIXED]
    commands += [f"classify {t}{j}" for t in CLI_CLASSIFY_TYPES for j in ("", " --json")]
    env = child_env()
    cli = {}
    for cmd in commands + pool:
        rc, out, err = run_process([sys.executable, "-m", "quatforms.cli", *cmd.split()], env)
        if rc != 0:
            sys.stderr.write(f"record: `{cmd}` exited {rc}: {err.decode()}\n")
            return 1
        cli[cmd] = checks.digest(out)

    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"classify": classify, "cli": cli, "analyze_pool": pool}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}: {len(classify)} reports, {len(cli)} CLI digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
