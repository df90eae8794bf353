"""Per-layer timings of the analysis kernel, written to BENCH_<short-sha>.json.

Run from a checkout, with the standard library only:

    python tests/bench_layers.py           # writes the file
    python tests/bench_layers.py --quick   # short run, JSON to stdout

It imports the package from the checkout's own ``src/``.  The file lands
in the checkout's root, named after ``git rev-parse --short HEAD``, with
``-dirty`` appended when ``src/`` differs from HEAD.  It holds:

- ``classify_warm_us``: warm ``classify_equal_rank`` calls on the nine
  types of perfbench's classify workloads;
- ``kernel_layers_us``: per-witness times of the layers of the analysis
  kernel (``complexform._kernel``) on the circle-passing witnesses of
  A8, B9, C7 and D9 (18) and E8 (2): ``_closed_base`` for l and v,
  ``_base_mask``, l typing, v typing and the kernel itself;
- ``floods``: per type, the witnesses and the floods of a base
  (``subsys._type_of``) that one warm classify call runs.

Each time is a loop of calls, over the type's witnesses for a kernel
layer, divided by the calls, in microseconds: the fastest of 15 rounds
that each time everything once, spread over the run.  The host is
recorded beside them.  On a tree where
``_type_of`` returns a type alone (before v was typed from l's
components), v typing is a second flood of v's base.  Not collected by
pytest: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLASSIFY_TYPES = ("G2", "F4", "E6", "E7", "E8", "A8", "B9", "C7", "D9")
KERNEL_TYPES = ("A8", "B9", "C7", "D9", "E8")


def _time_us(fn, items, number):
    """Seconds for number passes of fn over items, per item, in us."""
    start = time.perf_counter()
    for _ in range(number):
        for item in items:
            fn(*item)
    return (time.perf_counter() - start) / number / len(items) * 1e6


def _commit() -> tuple[str, bool]:
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    return git("rev-parse", "--short", "HEAD"), bool(git("status", "--porcelain", "--", "src"))


def _cpu() -> str:
    """The processor's model name, from /proc/cpuinfo where there is one."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def measure(quick: bool) -> dict:
    from quatforms import build_root_system, parse_type, quaternionic_decomposition
    from quatforms import complexform
    from quatforms.classify import _orbit_table, classify_equal_rank
    from quatforms.subsys import _base_mask, _closed_base, _type_of

    number, rounds = (5, 2) if quick else (500, 15)
    out: dict = {"classify_warm_us": {}, "kernel_layers_us": {}, "floods": {}}
    timed = []  # (table, key, fn, items): each time is the fastest of the rounds
    for label in CLASSIFY_TYPES:
        rs = build_root_system(parse_type(label))
        classify_equal_rank(rs)
        timed.append((out["classify_warm_us"], label, classify_equal_rank, [(rs,)]))

        flooded = []

        def counting(ambient, base, members):
            flooded.append(base)
            return _type_of(ambient, base, members)

        complexform._type_of = counting
        try:
            classify_equal_rank(rs)
        finally:
            complexform._type_of = _type_of
        out["floods"][label] = {"witnesses": len(_orbit_table(rs)), "floods": len(flooded)}

    split = hasattr(complexform, "_v_type")
    for label in KERNEL_TYPES:
        rs = build_root_system(parse_type(label))
        gd = quaternionic_decomposition(rs)
        m, v_roles = gd._masks
        (kept0, present0), odd = rs._parity_masks
        rows = []
        for t, _ in _orbit_table(rs):
            kept, present = kept0, present0
            for c, (k, r) in zip(t.coords, odd):
                if c:
                    kept ^= k
                    present ^= r
            l_base = _closed_base(rs, present)
            l_nodes = _base_mask(rs, l_base)
            # Every witness passes the circle test, so theta is not in l.
            rows.append((kept, present, l_base, l_nodes, l_nodes & ~m))
        if split:
            v_args = [(rs, m, vn, _type_of(rs, ln, k)[1], k) for k, _, _, ln, vn in rows]
            v_typing = complexform._v_type
        else:
            v_args = [(rs, vn, k & ~m) for k, _, _, _, vn in rows]
            v_typing = _type_of
        layers = {
            "closed_base_l": (_closed_base, [(rs, p) for _, p, *_ in rows]),
            "closed_base_v": (_closed_base, [(rs, p & v_roles) for _, p, *_ in rows]),
            "base_mask": (_base_mask, [(rs, lb) for _, _, lb, _, _ in rows]),
            "type_l": (_type_of, [(rs, ln, k) for k, _, _, ln, _ in rows]),
            "type_v": (v_typing, v_args),
            "kernel": (complexform._kernel, [(rs, gd, k, p) for k, p, *_ in rows]),
        }
        entry = out["kernel_layers_us"][label] = {"witnesses": len(rows)}
        timed += [(entry, name, fn, items) for name, (fn, items) in layers.items()]
    # Rounds over every timing, so that each one samples the whole run and
    # a slow phase of a shared host does not fall on one type or layer.
    for _ in range(rounds):
        for table, key, fn, items in timed:
            us = _time_us(fn, items, number)
            table[key] = min(us, table.get(key, us))
    for table, key, _, _ in timed:
        table[key] = round(table[key], 3)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="few rounds; JSON to stdout, no file")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sha, dirty = _commit()
    result = {
        "commit": sha,
        "dirty": dirty,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "processor": _cpu(),
            "cpus": os.cpu_count(),
        },
        **measure(args.quick),
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.quick:
        sys.stdout.write(text)
    else:
        path = ROOT / f"BENCH_{sha}{'-dirty' if dirty else ''}.json"
        path.write_text(text, encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
