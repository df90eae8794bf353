"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs real ops of every workload through ``run.run_op`` twice: as they are,
where every op must pass, and with the result corrupted after the call,
where every corrupted op must count as failed.  Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import child
import run
import workloads
from workloads import Op

SEED = 5


def corrupted(op: Op, corrupt) -> Op:
    return Op(op.label, lambda: corrupt(op.call()), op.check, op.candidates)


def raising(op: Op) -> Op:
    def boom():
        raise RuntimeError("injected failure")

    return Op(op.label, boom, op.check, op.candidates)


def swap_l_type(a):
    if a.l_type == a.v_type:
        return dataclasses.replace(a, l_type=dataclasses.replace(a.v_type, torus_rank=a.v_type.torus_rank + 1))
    return dataclasses.replace(a, l_type=a.v_type)


def flip_verdict(a):
    other = "complex-form" if a.verdict == "not-complex-form" else "not-complex-form"
    return dataclasses.replace(a, verdict=other)


def grow_torus(ct):
    return dataclasses.replace(ct, torus_rank=ct.torus_rank + 1)


def bump_multiplicity(report):
    report = copy.copy(report)
    f = report.found[0]
    report.found = [dataclasses.replace(f, multiplicity=f.multiplicity + 1)] + report.found[1:]
    return report


def move_witness(report):
    report = copy.copy(report)
    f = report.found[-1]
    w = dataclasses.replace(f.witness, coords=tuple(1 - c for c in f.witness.coords))
    report.found = report.found[:-1] + [dataclasses.replace(f, witness=w)]
    return report


def exit_one(res):
    return (1, res[1], res[2])


def flip_byte(res):
    out = bytearray(res[1])
    out[0] ^= 1
    return (res[0], bytes(out), res[2])


def expect(name: str, ops: list[Op], should_fail: bool) -> bool:
    samples = [run.run_op(op) for op in ops]
    failed = sum(1 for s in samples if s.problem)
    want = len(samples) if should_fail else 0
    ok = failed == want and samples
    print(f"{'ok ' if ok else 'BAD'} {name}: {failed}/{len(samples)} failed, expected {want}")
    return bool(ok)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    good = True

    state = child.setup("classify-exceptional")
    ops = workloads.make("classify-exceptional", state, SEED).unit(0)
    ops = [op for op in ops if op.label in ("G2", "F4", "E6")]
    good &= expect("classify, as computed", ops, False)
    good &= expect("classify, multiplicity changed", [corrupted(o, bump_multiplicity) for o in ops], True)
    good &= expect("classify, witness changed", [corrupted(o, move_witness) for o in ops], True)
    good &= expect("classify, op raises", [raising(o) for o in ops], True)

    state = child.setup("analyze-mixed")
    ops = workloads.make("analyze-mixed", state, SEED).unit(0)
    analyze = [op for op in ops if op.label.startswith("analyze")]
    recognize = [op for op in ops if op.label.startswith("recognize")]
    good &= expect("analyze, as computed", analyze, False)
    good &= expect("recognize, as computed", recognize, False)
    good &= expect("analyze, L type swapped", [corrupted(o, swap_l_type) for o in analyze], True)
    good &= expect("analyze, verdict flipped", [corrupted(o, flip_verdict) for o in analyze], True)
    good &= expect("recognize, torus rank grown", [corrupted(o, grow_torus) for o in recognize], True)

    ops = workloads.make("cli-cold", None, SEED).unit(0)[:3]
    good &= expect("cli, as run", ops, False)
    good &= expect("cli, exit code 1", [corrupted(o, exit_one) for o in ops], True)
    good &= expect("cli, stdout changed", [corrupted(o, flip_byte) for o in ops], True)

    print("selftest " + ("passed" if good else "FAILED"))
    return 0 if good else 1


if __name__ == "__main__":
    raise SystemExit(main())
