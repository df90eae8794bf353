"""Byte-exact snapshots of the CLI: stdout, stderr and exit code per verb.

Each case runs ``main()`` in-process and compares against
``tests/snapshots/<name>.json``, which stores the exit code and the two
streams as lists of lines (split on ``"\\n"``, so a trailing newline shows
up as a final empty string).  ``--help`` is not pinned here: argparse's
layout differs between Python versions.

To rewrite the snapshots after an intended output change, run
``PYTHONPATH=src python tests/test_cli_snapshots.py`` from the repo root
and review the diff.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"

# A G2 registry holding one decoy form: the real forms come out UNEXPECTED
# and the decoy MISSING, so classify exits 1.
DECOY_GOLDEN = [
    {
        "ambient": "G2",
        "label": "decoy",
        "l_type": {"components": [{"family": "G", "rank": 2}], "torus_rank": 0},
        "v_type": {"components": [], "torus_rank": 2},
        "s_description": "decoy",
        "noncompact_dual": "decoy",
        "equal_rank": True,
        "table_rank": 2,
        "table_dim_h": 2,
    }
]

E8_NODE = "0,0,0,0,0,0,0,1"

CASES = {
    "roots_G2_dump": ["roots", "G2", "--dump-roots"],
    "roots_A1_json": ["roots", "A1", "--json"],
    "decompose_F4": ["decompose", "F4"],
    "decompose_F4_json": ["decompose", "F4", "--json"],
    "analyze_E8": ["analyze", "E8", "--sym", E8_NODE],
    "analyze_E8_json": ["analyze", "E8", "--sym", E8_NODE, "--json"],
    "analyze_G2_both_fail": ["analyze", "G2", "--sym", "0,0"],
    "analyze_E7_denom3_json": [
        "analyze", "E7", "--sym", "1,0,0,0,0,0,0", "--denom", "3", "--json",
    ],
    # Exact pairings at d = 1 (every root central) and at d > 2**64.
    "analyze_G2_denom1": ["analyze", "G2", "--sym", "1,1", "--denom", "1"],
    "analyze_G2_denom_huge": [
        "analyze", "G2", "--sym", "1,1", "--denom", "1000000000000000000000",
    ],
    "classify_E6": ["classify", "E6"],
    "classify_A9": ["classify", "A9"],
    "classify_G2_decoy": ["classify", "G2", "--golden", "{decoy}"],
    "classify_G2_decoy_json": ["classify", "G2", "--golden", "{decoy}", "--json"],
    # The decoy file holds no F4 entry, so F4 has no baseline to diff.
    "classify_F4_no_baseline": ["classify", "F4", "--golden", "{decoy}"],
    "classify_F4_no_baseline_json": [
        "classify", "F4", "--golden", "{decoy}", "--json",
    ],
    "table": ["table"],
    "table_json": ["table", "--json"],
    "cases": ["cases"],
    "cases_json": ["cases", "--json"],
    "error_analyze_G2_short_sym": ["analyze", "G2", "--sym", "1"],
    "error_decompose_A1": ["decompose", "A1"],
    "error_classify_Z9": ["classify", "Z9"],
}


def capture(argv: list[str]) -> dict:
    """Run ``main(argv)`` with both streams redirected; return the snapshot."""
    from quatforms.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def _argv(name: str, tmp_path: Path) -> list[str]:
    decoy = tmp_path / "decoy.json"
    decoy.write_text(json.dumps(DECOY_GOLDEN), encoding="utf-8")
    return [a.replace("{decoy}", str(decoy)) for a in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_snapshot(name, tmp_path):
    expected = json.loads((SNAPSHOTS / f"{name}.json").read_text(encoding="utf-8"))
    got = capture(_argv(name, tmp_path))
    assert got["exit_code"] == expected["exit_code"]
    assert got["stderr"] == expected["stderr"]
    assert got["stdout"] == expected["stdout"]


def _write_snapshots() -> None:
    SNAPSHOTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            snap = capture(_argv(name, Path(tmp)))
            snap["argv"] = CASES[name]
            text = json.dumps(snap, indent=2, ensure_ascii=False) + "\n"
            (SNAPSHOTS / f"{name}.json").write_text(text, encoding="utf-8")
            print(f"wrote {name}.json (exit {snap['exit_code']})")


if __name__ == "__main__":
    _write_snapshots()
