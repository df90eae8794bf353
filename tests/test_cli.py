from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import quatforms
from quatforms.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _schema(name):
    """The validator of a bundled schema; skips the test without jsonschema."""
    jsonschema = pytest.importorskip("jsonschema")
    from referencing import Registry, Resource

    base = resources.files("quatforms") / "schemas"
    resources_, store = [], {}
    for f in base.iterdir():
        obj = json.loads(f.read_text(encoding="utf-8"))
        store[obj["$id"]] = obj
        resources_.append((obj["$id"], Resource.from_contents(obj)))
    registry = Registry().with_resources(resources_)
    validator = jsonschema.Draft7Validator(store[name], registry=registry)
    return validator.validate


def test_bundled_registry_matches_golden_entry_schema():
    validate = _schema("golden_entry.schema.json")
    base = resources.files("quatforms") / "data"
    validate(json.loads((base / "registry_exceptional.json").read_text(encoding="utf-8")))


def test_generated_classical_entries_match_golden_entry_schema():
    from quatforms.classify import CLASSICAL_FAMILIES, generate_classical
    from quatforms.rootsys import _RANKS, SimpleType

    validate = _schema("golden_entry.schema.json")
    for family in CLASSICAL_FAMILIES:
        for n in _RANKS[family]:
            if (family, n) != ("A", 1):  # no quaternionic grading, no registry
                validate([e.to_json() for e in generate_classical(SimpleType(family, n))])


def test_roots_usage_error(capsys):
    code, _ = _run(capsys, "roots", "Z9")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    assert main(["roots", "E8", "--frobnicate"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_roots_text_and_dump(capsys):
    code, out = _run(capsys, "roots", "G2", "--dump-roots")
    assert code == 0
    assert "positive roots: 6" in out
    assert "[3, 2]" in out


def test_roots_json(capsys):
    code, out = _run(capsys, "roots", "E8", "--json", "--dump-roots")
    assert code == 0
    obj = json.loads(out)
    assert obj["positive_count"] == 120
    assert obj["highest_root"] == [2, 3, 4, 6, 5, 4, 3, 2]
    assert len(obj["positive_roots"]) == 120
    assert obj["node_set"] == [8]


def test_decompose(capsys):
    code, out = _run(capsys, "decompose", "F4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "type": "F4",
        "node_set": [1],
        "k_count": 10,
        "m_count": 14,
        "quaternionic_dim": 7,
    }


def test_analyze_text(capsys):
    code, out = _run(
        capsys, "analyze", "E8", "--sym", "0,0,0,0,0,0,0,1", "--denom", "2",
        "--basis", "coroot",
    )
    assert code == 0
    assert "L = E7 A1" in out
    assert "verdict: complex form" in out


def test_analyze_json(capsys):
    code, out = _run(capsys, "analyze", "F4", "--sym", "1,0,0,0", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "complex-form"


def test_analyze_json_schema(capsys):
    validate = _schema("analyze_report.schema.json")
    _code, out = _run(capsys, "analyze", "F4", "--sym", "1,0,0,0", "--json")
    validate(json.loads(out))


def test_analyze_not_complex_form_still_exits_zero(capsys):
    code, out = _run(capsys, "analyze", "G2", "--sym", "0,0")
    assert code == 0
    assert "not a complex form" in out


def test_analyze_sym_errors(capsys):
    code, _ = _run(capsys, "analyze", "G2", "--sym", "1")
    assert code == 2
    code, _ = _run(capsys, "analyze", "G2", "--sym", "a,b")
    assert code == 2
    # int() alone reads these as 1,0 and 10,0: only ASCII digits are coordinates.
    for sym in ("\uff11,0", "1_0,0", "\u0661,0"):
        assert main(["analyze", "G2", "--sym", sym]) == 2
        assert "expected integers" in capsys.readouterr().err
    # A coordinate past int()'s digit limit is an integer: it gets its own
    # short message, without the 5,000 digits echoed.
    assert main(["analyze", "G2", "--sym", "1" * 5000 + ",0"]) == 2
    assert capsys.readouterr().err == (
        "quatforms analyze: error: cannot parse --sym: a coordinate has too many digits\n"
    )


def test_classify_ok(capsys):
    code, out = _run(capsys, "classify", "E7", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["found"]) == 3


def test_classify_json_schema(capsys):
    validate = _schema("classification_report.schema.json")
    _code, out = _run(capsys, "classify", "E7", "--json")
    validate(json.loads(out))


def test_classify_mismatch_exit_code(tmp_path, capsys):
    fake = [
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
    path = tmp_path / "fake.json"
    path.write_text(json.dumps(fake), encoding="utf-8")
    code, out = _run(capsys, "classify", "G2", "--golden", str(path))
    assert code == 1
    assert "MISSING" in out and "UNEXPECTED" in out


def test_classify_bad_golden_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[{}]", encoding="utf-8")
    code, _ = _run(capsys, "classify", "G2", "--golden", str(path))
    assert code == 2


def _bad_rank_golden(where, value):
    entry = {
        "ambient": "G2",
        "label": "4",
        "l_type": {"components": [{"family": "A", "rank": 1}] * 2, "torus_rank": 0},
        "v_type": {"components": [], "torus_rank": 2},
        "s_description": "P^1(C) x P^1(C)",
        "noncompact_dual": "H^1(C) x H^1(C)",
        "equal_rank": True,
        "table_rank": 2,
        "table_dim_h": 2,
    }
    text = json.dumps([entry])
    if where == "ambient":
        return text.replace('"ambient": "G2"', f'"ambient": "{value}"')
    if where == "rank":
        return text.replace('"rank": 1}', f'"rank": {value}}}', 1)
    if where == "family":
        return text.replace('"family": "A"', f'"family": "{value}"', 1)
    return text.replace('"torus_rank": 2', f'"torus_rank": {value}', 1)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000,
        _bad_rank_golden("rank", "1e400"),
        _bad_rank_golden("rank", "true"),
        _bad_rank_golden("torus_rank", "2.7"),
        _bad_rank_golden("ambient", "Z9"),
        _bad_rank_golden("family", "AB"),
        b'[{"label": "\xff"}]',
        _bad_rank_golden("rank", "9" * 5000),
        "[1]",
        _bad_rank_golden("ambient", "E9"),
        _bad_rank_golden("ambient", "B1"),
        _bad_rank_golden("torus_rank", "-1"),
    ],
    ids=[
        "deep-nesting", "rank-overflow", "rank-bool", "torus-rank-float",
        "unknown-ambient", "unknown-family", "not-utf8", "rank-past-digit-limit",
        "entry-not-object", "ambient-E9-not-buildable", "ambient-B1-not-buildable",
        "torus-rank-negative",
    ],
)
def test_classify_malformed_golden_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    code = main(["classify", "G2", "--golden", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("quatforms classify: error:")
    assert "Traceback" not in err
    assert str(path) in err
    if "Z9" in str(text):
        assert f"{path}, entry 0" in err
    if '"AB"' in str(text):
        assert f"{path}, entry 0: bad Cartan type: unknown family 'AB'" in err
    if "9" * 5000 in str(text):
        assert err.endswith(f"golden file {path} holds an integer with too many digits\n")
    refusals = {
        "[1]": "entry must be an object, got int",
        '"E9"': "bad ambient type: rank 9 out of range for family E; valid ranks are 6, 7, 8",
        '"B1"': "bad ambient type: rank 1 out of range for family B; valid ranks are 2..10",
        '"torus_rank": -1': "bad Cartan type: torus rank must be nonnegative",
    }
    for needle, message in refusals.items():
        if needle in str(text):
            assert err.endswith(f"{path}, entry 0: {message}\n")


@pytest.mark.parametrize(
    "old, new",
    [
        ('"label": "4"', '"label": "4", "label": "4x"'),
        ('"l_type": {', '"l_type": {"torus_rank": 1}, "l_type": {'),
        ('"torus_rank": 2', '"torus_rank": 2, "torus_rank": 0'),
    ],
    ids=["label", "l_type", "torus_rank-in-a-cartan-type"],
)
def test_classify_golden_repeated_key_exits_2(tmp_path, capsys, old, new):
    """json keeps a repeated key's last value; a golden file may not repeat one."""
    text = _bad_rank_golden("rank", "1")
    assert text.count(old) == 1
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    code = main(["classify", "G2", "--golden", str(path)])
    key = new.split('"')[1]
    assert (code, capsys.readouterr().err) == (
        2, f"quatforms classify: error: golden file {path} repeats the key {key!r} in one object\n"
    )


def test_load_golden_reads_the_bundled_registry_file():
    """The bundled registry file, read as a golden file with repeated keys
    refused, gives the bundled entries."""
    from quatforms.classify import _bundled_exceptional, load_golden

    with resources.as_file(
        resources.files("quatforms") / "data" / "registry_exceptional.json"
    ) as path:
        assert tuple(load_golden(str(path))) == _bundled_exceptional()


_E8_SYM = "0,0,0,0,0,0,0,1"


@pytest.mark.parametrize("denom", ["0", "-3"])
def test_analyze_nonpositive_denominator_exits_2(capsys, denom):
    code = main(["analyze", "E8", "--sym", _E8_SYM, "--denom", denom])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "quatforms analyze: error: denominator must be a positive integer\n"


@pytest.mark.parametrize("denom", ["\uff13", "1_0", "\u0663", "3.0", ""])
def test_analyze_denom_takes_ascii_digits_only(capsys, denom):
    """int() alone reads full-width and Arabic-Indic digits and underscores;
    --denom, like --sym, takes ASCII digits only."""
    assert main(["analyze", "G2", "--sym", "1,0", f"--denom={denom}"]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"analyze: error: argument --denom: invalid int value: {denom!r}\n")


def test_analyze_denom_past_the_digit_limit_exits_2(capsys):
    """A --denom past int()'s digit limit gets a short message, without the
    5,000 digits echoed."""
    assert main(["analyze", "G2", "--sym", "1,0", "--denom", "1" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.endswith("analyze: error: argument --denom: invalid int value: too many digits\n")


def test_type_label_past_the_digit_limit_exits_2(capsys):
    """A rank past int()'s digit limit gets its own message, without the
    label echoed, in place of the interpreter's text."""
    assert main(["roots", "A" + "9" * 5000]) == 2
    assert capsys.readouterr().err == (
        "quatforms roots: error: cannot parse type label: the rank has too many digits\n"
    )


def test_analyze_reduces_large_and_negative_coordinates(capsys):
    code = main(["analyze", "E8", "--sym=-1,0,0,0,0,0,0,99999999999999999999"])
    captured = capsys.readouterr()
    assert code == 0
    assert "sym: 1,0,0,0,0,0,0,1 (denom 2, coroot basis)" in captured.out
    assert captured.err == ""


def test_analyze_negative_sym_needs_equals_sign(capsys):
    """argparse reads a leading '-' as an option, so '--sym -1,...' lacks its value."""
    code = main(["analyze", "E8", "--sym", "-1,0,0,0,0,0,0,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "argument --sym: expected one argument" in err
    assert "Traceback" not in err


def test_classify_colliding_golden_exits_2(tmp_path, capsys):
    (entry,) = json.loads(_bad_rank_golden("rank", "1"))  # rank 1 keeps it valid
    path = tmp_path / "twice.json"
    path.write_text(json.dumps([entry, {**entry, "label": "4x"}]), encoding="utf-8")
    code = main(["classify", "G2", "--golden", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"quatforms classify: error: {path}: entries 4 and 4x of G2 share")
    assert "Traceback" not in err


def test_classify_golden_directory_exits_2(tmp_path, capsys):
    code = main(["classify", "G2", "--golden", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"quatforms classify: error: cannot read golden file {tmp_path}")
    assert "Traceback" not in err


def test_classify_empty_golden_path_exits_2(capsys):
    """An explicit empty path is unreadable, not a request for the bundled registry."""
    code = main(["classify", "G2", "--golden", ""])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("quatforms classify: error: cannot read golden file ")
    assert "Traceback" not in err


def test_table(capsys):
    code, out = _run(capsys, "table")
    assert code == 0
    assert "result: ok (34 rows)" in out
    assert any(line.startswith("E8") and "28" in line for line in out.splitlines())


def test_table_json(capsys):
    code, out = _run(capsys, "table", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["rows"]) == 34


def test_cases_verb(capsys):
    code, out = _run(capsys, "cases")
    assert code == 0
    assert "7/7 cases pass" in out
    assert "L = C3 C1" in out  # F4 row echoes the symplectic alias


def test_cases_json_reports_both_numberings(capsys):
    code, out = _run(capsys, "cases", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] == obj["total"] == 7
    e7 = next(c for c in obj["cases"] if c["ambient"] == "E7")
    assert e7["node_bourbaki"] == 1 and e7["node_lie"] == 2
    assert e7["sym_bourbaki"] == [1, 0, 0, 0, 0, 0, 0]
    assert e7["sym_lie"] == [0, 1, 0, 0, 0, 0, 0, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "E6", "--json", "--dump-roots"],
        ["decompose", "B5"],
        ["analyze", "E7", "--sym", "1,0,0,0,0,0,0", "--json"],
        ["classify", "F4", "--json"],
        ["table", "--json"],
        ["cases", "--json"],
    ],
)
def test_output_determinism(capsys, argv):
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    assert first == second


def _fuzz_type_labels(n: int) -> list[str]:
    """Seeded type labels: valid and invalid families and ranks, mixed case,
    non-ASCII letters and digits, surrounding whitespace."""
    rng = random.Random("type-label-fuzz")
    families = [
        *"ABCDEFGHZabcdefgz", "", "AB", "ee", "Ab",
        "\u00c9", "\u03a3", "\u00df", "\uff25", "\u212a", "\u01c5",
    ]
    digits = ["\u0663", "\uff18", "\U0001d7e0", "\u00b2"]
    spaces = ["", "", " ", "\t", "\n", "\u3000"]
    labels = ["A" + "9" * 5000]
    while len(labels) < n:
        roll = rng.random()
        if roll < 0.7:
            rank = str(rng.randrange(21))
        elif roll < 0.85:
            rank = rng.choice(digits) + rng.choice(["", "1"])
        else:
            rank = rng.choice(["", "0" + str(rng.randrange(11)), "+3", "-3", "3.0", "1_0"])
        labels.append(rng.choice(spaces) + rng.choice(families) + rank + rng.choice(spaces))
    return labels


def test_type_label_fuzz(capsys):
    """Any type label exits 0, 1 or 2 with the same output on a repeat,
    and never with a traceback."""
    start = time.perf_counter()
    for label in _fuzz_type_labels(300):
        for verb in ("roots", "decompose", "classify"):
            runs = []
            for _ in range(2):
                code = main([verb, label])
                runs.append((code, *capsys.readouterr()))
            assert runs[0][0] in (0, 1, 2), (verb, label)
            assert "Traceback" not in runs[0][2], (verb, label)
            assert runs[0] == runs[1], (verb, label)
    assert time.perf_counter() - start < 1.0


def _fuzz_golden_files(tmp_path, n: int) -> list[Path]:
    """Seeded golden files for G2, from its bundled entries: entries left
    out or with another V, truncated and deeply nested JSON, non-UTF-8
    bytes, a BOM, fields of the wrong type, repeated keys and integers at
    and past the digit limit, plus a directory."""
    from quatforms.classify import golden_for_type
    from quatforms.rootsys import SimpleType

    rng = random.Random("golden-file-fuzz")
    entries = [e.to_json() for e in golden_for_type(SimpleType("G", 2))]
    text = json.dumps(entries).encode()
    wrong = [None, True, 0, -1, 2.5, "", "G2", [], {}, [{"family": "A"}], {"rank": 1}]
    other_v = [b'"components": [{"family": "%s", "rank": 2}]' % f for f in (b"A", b"G")]

    def wrong_field():
        objs = [dict(e) for e in entries]
        obj = rng.choice(objs)
        key = rng.choice([*obj, "extra"])
        if isinstance(obj.get(key), dict) and rng.random() < 0.5:
            obj[key] = {**obj[key], rng.choice([*obj[key], "extra"]): rng.choice(wrong)}
        else:
            obj[key] = rng.choice(wrong)
        return json.dumps(objs).encode()

    def repeated_key():
        at = rng.choice([i for i, c in enumerate(text) if c == ord(",")])
        key = rng.choice([b'"label": "x"', b'"rank": 1', b'"l_type": {}', b'"torus_rank": 0'])
        return text[: at + 1] + key + b"," + text[at + 1 :]

    makers = [
        lambda: json.dumps(rng.sample(entries, rng.randrange(len(entries)))).encode(),
        lambda: text.replace(b'"components": []', rng.choice(other_v), 1),
        lambda: text[: rng.randrange(len(text))],
        lambda: b"[" * rng.choice([10, 1000, 100000]) + b"]" * rng.randrange(3),
        lambda: text.replace(b"G2", rng.choice([b"G\xff", b"\xc3(", b"\x80"]), 1),
        lambda: b"\xef\xbb\xbf" + text,
        wrong_field,
        repeated_key,
        lambda: text.replace(b'"table_rank": 2', b'"table_rank": ' + b"9" * 5000, 1),
        lambda: text.replace(b'"rank": 1', b'"rank": ' + b"7" * rng.choice([4300, 4301]), 1),
    ]
    paths = [tmp_path]
    for i in range(n):
        path = tmp_path / f"golden-{i}.json"
        path.write_bytes(makers[i % len(makers)]())
        paths.append(path)
    return paths


def test_golden_file_fuzz(tmp_path, capsys):
    """Any --golden file exits 0, 1 or 2 with the same output on a repeat,
    never with a traceback, and names the file when it exits 2."""
    start = time.perf_counter()
    codes = set()
    for path in _fuzz_golden_files(tmp_path, 80):
        runs = []
        for _ in range(2):
            code = main(["classify", "G2", "--golden", str(path)])
            runs.append((code, *capsys.readouterr()))
        assert runs[0][0] in (0, 1, 2), path
        assert "Traceback" not in runs[0][2], path
        assert runs[0] == runs[1], path
        if runs[0][0] == 2:
            assert str(path) in runs[0][2], (path, runs[0][2])
        codes.add(runs[0][0])
    assert codes == {0, 1, 2}
    assert time.perf_counter() - start < 2.0


def _fuzz_analyze_argv(n: int) -> list[list[str]]:
    """Seeded analyze invocations: valid and malformed --sym, --denom and
    --basis values, with coordinate counts off by one."""
    rng = random.Random("analyze-argv-fuzz")
    ranks = {"G2": 2, "A3": 3, "B3": 3, "C3": 3, "F4": 4}
    good = ["0", "1", "2", "3", "-1", "+3", "7", "99999999999999999999"]
    bad = [
        "", " 1", "1 ", "x", "1.0", "1_0", "-", "\uff13", "\u0663", "\U0001d7e0",
        "\u00b2", "1" * 5000,
    ]
    bases = ["coroot", "coweight", "Coroot", "", "coweight "]
    argvs = []
    while len(argvs) < n:
        label = rng.choice(list(ranks))
        count = max(1, ranks[label] + rng.choice([0, 0, 0, 0, -1, 1]))
        fields = [rng.choice(good if rng.random() < 0.9 else bad) for _ in range(count)]
        argv = ["analyze", label, "--sym=" + ",".join(fields)]  # '=' keeps '-1' a value
        if rng.random() < 0.8:
            argv.append("--denom=" + rng.choice(good if rng.random() < 0.8 else bad))
        if rng.random() < 0.5:
            argv.append("--basis=" + rng.choice(bases))
        if rng.random() < 0.3:
            argv.append("--json")
        argvs.append(argv)
    return argvs


def test_analyze_option_fuzz(capsys):
    """Any --sym, --denom or --basis value exits 0, 1 or 2 with the same
    output on a repeat, and never with a traceback."""
    start = time.perf_counter()
    codes = set()
    for argv in _fuzz_analyze_argv(200):
        runs = []
        for _ in range(2):
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0][0] in (0, 1, 2), argv
        assert "Traceback" not in runs[0][2], argv
        assert runs[0] == runs[1], argv
        codes.add(runs[0][0])
    assert codes == {0, 2}
    assert time.perf_counter() - start < 1.0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quatforms.cli", "cases"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "7/7 cases pass" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "E7", "--json"],
        ["analyze", "E8", "--sym", "0,0,0,0,0,0,0,1"],
        ["cases"],
    ],
)
def test_optimized_interpreter_parity(argv):
    """Output does not depend on asserts: -O gives the same bytes and code."""
    src = str(Path(quatforms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "quatforms.cli", *argv],
            capture_output=True,
            env=env,
        )

    plain, optimized = run(), run("-O")
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
