import ast
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maip import checks, cli, invariant
from maip.algebra import LaurentPoly, poly_to_json, render
from maip.diagram import parse, random_diagram, serialize
from maip.invariant import maip

from conftest import FIXTURES, load


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "maip", *args],
        capture_output=True, text=True, cwd=FIXTURES.parent)


def fx(name):
    return str(FIXTURES / f"{name}.tangle")


def test_compute_ex3():
    res = run_cli("compute", fx("ex3"))
    assert res.returncode == 0
    assert res.stdout.strip() == "t1^(c1-c3-1) - t2^(c2-c3)"


def test_compute_kink():
    res = run_cli("compute", fx("kink"))
    assert res.returncode == 0
    assert res.stdout.strip() == "0"


def test_compute_singular_is_an_input_error():
    res = run_cli("compute", fx("singular"))
    assert res.returncode == 2
    assert "singular" in res.stderr and "resolve" in res.stderr


def test_compute_json_round_trips():
    res = run_cli("compute", fx("ex3"), "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout) == poly_to_json(maip(load("ex3")))


def test_compute_numeric_and_collapse():
    res = run_cli("compute", fx("ex3"), "--numeric", "all=0", "--collapse")
    assert res.returncode == 0
    assert res.stdout.strip() == "-1 + t1^(-1)"


def test_compute_numeric_partial_assignment_fails():
    res = run_cli("compute", fx("ex3"), "--numeric", "c1=0")
    assert res.returncode == 2
    assert "c2" in res.stderr or "c3" in res.stderr


@pytest.mark.parametrize("assignment", ["c\u00b2=1", "c" + "1" * 5000 + "=0"],
                         ids=["superscript-index", "index-too-long-for-int"])
def test_compute_numeric_bad_index_is_an_input_error(assignment):
    res = run_cli("compute", fx("ex3"), "--numeric", assignment)
    assert res.returncode == 2
    assert "bad assignment" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("assignment", ["c1=3_0", "c1=\u0663", "all=\u0663"],
                         ids=["underscore-digits", "arabic-indic-value", "arabic-indic-all"])
def test_compute_numeric_bad_value_is_an_input_error(assignment):
    # int() reads both; a value is an optional sign and ASCII digits only
    res = run_cli("compute", fx("ex1"), "--numeric", f"{assignment},c2=0")
    assert res.returncode == 2
    assert res.stderr == (f"error: bad assignment {assignment!r}; "
                          "expected c<i>=<int> or all=<int>\n")


def test_compute_numeric_incomplete_names_the_symbol():
    res = run_cli("compute", fx("ex1"), "--numeric", "c1=1")
    assert (res.returncode, res.stderr) == (2, "error: --numeric incomplete: no value for c2\n")


def test_compute_parse_error(tmp_path):
    bad = tmp_path / "bad.tangle"
    bad.write_text("tangle m=0 n=0\ncomponent 1 closed : O1+ U1-\n")
    res = run_cli("compute", str(bad))
    assert res.returncode == 2
    assert "sign mismatch at crossing 1" in res.stderr


def test_resolve_singular_example():
    res = run_cli("resolve", fx("singular"))
    assert res.returncode == 0
    assert res.stdout.strip() == "-t1 + t1^(c1-c2) - t2^(-1) + t2^(-c1+c2)"


def test_resolve_two_singular_is_zero(tmp_path):
    d = random_diagram(9, 1, 1, 4, n_singular=2)
    path = tmp_path / "two_singular.tangle"
    path.write_text(serialize(d))
    res = run_cli("resolve", str(path))
    assert res.returncode == 0
    assert res.stdout.strip() == "0"


def test_resolve_without_singular_is_an_input_error():
    res = run_cli("resolve", fx("ex3"))
    assert res.returncode == 2


def test_tensor_output():
    res = run_cli("tensor", fx("ex3"), fx("ex3"))
    assert res.returncode == 0
    body, trailer = res.stdout.rsplit("# maip: ", 1)
    product = parse(body)
    assert (product.m, product.n) == (4, 8)
    assert trailer.strip() == render(maip(product))


def test_compose_published_example():
    res = run_cli("compose", fx("ex3"), fx("ex2"))
    assert res.returncode == 0
    assert "# maip: 1 + t1^(c1-c2-1) - t1^(c1-c2) - t2^(-1) - t2 + t2^(-c1+c2)" in res.stdout
    assert "# predict: ok" in res.stdout
    body = res.stdout.split("# maip:")[0]
    assert parse(body) == load("ex4")


def test_compose_cyclic_prediction_ok(tmp_path):
    upper = tmp_path / "upper.tangle"
    lower = tmp_path / "lower.tangle"
    upper.write_text("tangle m=0 n=2\ncomponent 1 long from B1 to B2 : O1+ U1+\n")
    lower.write_text("tangle m=2 n=0\ncomponent 1 long from T2 to T1 :\n")
    res = run_cli("compose", str(upper), str(lower))
    assert res.returncode == 0
    assert "# predict: ok" in res.stdout
    assert "# maip: 0" in res.stdout
    res = run_cli("compose", str(upper), str(lower), "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["predict"] == "ok"
    assert payload["maip"] == poly_to_json(maip(load("kink")))


def test_compose_mismatched_prediction_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "predict_composed", lambda *args: LaurentPoly.zero())
    assert cli.main(["compose", fx("ex3"), fx("ex2")]) == 1
    out = capsys.readouterr().out
    assert "# maip: 1 + t1^(c1-c2-1)" in out
    assert out.endswith("# predict: MISMATCH\n")
    assert cli.main(["compose", fx("ex3"), fx("ex2"), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["predict"] == "MISMATCH"


@pytest.mark.parametrize("command", ["tensor", "compose"])
@pytest.mark.parametrize("suffix, text", [
    (".tangle", "tangle m=0 n=0\ncomponent 1 closed : O0- U0-\n"),
    (".json", '{"m": 0, "n": 0, "components": [{"kind": "closed", "events": ["O0-", "U0-"]}]}'),
])
def test_crossing_id_0_is_an_input_error(command, suffix, text, tmp_path):
    # tensor shifts the second factor's ids by the first's largest, so an
    # id 0 on both sides would collide and lose a crossing.
    zero = tmp_path / f"zero{suffix}"
    zero.write_text(text)
    kink = tmp_path / "kink.tangle"
    kink.write_text("tangle m=0 n=0\ncomponent 1 closed : O1+ U1+\n")
    res = run_cli(command, str(kink), str(zero))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {zero}: invalid diagram\n  - crossing 0: ids start at 1\n"


def test_compose_arity_mismatch_exit_code():
    res = run_cli("compose", fx("ex3"), fx("ex3"))
    assert res.returncode == 2


def test_compose_writes_output_file(tmp_path):
    out = tmp_path / "composite.tangle"
    res = run_cli("compose", fx("ex3"), fx("ex2"), "-o", str(out))
    assert res.returncode == 0
    assert parse(out.read_text()) == load("ex4")


@pytest.mark.parametrize("command", ["tensor", "compose"])
def test_output_file_and_stdout_share_one_serialization(command, tmp_path, capsys, monkeypatch):
    calls = []

    def counting_serialize(d):
        calls.append(d)
        return serialize(d)

    monkeypatch.setattr(cli, "serialize", counting_serialize)
    out = tmp_path / "out.tangle"
    assert cli.main([command, fx("ex3"), fx("ex2"), "-o", str(out)]) == 0
    assert len(calls) == 1
    stdout = capsys.readouterr().out
    assert out.read_text() == "".join(line for line in stdout.splitlines(keepends=True)
                                      if not line.startswith("#"))


@pytest.mark.parametrize("command, target, reason", [
    ("tensor", "missing/x", "No such file or directory"),
    ("compose", ".", "Is a directory"),
])
def test_unwritable_output_is_an_input_error(command, target, reason, tmp_path):
    out = str(tmp_path / target)
    res = run_cli(command, fx("ex3"), fx("ex2"), "-o", out)
    assert res.returncode == 2
    assert res.stderr == f"error: {out}: {reason}\n"


@pytest.mark.parametrize("what", ["moves", "prop2", "corollary", "compose", "vassiliev"])
def test_check_random_suites(what):
    res = run_cli("check", "--what", what, "--random", "--trials", "25", "--seed", "3")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "PASS" in res.stdout


def test_check_file_based_prop2():
    res = run_cli("check", fx("ex3"), "--what", "prop2")
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_check_file_based_moves():
    res = run_cli("check", fx("ex1"), "--what", "moves", "--trials", "10", "--seed", "4")
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_check_moves_counts_applied_moves(tmp_path, capsys):
    # No move applies to a diagram without components, so every walk stops at once.
    path = tmp_path / "empty.tangle"
    path.write_text("tangle m=0 n=0\n")
    assert cli.main(["check", str(path), "--what", "moves", "--trials", "5", "--seed", "1"]) == 0
    assert "moves_applied=0 PASS" in capsys.readouterr().out


def test_check_json_report():
    res = run_cli("check", "--what", "vassiliev", "--random", "--trials", "5",
                  "--seed", "2", "--json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["ok"] is True
    assert report["trials"] == 5


def test_check_moves_json_counts_move_kinds_and_the_summary_does_not():
    args = ("check", "--what", "moves", "--random", "--trials", "20", "--seed", "7")
    report = json.loads(run_cli(*args, "--json").stdout)
    by_kind = report["moves_by_kind"]
    assert list(by_kind) == ["R1+", "R2+", "R1-", "R2-", "R3"]
    assert sum(by_kind.values()) == report["stats"]["moves_applied"] > 0
    summary = run_cli(*args).stdout
    assert summary == f"what=moves trials=20 seed=7: moves_applied={sum(by_kind.values())} PASS\n"


def test_check_requires_input():
    res = run_cli("check", "--what", "moves")
    assert res.returncode == 2


def test_check_compose_needs_random():
    res = run_cli("check", fx("ex3"), "--what", "compose")
    assert res.returncode == 2


def test_check_rejects_singular_file():
    res = run_cli("check", fx("singular"), "--what", "prop2")
    assert res.returncode == 2
    assert "singular" in res.stderr


def test_missing_file_is_an_input_error():
    res = run_cli("compute", "no-such-file.tangle")
    assert res.returncode == 2


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # About 120 kB of output, more than a pipe holds, so the writer is
    # still writing when the reader closes its end.
    path = tmp_path / "n3200.tangle"
    path.write_text(serialize(random_diagram(1, 2, 2, 3200)))
    with subprocess.Popen(
            [sys.executable, "-m", "maip", "tensor", str(path), str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=FIXTURES.parent) as proc:
        assert proc.stdout.readline() == b"tangle m=6 n=2\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait() == 141
    assert "Traceback" not in stderr


def test_property_suite_script_exits_141_on_a_closed_stdout():
    # Unbuffered, the script writes each suite's line as the suite ends,
    # so the reader closes its end while the next suite is still running.
    root = FIXTURES.parent
    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(
            [sys.executable, str(root / "scripts" / "run_property_suite.py"), "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=root, env=env) as proc:
        assert proc.stdout.readline().startswith(b"what=moves trials=1000 seed=7: ")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait() == 141
    assert "Traceback" not in stderr


def run_python(code):
    """Run code in a fresh interpreter at the repository root, importing this checkout's maip."""
    root = FIXTURES.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, cwd=root, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_package_root_reexports_nothing_and_commands_skip_words():
    # The package's names live in its modules; a re-export layer at the
    # root would load every module, words too, into every command.
    code = ("import sys, types, maip.cli, maip.checks, maip\n"
            "print('maip.words' in sys.modules)\n"
            "print(sorted(n for n, v in vars(maip).items()\n"
            "             if not n.startswith('_') and not isinstance(v, types.ModuleType)))\n")
    assert run_python(code) == ["False", "[]"]


def test_compute_loads_neither_the_suites_nor_what_only_they_call():
    # Only check runs a suite, so compute skips importing the suites, the
    # walk and the oracle.
    code = ("import sys\n"
            "from maip import cli\n"
            "assert cli.main(['compute', 'fixtures/ex1.tangle']) == 0\n"
            "print([m for m in ('maip.checks', 'maip.moves', 'maip.homology') if m in sys.modules])\n")
    assert run_python(code)[-1] == "[]"


@pytest.mark.parametrize("argv, module, name, inputs", [
    (["compute", fx("ex3")], cli, "maip", fx("ex3")),
    (["tensor", fx("ex1"), fx("ex3")], cli, "tensor", f"{fx('ex1')}, {fx('ex3')}"),
    (["check", fx("ex3"), "--what", "prop2"], checks, "check_prop2", fx("ex3")),
    (["check", "--what", "corollary", "--random", "--trials", "2"],
     checks, "maip_via_homology", "random diagrams"),
])
def test_out_of_memory_exits_2_naming_the_inputs(argv, module, name, inputs, capsys,
                                                 monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, name, exhaust)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {inputs}: out of memory in maip {argv[0]}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", ["x", "\u0663", "1_0"])
def test_property_suite_script_refuses_a_bad_seed(seed):
    root = FIXTURES.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, str(root / "scripts" / "run_property_suite.py"), seed],
                         capture_output=True, text=True, cwd=root, env=env)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("usage: ")
    assert f"error: expected an integer seed, got {seed!r}" in res.stderr
    assert "Traceback" not in res.stderr


def test_json_diagram_files_are_accepted(tmp_path):
    from maip.diagram import to_json

    path = tmp_path / "ex3.json"
    path.write_text(json.dumps(to_json(load("ex3"))))
    res = run_cli("compute", str(path))
    assert res.returncode == 0
    assert res.stdout.strip() == "t1^(c1-c3-1) - t2^(c2-c3)"


def test_bad_json_diagram_is_an_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 1}')
    res = run_cli("compute", str(path))
    assert res.returncode == 2


def test_non_utf8_file_is_an_input_error(tmp_path):
    path = tmp_path / "binary.tangle"
    path.write_bytes(b"tangle m=0 n=0\xff\xfe\n")
    res = run_cli("compute", str(path))
    assert res.returncode == 2
    assert "UTF-8" in res.stderr


# ---------------------------------------------------------------------------
# the input contract, in process


def compute_file(path, text, capsys):
    path.write_text(text)
    code = cli.main(["compute", str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"m": "x", "n": 0, "components": []}', "'m' must be a non-negative integer"),
    ('{"m": 1e400, "n": 0, "components": []}', "'m' must be a non-negative integer"),
    ('{"m": 0, "n": -1, "components": []}', "'n' must be a non-negative integer"),
    ('{"m": true, "n": 0, "components": []}', "'m' must be a non-negative integer"),
    ('{"m": 0, "n": 0, "components": {}}', "'components' must be a list"),
    ('{"m": 0, "n": 0, "components": [3]}', "component 1: must be an object"),
    ('{"m": 1, "n": 1, "components": [{"kind": "long", "start": 1, "end": "B1"}]}',
     "slot names or null"),
    ('{"m": 1, "n": 1, "components": [{"kind": "closed", "start": "T1", "end": "B1"}]}',
     "closed component carries boundary slots"),
    ('{"m": 0, "n": 0, "components": [{"kind": "closed", "events": ["X1", "O1+"]}]}',
     "crossing 1 is both classical and singular"),
    ('{"m": 0, "n": 0, "components": [{"kind": "closed", "events": "O1+ U1+"}]}',
     "'events' a list"),
    ('{"m": 0, "n": 0, "components": [{"kind": "closed", "events": ["O1+\\n", "U1+"]}]}',
     "bad token 'O1+\\n'"),
    # each token must be a whole token: no empty one, and no whitespace
    # inside or around one, which a join by spaces would hide
    *((json.dumps({"m": 0, "n": 0, "components": [{"kind": "closed", "events": events}]}),
       f"bad token {events[i]!r}")
      for events, i in ((["O1+\t", "U1+"], 0), (["O1+", "", "U1+"], 1), (["O1+ U1+"], 0),
                        ([" O1+", "U1+"], 0), (["O1+", "U1+ "], 1), (["O1+", 5], 1))),
])
def test_json_input_contract(tmp_path, capsys, text, message):
    code, err = compute_file(tmp_path / "bad.json", text, capsys)
    assert code == 2
    assert message in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts ids of any length")
def test_over_long_crossing_id_is_an_input_error(tmp_path, capsys):
    long_id = "1" * 5000
    tokens = ["O1+", "U1+", f"O{long_id}+", f"U{long_id}+"]
    text = "tangle m=0 n=0\ncomponent 1 closed : " + " ".join(tokens) + "\n"
    code, err = compute_file(tmp_path / "long.tangle", text, capsys)
    assert (code, err) == (2, f"error: {tmp_path / 'long.tangle'}: "
                              "line 2, col 30: crossing id is too long\n")
    data = {"m": 0, "n": 0, "components": [{"kind": "closed", "events": tokens}]}
    code, err = compute_file(tmp_path / "long.json", json.dumps(data), capsys)
    assert (code, err) == (2, f"error: {tmp_path / 'long.json'}: crossing id is too long\n")


@pytest.mark.parametrize("name, text, message", [
    ("token.tangle", "tangle m=0 n=0\ncomponent 1 closed : O١+ U1+\n",
     "line 2, col 22: bad token 'O١+'"),
    ("token.json", json.dumps({"m": 0, "n": 0, "components": [
        {"kind": "closed", "events": ["O١+", "U1+"]}]}), "bad token 'O١+'"),
    ("header.tangle", "tangle m=０ n=0\n",
     "line 1, col 1: expected header 'tangle m=<int> n=<int>'"),
    ("index.tangle", "tangle m=0 n=0\ncomponent １ closed :\n",
     "line 2, col 1: expected a 'component ...' line"),
    ("slot.tangle", "tangle m=1 n=1\ncomponent 1 long from T١ to B1 :\n",
     "line 2, col 1: expected a 'component ...' line"),
], ids=["arabic-indic-id", "arabic-indic-id-json", "full-width-header",
        "full-width-index", "arabic-indic-slot"])
def test_ids_are_ascii_digits(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert cli.main(["compute", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_slot_beyond_the_boundary_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "slot.tangle"
    code, err = compute_file(path, "tangle m=1 n=0\ncomponent 1 long from T1 to T2 :\n", capsys)
    assert (code, err) == (2, f"error: {path}: invalid diagram\n"
                              "  - slot T2: not in boundary (m=1, n=0)\n")


def test_huge_boundary_exits_fast_with_a_short_message(tmp_path, capsys):
    start = time.perf_counter()
    code, err = compute_file(tmp_path / "wide.tangle", "tangle m=4000000 n=0\n", capsys)
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert "boundary: m=4000000, n=0, but 0 long components reach at most 0 slots" in err
    assert len(err) < 300


@pytest.mark.parametrize("trials", ["-5", "0", "x", "\u0663", "1_0"])
def test_check_trials_must_be_positive(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--what", "compose", "--random", "--trials", trials])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["x", "\u0663", "1_0"])
def test_check_seed_must_be_an_ascii_integer(seed, capsys):
    # int() reads "\u0663" and "1_0"; a seed is an optional sign and ASCII digits only
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--what", "prop2", "--random", "--trials", "2", "--seed", seed])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"argument --seed: expected an integer, got {seed!r}" in err
    assert out == ""


def test_check_seed_takes_a_sign_and_spaces(capsys):
    assert cli.main(["check", "--what", "prop2", "--random", "--trials", " 2",
                     "--seed", " -3 "]) == 0
    assert capsys.readouterr().out.startswith("what=prop2 trials=2 seed=-3: ")


@pytest.mark.parametrize("what", ["compose", "vassiliev"])
def test_check_random_only_suites_refuse_a_file(what, capsys):
    assert cli.main(["check", fx("ex3"), "--what", what, "--random"]) == 2
    assert "random inputs only" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["moves", "prop2", "corollary"])
def test_check_refuses_a_file_with_random(what, capsys):
    assert cli.main(["check", fx("ex1"), "--what", what, "--random", "--seed", "2"]) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["prop2", "corollary"])
def test_check_refuses_trials_when_a_file_is_checked_once(what, capsys):
    assert cli.main(["check", fx("ex1"), "--what", what, "--trials", "9"]) == 2
    assert "checks a diagram file once" in capsys.readouterr().err


def test_resolve_many_singular_crossings_without_enumerating(tmp_path, capsys, monkeypatch):
    def refuse(d):
        raise AssertionError("resolve enumerated the 2^k resolutions")

    monkeypatch.setattr(invariant, "resolve_singular", refuse)
    path = tmp_path / "k24.tangle"
    path.write_text(serialize(random_diagram(5, 1, 2, 30, n_singular=24)))
    start = time.perf_counter()
    assert cli.main(["resolve", str(path)]) == 0
    assert capsys.readouterr().out == "0\n"
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# fuzzing the loader through the CLI

_junk = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
         | st.lists(st.integers(0, 2), max_size=2)
         | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_token = st.sampled_from(["O1+", "U1+", "U1-", "X1", "Y1", "O2-", "U2-", "Q"]) | _junk
_slot = st.sampled_from(["T1", "T2", "B1", "B2"]) | _junk
_component = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["closed", "long"]) | _junk,
    "start": _slot, "end": _slot,
    "events": st.lists(_token, max_size=4) | _junk,
})
_json_text = st.fixed_dictionaries({}, optional={
    "m": st.integers(0, 3) | _junk,
    "n": st.integers(0, 3) | _junk,
    "components": st.lists(_component | _junk, max_size=3) | _junk,
}).map(json.dumps)
_line_text = st.lists(st.sampled_from([
    "tangle m=1 n=1", "tangle m=0 n=0", "tangle m=2 n=0", "\n", " ", "#",
    "component 1 long from T1 to B1 :", "component 1 closed :",
    "component 2 long from B1 to T1 :", "component 2 closed :",
    " O1+", " U1+", " O1-", " U1-", " X1", " Y1", " O2+", " U2+", " Q",
]), max_size=12).map("".join)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text() | _line_text | _json_text)
@example(text='{"m": "x", "n": 0, "components": []}')
@example(text='{"m": 1e400, "n": 0, "components": []}')
@example(text='{"m": 1, "n": 1, "components": [{"kind": "closed", "start": "T1", "end": "B1"}]}')
@example(text='{"m": 2, "n": 0, "components": [{"kind": "long", "start": 1, "end": "T1"}]}')
@example(text='{"m": 0, "n": 0, "components": [{"kind": "closed", "events": ["X1", "O1+"]}]}')
@example(text='{"m": ' + "1" * 5000 + ', "n": 0, "components": []}')
@example(text='{"m": ' + "[" * 100_000 + "]" * 100_000 + "}")
@example(text="tangle m=4000000 n=0\n")
@example(text="tangle m=" + "9" * 5000 + " n=0\n")
@example(text="tangle m=0 n=0\ncomponent 1 closed : O" + "1" * 5000 + "+ U1+\n")
def test_compute_never_raises(tmp_path, text):
    path = tmp_path / "fuzz.tangle"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["compute", str(path)]) in (0, 2)


def readme_examples():
    """(command, shown output) for each `$ maip ...` example in README's CLI section."""
    text = (FIXTURES.parent / "README.md").read_text()
    block = text.split("Examples, from the repository root:", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ maip ")[1:]:
        command, _, shown = chunk.partition("\n")
        examples.append((command, shown.rstrip("\n") + "\n"))
    return examples


README_EXAMPLES = readme_examples()


def test_every_suite_list_matches_checks_suites():
    """Each place that writes out the suite names lists checks.SUITES, in its order."""
    script = (FIXTURES.parent / "scripts" / "run_property_suite.py").read_text()
    trials = next(node.value for node in ast.parse(script).body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRIALS"])
    synopsis = (FIXTURES.parent / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    docstring = re.search(r"check +randomized property suites \(([^)]*)\)", cli.__doc__)[1]
    lists = {"run_property_suite.TRIALS": list(ast.literal_eval(trials)),
             "README CLI synopsis": re.search(r"--what (\S+)", synopsis)[1].split("|"),
             "cli docstring": docstring.replace(",", " ").split(),
             "cli.SUITE_NAMES": list(cli.SUITE_NAMES)}
    assert {place: names for place, names in lists.items() if names != list(checks.SUITES)} == {}


def test_readme_shows_an_example_of_each_main_command():
    assert [c.split()[0] for c, _ in README_EXAMPLES] == ["compute", "resolve", "compose", "check"]


@pytest.mark.parametrize("command,shown", README_EXAMPLES, ids=[c.split()[0] for c, _ in README_EXAMPLES])
def test_readme_example_prints_what_it_shows(monkeypatch, capsys, command, shown):
    monkeypatch.chdir(FIXTURES.parent)
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == shown
