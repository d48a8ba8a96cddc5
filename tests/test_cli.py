import ast
import contextlib
import importlib.util
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cli_reference
from oracle_reference import reference_ell, reference_eta
from ordclass import cli, hierarchy, terms as tm
from ordclass.cli import _SIGNATURES, Session, _plain, _split, main, run_command
from ordclass.errors import MissingMValue, OrdinalError, ParseError
from ordclass.context import ClassContext
from ordclass.grammar import parse_ord, render_leaf, render_ord
from ordclass.oracle import Leq1Relation
from ordclass.skeleton import T_set, eta_compute, l_compute


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_starting_the_cli_loads_no_dataclasses_machinery():
    # `dataclasses` imports inspect, ast, dis and tokenize, and each of its
    # decorators compiles generated source at import: together they would be
    # most of the time to import the CLI; `shlex` is imported by the first
    # line with quotes, escapes, comments or non-ASCII text
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import ordclass.cli as cli; cli.Session(); "
        "mods = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'shlex'); "
        "print(*(m for m in mods if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_eval_normalizes(capsys):
    code, out, _ = run(capsys, "eval", "w^(eps(0))+1")
    assert code == 0 and out.strip() == "eps(0)+1"


def test_tset_level1(capsys):
    code, out, _ = run(capsys, "tset", "1", "eps(0)", "eps(0)*2+w")
    assert code == 0 and out.strip() == "{eps(0)}"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "w^(")
    assert code == 2 and "parse error" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "eta", "2", "eps(0)", "eps(0)*2")
    assert code == 1 and "error" in err


def test_unknown_verb(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_script_mode(tmp_path, capsys):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "# demo script\n"
        "declare A 3\n"
        "eval A@3(+2)\n"
        "lambda 1 eps(0)*2\n"
        "eta 1 eps(0) eps(0)*2\n"
        "\n"
        "canon 3 A@3 1\n"
    )
    code, out, _ = run(capsys, "--script", str(script))
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "declared A@3"
    assert lines[1] == "A@3(+2)"
    assert lines[2] == "eps(0)"
    assert lines[3] == "eps(0)*2"
    assert lines[4].startswith("x = cp(3,1,A@3)")


def test_grid_and_oracle_verbs(tmp_path, capsys):
    script = tmp_path / "oracle.txt"
    script.write_text(
        "grid g1 eps(1) eps(0)\n"
        "leq1 g1 eps(0) eps(0)*2\n"
        "leq1 g1 eps(0) eps(0)*2+1\n"
        "mhat g1 eps(0)\n"
        "classdetect g1 1\n"
    )
    code, out, _ = run(capsys, "--script", str(script))
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[1] == "true (grid-relative)"
    assert lines[2] == "false (grid-relative)"
    assert lines[3] == "eps(0)*2"
    assert lines[4] == "{eps(0)}"


@pytest.mark.parametrize("j", ["0", "-1"])
def test_classdetect_below_level_1_is_a_domain_error(tmp_path, capsys, j):
    script = _script(tmp_path, f"grid g eps(1) eps(0)\nclassdetect g {j}\n")
    code, out, err = run(capsys, "--script", script)
    assert code == 1 and out == "grid g: 51 points, 2 rounds\n"
    assert err.strip() == f"error: class level must be >= 1, got {j}"


def test_classdetect_far_above_the_deepest_level_is_empty(tmp_path, capsys):
    script = _script(tmp_path, "grid g eps(1) eps(0)\nclassdetect g 1000000000\n")
    code, out, err = run(capsys, "--script", script)
    assert code == 0 and err == ""
    assert out == "grid g: 51 points, 2 rounds\n{}\n"


def test_removed_subset_cap_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--subset-cap", "4", "eval", "1"])
    assert exc.value.code == 2
    assert "--subset-cap" in capsys.readouterr().err


def test_gset_astep_and_export(tmp_path, capsys):
    dot = tmp_path / "rel.dot"
    js = tmp_path / "rel.json"
    script = tmp_path / "s.txt"
    script.write_text(
        "grid g eps(1) eps(0)\n"
        f"export g {js}\n"
        "gset 2 eps(0) eps(0)*2 g\n"
        "astep 2 eps(0) eps(0)*2 g\n"
    )
    code, out, _ = run(capsys, "--script", str(script))
    assert code == 0
    data = json.loads(js.read_text())
    assert set(data) == {"points", "frontiers", "matrix", "rounds"}
    script.write_text(script.read_text().replace(str(js), str(dot)))
    code, out, _ = run(capsys, "--script", str(script))
    assert code == 0 and dot.read_text().startswith("digraph leq1")

    dot.unlink()
    script2 = tmp_path / "s2.txt"
    script2.write_text(f"grid g eps(1) eps(0)\nexport g {dot}\n")
    code, _, _ = run(capsys, "--format", "json", "--script", str(script2))
    assert code == 0 and dot.read_text().startswith("digraph leq1")


def test_format_dot_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "dot", "eval", "1"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_export_format_follows_the_file_name(tmp_path, capsys, fmt):
    """A FILE ending in .dot gets the DOT covering relation, any other name
    the JSON dump, whatever --format prints on stdout."""
    names = ["g.dot", "g.json.dot", "g.json", "g.dot.json", "g.DOT", "g"]
    body = "grid g eps(1) eps(0)\n" + "".join(f"export g {tmp_path / n}\n" for n in names)
    code, out, err = run(capsys, "--format", fmt, "--script", _script(tmp_path, body))
    assert code == 0, err
    session = Session()
    run_command(session, "grid g eps(1) eps(0)")
    rel = session.grids["g"]
    dot = rel.to_dot()
    dump = json.dumps(rel.to_json(), sort_keys=True, indent=1) + "\n"
    for name in names:
        want = dot if name.endswith(".dot") else dump
        assert (tmp_path / name).read_text() == want, name


def test_mhat_flags_the_grid_edge_as_boundary_suspect(anchor_rel):
    """mhat's payload says whether the frontier reaches the grid edge, as
    Leq1Relation.boundary_suspect does, on every point of the eps(3) grid."""
    session = Session()
    session.grids["g"] = anchor_rel
    grid = anchor_rel.grid
    flags = []
    for text, point in zip(grid.rendered, grid.points):
        text_out, payload = run_command(session, f"mhat g {text}")
        assert payload == {"m_hat": text_out, "boundary": anchor_rel.boundary_suspect(point)}
        flags.append(payload["boundary"])
    assert 0 < flags.count(True) < len(flags)


def test_json_format_deterministic(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "--format", "json", "tset", "1", "eps(0)", "eps(0)*2+w"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {"t_set": ["eps(0)"]}


def test_grid_names_unique(tmp_path, capsys):
    script = tmp_path / "dup.txt"
    script.write_text("grid g eps(1) eps(0)\ngrid g eps(1) eps(0)\n")
    code, _, err = run(capsys, "--script", str(script))
    assert code == 1 and "already exists" in err


def test_context_file_load(tmp_path, capsys):
    ctx = tmp_path / "ctx.json"
    ctx.write_text(json.dumps({"atoms": [{"name": "A", "level": 2}]}))
    code, out, _ = run(capsys, "--context", str(ctx), "eval", "A@2(+1)")
    assert code == 0 and out.strip() == "A@2(+1)"


def test_missing_files_are_usage_errors(tmp_path, capsys):
    for flag in ("--context", "--script"):
        code, out, err = run(capsys, flag, str(tmp_path / "absent"), "eval", "1")
        assert code == 2 and out == ""
        assert err.startswith("file error: ") and "absent" in err


@pytest.mark.parametrize("flag", ["--context", "--script", "--cache-dir", "export"])
def test_a_nul_byte_in_a_file_name_is_a_usage_error(tmp_path, capsys, flag):
    # open() takes such a name as a ValueError, not an OSError
    if flag == "export":
        argv = ["--script", _script(tmp_path, "grid g 5 1\nexport g a\x00b\n")]
    else:
        argv = [flag, "a\x00b", "grid", "g", "5", "1"]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err == "file error: NUL byte in file name 'a\\x00b'\n"


@pytest.mark.parametrize(
    "body",
    [
        '{"atoms": [{"name": "A"}]}',  # no level
        '{"atoms": [{"name": "A", "level": "three"}]}',
        '{"atoms": [["A", 2]]}',
        '[{"name": "A", "level": 2}]',
        '{"m_annotations": [["eps(0)"]]}',
        '{"m_annotations": [["eps(0", "eps(0)*2"]]}',
        "{not json",
    ],
)
def test_malformed_context_is_a_usage_error(tmp_path, capsys, body):
    ctx = tmp_path / "ctx.json"
    ctx.write_text(body)
    code, out, err = run(capsys, "--context", str(ctx), "eval", "1")
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_domain_error_in_a_context_is_exit_1(tmp_path, capsys):
    ctx = tmp_path / "ctx.json"
    ctx.write_text(json.dumps({"atoms": [{"name": "A", "level": 0}]}))
    code, out, err = run(capsys, "--context", str(ctx), "eval", "1")
    assert code == 1 and out == ""
    assert err.strip() == "error: atom level must be >= 1, got 0"


@pytest.mark.parametrize(
    "argv", [["eval", "w^(" * 200 + "1" + ")" * 200], ["canon", "1", "eps(0)", "300"]]
)
def test_deep_nesting_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.strip() == "error: term nested too deeply"


def test_canon_prints_only_what_eval_reads_back(capsys):
    # x = w_k(eps(0)) nests k + 2 sums (the text, k exponents, the eps
    # index): k = 148 is the deepest the parser reads
    code, out, err = run(capsys, "--format", "json", "canon", "1", "eps(0)", "148")
    assert code == 0 and err == ""
    payload = json.loads(out)
    for text in (payload["x"], payload["gamma"]):
        assert run(capsys, "eval", text) == (0, text + "\n", "")
    assert run(capsys, "canon", "1", "eps(0)", "149") == (1, "", "error: term nested too deeply\n")


def test_cache_dir_reuse(tmp_path, capsys):
    cache = tmp_path / "cache"
    for _ in range(2):
        code, out, _ = run(
            capsys,
            "--cache-dir",
            str(cache),
            "--script",
            _script(tmp_path, "grid g eps(1) eps(0)\nmhat g eps(0)\n"),
        )
        assert code == 0
    assert len(list(cache.iterdir())) == 1


def test_a_widened_non_epsilon_row_in_the_cache_is_recomputed(tmp_path, capsys):
    """A snapshot in which the point 1 reaches 2 is no relation the
    fixpoint computes, so a new session reads the fresh one."""
    cache = tmp_path / "cache"
    script = _script(tmp_path, "grid g eps(1) eps(0)\nmhat g 1\nleq1 g 1 2\n")
    want = (0, "grid g: 51 points, 2 rounds\n1\nfalse (grid-relative)\n", "")
    assert run(capsys, "--cache-dir", str(cache), "--script", script) == want
    [path] = cache.iterdir()
    data = json.loads(path.read_text())
    data["frontiers"][1] = 2
    path.write_text(json.dumps(data))
    assert run(capsys, "--cache-dir", str(cache), "--script", script) == want


def test_no_environment_variable_names_a_cache_dir(tmp_path, capsys, monkeypatch):
    """--cache-dir is the one way to name the cache directory."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("ORDCLASS_CACHE_DIR", str(cache))
    code, out, err = run(capsys, "--script", _script(tmp_path, "grid g eps(1) eps(0)\n"))
    assert (code, out, err) == (0, "grid g: 51 points, 2 rounds\n", "")
    assert list(cache.iterdir()) == []


def _script(tmp_path, body):
    p = tmp_path / "cached.txt"
    p.write_text(body)
    return str(p)


def test_round_trip_of_printed_terms(capsys):
    for text in ["w^w*2+w+1", "eps(0)*2+1", "w^(eps(1)+1)*3+w"]:
        code, out, _ = run(capsys, "eval", text)
        assert code == 0
        printed = out.strip()
        assert parse_ord(printed) == parse_ord(text)


_LINE_CHARS = list("abc019()+*^@,_w-") + [" ", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " "]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from(_LINE_CHARS), max_size=40))
def test_plain_lines_split_like_shlex(line):
    if _plain(line):
        assert line.split() == shlex.split(line, comments=True)
    assert _split(line) == shlex.split(line, comments=True)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(_LINE_CHARS + list("'\"\\#")), max_size=40))
def test_split_matches_shlex(line):
    try:
        want = shlex.split(line, comments=True)
    except ValueError:  # an unclosed quote or a trailing escape
        with pytest.raises(ValueError):
            _split(line)
        return
    assert _split(line) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["declare", "A"],
        ["declare", "A", "x"],
        ["declare", "A", "3", "4"],
        ["eval"],
        ["grid", "g"],
        ["tset", "1.5", "eps(0)", "eps(0)*2"],
        ["canon", "1", "eps(0)"],
        ["classdetect", "g", "one"],
        ["export", "g"],
        ["leq1", "g", "0"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and argv[0] in err
    assert "Traceback" not in err


def test_optional_and_repeated_arguments(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text(
        "grid g eps(3) eps(0) eps(1) eps(2)\n"
        "grid h eps(1)\n"
        "eta 1 eps(0) eps(0)*2+1 g\n"
        "eta 1 eps(0) eps(0)*2+1\n"
        "canon 1 eps(0) 2 g\n"
    )
    code, out, err = run(capsys, "--script", str(script))
    assert code == 0, err
    assert out.splitlines()[0] == "grid g: 243 points, 2 rounds"
    code, _, err = run(capsys, "eta", "1", "eps(0)", "eps(0)*2+1", "g", "extra")
    assert code == 2 and "usage: eta K ALPHA T [GRID]" in err


def test_usage_error_names_the_signature(capsys):
    _, _, err = run(capsys, "declare", "A")
    assert err.strip() == "parse error: usage: declare NAME LEVEL"
    _, _, err = run(capsys, "declare", "A", "x")
    assert err.strip() == "parse error: declare: LEVEL must be an integer, not 'x'"


def test_every_verb_has_a_signature():
    from ordclass.cli import _SIGNATURES, _VERBS

    assert set(_SIGNATURES) == set(_VERBS)


def test_help_lists_every_verb_with_its_arguments(capsys):
    from ordclass.cli import _SIGNATURES, _VERBS

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for verb in _VERBS:
        assert f"  {verb} {_SIGNATURES[verb]}" in lines, verb


def test_readme_verb_table_matches_the_signatures():
    from ordclass.cli import _SIGNATURES

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for verbs, args in re.findall(r"^\| (`[a-z0-9]+`(?:, `[a-z0-9]+`)*) \| `([^`]*)` \|", readme, re.M):
        for verb in re.findall(r"`([a-z0-9]+)`", verbs):
            table[verb] = args
    assert table == _SIGNATURES


def test_unclosed_quote_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "--script", _script(tmp_path, 'eval "w\n'))
    assert code == 2 and out == ""
    assert err.strip() == """parse error: No closing quotation in 'eval "w'"""
    # from the command line the quote is part of the word, which the grammar refuses
    code, out, err = run(capsys, "eval", '"w')
    assert code == 2 and out == ""
    assert err.strip() == """parse error: unexpected character '"' (at position 0)"""


def test_readme_example_session_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    """Each `$ ordclass ...` line of the README's example session prints the
    lines under it; a `$ cat FILE` line shows a file the session reads."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^Example session:\n\n```\n(.*?)^```", readme, re.M | re.S)[1]
    steps = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block, re.M)
    assert [argv.split()[0] for argv, _ in steps].count("ordclass") >= 3
    monkeypatch.chdir(tmp_path)
    for command, shown in steps:
        program, *argv = shlex.split(command)
        if program == "cat":
            (tmp_path / argv[0]).write_text(shown)
        else:
            assert program == "ordclass", command
            assert run(capsys, *argv) == (0, shown, ""), command


def test_argv_words_are_arguments_as_they_are(tmp_path, monkeypatch, capsys):
    """Whitespace, quotes and # inside one command-line word are part of
    that argument; nothing joins the words into a line to split again."""
    assert run(capsys, "declare", "A", "1 ") == (
        2, "", "parse error: declare: LEVEL must be an integer, not '1 '\n"
    )
    assert run(capsys, "eval", "w+1 #x") == (
        2, "", "parse error: unexpected character '#' (at position 4)\n"
    )
    assert run(capsys, "#", "eval", "w") == (1, "", "error: unknown verb '#'\n")
    monkeypatch.chdir(tmp_path)
    script = _script(tmp_path, "grid g eps(1) eps(0)\n")
    assert run(capsys, "--script", script, "export", "g", "a b.json") == (
        0, "grid g: 51 points, 2 rounds\nwrote a b.json\n", ""
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a b.json", "cached.txt"]


_ARGV_WORDS = (
    list(_SIGNATURES)
    + ["--context", "--script", "--format", "--cache-dir", "--grid-cap", "--help", "-h"]
    + ["text", "json", "dot", "g", "h", "A", "B", "0", "1", "2", "3", "-1", "x"]
    + ["eps(0)", "eps(1)", "eps(0)*2", "eps(0)*2+1", "w^(eps(0)+1)", "A@1", "A@2", "A@1(+1)"]
    + ["cp(2,1,A@2)", "w^", "(", ")", "'", '"', "\\", "#", "g.json", "g.dot", "nowhere/x.json"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_ARGV_WORDS) | st.text(max_size=6), max_size=7))
def test_random_argv_exits_0_1_or_2(argv):
    """No argv ends in a traceback.  argparse itself ends --help and a bad
    option with SystemExit 0 or 2; everything else returns its code."""
    sink = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # files the argv names are written here
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)


@pytest.mark.parametrize("verb", ["gset", "astep"])
@pytest.mark.parametrize("n", ["1", "0"])
def test_g_membership_below_level_2_is_a_domain_error(tmp_path, capsys, verb, n):
    # the second grid has no epsilon point, so no row is ever queried
    for grid, size in [("grid g eps(1) eps(0)", 51), ("grid g 5 1", 3)]:
        script = _script(tmp_path, f"{grid}\n{verb} {n} eps(0) eps(0)*2 g\n")
        code, out, err = run(capsys, "--script", script)
        assert code == 1 and out == f"grid g: {size} points, 2 rounds\n"
        assert err.strip() == "error: G-membership needs n >= 2"


def test_gset_computes_T_below_alpha_and_eta_once(monkeypatch):
    # neither depends on beta, and both points read them
    calls = {"_t_below": 0, "eta_compute": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(hierarchy, name, counting(name, getattr(hierarchy, name)))
    session = Session()
    run_command(session, "grid g eps(2) eps(0) eps(1)")
    text, payload = run_command(session, "gset 2 eps(1) eps(1)*2 g")
    assert [row["beta"] for row in payload["queries"]] == ["eps(0)", "eps(1)"]
    assert calls == {"_t_below": 1, "eta_compute": 1}
    assert text == "{" + ", ".join(payload["members"]) + "}"


def test_gset_decides_T_below_alpha_only_under_a_beta_not_above_it(tmp_path, capsys):
    # every epsilon of the grid lies above eps(1), so the level-2 T-set that
    # a grid cannot decide is never asked for; at eps(2) it is
    script = _script(
        tmp_path,
        "grid g eps(5) eps(2) eps(3)\ngset 3 eps(1) eps(1)+1 g\ngset 3 eps(2) eps(2)+1 g\n",
    )
    code, out, err = run(capsys, "--script", script)
    assert code == 1 and out.splitlines()[1:] == ["{}"]
    assert err.strip() == "error: grids decide level-1 intervals only, got level 2"


def test_grid_epsilons_are_found_once_per_grid(monkeypatch):
    """gset, astep and classdetect read the grid's epsilon points from
    Grid.epsilons: once it is filled, no command tests a point again."""
    session = Session()
    run_command(session, "grid g eps(2) eps(0) eps(1)")
    commands = ("gset 2 eps(1) eps(1)*2 g", "astep 2 eps(1) eps(1)*2 g", "classdetect g 1")
    first = [run_command(session, command) for command in commands]
    calls = []

    def counted(t):
        calls.append(t)
        return is_epsilon(t)

    is_epsilon = tm.is_epsilon
    monkeypatch.setattr(tm, "is_epsilon", counted)
    assert [run_command(session, command) for command in commands] == first
    assert calls == []
    grid = session.grids["g"].grid
    assert [grid.rendered[i] for i in grid.epsilons] == ["eps(0)", "eps(1)"]


def test_a_grid_argument_leaves_the_context_alone():
    """canon with a grid reads the grid's m-hat and annotates nothing, so a
    structural eta after it still finds no m-value, as in a fresh session."""
    command = "eta 1 eps(0) w^(w^(eps(0)+1))"
    session = Session()
    run_command(session, "grid g eps(1) eps(0)")
    text, _ = run_command(session, "canon 1 eps(0) 2 g")
    assert text == "x = w^(w^(eps(0)+1)), gamma = w^(w^(eps(0)+1))"
    assert session.context.m_table == {}
    for fresh in (session, Session()):
        with pytest.raises(MissingMValue):
            run_command(fresh, command)
    assert run_command(session, command + " g")[0] == "w^(w^(eps(0)+1))"


def test_a_product_too_long_to_print_is_a_domain_error(capsys):
    nines = "9" * 4000
    code, out, err = run(capsys, "eval", f"{nines}*{nines}")
    assert code == 1 and out == ""
    assert err.strip() == "error: number too long to print"
    code, out, _ = run(capsys, "eval", nines)
    assert code == 0 and out == nines + "\n"


@pytest.mark.parametrize("cached", [False, True])
def test_a_grid_point_too_long_to_print_is_a_domain_error(tmp_path, capsys, cached):
    """grid renders every point, with or without a cache directory."""
    nines = "9" * 4000
    cache = ["--cache-dir", str(tmp_path / "cache")] if cached else []
    code, out, err = run(capsys, *cache, "grid", "g", "eps(0)", f"w^({nines}*{nines})")
    assert code == 1 and out == ""
    assert err.strip() == "error: number too long to print"


@pytest.mark.parametrize(
    "command, code, message",
    [
        # a level violation inside an expression is a parse error, as with eps(0)(+2)
        (
            "eval eps({n})(+2)",
            2,
            "parse error: cannot apply (+^2) to a level-1 leaf eps(<26576-bit number>)"
            " (at position 8008)",
        ),
        ("eta 2 eps({n}) eps(0)", 1, "error: eps(<26576-bit number>) has level 1 < 2"),
    ],
)
def test_an_error_names_a_natural_too_long_to_print_by_its_size(capsys, command, code, message):
    nines = "9" * 4000
    got, out, err = run(capsys, *command.format(n=f"{nines}*{nines}").split())
    assert got == code and out == ""
    assert err.strip() == message and "Traceback" not in err


def _outcome(session, command):
    try:
        return run_command(session, command)
    except OrdinalError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "grid_command",
    [
        "grid g eps(1) eps(0)",
        "grid g eps(2) eps(0) eps(1)",
        "grid g eps(3) eps(0) eps(1) eps(2)",
        "grid g eps(1) eps(0)+1",  # a non-principal seed; eps(0) is no point
    ],
)
def test_grid_queries_answer_the_same_by_text_and_by_parse(monkeypatch, grid_command):
    """Point arguments in their canonical text are read from Grid.by_text
    without a parse; a spelling that misses the table (0+text) is parsed.
    Every leq1, mhat, eta and ell on every point answers the same either way."""
    parses = []

    def counted(text, atoms=None):
        parses.append(text)
        return parse_ord(text, atoms)

    monkeypatch.setattr(cli, "parse_ord", counted)
    session = Session()
    run_command(session, grid_command)
    grid = session.grids["g"].grid
    texts = grid.rendered
    for text, point in zip(texts, grid.points):
        assert cli._term(session, text) is point
    alphas = {"eps(0)"} | {t for t, p in zip(texts, grid.points) if tm.is_epsilon(p)}

    def both(template, *args):
        parses.clear()
        by_text = _outcome(session, template.format(*args))
        assert parses == [a for a in args if a not in grid.by_text]
        parses.clear()
        by_parse = _outcome(session, template.format(*("0+" + a for a in args)))
        assert len(parses) == len(args)
        assert by_text == by_parse
        return by_text

    for i, text in enumerate(texts):
        m_hat, _ = both("mhat g {}", text)
        assert both("leq1 g {} {}", text, m_hat)[1]["leq1"] is True
        both("leq1 g {} {}", text, texts[i - 1])
        for alpha in sorted(alphas):
            both("eta 1 {} {} g", alpha, text)
            both("ell 1 {} {} g", alpha, text)


@pytest.fixture(scope="module")
def query_session(anchor_rel):
    """The eps(1) and eps(3) anchor grids and a grid with a non-principal
    seed, in one session with a declared atom."""
    session = Session()
    for command in ("declare A 2", "grid g1 eps(1) eps(0)", "grid gn eps(1) eps(0)+1"):
        run_command(session, command)
    session.grids["g3"] = anchor_rel
    return session


_QUERY_GRIDS = ("g1", "g3", "gn")
_NON_POINTS = ["eps(3)", "eps(0)*2+w*7", "w^w^w", "eps(0)*3", "A@2", "B@1", "eps(0)+3"]
_UNPARSEABLE = ["eps(", "w+", ")", "1.5", "eps(0)**2", "w^", "A@", "eps(-1)"]
_ARG_KINDS = ("canonical", "0+", "other grid", "non-point", "unparseable")


def _point_word(session, own, kind, k):
    """The k-th word (mod the pool's size) of a kind of point argument to a
    query on grid own."""
    texts = session.grids[own].grid.rendered
    pool = {
        "canonical": texts,
        "0+": ["0+" + text for text in texts],
        "other grid": [t for g in _QUERY_GRIDS if g != own for t in session.grids[g].grid.rendered],
        "non-point": _NON_POINTS,
        "unparseable": _UNPARSEABLE,
    }[kind]
    return pool[k % len(pool)]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    st.sampled_from(["leq1", "mhat"]),
    st.sampled_from([*_QUERY_GRIDS, "zz"]),  # zz is no grid
    st.lists(st.tuples(st.sampled_from(_ARG_KINDS), st.integers(0, 10**4)), min_size=2, max_size=2),
)
def test_grid_queries_answer_as_the_reference_does(query_session, verb, name, args):
    """leq1 and mhat read each point argument to its rank in their own grid
    and fall back to the parse for any other spelling; every answer, error
    type and message is the one the term path (tests/cli_reference.py)
    gives, whatever the mix of canonical texts, 0+ spellings, other grids'
    points, non-points, unparseable texts and unknown grids."""
    own = name if name in _QUERY_GRIDS else "g1"
    words = [_point_word(query_session, own, kind, k) for kind, k in args]
    command = " ".join([verb, name, *words[: 2 if verb == "leq1" else 1]])
    got = _outcome(query_session, command)
    try:
        want = cli_reference.run_grid_query(query_session, command)
    except OrdinalError as exc:
        want = type(exc), str(exc)
    assert got == want, command


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_answers_do_not_depend_on_query_history(anchor_rel):
    """The benchmark's seed-21 eta/ell/gset/astep lines answer the same in
    script order and shuffled, each session with its own window table."""
    script = _perfbench_workloads().oracle_warm(21)
    assert script[0] == "grid g eps(3) eps(0) eps(1) eps(2)"
    lines = [line for line in script if line.split()[0] in ("eta", "ell", "gset", "astep")]
    shuffled = list(lines)
    random.Random(5).shuffle(shuffled)
    answers = []
    for order in (lines, shuffled):
        session = Session()
        session.grids["g"] = Leq1Relation(anchor_rel.grid, anchor_rel.frontiers, anchor_rel.rounds)
        answers.append({line: _outcome(session, line) for line in order})
    assert answers[0] == answers[1]
    assert len(answers[0]) == len(set(lines)) > 400


def test_symbolic_l3_answers_do_not_depend_on_query_history():
    """The benchmark's seed-21 symbolic-l3 query lines answer the same in
    script order and shuffled, each run after the same declare/canon lines."""
    script = _perfbench_workloads().symbolic_l3(21)
    lines = [line for line in script if line.split()[0] not in ("declare", "canon")]
    setup = script[: len(script) - len(lines)]
    assert setup + lines == script
    shuffled = list(lines)
    random.Random(5).shuffle(shuffled)
    answers = []
    for order in (lines, shuffled):
        session = Session()
        for line in setup:
            run_command(session, line)
        answers.append({line: _outcome(session, line) for line in order})
    assert answers[0] == answers[1]
    assert len(answers[0]) > 500


def test_two_grids_keep_their_own_windows(monkeypatch):
    """Two grids queried with the same alpha keep their own window entries,
    and each answers as the reference does on it; eps(0) is a point of g
    but not of h, and the queries alternate between the grids.  A window's
    table is built once, and once it is, a grid point t is answered from
    ranks alone, with no term comparison."""
    session = Session()
    run_command(session, "grid g eps(2) eps(0) eps(1)")
    run_command(session, "grid h eps(1) eps(0)+1")
    g, h = session.grids["g"], session.grids["h"]
    e0 = tm.ConcreteEps(tm.nat(0))
    for t in h.grid.rendered[::3] + g.grid.rendered[::7]:
        t_term = parse_ord(t)
        for name, rel in (("g", g), ("h", h), ("g", g)):
            for verb, reference in (("eta", reference_eta), ("ell", reference_ell)):
                try:
                    text = render_ord(reference(1, e0, t_term, rel))
                    want = text, {"value": text}
                except OrdinalError as exc:
                    want = type(exc), str(exc)
                assert _outcome(session, f"{verb} 1 eps(0) {t} {name}") == want
    assert g.windows[(e0, 1)] != h.windows[(e0, 1)]
    first = g.windows[(e0, 1)][1][4]
    calls = []
    compare = tm.compare
    monkeypatch.setattr(tm, "compare", lambda a, b: calls.append((a, b)) or compare(a, b))
    for t in g.grid.rendered:
        for verb in ("eta", "ell"):
            _outcome(session, f"{verb} 1 eps(0) {t} g")
    assert calls == [] and g.windows[(e0, 1)][1][4] is first


@pytest.mark.parametrize(
    "seed, code, message",
    [
        ("w^(", 2, "parse error: unexpected token '' (at position 3)"),
        ("(" * 200 + "1" + ")" * 200, 1, "error: term nested too deeply"),
    ],
)
def test_grid_reads_its_seeds_before_the_name_clash(tmp_path, capsys, seed, code, message):
    """Every argument is read before the handler runs, so a seed that cannot
    be read wins over an existing grid name."""
    script = _script(tmp_path, f"grid g eps(1) eps(0)\ngrid g eps(1) {seed}\n")
    got, out, err = run(capsys, "--script", script)
    assert got == code and out == "grid g: 51 points, 2 rounds\n"
    assert err.strip() == message


_GRID_G = Session()
run_command(_GRID_G, "grid g eps(1) eps(0)")
# the points of g in their canonical text, read from the grid, and spellings
# of the same points that are parsed
_POINT = st.sampled_from(
    [text for canonical in _GRID_G.grids["g"].grid.rendered for text in (canonical, "0+" + canonical)]
)
_ATOMS = ["eps(0)", "eps(1)", "eps(2)", "A@1", "A@2", "B@1", "A@1(+1)", "cp(2,1,A@2)"]
_MONOMIAL = st.sampled_from(_ATOMS + ["1", "w"]).flatmap(
    lambda a: st.sampled_from([a, f"{a}*2", f"w^({a}+1)"])
)
_TERM = st.lists(_MONOMIAL, min_size=1, max_size=2).map("+".join)
_INT = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
_KINDS = {
    **dict.fromkeys(["LEVEL", "N", "K", "J", "I"], _INT),
    **dict.fromkeys(["ALPHA", "E", "C"], st.sampled_from(_ATOMS) | _POINT),
    **dict.fromkeys(["EXPR", "T", "A", "B", "L", "BOUND", "SEED"], _TERM | _POINT),
    "GRID": st.sampled_from(["g", "g", "h", "zz"]),  # only g exists
    "NAME": st.sampled_from(["A", "C", "g"]),
}


@st.composite
def _commands(draw, kinds=_KINDS, verbs=tuple(sorted(set(_SIGNATURES) - {"grid", "export"}))):
    verb = draw(st.sampled_from(verbs))
    words = [verb]
    for name in _SIGNATURES[verb].split():
        if name.endswith("...]"):
            words += draw(st.lists(kinds[name.strip("[.]")], max_size=3))
        elif not name.startswith("[") or draw(st.booleans()):
            words.append(draw(kinds[name.strip("[.]")]))
    return " ".join(words)


@settings(max_examples=700, deadline=None)
@given(_commands())
def test_random_commands_return_or_raise_domain_errors(command):
    """Commands of well-formed shape reach the symbolic and grid layers; any
    failure there is an OrdinalError, which main turns into exit 1 or 2."""
    session = Session()
    run_command(session, "declare A 2")
    run_command(session, "declare B 1")
    session.grids["g"] = _GRID_G.grids["g"]
    try:
        run_command(session, command)
    except OrdinalError:
        pass


# Integer spellings that int() reads and the grammar's number does not: an
# underscore, a leading +, and whitespace around the digits (a quoted word,
# or one with whitespace that shlex does not split on)
_INT_ONLY = ["1_0", "+2", "'1 '", "\xa02", "\x0c3"]
_DISPATCH_KINDS = {
    **_KINDS,
    **dict.fromkeys(
        ["LEVEL", "N", "K", "J", "I"],
        st.sampled_from(["-1", "0", "1", "2", "x", "1.5", "-", "--1", "-0", "007", "\u0663", "9" * 5000]
                        + _INT_ONLY),
    ),
    "NAME": st.sampled_from(["A", "C", "g", "h", "'h i'"]),
}


@st.composite
def _miscounted(draw):
    """A command with its last word dropped, or one word too many."""
    words = draw(_commands(_DISPATCH_KINDS)).split(" ")
    return " ".join(words[:-1] if draw(st.booleans()) else [*words, "1"])


def _dispatched(run, command):
    """run's (text, payload) for command in a fresh session, or the type
    and message of its error, and what the session holds afterwards."""
    session = Session(grid_cap=60)
    run_command(session, "declare A 2")
    run_command(session, "declare B 1")
    session.grids["g"] = _GRID_G.grids["g"]
    try:
        answer = run(session, command)
    except (OrdinalError, RecursionError) as exc:
        answer = type(exc), str(exc)
    return answer, session.context.to_json(), sorted(session.grids)


def _int_only(word):
    try:
        int(word)
    except ValueError:
        return False
    return not word.removeprefix("-").isdecimal()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    _commands()
    | _commands(_DISPATCH_KINDS)
    | _miscounted()
    | _commands(_DISPATCH_KINDS, verbs=("grid",))
)
def test_commands_are_dispatched_as_the_reference_does(command):
    """The same answer, error and session state as the previous dispatch
    (tests/cli_reference.py), except that an integer spelled as only int()
    reads it is a usage error."""
    got = _dispatched(run_command, command)
    want = _dispatched(cli_reference.run_command, command)
    if got != want:
        kind, message = got[0]
        assert kind is ParseError
        word = re.fullmatch(r"[a-z0-9]+: [A-Z]+ must be an integer, not (.*)", message, re.S)[1]
        assert _int_only(ast.literal_eval(word))


@pytest.mark.parametrize(
    "command, answer",
    [
        ("declare C 1_0", "declared C@10"),
        ("declare C +2", "declared C@2"),
        ("declare C '1 '", "declared C@1"),
        ("declare C \xa02", "declared C@2"),
        ("declare C \x0c3", "declared C@3"),
        ("gmap +1 eps(0) eps(1)", '{"overrides": [["eps(0)", "eps(1)"]], "rule": "identity-below", "threshold": "eps(0)"}'),
    ],
)
def test_an_integer_is_what_the_grammar_reads_as_a_number(tmp_path, capsys, command, answer):
    """The previous dispatch read any spelling int() takes; an integer
    argument is now an optional - and decimal digits, as a number inside an
    expression is."""
    assert cli_reference.run_command(Session(), command)[0] == answer
    verb, *args = shlex.split(command)
    name, word = ("LEVEL", args[1]) if verb == "declare" else ("N", args[0])
    code, out, err = run(capsys, "--script", _script(tmp_path, command + "\n"))
    assert code == 2 and out == ""
    assert err == f"parse error: {verb}: {name} must be an integer, not {word!r}\n"


def test_a_negative_integer_is_a_domain_error(capsys):
    code, out, err = run(capsys, "declare", "C", "-1")
    assert code == 1 and err.strip() == "error: atom level must be >= 1, got -1"
    assert run(capsys, "declare", "C", "\u0663")[:2] == (0, "declared C@3\n")


def _shell_words(line):
    """The words of a drawn line, or None if a dropped word left a quote
    unclosed."""
    try:
        return shlex.split(line)
    except ValueError:
        return None


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_SESSION_SETUP = "declare A 2\ndeclare B 1\ngrid g eps(1) eps(0)\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(
        _commands(),
        _commands(_DISPATCH_KINDS),
        _miscounted(),
        _commands(_DISPATCH_KINDS, verbs=("grid",)),
    ).map(_shell_words).filter(lambda words: words is not None)
)
def test_argv_and_a_script_line_agree(words):
    """The words of a command given on the command line (after --, so that a
    word such as --1 is no option) and the same words as one script line,
    quoted by shlex.join: the same stdout, stderr and exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        setup, line = Path(tmp, "setup.txt"), Path(tmp, "line.txt")
        setup.write_text(_SESSION_SETUP)
        line.write_text(_SESSION_SETUP + shlex.join(words) + "\n")
        options = ["--grid-cap", "60", "--script"]
        by_argv = _main_output([*options, str(setup), "--", *words])
        by_line = _main_output([*options, str(line)])
    assert by_argv == by_line


def test_every_character_splits_as_under_shlex():
    """Each character below U+0100, each whitespace character and each of
    the shell's quote, escape and comment characters, inside a line."""
    chars = [c for c in map(chr, range(sys.maxunicode + 1)) if c < "\u0100" or c.isspace()]
    for c in chars:
        line = "a" + c + "b c"
        try:
            want = shlex.split(line, comments=True)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _split(line)
            continue
        assert _split(line) == want, repr(c)


def test_symbolic_answers_do_not_depend_on_query_history():
    session = Session()
    run_command(session, "declare A 3")
    command = "eta 2 A@3 A@3(+1)(+1)+1"
    first = run_command(session, command)
    assert first[0] == "A@3(+1)(+1)+1"
    run_command(session, "tset 1 A@3(+1)(+1) A@3(+1)(+1)")
    assert run_command(session, command) == first  # A@3(+1)(+1)*2 today


def test_a_failed_command_writes_nothing_to_the_context():
    """canon 1 eps(0) 149 annotates its point, then fails to print it: the
    annotation is taken back.  k = 148 prints, and keeps its annotation."""
    session = Session()
    for command in ("declare A 3", "canon 2 A@3 2"):
        run_command(session, command)
    ctx = session.context
    before = list(ctx.m_table.items()), list(ctx.known_leaves)
    answers = _structural_answers(ctx)  # and the sorted views are built
    with pytest.raises(OrdinalError, match="term nested too deeply"):
        run_command(session, "canon 1 eps(0) 149")
    assert (list(ctx.m_table.items()), list(ctx.known_leaves)) == before
    assert _structural_answers(ctx) == answers
    ctx.to_json()  # an annotation of the unprintable point would raise here
    run_command(session, "canon 1 eps(0) 148")
    assert len(ctx.m_table) == len(before[0]) + 1


def _answer(fn, *args):
    """fn's answer, or the type of the error it raised."""
    try:
        return fn(*args)
    except OrdinalError as exc:
        return type(exc)


# each command: ("declare", _, LEVEL, _) or ("canon", a known leaf, I, K),
# the leaf and I read modulo what the context has
_build_st = st.lists(
    st.tuples(st.sampled_from(["declare", "canon", "canon"]), st.integers(0, 99),
              st.integers(1, 4), st.integers(1, 3)),
    min_size=6, max_size=14,
)


def _built_session(steps):
    """A session after declare and canon commands; at most four atoms, and
    a failed canon is skipped."""
    session = Session()
    for kind, r, level, k in steps:
        ctx = session.context
        if kind == "declare" or not ctx.atoms:
            if len(ctx.atoms) < 4:
                run_command(session, f"declare {'ABCD'[len(ctx.atoms)]} {level}")
            continue
        e = list(ctx.known_leaves)[r % len(ctx.known_leaves)]
        _answer(run_command, session, f"canon {1 + level % tm.leaf_level(e)} {render_leaf(e)} {k}")
    return session


def _structural_answers(ctx):
    """T, eta and ell at every known leaf alpha, every level n >= 2 up to
    alpha's, and every m-value t."""
    return [
        _answer(fn, ctx, n, alpha, t)
        for alpha in ctx.known_leaves
        for n in range(2, tm.leaf_level(alpha) + 1)
        for t in dict.fromkeys(ctx.m_table.values())
        for fn in (T_set, eta_compute, l_compute)
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_build_st)
@example([  # the tset at B@2's gamma raises OrderUndecidable on both
    ("declare", 0, 3, 0), ("declare", 0, 2, 0), ("declare", 0, 4, 0),
    ("canon", 2, 2, 2), ("canon", 2, 1, 3), ("canon", 0, 2, 3), ("canon", 0, 1, 3),
    ("canon", 1, 1, 3),
])
def test_a_context_file_answers_as_the_session_that_wrote_it(steps):
    """Contexts built by declare and canon (a declare may follow a canon),
    written by to_json and read back as --context reads a file: the same
    facts in the same order, and the same answers or errors."""
    ctx = _built_session(steps).context
    back = ClassContext.from_json(json.loads(json.dumps(ctx.to_json())))
    assert list(back.known_leaves) == list(ctx.known_leaves)
    assert list(back.m_table.items()) == list(ctx.m_table.items())
    assert _structural_answers(back) == _structural_answers(ctx)


@pytest.mark.parametrize(
    "leaves",
    ['5', '"A@2"', '["w+1"]', '["B@2"]', '[["A@2"]]', '[null]', '["A@2(+3)"]', '["eps(0"]'],
)
def test_malformed_known_leaves_are_a_usage_error(tmp_path, capsys, leaves):
    ctx = tmp_path / "ctx.json"
    ctx.write_text(f'{{"atoms": [{{"name": "A", "level": 2}}], "known_leaves": {leaves}}}')
    code, out, err = run(capsys, "--context", str(ctx), "eval", "1")
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_a_context_file_without_known_leaves_has_its_atoms_alone(tmp_path):
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps({
        "atoms": [{"name": "A", "level": 2}, {"name": "B", "level": 1}],
        "m_annotations": [["A@2(+1)", "A@2(+1)*2"]],
    }))
    ctx = ClassContext.load(path)
    assert list(ctx.known_leaves) == [ctx.atom("A"), ctx.atom("B")]
    written = ctx.to_json()
    assert written["known_leaves"] == ["A@2", "B@1"]
    assert written["m_annotations"] == [["A@2(+1)", "A@2(+1)*2"]]
