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
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracle_reference import reference_ell, reference_eta
from ordclass import cli, hierarchy, terms as tm
from ordclass.cli import _SHELL_SYNTAX, _SIGNATURES, Session, _split, main, run_command
from ordclass.errors import MissingMValue, OrdinalError
from ordclass.grammar import parse_ord, render_ord
from ordclass.oracle import Leq1Relation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_starting_the_cli_loads_no_dataclasses_machinery():
    # `dataclasses` imports inspect, ast, dis and tokenize, and each of its
    # decorators compiles generated source at import: together they would be
    # most of the time to import the CLI
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import ordclass.cli as cli; cli.Session(); "
        "mods = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize'); "
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
    if _SHELL_SYNTAX.search(line) is None:
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


def test_unclosed_quote_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval", '"w')
    assert code == 2 and out == ""
    assert err.strip() == """parse error: No closing quotation in 'eval "w'"""


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
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("ORDCLASS_CACHE_DIR", None)
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


def test_two_grids_keep_their_own_windows():
    """Two grids queried with the same alpha keep their own window entries,
    and each answers as the reference does on it; eps(0) is a point of g
    but not of h, and the queries alternate between the grids."""
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
def _commands(draw):
    verb = draw(st.sampled_from(sorted(set(_SIGNATURES) - {"grid", "export"})))
    words = [verb]
    for name in _SIGNATURES[verb].split():
        if not name.startswith("[") or draw(st.booleans()):
            words.append(draw(_KINDS[name.strip("[.]")]))
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


def test_symbolic_answers_do_not_depend_on_query_history():
    session = Session()
    run_command(session, "declare A 3")
    command = "eta 2 A@3 A@3(+1)(+1)+1"
    first = run_command(session, command)
    assert first[0] == "A@3(+1)(+1)+1"
    run_command(session, "tset 1 A@3(+1)(+1) A@3(+1)(+1)")
    assert run_command(session, command) == first  # A@3(+1)(+1)*2 today
