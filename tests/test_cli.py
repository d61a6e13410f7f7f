import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrarr.arrangement import Arrangement, random_generic, save_arrangement
from discrarr.cli import main
from discrarr.linalg import PrimeField
from discrarr.svg import concurrent_point_count, render_svg
from discrarr.varieties import audit_arrangement
from .conftest import crapo_arrangement


@pytest.fixture
def crapo_files(tmp_path):
    p1 = tmp_path / "crapo_lm1.json"
    p3 = tmp_path / "crapo_l3.json"
    save_arrangement(crapo_arrangement(-1), str(p1))
    save_arrangement(crapo_arrangement(3), str(p3))
    return str(p1), str(p3)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_doc(stdout):
    for line in stdout.splitlines():
        if line.startswith("JSON: "):
            return json.loads(line[len("JSON: "):])
    raise AssertionError("no JSON line in output")


def test_rank_command(capsys, crapo_files):
    p1, _ = crapo_files
    code, out, _ = run(capsys, "rank", "--input", p1,
                       "--family", "123,156,246,345")
    assert code == 0
    assert "rank 3" in out
    assert json_doc(out)["rank"] == 3


def test_membership_negative_exit(capsys, crapo_files):
    _, p3 = crapo_files
    code, out, _ = run(capsys, "membership", "--input", p3,
                       "--family", "W6", "--r", "3")
    assert code == 1
    assert "false" in out and "certificate 4" in out
    doc = json_doc(out)
    assert doc["member"] is False and doc["rank"] == 4


def test_membership_positive(capsys, crapo_files):
    p1, _ = crapo_files
    code, out, _ = run(capsys, "membership", "--input", p1, "--family", "W6")
    assert code == 0
    assert json_doc(out)["r"] == 3


def test_degenerate_command(capsys):
    code, out, _ = run(capsys, "degenerate", "--family", "123,147,156,246,357",
                       "--from", "7", "--to", "4")
    assert code == 0
    assert "123,156,246,345" in out and "gamma=1" in out


def test_circuits_command(capsys, crapo_files):
    p1, _ = crapo_files
    code, out, _ = run(capsys, "circuits", "--input", p1)
    assert code == 0
    assert json_doc(out)["circuits"] == [sorted(c) for c in
                                         sorted(json_doc(out)["circuits"])]
    assert len(json_doc(out)["circuits"]) == 20


def test_bba_exit_codes(capsys):
    code, _, _ = run(capsys, "bba", "--family", "W6", "--n", "6")
    assert code == 1
    code, _, _ = run(capsys, "bba", "--family", "123,456", "--n", "6")
    assert code == 0


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "normals": [["1", "0"],')
    code, _, err = run(capsys, "rank", "--input", str(bad), "--family", "W6")
    assert code == 2
    assert "byte offset" in err


def test_truncated_family_exit_code(capsys, crapo_files):
    p1, _ = crapo_files
    code, out, err = run(capsys, "rank", "--input", p1, "--family", "[1 2 3],[4 5")
    assert code == 2
    assert "outside bracketed groups" in err and "JSON:" not in out


def test_missing_input_exit_code(capsys):
    code, _, err = run(capsys, "rank", "--family", "W6")
    assert code == 2


def test_zero_denominator_exit_code(capsys, tmp_path):
    bad = tmp_path / "zero.json"
    bad.write_text('{"k": 2, "normals": [["1", "0"], ["1/0", "1"], ["1", "1"]]}')
    code, out, err = run(capsys, "circuits", "--input", str(bad))
    assert code == 2
    assert str(bad) in err and "JSON:" not in out


def test_denominator_vanishing_in_field_exit_code(capsys, tmp_path):
    bad = tmp_path / "seven.json"
    bad.write_text('{"k": 2, "normals": [["1", "0"], ["1/7", "1"], ["1", "1"]]}')
    code, out, err = run(capsys, "circuits", "--input", str(bad),
                         "--field", "Fp:7")
    assert code == 2
    assert str(bad) in err and "Fp:7" in err and "JSON:" not in out


def test_sample_roundtrip_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    code, text1, _ = run(capsys, "sample", "--n", "6", "--k", "2", "--seed", "9",
                         "--output", str(out1))
    assert code == 0
    code, text2, _ = run(capsys, "sample", "--n", "6", "--k", "2", "--seed", "9",
                         "--output", str(out2))
    assert text1.replace(str(out1), "X") == text2.replace(str(out2), "X")
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("name", ("Wxyz", "Lfoo", ""))
def test_sample_unknown_family_exit_code(capsys, name):
    code, out, err = run(capsys, "sample", f"--family={name}")
    assert code == 2
    assert "unknown family" in err and "JSON:" not in out


@pytest.mark.parametrize("argv", (("--family", "W6", "--height", "-3"),
                                  ("--family", "W6", "--height", "0"),
                                  ("--n", "6", "--height", "0")))
def test_sample_rejects_height_below_one(capsys, argv):
    # the on-variety sampler refuses a height below 1 as the generic one does
    code, out, err = run(capsys, "sample", *argv)
    assert code == 2
    assert "height must be at least 1" in err and "JSON:" not in out


def test_sample_on_variety(capsys, tmp_path):
    path = tmp_path / "w6.json"
    code, out, _ = run(capsys, "sample", "--family", "W6", "--seed", "7",
                       "--output", str(path))
    assert code == 0
    code, out, _ = run(capsys, "membership", "--input", str(path),
                       "--family", "W6", "--r", "3")
    assert code == 0


def test_config_echo_reproduces_run(capsys, crapo_files):
    p1, _ = crapo_files
    argv = ["rank", "--input", p1, "--family", "W6"]
    code, out1, _ = run(capsys, *argv)
    cfg = json.loads(out1.splitlines()[0].split("config: ", 1)[1])
    rebuilt = [cfg["cmd"]]
    for key in ("input", "family"):
        rebuilt += [f"--{key}", cfg[key]]
    code, out2, _ = run(capsys, *rebuilt)
    assert out1 == out2


def test_json_only_mode(capsys, crapo_files):
    p1, _ = crapo_files
    code, out, _ = run(capsys, "rank", "--input", p1, "--family", "W6",
                       "--json")
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 2 and lines[0].startswith("#") and \
        lines[1].startswith("JSON: ")


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--n", "6", "--nprime-max", "6")
    assert code == 0
    doc = json_doc(out)
    assert len(doc["classes"]) == 1 and doc["classes"][0]["nu"] == 4


def test_audit_command(capsys, tmp_path):
    a = random_generic(9, 2, 5)
    path = tmp_path / "a.json"
    save_arrangement(a, str(path))
    code, out, _ = run(capsys, "audit", "--input", str(path), "--nprime-max", "6",
                       "--json")
    assert code == 0
    doc = json_doc(out)
    assert doc.pop("command") == "audit" and doc.pop("config")["nprime_max"] == 6
    assert doc == audit_arrangement(a, 6).to_json_dict() and doc["hits"]


@pytest.mark.parametrize("normals, extra", [
    ([[1, 0], [2, 0], [1, 1], [0, 1]], ["--nprime-max", "6"]),  # not generic
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], ["--nprime-max", "6"]),
    ([[1, i] for i in range(10)], ["--nprime-max", "6"]),
    ([[1, i] for i in range(6)], [])])
def test_audit_usage_exit_code(capsys, tmp_path, normals, extra):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"k": len(normals[0]), "normals": normals}))
    code, out, err = run(capsys, "audit", "--input", str(path), *extra)
    assert code == 2 and err.startswith("error: ") and "JSON:" not in out


W8_SAMPLE = {"k": 2, "normals": [["4", "-9"], ["5", "-1"], ["-2", "9"], ["-6", "1"],
                                 ["-9", "-9"], ["-9", "8"], ["-9", "3"],
                                 ["-3423384", "2075733"]]}


def test_scan8_command(capsys, tmp_path):
    # golden output on the seed-1 sample of the W8 variety
    path = tmp_path / "w8.json"
    path.write_text(json.dumps(W8_SAMPLE))
    code, out, _ = run(capsys, "scan8", "--input", str(path))
    assert code == 0
    assert "2 hit(s) in 32760 instances, field Q:" in out
    assert "  W8  labels 2 1 8 7 6 5 4 3  rank 5 <= r=5" in out
    doc = json_doc(out)
    assert doc.pop("config") == {"cmd": "scan8", "field": "Q", "height": 9,
                                 "input": str(path), "k": 2, "seed": 0}
    assert doc == {"command": "scan8", "arrangement": None, "field": "Q",
                   "instances_scanned": 32760,
                   "hits": [{"family": "W8", "labels": [1, 2, 3, 4, 5, 6, 7, 8],
                             "r": 5, "rank": 5},
                            {"family": "W8", "labels": [2, 1, 8, 7, 6, 5, 4, 3],
                             "r": 5, "rank": 5}]}


@pytest.mark.parametrize("normals, field", [
    ([[1, i] for i in range(9)], "Q"),  # nine lines
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]] * 2, "Q"),  # k = 3
    ([[1, i] for i in range(7)] + [[2, 0]], "Q"),  # lines 1 and 8 parallel
    (W8_SAMPLE["normals"], "Fp:7")])  # not generic mod 7
def test_scan8_usage_exit_code(capsys, tmp_path, normals, field):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"k": len(normals[0]), "normals": normals}))
    code, out, err = run(capsys, "scan8", "--input", str(path), "--field", field)
    assert code == 2 and err.startswith("error: ") and "JSON:" not in out


def test_render_command(capsys, crapo_files, tmp_path):
    p1, _ = crapo_files
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps({"t": ["0", "1", "1", "1", "0", "0"]}))
    svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", "--input", p1,
                       "--translation", str(tfile), "--output", str(svg))
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<line") == 6
    assert body.count("crimson") == 4  # four marked triple points


def test_render_rejects_higher_rank(capsys, tmp_path):
    from discrarr.arrangement import from_int_columns
    p = tmp_path / "k3.json"
    save_arrangement(from_int_columns(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                     str(p))
    code, _, err = run(capsys, "render", "--input", str(p))
    assert code == 2


def test_render_rejects_prime_field(capsys, crapo_files):
    p1, _ = crapo_files
    code, out, err = run(capsys, "render", "--input", p1, "--field", "Fp:7")
    assert code == 2
    assert "--field Q" in err and "Fp:7" in err
    assert "Traceback" not in err and "JSON:" not in out


@pytest.mark.parametrize("body", ['[1, 2]', '{"s": []}', '{"t": ["1/0", "0", "0", "0", "0", "0"]}'])
def test_render_rejects_malformed_translation(capsys, crapo_files, tmp_path, body):
    p1, _ = crapo_files
    tfile = tmp_path / "t.json"
    tfile.write_text(body)
    code, out, err = run(capsys, "render", "--input", p1, "--translation", str(tfile))
    assert code == 2
    assert str(tfile) in err and "JSON:" not in out


def test_svg_deterministic_and_marks():
    a = crapo_arrangement(-1)
    t = (F(0), F(1), F(1), F(1), F(0), F(0))
    doc1 = render_svg(a, t)
    doc2 = render_svg(a, t)
    assert doc1 == doc2
    assert concurrent_point_count(a, t) == 4
    zero = tuple(F(0) for _ in range(6))
    assert concurrent_point_count(a, zero) == 1
    doc0 = render_svg(a, zero)
    assert doc0.count("crimson") == 1 and doc0.count("<line") == 6


def test_svg_over_prime_field_raises_value_error():
    a = random_generic(5, 2, 1)
    fp = PrimeField(7)
    b = Arrangement(2, tuple(tuple(fp(x) for x in v) for v in a.normals))
    with pytest.raises(ValueError, match="rational coordinates"):
        render_svg(b)
    with pytest.raises(ValueError, match="rational coordinates"):
        concurrent_point_count(b, tuple(fp(0) for _ in range(5)))


def test_svg_parallel_lines_not_dropped():
    from discrarr.arrangement import from_int_columns
    stack = from_int_columns(2, [(1, 0), (2, 0), (3, 0)])
    doc = render_svg(stack, (F(1), F(4), F(9)))
    assert doc.count("<line") == 3


def test_budget_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "sample", "--n", "9", "--k", "2", "--seed", "0",
                       "--height", "1", "--budget", "4")
    assert code == 3
    assert "budget" in err.lower()


def test_membership_prime_field(capsys, crapo_files):
    p1, _ = crapo_files
    code, out, _ = run(capsys, "membership", "--input", p1, "--family", "W6",
                       "--r", "3", "--field", "Fp:1299709")
    assert code == 0
    assert json_doc(out)["field"] == "F1299709"


def test_bad_field_exit_code(capsys, crapo_files):
    p1, _ = crapo_files
    code, _, err = run(capsys, "membership", "--input", p1, "--family", "W6",
                       "--field", "Fp:10")
    assert code == 2


def test_json_integer_entries(capsys, tmp_path):
    ints = tmp_path / "ints.json"
    ints.write_text('{"k": 2, "normals": [[1, 0], [0, 1], [2, 2], [1, 1]]}')
    strs = tmp_path / "strs.json"
    strs.write_text('{"k": 2, "normals": [["1", "0"], ["0", "1"], ["2", "2"], ["1", "1"]]}')
    code, out, _ = run(capsys, "circuits", "--input", str(ints))
    assert code == 0
    _, want, _ = run(capsys, "circuits", "--input", str(strs))
    assert json_doc(out)["circuits"] == json_doc(want)["circuits"] == \
        [[1, 2, 3], [1, 2, 4], [3, 4]]


@pytest.mark.parametrize("entry", ["1.5", "true", "2.0"])
def test_float_and_bool_entries_exit_code(capsys, tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "normals": [[%s, 0], [0, 1], [1, 1]]}' % entry)
    code, out, err = run(capsys, "circuits", "--input", str(bad))
    assert code == 2
    assert str(bad) in err and "JSON:" not in out


def test_render_missing_translation_exit_code(capsys, crapo_files, tmp_path):
    p1, _ = crapo_files
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "render", "--input", p1, "--translation", str(missing))
    assert code == 2
    assert str(missing) in err and "JSON:" not in out


def test_render_huge_coordinates_exit_code(capsys, tmp_path):
    # a crossing at y = -10**400 has no float coordinate
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"k": 2, "normals": [[1, 0], [0, 1], ["1", f"1/{10**400}"]]}))
    t = tmp_path / "t.json"
    t.write_text('{"t": ["1", "0", "0"]}')
    code, out, err = run(capsys, "render", "--input", str(a), "--translation", str(t))
    assert code == 2
    assert "too large" in err and "JSON:" not in out



@pytest.mark.parametrize("argv", [
    ("circuits", "--input", "{a}"),
    ("classify", "--n", "6"),
    ("sample", "--n", "6"),
    ("render", "--input", "{a}"),
])
def test_unwritable_output_exit_code(capsys, crapo_files, tmp_path, argv):
    # each command that honours --output, into a directory that is missing
    # and into a path that is a directory
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        argv_full = [x.format(a=crapo_files[0]) for x in argv] + ["--output", str(target)]
        code, out, err = run(capsys, *argv_full)
        assert code == 2, argv_full
        assert str(target) in err and "Traceback" not in err
        assert "JSON:" not in out


# Fuzzing the CLI in-process: random JSON for the arrangement and the
# translation file, mixed with documents shaped like the real formats so
# that some runs get past parsing.

json_scalars = st.one_of(
    st.integers(-12, 12), st.integers(-12, 12).map(str),
    st.tuples(st.integers(-12, 12), st.integers(-2, 7)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.floats(), st.booleans(), st.none(), st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=6)
arrangement_docs = st.one_of(
    json_values,
    st.fixed_dictionaries({
        "k": st.one_of(st.integers(0, 3), json_scalars),
        "normals": st.lists(st.lists(json_scalars, max_size=4), max_size=7)}),
    st.sampled_from((2, 2, 3)).flatmap(lambda k: st.fixed_dictionaries({
        "k": st.just(k),
        "normals": st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                            min_size=5, max_size=8)})))
translation_docs = st.one_of(
    json_values, st.fixed_dictionaries({"t": st.lists(json_scalars, max_size=7)}),
    st.fixed_dictionaries({"t": st.lists(st.integers(-3, 3), min_size=6, max_size=6)}))


# family texts: the shortcuts, malformed names and short random strings;
# two characters name at most a nine-line wheel or ladder
family_texts = st.one_of(
    st.sampled_from(("W6", "W8", "W10", "Wd8_4", "L8", "DW10", "123,145",
                     "Wxyz", "W5", "L7", "W06", "")),
    st.text(alphabet="WLDd_0123456789,", max_size=2), st.text(max_size=2))


@settings(max_examples=100, deadline=None)
@given(doc=arrangement_docs, tdoc=st.one_of(st.none(), st.none(), translation_docs),
       cmd=st.sampled_from(("circuits", "rank", "membership", "render", "sample",
                            "audit", "scan8")),
       family=family_texts,
       field=st.sampled_from(("Q", "Fp:7")),
       output=st.sampled_from((None, "out.txt", "missing/out.txt", ".")),
       nprime=st.one_of(st.none(), st.integers(-1, 6)))
def test_cli_fuzz_is_total(doc, tdoc, cmd, family, field, output, nprime):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        path.write_text(json.dumps(doc))
        argv = [cmd, "--input", str(path), "--field", field]
        if cmd in ("rank", "membership", "sample"):
            argv += [f"--family={family}"]
        if cmd == "audit" and nprime is not None:
            argv += ["--nprime-max", str(nprime)]
        if output is not None:
            # "missing/..." and "." (the directory itself) cannot be written
            argv += ["--output", str(Path(tmp) / output)]
        if cmd == "render":
            if tdoc is not None:
                tpath = Path(tmp) / "t.json"
                tpath.write_text(json.dumps(tdoc))
                argv += ["--translation", str(tpath)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json_doc(out.getvalue())
    else:
        assert err.getvalue().strip()
