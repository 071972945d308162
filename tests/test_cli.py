import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import sumsetvc
from sumsetvc.cli import OPERATION_COVERAGE, build_parser, report_schema, run


def run_cli(*argv):
    return run(list(argv))


def write_family(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- basic flows ----------------------------------------------------------------


def test_gen_family_then_vcdim(tmp_path, capsys):
    fam = str(tmp_path / "fam.txt")
    assert run_cli("gen-family", "--n", "4", "--kind", "lowweight", "--d", "2", "--out", fam) == 0
    assert run_cli("vcdim", "--in", fam) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_gen_family_random_reproducible(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    args = ["gen-family", "--n", "5", "--kind", "random", "--size", "7", "--seed", "3"]
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_vcdim_empty_family_exits_2(tmp_path, capsys):
    path = write_family(tmp_path, "empty.txt", "# nothing here\nn=3 p=2\n")
    assert run_cli("vcdim", "--in", path) == 2
    assert "nonempty" in capsys.readouterr().err


def test_malformed_family_exits_2_with_line_number(tmp_path, capsys):
    path = write_family(tmp_path, "bad.txt", "n=3 p=2\n010\n21x\n")
    assert run_cli("vcdim", "--in", path) == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert run_cli("vcdim", "--in", str(tmp_path / "nope.txt")) == 2


def test_unknown_flag_exits_2(capsys):
    assert run_cli("vcdim", "--bogus") == 2
    capsys.readouterr()


def test_intdeg(tmp_path, capsys):
    path = write_family(tmp_path, "diag.txt", "n=2 p=2\n00\n11\n")
    assert run_cli("intdeg", "--in", path) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_intdeg_values_deg_on_set(tmp_path, capsys):
    path = write_family(tmp_path, "square.txt", "n=2 p=2\n00\n10\n01\n11\n")
    assert run_cli("intdeg", "--in", path, "--values", "0001") == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli("intdeg", "--in", path, "--values", "001") == 2


def test_vcdim_report_witness_represent(tmp_path, capsys):
    fam = str(tmp_path / "fam.txt")
    run_cli("gen-family", "--n", "4", "--kind", "lowweight", "--d", "2", "--out", fam)

    report = str(tmp_path / "report.json")
    assert run_cli("vcdim", "--in", fam, "--report", report) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["vc_dim"] == 2
    assert doc["family_size"] == 11
    assert len(doc["shattered_sets_by_level"][2]) == 6

    assert run_cli("vcdim", "--in", fam, "--witness", "1,2,3") == 0
    pattern = json.loads(capsys.readouterr().out)
    assert pattern == {"1": 1, "2": 1, "3": 1}

    assert run_cli("vcdim", "--in", fam, "--represent", "1,2,3") == 0
    poly = json.loads(capsys.readouterr().out)
    assert poly["p"] == 2 and poly["n"] == 4
    # degree of every term stays within the VC dimension
    for term in poly["terms"]:
        exps = [int(e) for e in term.split(":")[1].split(",")]
        assert sum(exps) <= 2


def test_family_op_round_trip(tmp_path, capsys):
    fam = write_family(tmp_path, "f.txt", "n=2 p=2\n00\n10\n01\n")
    out = str(tmp_path / "sym.txt")
    assert run_cli("family-op", "--op", "sym-diff", "--in", fam, "--out", out) == 0
    assert (tmp_path / "sym.txt").read_text() == "n=2 p=2\n00\n10\n01\n11\n"

    emb = str(tmp_path / "emb.txt")
    assert run_cli("family-op", "--op", "embed", "--in", fam, "--p", "3", "--out", emb) == 0
    assert (tmp_path / "emb.txt").read_text().splitlines()[0] == "n=2 p=3"

    summed = str(tmp_path / "sum.txt")
    assert run_cli("family-op", "--op", "sumset", "--in", emb, "--k", "3", "--out", summed) == 0
    assert (tmp_path / "sum.txt").read_text().splitlines()[0] == "n=2 p=3"

    assert run_cli("family-op", "--op", "sumset", "--in", fam) == 2  # missing --k
    capsys.readouterr()


def test_clp_rank_random_and_file(tmp_path, capsys):
    assert run_cli("clp-rank", "--p", "2", "--n", "5", "--d", "3", "--seed", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["rank"] <= doc["bound"]

    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps({"p": 2, "n": 2, "terms": ["1:1,1"]}))
    assert run_cli("clp-rank", "--in-poly", str(poly_path), "--format", "text") == 0
    assert "ok=True" in capsys.readouterr().out


def test_slice_decompose_cli(tmp_path, capsys):
    assert run_cli("slice-decompose", "--p", "3", "--n", "2", "--k", "3", "--d", "2", "--seed", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reconstruction_ok"] is True
    assert doc["term_count"] <= doc["bound"]

    fam = write_family(tmp_path, "f.txt", "n=3 p=2\n000\n110\n011\n")
    assert run_cli("slice-decompose", "--tensor-family", fam, "--k", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_diagonal"] is True
    assert doc["lower_bound"] == 3


def test_verify_exhaustive_report(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    code = run_cli(
        "verify", "--theorem", "intdeg_le_vc", "--n", "3", "--mode", "exhaustive",
        "--no-progress", "--out", out,
    )
    assert code == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["instances_checked"] == 255
    assert doc["violations"] == []
    assert doc["theorem"] == "intdeg_le_vc"
    assert doc["timing_ms"] is None
    jsonschema.validate(doc, report_schema())


def test_verify_requires_theorem(capsys):
    assert run_cli("verify", "--n", "3", "--no-progress") == 2
    capsys.readouterr()


def test_verify_byte_identical_reruns(tmp_path):
    out = str(tmp_path / "rep.json")
    args = ["verify", "--theorem", "sauer", "--n", "2", "--no-progress", "--out", out]
    assert run_cli(*args) == 0
    first = (tmp_path / "rep.json").read_bytes()
    assert run_cli(*args) == 0
    assert (tmp_path / "rep.json").read_bytes() == first


def test_verify_worker_count_does_not_change_output(tmp_path, monkeypatch):
    monkeypatch.setattr(sumsetvc.verify, "CHUNK", 64)  # 4 chunks, so the pool runs
    out1 = str(tmp_path / "w1.json")
    out2 = str(tmp_path / "w2.json")
    base = ["verify", "--theorem", "main", "--n", "3", "--no-progress"]
    assert run_cli(*base, "--workers", "1", "--out", out1) == 0
    assert run_cli(*base, "--workers", "2", "--out", out2) == 0
    d1 = json.loads((tmp_path / "w1.json").read_text())
    d2 = json.loads((tmp_path / "w2.json").read_text())
    # the command echo differs (--workers, --out), but every scan result field
    # must be independent of the scheduling
    for key in ("theorem", "parameters", "seed", "instances_checked", "violations", "extremes"):
        assert d1[key] == d2[key]


def test_verify_rejects_fewer_than_one_worker(capsys):
    for workers in ("0", "-1"):
        base = ["verify", "--theorem", "sauer", "--n", "2", "--workers", workers, "--no-progress"]
        assert run_cli(*base) == 2
        assert run_cli(*base, "--mode", "random", "--samples", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers must be >= 1" in captured.err


def test_verify_random_seeded(tmp_path):
    out = str(tmp_path / "rep.json")
    code = run_cli(
        "verify", "--theorem", "psums", "--n", "3", "--p", "3", "--mode", "random",
        "--samples", "25", "--seed", "6", "--no-progress", "--out", out,
    )
    assert code == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["instances_checked"] == 25
    assert doc["seed"] == 6
    jsonschema.validate(doc, report_schema())


def test_verify_csv_format(tmp_path):
    out = str(tmp_path / "rep.csv")
    assert run_cli(
        "verify", "--theorem", "sauer", "--n", "2", "--no-progress",
        "--format", "csv", "--out", out,
    ) == 0
    lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert lines[0] == (
        "theorem,n,p,mode,samples,seed,instances_checked,violation_count,"
        "extreme_lhs,extreme_rhs,extreme_ratio"
    )
    assert lines[1].startswith("sauer,2,")


def test_verify_timings_flag(tmp_path):
    out = str(tmp_path / "rep.json")
    assert run_cli(
        "verify", "--theorem", "sauer", "--n", "2", "--no-progress", "--timings",
        "--out", out,
    ) == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert isinstance(doc["timing_ms"], float)
    jsonschema.validate(doc, report_schema())


def test_verify_progress_goes_to_stderr(capsys):
    assert run_cli("verify", "--theorem", "sauer", "--n", "2") == 0
    captured = capsys.readouterr()
    assert "progress" in captured.err
    assert "progress" not in captured.out


# --- schema and replay --------------------------------------------------------------


def test_emit_schema(capsys):
    assert run_cli("verify", "--emit-schema") == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema["version"] == sumsetvc.__version__
    assert "violations" in schema["required"]
    jsonschema.Draft7Validator.check_schema(schema)


def sign(doc):
    # the documented digest: canonical JSON of every field before timing_ms
    core = {k: v for k, v in doc.items() if k not in ("timing_ms", "content_digest")}
    text = json.dumps(core, separators=(",", ":"), ensure_ascii=True)
    return dict(doc, content_digest=hashlib.sha256(text.encode()).hexdigest())


def test_replay_clean_report(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    run_cli("verify", "--theorem", "sauer", "--n", "2", "--no-progress", "--out", out)
    assert run_cli("verify", "--replay", out) == 0
    capsys.readouterr()


def test_replay_planted_violation_exits_1(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    run_cli("verify", "--theorem", "sauer", "--n", "2", "--no-progress", "--out", out)
    doc = json.loads((tmp_path / "rep.json").read_text())
    doc["violations"] = [
        {"instance": {"kind": "family", "n": 2, "members": [0]}, "lhs": 99, "rhs": 1}
    ]
    corrupted = tmp_path / "corrupt.json"
    # re-signed: an unsigned planted violation is a digest mismatch (exit 2)
    corrupted.write_text(json.dumps(sign(doc)))
    assert run_cli("verify", "--replay", str(corrupted)) == 1
    assert "violation" in capsys.readouterr().err


def test_replay_recomputes_content_digest(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        return str(path)

    out = tmp_path / "rep.json"
    run_cli("verify", "--theorem", "sauer", "--n", "2", "--no-progress", "--out", str(out))
    clean = json.loads(out.read_text())
    assert sign(clean) == clean
    assert run_cli("verify", "--replay", write("clean.json", clean)) == 0

    violation = {"instance": {"kind": "family", "n": 2, "members": [0]}, "lhs": 99, "rhs": 1}
    violating = sign(dict(clean, violations=[violation]))
    assert run_cli("verify", "--replay", write("violating.json", violating)) == 1
    forged = dict(clean, violations=[violation])
    assert run_cli("verify", "--replay", write("forged.json", forged)) == 2
    deleted = dict(violating, violations=[])
    assert run_cli("verify", "--replay", write("deleted.json", deleted)) == 2

    edited = dict(clean, extremes=dict(clean["extremes"], lhs=clean["extremes"]["lhs"] + 1))
    assert run_cli("verify", "--replay", write("edited.json", edited)) == 2
    assert "content_digest" in capsys.readouterr().err


def test_replay_schema_invalid_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tool_version": "0.1.0"}))
    assert run_cli("verify", "--replay", str(bad)) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run_cli("verify", "--replay", str(notjson)) == 2
    capsys.readouterr()


# --- demo / search -------------------------------------------------------------------


def test_demo_counterexample_json(capsys):
    assert run_cli("demo-counterexample", "--op", "intersect", "--n", "10", "--d", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family_size"] == 56
    assert doc["vc_star"] == 2
    assert doc["half_bound"] == 22
    assert doc["witness"] is True


def test_demo_counterexample_csv(capsys):
    assert run_cli(
        "demo-counterexample", "--op", "union", "--n", "10", "--d", "2", "--format", "csv"
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "op,n,d,family_size,vc_star,half_bound,witness"
    assert lines[1] == "union,10,2,56,2,22,True"


def test_search_json_and_csv(capsys):
    assert run_cli("search", "--question", "q1", "--n", "2", "--d", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["best_size"] == 4
    assert "Finite-search evidence" in doc["note"]

    assert run_cli(
        "search", "--question", "q2", "--n", "3", "--d", "3", "--format", "csv"
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# Finite-search evidence")
    assert lines[1] == (
        "question,n,d,mode,best_size,binom_bound,half_bound,instances_examined,certificate"
    )
    assert lines[2].startswith("q2,3,3,exhaustive,8,")


# --- report layout ---------------------------------------------------------------------

ENVELOPE_HEAD = ["tool_version", "command_echo"]
ENVELOPE_TAIL = ["timing_ms", "content_digest"]


def test_report_key_order_and_text_lines(tmp_path, capsys):
    def keys(*argv):
        assert run_cli(*argv) in (0, 1)
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[:2] == ENVELOPE_HEAD and list(doc)[-2:] == ENVELOPE_TAIL
        return doc, list(doc)[2:-2]

    fam = write_family(tmp_path, "f.txt", "n=3 p=2\n000\n110\n011\n")
    report = tmp_path / "report.json"
    assert run_cli("vcdim", "--in", fam, "--report", str(report)) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert list(doc) == [*ENVELOPE_HEAD, "family_size", "vc_dim", "shattered_sets_by_level",
                         *ENVELOPE_TAIL]
    assert doc["shattered_sets_by_level"] == [[0], [1, 2, 4]]

    _, clp_keys = keys("clp-rank", "--p", "2", "--n", "4", "--d", "2", "--seed", "1")
    assert clp_keys == ["p", "n", "degree", "rank", "bound", "ok"]

    _, tensor_keys = keys("slice-decompose", "--tensor-family", fam, "--k", "2")
    assert tensor_keys == ["p", "arity", "shape", "is_diagonal", "lower_bound",
                           "nonzero_diagonal_count", "tensor_digest"]

    _, verify_keys = keys("verify", "--theorem", "sauer", "--n", "2", "--no-progress")
    assert verify_keys == ["theorem", "parameters", "seed", "instances_checked", "violations",
                           "extremes"]

    _, demo_keys = keys("demo-counterexample", "--op", "union", "--n", "8", "--d", "3")
    assert demo_keys == ["op", "n", "d", "family_size", "vc_star", "half_bound", "witness"]

    doc, search_keys = keys("search", "--question", "q2", "--n", "3", "--d", "3")
    assert search_keys == ["note", "rows"]
    assert list(doc["rows"][0]) == ["question", "n", "d", "mode", "best_size", "binom_bound",
                                    "half_bound", "certificate", "instances_examined"]
    assert doc["rows"][0]["certificate"] == list(range(8))

    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"p": 2, "n": 2, "terms": ["1:1,1"]}))
    assert run_cli("clp-rank", "--in-poly", str(poly), "--format", "text") == 0
    assert capsys.readouterr().out == "degree=2 rank=4 bound=6 ok=True\n"
    assert run_cli(
        "demo-counterexample", "--op", "union", "--n", "8", "--d", "3", "--format", "text"
    ) == 0
    assert capsys.readouterr().out == (
        "op=union n=8 d=3 family_size=93 vc_star=3 half_bound=18 witness=True\n"
    )


# --- malformed input ----------------------------------------------------------------


@pytest.mark.parametrize(
    "content, argv",
    [
        pytest.param("n=2 p=3\n0\u00b2\n".encode(), ["vcdim", "--in", "{}"],
                     id="family-superscript-digit"),
        pytest.param(b"n=1 p=2\n0\n1\n", ["intdeg", "--in", "{}", "--values", "0\u00b2"],
                     id="values-superscript-digit"),
        pytest.param(b"n=2 p=2\n0\xff\n", ["vcdim", "--in", "{}"], id="family-not-utf8"),
        pytest.param(b"{", ["clp-rank", "--in-poly", "{}"], id="poly-not-json"),
        pytest.param(b'{"p": "x", "n": 2, "terms": []}', ["clp-rank", "--in-poly", "{}"],
                     id="poly-p-not-int"),
        pytest.param(b'{"p": 2, "n": 2, "terms": [5]}', ["clp-rank", "--in-poly", "{}"],
                     id="poly-term-not-text"),
        pytest.param(b'{"p": 2.9, "n": 2, "terms": ["1:1,1"]}', ["clp-rank", "--in-poly", "{}"],
                     id="poly-p-float"),
        pytest.param(b'{"p": 2, "n": true, "terms": ["1:1"]}', ["clp-rank", "--in-poly", "{}"],
                     id="poly-n-bool"),
        pytest.param(b"", ["search", "--question", "q1", "--n", "-1", "--d", "1"],
                     id="search-negative-n"),
        pytest.param(b"", ["verify", "--theorem", "main", "--n", "3", "--p", "4"],
                     id="verify-p-not-prime"),
        pytest.param(b"\xff", ["verify", "--replay", "{}"], id="replay-not-utf8"),
        # oversized powers: rejected by name, never built or printed
        pytest.param(b"", ["clp-rank", "--p", "3", "--n", "10000", "--d", "1"],
                     id="clp-rank-huge-n"),
        pytest.param(b"", ["slice-decompose", "--p", "3", "--n", "10000", "--k", "2", "--d", "1"],
                     id="slice-decompose-huge-n"),
        pytest.param(b"", ["slice-decompose", "--p", "2", "--n", "2", "--k", "20000", "--d", "1"],
                     id="slice-decompose-huge-k"),
        pytest.param(b"n=2 p=2\n00\n11\n",
                     ["slice-decompose", "--tensor-family", "{}", "--k", "20000"],
                     id="sum-tensor-huge-k"),
        pytest.param(b"n=1000000 p=3\n", ["intdeg", "--in", "{}"], id="intdeg-huge-n"),
        pytest.param(b"n=100000 p=2\n", ["vcdim", "--in", "{}"], id="vcdim-huge-n"),
        pytest.param(b"", ["verify", "--theorem", "main", "--n", "20000"], id="verify-huge-n"),
        pytest.param(b"", ["verify", "--theorem", "sauer", "--mode", "random", "--n", "40",
                           "--samples", "1"], id="verify-random-huge-n"),
        pytest.param(b"", ["verify", "--theorem", "clp_bound", "--mode", "random", "--n", "30",
                           "--samples", "20"], id="verify-random-clp-huge-n"),
        pytest.param(b"", ["gen-family", "--n", "28", "--kind", "powerset"],
                     id="gen-family-huge-powerset"),
        pytest.param(b"", ["gen-family", "--n", "1000000", "--kind", "lowweight", "--d", "1000000"],
                     id="gen-family-huge-lowweight"),
        pytest.param(b"", ["search", "--question", "q1", "--n", "20000", "--d", "1"],
                     id="search-huge-n"),
        pytest.param(b"", ["gen-family", "--n", "65", "--kind", "random", "--size", "1"],
                     id="gen-family-huge-random"),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, content, argv):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert run_cli(*[arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_polynomial_file_keeps_term_errors(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"p": 2, "n": 2, "terms": ["1:1"]}))
    assert run_cli("clp-rank", "--in-poly", str(path)) == 2
    assert "exponent vector (1,) has length 1, expected 2" in capsys.readouterr().err


# --- coverage of library operations ------------------------------------------------


def coverage_invocations(tmp_path):
    """Small invocations of every subcommand, which between them reach every
    operation OPERATION_COVERAGE maps to a subcommand."""
    fam = write_family(tmp_path, "f.txt", "n=3 p=2\n000\n110\n011\n")
    return {
        "gen-family": [["gen-family", "--n", "3", "--kind", "lowweight", "--d", "1"]],
        "vcdim": [["vcdim", "--in", fam, "--report", str(tmp_path / "r.json")],
                  ["vcdim", "--in", fam, "--witness", "1,2,3"],
                  ["vcdim", "--in", fam, "--represent", "1,2"]],
        "intdeg": [["intdeg", "--in", fam], ["intdeg", "--in", fam, "--values", "011"]],
        "family-op": [["family-op", "--op", "sym-diff", "--in", fam],
                      ["family-op", "--op", "sumset", "--in", fam, "--k", "2"]],
        "clp-rank": [["clp-rank", "--p", "3", "--n", "2", "--d", "2"]],
        "slice-decompose": [["slice-decompose", "--n", "2", "--k", "2", "--d", "2"],
                            ["slice-decompose", "--k", "2", "--tensor-family", fam]],
        "verify": [["verify", "--theorem", "sauer", "--n", "2", "--no-progress"],
                   ["verify", "--theorem", "psums", "--p", "3", "--n", "2", "--mode", "random",
                    "--samples", "2", "--no-progress"],
                   ["verify", "--emit-schema"]],
        "demo-counterexample": [["demo-counterexample", "--op", "intersect", "--n", "4", "--d", "2"]],
        "search": [["search", "--question", "q1", "--n", "2", "--d", "1"]],
    }


def test_every_operation_is_reachable_from_a_subcommand(tmp_path, capsys):
    expected_ops = {
        "binom_sum",
        "pairwise_family",
        "k_fold_sumset",
        "embed_01",
        "generate_family",
        "is_shattered",
        "shattered_sets",
        "vc_dim",
        "monomial_count",
        "monomial_basis",
        "evaluation_matrix",
        "rank",
        "deg_on_set",
        "int_deg",
        "find_unshattered_witness",
        "represent_monomial",
        "clp_matrix",
        "verify_clp_bound",
        "slice_decompose",
        "sum_tensor",
        "diagonal_slice_rank_bounds",
        "check_instance",
        "exhaustive_scan",
        "random_scan",
        "counterexample_demo",
        "search_open_question",
        "report_schema",
    }
    assert set(OPERATION_COVERAGE) == expected_ops

    parser = build_parser()
    subcommands = set()
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            subcommands.update(action.choices)
    assert set(OPERATION_COVERAGE.values()) - {None} <= subcommands

    # every operation mapped to a subcommand is called by one of its invocations
    called = {command: set() for command in subcommands}
    for command, invocations in coverage_invocations(tmp_path).items():
        def profile(frame, event, arg):
            if event == "call":
                called[command].add(frame.f_code)

        for argv in invocations:
            sys.setprofile(profile)
            try:
                code = run_cli(*argv)
            finally:
                sys.setprofile(None)
            assert code == 0, (argv, capsys.readouterr().err)
    missed = [
        op for op, command in OPERATION_COVERAGE.items()
        if command is not None
        and (getattr(sumsetvc, op, None) or getattr(sumsetvc.cli, op)).__code__ not in called[command]
    ]
    assert missed == []


def test_importing_the_cli_does_not_import_jsonschema():
    # only `verify --replay` validates against the schema, so only it pays for jsonschema
    src = os.path.dirname(os.path.dirname(sumsetvc.__file__))
    check = "import sys, sumsetvc.cli; assert 'jsonschema' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", check], env=env, check=True)


# --- pinned output bytes -------------------------------------------------------------

PIN_FILES = {
    "f.txt": "n=3 p=2\n000\n110\n011\n",
    "h.txt": "n=3 p=2\n100\n011\n111\n",
    "g3.txt": "n=2 p=3\n00\n10\n21\n",
    "poly.json": json.dumps({"p": 2, "n": 3, "terms": ["1:1,1,0", "1:0,0,1"]}),
    "poly3.json": json.dumps({"p": 3, "n": 2, "terms": ["2:2,1", "1:0,1"]}),
}

# argv, exit code, sha256 of stdout followed by the bytes of every file in
# PIN_OUTPUTS the invocation writes
PIN_OUTPUTS = ("out.txt", "r.json")
PINNED = [
    (["gen-family", "--n", "4", "--kind", "lowweight", "--d", "2"], 0,
     "d38b4c64e3a2f18694a672c0da8b645baa68c7d7495d1e870b8c4c579ca3bc93"),
    (["gen-family", "--n", "4", "--kind", "highweight", "--d", "1"], 0,
     "f2a9ed73b43a754e0fb13061250f9d910bce0e2715d7719206d5d1b3a19c175b"),
    (["gen-family", "--n", "3", "--kind", "powerset"], 0,
     "bedfd9716ebe4000c31e83345d2cafbe4e1c5e5ca3e3df2966c274d3c9cec447"),
    (["gen-family", "--n", "5", "--kind", "random", "--size", "7", "--seed", "3"], 0,
     "ddf917344f46cfefe84f8f18416cc01c883b1ede34c379d52d7c7e3c63fede81"),
    (["gen-family", "--n", "4", "--kind", "random", "--size", "3", "--out", "out.txt"], 0,
     "9b146a6469306e0923fbbc9b075c658e2926bbedcec232e0ab05930200d2e561"),
    (["gen-family", "--n", "4", "--kind", "lowweight"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["gen-family", "--n", "4", "--kind", "random"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["vcdim", "--in", "f.txt"], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["vcdim", "--in", "f.txt", "--out", "out.txt"], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["vcdim", "--in", "f.txt", "--report", "r.json"], 0,
     "9e1f8401d4256976620a7be2dfd2d149bcd2df1a33da67784dfba40bda8e7379"),
    (["vcdim", "--in", "f.txt", "--witness", "1,2,3"], 0,
     "26d9f7a7d71df5e2ad8d5a7d51ec96aa70a15fe92fd82307a44c8830660e2c45"),
    (["vcdim", "--in", "f.txt", "--represent", "1,2"], 0,
     "cc1ce1d0ec451907925197dd3136b1e1c9f92f0256430aefa7b476b8c154e210"),
    (["intdeg", "--in", "f.txt"], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["intdeg", "--in", "g3.txt"], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["intdeg", "--in", "f.txt", "--values", "011"], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["intdeg", "--in", "f.txt", "--values", "01"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["family-op", "--op", "sym-diff", "--in", "f.txt"], 0,
     "2dc574c1d2df24e3f5b4e3841c59d0ce92ef7ccb4cb33c44afcc2e60e190c8e1"),
    (["family-op", "--op", "intersect", "--in", "f.txt", "--in2", "h.txt"], 0,
     "0e3c6001cb2275cbfbe50a52019cfcd44755d9d1aa054172757ac55b9e5da075"),
    (["family-op", "--op", "union", "--in", "f.txt", "--out", "out.txt"], 0,
     "d0ec837e245889275418e131160480be9232d8a15e0afe01c4c2a8ba200dfef7"),
    (["family-op", "--op", "embed", "--in", "f.txt", "--p", "3"], 0,
     "9bd47d44c3553115d8d4d91c222ec4ba0a49a7678741278e9a2a9978fed22050"),
    (["family-op", "--op", "sumset", "--in", "g3.txt", "--k", "2"], 0,
     "2e31579a9d4b1e50448abbdc44f3d06b1305343ab2bde7c4727aa38c57c1b066"),
    (["clp-rank", "--p", "2", "--n", "4", "--d", "2", "--seed", "1"], 0,
     "828a4f6b5386f6f2ee89e11be9ef614801d677a4f09ba0264c3e315a38104db7"),
    (["clp-rank", "--p", "3", "--n", "2", "--d", "2", "--format", "text"], 0,
     "cd6cdebf7e88517817d0189cf5db295d2af1cea60724a59828e9a529e9c5c4eb"),
    (["clp-rank", "--in-poly", "poly.json"], 0,
     "90a072aa6953ec7577197fa0a55a4329b6e296c9de7297590c0c925338a1b477"),
    (["clp-rank", "--in-poly", "poly3.json", "--format", "text"], 0,
     "fb8a57e8ababe2b78992109f42f918e52f58fc7a727f3b5a1079a16ae506498f"),
    (["slice-decompose", "--p", "3", "--n", "2", "--k", "3", "--d", "2", "--seed", "5"], 0,
     "8b8454692982deaf87c48a7764d419923d051e78bffc09bd01b0ffa91b8a5c84"),
    (["slice-decompose", "--in-poly", "poly.json", "--k", "2"], 0,
     "17e934b12cb4bc501ba17eefea671710ddf171b52e188e71681edce672ae198c"),
    (["slice-decompose", "--tensor-family", "f.txt", "--k", "2"], 0,
     "5b93d2284275729403ad4e9a1ff13d0f2c27a6a481fb5bc2bf01536a81ee7697"),
    (["slice-decompose", "--tensor-family", "g3.txt", "--in-poly", "poly3.json", "--k", "2"],
     0,
     "7d9e883f88944b5b84e303d04046d91ec3dc2700f61130b3993952a06f65101b"),
    (["verify", "--theorem", "sauer", "--n", "2", "--no-progress"], 0,
     "084ca27453c8a1f4523f7d0b93b78cb40454aa3ef36add5b4114a279bd9e7e49"),
    (["verify", "--theorem", "sauer", "--n", "2"], 0,
     "205ea18f13ec12bccd0ea678815c9346fd19549910f68ee2ccdd49203f9152cd"),
    (["verify", "--theorem", "intdeg_le_vc", "--n", "3", "--no-progress", "--format", "csv"],
     0,
     "e0209a9a6fb1a92166e6495fdfed314f0be1c8dd301f76b20c13eaa478ed9001"),
    (["verify", "--theorem", "main", "--n", "3", "--no-progress", "--out", "out.txt"], 0,
     "b5516992d920d89e5f990610feaeb4c082c793744cb27f002359a4d93e547bae"),
    (["verify", "--theorem", "psums", "--p", "3", "--n", "2", "--mode", "random",
      "--samples", "5", "--seed", "2", "--no-progress"], 0,
     "3bdf1309779e607f026420bbe711485b2025c8bf5dfe0c7e0abfe3c15ff13805"),
    (["verify", "--theorem", "psums", "--p", "3", "--n", "2", "--mode", "random",
      "--samples", "5", "--seed", "2", "--no-progress", "--format", "csv"], 0,
     "68daaec5d901b34ae202b24d24a3605b383920190e13f3c6093c8b34c36cc2c1"),
    (["verify", "--theorem", "clp_bound", "--p", "2", "--n", "3", "--mode", "random",
      "--samples", "3", "--no-progress"], 0,
     "b6ca8e879aa939f655c22996af0f477bce944cb6f04c98b072df1fa68eb24ae0"),
    (["verify", "--emit-schema"], 0,
     "fda464b3d1929f6e67fcfe43da203a85d267aa1fbeaa3e19e33089d9232c6385"),
    (["verify", "--replay", "rep.json"], 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["verify", "--replay", "f.txt"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["demo-counterexample", "--op", "intersect", "--n", "10", "--d", "2"], 0,
     "f06b219fe286a3d0fb3ce82f9441823ea2c166c58677e2f10a91307bf62c7333"),
    (["demo-counterexample", "--op", "union", "--n", "8", "--d", "3", "--format", "csv"], 0,
     "9e6f1db879bdb958cb399e1d08b2337149d5a00fefb35d5b96f168c5a4615ee2"),
    (["demo-counterexample", "--op", "union", "--n", "8", "--d", "3", "--format", "text"],
     0,
     "e497c7007a74e74206beda7a1164321ac5269a1b83578e467ab85a4782c41198"),
    (["search", "--question", "q1", "--n", "2", "--d", "2"], 0,
     "4d6c8b69d484cd8fd0fbdfe774fade12a0cd88d51c40a0dfa724968b5e4fdc2a"),
    (["search", "--question", "q2", "--n", "3", "--d", "3", "--format", "csv"], 0,
     "5611a705f0810551d377dd2b48dd7fdc328fffe0d6119d6888eee0bd3c30e55c"),
    (["search", "--question", "q1", "--n", "3", "--d", "1", "--mode", "heuristic",
      "--budget", "50", "--seed", "1"], 0,
     "c83a9959bc918b2e58f5ceb2597b4d91ab4acaed728794df7d09427ed70f7c42"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=["_".join(a) for a, _, _ in PINNED])
def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, code, digest):
    # relative names only: command_echo, and so content_digest, holds the argv
    monkeypatch.chdir(tmp_path)
    for name, text in PIN_FILES.items():
        (tmp_path / name).write_text(text)
    assert run_cli("verify", "--theorem", "sauer", "--n", "2", "--no-progress",
                   "--out", "rep.json") == 0
    capsys.readouterr()
    assert run_cli(*argv) == code
    written = b"".join((tmp_path / name).read_bytes() for name in PIN_OUTPUTS
                       if (tmp_path / name).exists())
    assert hashlib.sha256(capsys.readouterr().out.encode() + written).hexdigest() == digest
