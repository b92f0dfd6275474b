import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import medgraph
from medgraph import cli
from medgraph.cli import main
from medgraph.families import cycle_graph, johnson, projective_incidence_graph
from medgraph.graph import write_graph
from medgraph.recognizers import ClassVerdict, write_labels


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def _main_in_subprocess(argv):
    """`main(argv)` in a fresh interpreter whose address space is capped at
    1 GB.  Returns (exit code, stdout, stderr)."""
    code = ("import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
            "from medgraph.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(medgraph.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_and_median_flow(tmp_path, capsys):
    gpath = tmp_path / "c7.graph"
    code, rep = _run(capsys, "gen", "cycle", "n=7", "-o", str(gpath))
    assert code == 0 and rep["result"]["n"] == 7
    ppath = tmp_path / "profile.txt"
    ppath.write_text("0 3\n3 3\n5 1\n")
    code, rep = _run(capsys, "median", str(gpath), str(ppath), "-p", "2")
    assert code == 0
    res = rep["result"]
    assert res["median_set"] == [0, 3]
    assert not res["median_p_connected"]


def test_pvalue_with_oracle(tmp_path, capsys):
    gpath = tmp_path / "c7.graph"
    _run(capsys, "gen", "cycle", "n=7", "-o", str(gpath))
    code, rep = _run(capsys, "pvalue", str(gpath), "--oracle", "3")
    assert code == 0
    res = rep["result"]
    assert res["p"] == 3
    assert res["oracle_agrees"]


def test_pvalue_oracle_over_budget_is_no_error(tmp_path, capsys):
    # the oracle's 5,000,000-profile budget is too small for G_2 at max
    # weight 3; p stands, and the cross-check is reported as not run
    gpath = tmp_path / "g2.graph"
    gpath.write_text(write_graph(projective_incidence_graph(2)))
    code, rep = _run(capsys, "pvalue", str(gpath), "--oracle", "3")
    assert code == 0
    res = rep["result"]
    assert res["p"] == 3 and res["witness_pair"] == [14, 15]
    assert res["oracle_agrees"] is None
    assert res["oracle_counterexample_below_p"] is None
    assert res["oracle_budget_exceeded"] == \
        "5242875 profiles exceed the budget of 5000000"


def test_pvalue_has_no_restrict_j_flag(tmp_path, capsys):
    gpath = tmp_path / "c6.graph"
    _run(capsys, "gen", "cycle", "n=6", "-o", str(gpath))
    with pytest.raises(SystemExit) as exc:
        main(["pvalue", str(gpath), "--restrict-j"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


# the pvalue result on C_7 and the Fano graph G_2, pinned so that any change
# to p, the witness pair or either profile fails here
PINNED_C7 = """{"diameter": 3, "disconnecting_profile": {"0": 7, "3": 7, "5": 3},
"p": 3, "witness_pair": [0, 3], "witness_profile": {"5": "1/3"}}"""
PINNED_G2 = """{"diameter": 3, "disconnecting_profile": {"0": 3, "1": 3, "10": 3,
"11": 3, "12": 3, "13": 3, "14": 64, "15": 64, "2": 3, "3": 3, "4": 3, "5": 3,
"6": 3, "7": 3, "8": 3, "9": 3}, "p": 3, "witness_pair": [14, 15],
"witness_profile": {"0": "1/18", "1": "1/18", "10": "1/18", "11": "1/18",
"12": "1/18", "13": "1/18", "2": "1/18", "3": "1/18", "4": "1/18", "5": "1/18",
"6": "1/18", "7": "1/18", "8": "1/18", "9": "1/18"}}"""


@pytest.mark.parametrize("graph, pinned", [
    (cycle_graph(7), PINNED_C7),
    (projective_incidence_graph(2), PINNED_G2),
], ids=["C_7", "G_2"])
def test_pvalue_result_is_pinned(tmp_path, capsys, graph, pinned):
    gpath = tmp_path / "g.graph"
    gpath.write_text(write_graph(graph))
    code, rep = _run(capsys, "pvalue", str(gpath))
    assert code == 0 and rep["result"] == json.loads(pinned)


# the pvalue result on G_3 under ten relabellings and on G_5, made before
# these graphs' large LPs were solved on their equitable quotient: the
# lifted witness is the uniform profile that the full solve printed
PINNED_LARGE = json.loads((Path(__file__).parent / "pinned_pvalue.json").read_text())


@pytest.mark.parametrize("label", sorted(PINNED_LARGE))
def test_pvalue_result_over_the_quotient_gate_is_pinned(tmp_path, capsys, label):
    from reference import _relabelled
    name, _, seed = label.partition("/")
    graph = projective_incidence_graph(int(name[2:]))
    gpath = tmp_path / "g.graph"
    gpath.write_text(write_graph(_relabelled(graph, int(seed)) if seed else graph))
    code, rep = _run(capsys, "pvalue", str(gpath))
    assert code == 0 and rep["result"] == PINNED_LARGE[label]


def _result_json(out):
    rep = json.loads(out)
    del rep["wall_time_s"]
    return rep


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli.make_parser() is cli.make_parser()
    gpath = tmp_path / "c7.graph"
    gpath.write_text(write_graph(cycle_graph(7)))
    code, fresh_out, _ = _main_in_subprocess(["pvalue", str(gpath)])
    assert code == 0
    fresh = _result_json(fresh_out)

    assert main(["pvalue", str(gpath), "--oracle", "3"]) == 0
    assert "oracle_agrees" in json.loads(capsys.readouterr().out)["result"]
    assert main(["pvalue", str(gpath)]) == 0
    after_oracle = _result_json(capsys.readouterr().out)
    assert not any(k.startswith("oracle_") for k in after_oracle["result"])
    assert after_oracle == fresh

    # a usage error (argparse exits 2) between two good calls
    with pytest.raises(SystemExit) as exc:
        main(["pvalue", str(gpath), "--oracle", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid int value" in captured.err
    assert main(["pvalue", str(gpath)]) == 0
    assert _result_json(capsys.readouterr().out) == fresh


def test_check_verbs(tmp_path, capsys):
    gpath = tmp_path / "k4.graph"
    _run(capsys, "gen", "complete", "n=4", "-o", str(gpath))
    for cls, expect in (("chordal", True), ("bridged", True),
                        ("meshed", True), ("modular", False)):
        code, rep = _run(capsys, "check", cls, str(gpath))
        assert code == (0 if expect else 1)
        assert rep["result"]["verdict"] is expect


def test_check_with_embedding(tmp_path, capsys):
    gpath = tmp_path / "j52.graph"
    lpath = tmp_path / "j52.labels"
    code, rep = _run(capsys, "gen", "johnson", "n=5", "k=2",
                     "-o", str(gpath), "--labels", str(lpath))
    assert code == 0 and lpath.exists()
    code, rep = _run(capsys, "check", "partial-johnson", str(gpath),
                     "--embedding", str(lpath), "-k", "2")
    assert code == 0 and rep["result"]["verdict"]


def test_gen_labels_rejected_before_any_output(tmp_path, capsys):
    gpath = tmp_path / "c7.graph"
    lpath = tmp_path / "c7.labels"
    assert main(["gen", "cycle", "n=7", "-o", str(gpath),
                 "--labels", str(lpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no canonical labels" in captured.err
    assert not gpath.exists() and not lpath.exists()


def test_gen_benzenoid(tmp_path, capsys):
    spec = tmp_path / "naphthalene.hex"
    spec.write_text("0 0\n1 0\n")
    gpath = tmp_path / "naph.graph"
    code, rep = _run(capsys, "gen", "benzenoid", "-o", str(gpath),
                     "--benzenoid-spec", str(spec))
    assert code == 0 and rep["result"]["n"] == 10


def test_graph_roundtrip_is_byte_identical(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    _run(capsys, "gen", "hypercube", "n=3", "-o", str(gpath))
    from medgraph.graph import read_graph, write_graph
    text = gpath.read_text()
    assert write_graph(read_graph(text)) == text


def test_unknown_class_exit_2(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    _run(capsys, "gen", "cycle", "n=5", "-o", str(gpath))
    assert main(["check", "no-such-class", str(gpath)]) == 2
    capsys.readouterr()


def test_unknown_suite_exit_2(capsys):
    assert main(["verify-paper", "no-such-suite"]) == 2
    capsys.readouterr()


def test_missing_file_exit_2(capsys):
    assert main(["median", "/nonexistent.graph", "/nonexistent.profile"]) == 2
    capsys.readouterr()


def test_directory_as_graph_exit_2(tmp_path, capsys):
    assert main(["pvalue", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_paper_suites(capsys):
    for suite in ("cycles", "fano", "classes", "benzenoids"):
        code = main(["verify-paper", suite])
        checks = json.loads(capsys.readouterr().out)["result"]["checks"]
        assert code == 0
        assert checks and all(c["passed"] and c["suite"] == suite
                              for c in checks)


def test_verify_paper_all(capsys):
    code = main(["verify-paper", "all"])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] and all(c["claim"] for c in result["checks"])
    # every claim of the abstract is on a check or not covered, never both,
    # and the uncovered ones come in the abstract's order
    checked = {c["claim"] for c in result["checks"]} & set(cli.ABSTRACT_CLAIMS)
    not_covered = result["not_covered"]
    assert sorted([*checked, *not_covered]) == sorted(cli.ABSTRACT_CLAIMS)
    assert not_covered == [c for c in cli.ABSTRACT_CLAIMS if c in not_covered]
    assert not_covered == [cli._UNIMODAL, cli._BUCOLIC]


def test_an_uncovered_claim_leaves_the_exit_code_at_0(monkeypatch, capsys):
    # the chordal examples taken off their claim, which is then not covered
    monkeypatch.setattr(cli, "_PAPER", [
        (suite, claim, None if fn is cli._chordal_examples else fn)
        for suite, claim, fn in cli._PAPER])
    assert main(["verify-paper", "classes"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["passed"] and cli._BRIDGED in result["not_covered"]
    assert all(c["claim"] != cli._BRIDGED for c in result["checks"])


@pytest.mark.parametrize("module, name, value", [
    ("medians", "is_p_weakly_convex", True),
    ("medians", "is_p_weakly_peakless", True),
    ("medians", "is_p_isometric", True),
    ("medians", "is_unimodal_on_power", False),
    ("lp", "alpha_beta_certificate", None),
])
def test_verify_paper_fails_when_a_local_check_is_wrong(monkeypatch, capsys,
                                                        module, name, value):
    monkeypatch.setattr(getattr(medgraph, module), name, lambda *args: value)
    assert main(["verify-paper", "all"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["result"]["passed"]
    # the failing checks carry the claim of the entry they belong to: the
    # Fano graph's for the medians functions, the halved cubes' for lp's
    entry = cli._halved_cube_examples if module == "lp" else cli._fano_plane
    (claim,) = [c for _, c, fn in cli._PAPER if fn is entry]
    failed = [c for c in rep["result"]["checks"] if not c["passed"]]
    assert failed and all(c["claim"] == claim for c in failed)


@pytest.mark.parametrize("module, name, value, entry", [
    ("recognizers", "has_convex_balls", ClassVerdict("convex_balls", True),
     "_convex_ball_examples"),
    ("recognizers", "is_chordal", ClassVerdict("chordal", True), "_chordal_examples"),
    ("metric", "is_gated_set", (True, {}), "_benzenoid_examples"),
    ("recognizers", "is_weakly_bridged", ClassVerdict("weakly_bridged", True),
     "_weakly_bridged_examples"),
    ("recognizers", "is_bipartite_absolute_retract",
     ClassVerdict("bipartite_absolute_retract", True), "_retract_examples"),
])
def test_verify_paper_fails_when_a_class_test_accepts_everything(
        monkeypatch, capsys, module, name, value, entry):
    # each class entry holds a non-member, whose check must fail, and every
    # failing check belongs to the entry or to one that calls its test:
    # is_bridged calls is_weakly_bridged, so C_4 then passes as bridged
    nonmember, others = {
        "_convex_ball_examples": ("C_6 not CB, witness (0, 2, 1, 4, 3)", ()),
        "_chordal_examples": ("C_4 not chordal", ()),
        "_benzenoid_examples": ("hexagon vertices {0, 3}, at distance 2, not gated", ()),
        "_weakly_bridged_examples": ("W_5- not weakly bridged", ("_chordal_examples",)),
        "_retract_examples": ("C_6 bipartite, not a bipartite absolute retract", ()),
    }[entry]
    monkeypatch.setattr(getattr(medgraph, module), name, lambda *args: value)
    assert main(["verify-paper", "all"]) == 1
    rep = json.loads(capsys.readouterr().out)
    (claim,) = [c for _, c, fn in cli._PAPER if fn is getattr(cli, entry)]
    claims = {c for _, c, fn in cli._PAPER
              if fn in [getattr(cli, e) for e in (entry, *others)]}
    failed = [c for c in rep["result"]["checks"] if not c["passed"]]
    assert (claim, nonmember) in [(c["claim"], c["check"]) for c in failed], failed
    assert all(c["claim"] in claims for c in failed), failed


C7 = "7 7\n" + "".join(f"{i} {(i + 1) % 7}\n" for i in range(7))
P4 = "4 3\n0 1\n1 2\n2 3\n"
_j42, _j42_labels = johnson(4, 2)
J42, J42_LABELS = write_graph(_j42), write_labels(_j42_labels)
CHECK_J42 = ["check", "partial-johnson", "{graph}", "--embedding", "{text}",
             "-k", "2"]
# 2*10^9 vertices and no edges: rejected before any per-vertex allocation
HUGE = "2000000000 0\n"


# text is a profile or a labels file
@pytest.mark.parametrize("graph, text, argv", [
    (C7, "", ["median", "{graph}", "{text}"]),
    (C7, "x 1\n", ["median", "{graph}", "{text}"]),
    (C7, "0 1\n", ["median", "{graph}", "{text}", "-p", "0"]),
    (C7, "", ["gen", "cycle", "n=x", "-o", "{graph}"]),
    (C7, "", ["gen", "cycle", "n=5", "n=6", "-o", "{graph}"]),
    (C7, "", ["gen", "cycle", "n=5", "k=3", "-o", "{graph}"]),
    (C7, "", ["gen", "projective_plane", "n=3", "-o", "{graph}"]),
    (C7, "", ["pvalue", "{graph}", "--oracle", "-1"]),
    (P4, "", ["pvalue", "{graph}", "--oracle", "-1"]),     # p = 1: no oracle run
    ("-1 0\n", "", ["pvalue", "{graph}"]),
    (HUGE, "", ["pvalue", "{graph}"]),
    (J42, J42_LABELS + "99: 1,2\n", CHECK_J42),
    (J42, J42_LABELS + "-4: 0,3\n", CHECK_J42),
    (J42, J42_LABELS + J42_LABELS.splitlines()[0] + "\n", CHECK_J42),
    # vertex 0 gets vertex 1's label {0, 2}: the embedding check fails
    (J42, "0: 0,2\n" + J42_LABELS.split("\n", 1)[1], CHECK_J42),
], ids=["empty-profile", "non-integer-vertex", "p-zero", "gen-non-integer",
        "gen-repeated-parameter", "gen-unknown-parameter",
        "gen-unknown-parameter-own-family",
        "negative-oracle-weight", "negative-oracle-weight-p1",
        "negative-vertex-count", "huge-header", "label-vertex-too-large",
        "label-vertex-negative", "label-vertex-repeated",
        "embedding-unverified"])
def test_bad_input_exit_2(tmp_path, capsys, graph, text, argv):
    gpath, tpath = tmp_path / "g.graph", tmp_path / "text.txt"
    gpath.write_text(graph)
    tpath.write_text(text)
    argv = [a.format(graph=gpath, text=tpath) for a in argv]
    if graph == HUGE:
        # in a capped child, so that allocating the vertices fails fast
        # with a MemoryError instead of filling the machine
        code, out, err = _main_in_subprocess(argv)
        assert err == "error: graph is not connected\n"
    else:
        code = main(argv)
        out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert gpath.read_text() == graph        # gen wrote nothing


def test_gen_over_the_size_bound_exits_2_before_allocating(tmp_path):
    # 2*10^9 path vertices: built, they would fail the 1 GB cap of the child
    # with a MemoryError, so only a bound checked from n exits 2
    out = tmp_path / "p.graph"
    code, stdout, err = _main_in_subprocess(
        ["gen", "path", "n=2000000000", "-o", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: P_2000000000 would have 2000000000 vertices")


# ----------------------------------------------------------- malformed input

# Numbers stay small so that no generated graph or family is large.
_TOKENS = ["0", "1", "2", "3", "5", "-1", "x", "1/2", "3/0", "#", "default",
           ":", "1,2", "n=3", "=", ""]
_junk = st.lists(st.lists(st.sampled_from(_TOKENS), max_size=3).map(" ".join),
                 max_size=6).map("\n".join)
_graph_text = st.one_of(st.sampled_from([C7, "3 2\n0 1\n1 2\n", "1 0\n",
                                         "4 4\n0 1\n1 2\n2 3\n3 0\n"]), _junk)
# a profile, labels or benzenoid spec file
_text = st.one_of(st.sampled_from(["0 1\n3 1\n", "0 1/2\n1 0\n",
                                   "0: 0,1\n1: 1,2\n", "0 0\n1 0\n"]), _junk)
_value = st.sampled_from(["-1", "0", "1", "2", "3", "x", ""])
_param = st.builds("{}={}".format, st.sampled_from(["n", "m", "k", "q", "type"]),
                   _value)
_FAMILIES = ["path", "cycle", "complete", "complete_bipartite", "hyperoctahedron",
             "wheel", "hypercube", "halved_cube", "johnson", "bn", "benzenoid",
             "projective_plane", "alpha_configuration", "beta_configuration",
             "nonesuch"]
_CLASSES = ["meshed", "weakly-modular", "modular", "chordal", "bridged", "pc",
            "ic3", "thick", "bipartite-absolute-retract", "alpha", "beta",
            "partial-johnson", "partial-halved-cube", "nonesuch"]
_argv = st.one_of(
    st.tuples(st.just("gen"), st.sampled_from(_FAMILIES),
              st.lists(_param, max_size=2), st.sampled_from(
                  [[], ["--benzenoid-spec", "{text}"], ["--labels", "{out}"]]))
      .map(lambda t: [t[0], t[1], *t[2], "-o", "{out}", *t[3]]),
    st.tuples(st.sampled_from([[], ["-p", "2"], ["-p", "0"], ["-p", "x"]]))
      .map(lambda t: ["median", "{graph}", "{text}", *t[0]]),
    st.sampled_from([[], ["--restrict-j"], ["--oracle", "1"], ["--oracle", "-1"],
                     ["--oracle", "x"]])
      .map(lambda extra: ["pvalue", "{graph}", *extra]),
    st.tuples(st.sampled_from(_CLASSES), st.sampled_from(
        [[], ["--embedding", "{text}"], ["--embedding", "{text}", "-k", "2"],
         ["-k", "x"]]))
      .map(lambda t: ["check", t[0], "{graph}", *t[1]]),
    st.sampled_from(["cycles", "classes", "nonesuch", ""])
      .map(lambda suite: ["verify-paper", suite]),
    st.lists(st.sampled_from(["pvalue", "-p", "--oracle", "x", "{graph}"]),
             max_size=3),
)


@settings(max_examples=50, deadline=None, database=None)
@given(argv=_argv, graph=_graph_text, text=_text)
def test_malformed_input_never_tracebacks(argv, graph, text):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("graph", "text", "out")}
        for name, content in (("graph", graph), ("text", text)):
            with open(paths[name], "w") as fh:
                fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([a.format(**paths) for a in argv])
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, graph, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
