import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings

from helpers import seeded_cover_family
from porphyry import cli, evaluate, parse
from porphyry.magma import demo_dsl

DEMO_FILE = None


@pytest.fixture()
def demo_file(tmp_path):
    p = tmp_path / "magma.pdl"
    p.write_text(demo_dsl(2))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    payload = json.loads(out)
    jsonschema.validate(payload, cli.SCHEMAS[payload["command"]])
    return code, payload, err


def recheck_model_block(dsl_block, formula_text, sig_decls, assignment, expect):
    src = f"sig {{ {sig_decls} }}\n{dsl_block}\n"
    pf = parse(src)
    (model,) = pf.models.values()
    f = cli.parse_formula(formula_text, pf.signature)
    assert evaluate(f, model, dict(assignment)) is expect


def test_demo_text_round_trips(capsys):
    code, out, _ = run(capsys, ["demo", "magma", "--max-size", "2"])
    assert code == cli.EXIT_OK
    pf = parse(out)
    assert pf.models["magma"].size == 17
    assert [e.name for e in pf.system.entries] == ["Mon", "Grp", "Ab"]


def test_demo_json(capsys):
    code, payload, _ = run_json(capsys, ["demo", "magma", "--max-size", "1"])
    assert code == cli.EXIT_OK
    assert payload["max_size"] == 1
    assert "model magma" in payload["source"]


def test_check_valid_file(capsys, demo_file):
    code, payload, _ = run_json(capsys, ["check", demo_file])
    assert code == cli.EXIT_OK
    assert payload["valid"] is True
    assert payload["violations"] == []


def test_check_reports_violations(capsys, tmp_path):
    p = tmp_path / "bad.pdl"
    p.write_text(
        "sig { pred M1/1; }\ndefsys {\n  def A(x) := B(x);\n}\n"
    )
    code, payload, _ = run_json(capsys, ["check", str(p)])
    assert code == cli.EXIT_FOUND
    assert payload["valid"] is False
    (v,) = payload["violations"]
    assert v["entry"] == 0
    assert v["kind"] == "forward-reference"
    assert v["symbol"] == "B"


def test_tree_text_and_dot(capsys, demo_file):
    code, payload, _ = run_json(capsys, ["tree", demo_file])
    assert code == cli.EXIT_OK
    assert payload["roots"] == ["Mon"]
    assert {(e["species"], e["genus"]) for e in payload["edges"]} == {
        ("Grp", "Mon"),
        ("Ab", "Grp"),
    }
    code, out, _ = run(capsys, ["tree", demo_file, "--dot"])
    assert code == cli.EXIT_OK
    assert '"Grp" -> "Mon" [label="HasInv(x)"]' in out


def test_classify_difference(capsys, demo_file):
    code, payload, _ = run_json(
        capsys, ["classify", demo_file, "--species", "Ab", "--formula", "Comm(x)"]
    )
    assert code == cli.EXIT_OK
    assert payload["verdict"] == "difference"
    assert payload["engine"] == "exact-monadic"
    assert payload["evidence"]["rho_entails_delta"]["kind"] == "holds"
    assert payload["evidence"]["delta_entails_rho"]["kind"] == "holds"


def test_classify_accident_and_unrelated(capsys, demo_file):
    code, payload, _ = run_json(
        capsys,
        ["classify", demo_file, "--species", "Ab", "--formula", "Assoc(x)"],
    )
    assert code == cli.EXIT_OK
    assert payload["verdict"] == "accident"
    assert payload["evidence"]["psi_entails_rho"]["kind"] == "holds"
    assert payload["evidence"]["rho_entails_psi"]["kind"] == "countermodel"
    code, payload, _ = run_json(
        capsys,
        ["classify", demo_file, "--species", "Mon", "--formula", "Comm(x)"],
    )
    assert code == cli.EXIT_OK
    assert payload["verdict"] == "unrelated"


def test_entail_holds(capsys):
    code, payload, _ = run_json(
        capsys,
        [
            "entail",
            "--lhs",
            "forall x. M1(x) -> M2(x)",
            "--rhs",
            "(exists x. M1(x)) -> exists x. M2(x)",
            "--sig",
            "pred M1/1; pred M2/1;",
        ],
    )
    assert code == cli.EXIT_OK
    assert payload["engine"] == "exact-monadic"
    assert payload["verdict"] == {"kind": "holds"}


def test_entail_countermodel_rechecks(capsys):
    code, payload, _ = run_json(
        capsys,
        [
            "entail",
            "--lhs",
            "forall x. M1(x) -> M2(x)",
            "--rhs",
            "forall x. M2(x) -> M1(x)",
            "--sig",
            "pred M1/1; pred M2/1;",
        ],
    )
    assert code == cli.EXIT_FOUND
    v = payload["verdict"]
    assert v["kind"] == "countermodel"
    decls = "pred M1/1; pred M2/1;"
    recheck_model_block(
        v["model"], "forall x. M1(x) -> M2(x)", decls, v["assignment"], True
    )
    recheck_model_block(
        v["model"], "forall x. M2(x) -> M1(x)", decls, v["assignment"], False
    )


def test_entail_bounded_inconclusive(capsys):
    code, payload, _ = run_json(
        capsys,
        [
            "entail",
            "--lhs",
            "forall x. exists y. R(x, y)",
            "--rhs",
            "exists x. exists y. R(x, y)",
            "--bound",
            "2",
        ],
    )
    assert code == cli.EXIT_INCONCLUSIVE
    assert payload["engine"] == "bounded"
    assert payload["bound"] == 2
    assert payload["verdict"] == {"kind": "holds-up-to", "bound": 2}
    code, out, _ = run(
        capsys,
        [
            "entail",
            "--lhs",
            "forall x. exists y. R(x, y)",
            "--rhs",
            "exists x. exists y. R(x, y)",
            "--bound",
            "2",
        ],
    )
    assert "engine: bounded (bound 2)" in out
    assert "not a proof" in out


def test_entail_bounded_countermodel_rechecks(capsys):
    code, payload, _ = run_json(
        capsys,
        [
            "entail",
            "--lhs",
            "forall x. exists y. R(x, y)",
            "--rhs",
            "exists x. R(x, x)",
            "--bound",
            "3",
        ],
    )
    assert code == cli.EXIT_FOUND
    v = payload["verdict"]
    assert v["kind"] == "countermodel"
    recheck_model_block(
        v["model"], "forall x. exists y. R(x, y)", "pred R/2;", v["assignment"], True
    )
    recheck_model_block(
        v["model"], "exists x. R(x, x)", "pred R/2;", v["assignment"], False
    )


def test_sat_witness_rechecks(capsys):
    code, payload, _ = run_json(
        capsys,
        [
            "sat",
            "--formula",
            "exists x. M1(x) & !M2(x)",
            "--sig",
            "pred M1/1; pred M2/1;",
        ],
    )
    assert code == cli.EXIT_OK
    assert payload["satisfiable"] is True
    w = payload["witness"]
    recheck_model_block(
        w["model"],
        "exists x. M1(x) & !M2(x)",
        "pred M1/1; pred M2/1;",
        w["assignment"],
        True,
    )


def test_sat_unsat(capsys):
    code, payload, _ = run_json(
        capsys,
        ["sat", "--formula", "exists x. M1(x) & !M1(x)", "--sig", "pred M1/1;"],
    )
    assert code == cli.EXIT_FOUND
    assert payload["satisfiable"] is False
    assert payload["witness"] is None


def test_normalize_text(capsys):
    code, out, _ = run(
        capsys,
        [
            "normalize",
            "--formula",
            "M2(x) & exists y. M1(y)",
            "--sig",
            "pred M1/1; pred M2/1;",
        ],
    )
    assert code == cli.EXIT_OK
    assert out.splitlines() == ["M2(x) & (exists y. M1(y))", "pure: no"]


def test_normalize_json(capsys):
    code, payload, _ = run_json(
        capsys,
        [
            "normalize",
            "--formula",
            "M1(x) | !M1(x)",
            "--sig",
            "pred M1/1;",
        ],
    )
    assert code == cli.EXIT_OK
    assert payload["pure"] is True
    assert len(payload["disjuncts"]) == 2


def test_extensions(capsys, demo_file):
    code, payload, _ = run_json(capsys, ["extensions", demo_file, "--model", "magma"])
    assert code == cli.EXIT_OK
    sets = {e["name"]: sorted(e["elements"]) for e in payload["sets"]}
    assert sets["Mon"] == [0, 2, 7, 8, 10]
    assert sets["Grp"] == [0, 7, 10]
    assert sets["Ab"] == [0, 7, 10]


def test_reconstruct(capsys, tmp_path):
    p = tmp_path / "grid.pdl"
    p.write_text(
        "sig { pred M1/1; pred M2/1; }\n"
        "model w {\n  universe 4;\n  M1 = {1, 3};\n  M2 = {2, 3};\n}\n"
    )
    code, payload, _ = run_json(
        capsys,
        [
            "reconstruct",
            str(p),
            "--model",
            "w",
            "--family",
            "A={0,1,2,3}; B={1,3}; C={3}",
        ],
    )
    assert code == cli.EXIT_OK
    assert payload["result"] == "system"
    assert payload["defsys"] == (
        "defsys {\n"
        "  def A(x) := true;\n"
        "  def B(x) := A(x) & M1(x);\n"
        "  def C(x) := B(x) & M2(x);\n"
        "}"
    )
    assert payload["names"] == {"A": "A", "B": "B", "C": "C"}


def test_reconstruct_not_laminar(capsys, tmp_path):
    p = tmp_path / "grid.pdl"
    p.write_text(
        "sig { pred M1/1; pred M2/1; }\n"
        "model w {\n  universe 3;\n  M1 = {0, 1};\n  M2 = {1, 2};\n}\n"
    )
    code, payload, _ = run_json(
        capsys,
        [
            "reconstruct",
            str(p),
            "--model",
            "w",
            "--family",
            "A={0,1}; B={1,2}",
        ],
    )
    assert code == cli.EXIT_FOUND
    assert payload["result"] == "not-laminar"
    assert payload["witness"]["first"]["name"] == "A"
    assert payload["witness"]["second"]["name"] == "B"


def test_reconstruct_stops_at_the_ceiling(capsys, tmp_path):
    # The seeded 7-predicate cover search would try more combinations of
    # its primes than the default ceiling allows, so the command exits 2
    # before the level that passes it, where it used to run for hours.
    family = seeded_cover_family(7)
    p = tmp_path / "cells.pdl"
    p.write_text(
        family.signature.to_dsl() + "\n" + family.model.to_dsl("m", family.signature)
    )
    ((name, elems),) = family.sets
    argv = ["reconstruct", str(p), "--model", "m"]
    argv += ["--family", f"{name}={{{', '.join(map(str, sorted(elems)))}}}"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.endswith(" cover search nodes, ceiling is 2000000\n")
    code, out, err = run(capsys, argv + ["--ceiling", "10"])
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.endswith(" cover search nodes, ceiling is 10\n")


def test_generators(capsys, tmp_path):
    p = tmp_path / "gen.pdl"
    p.write_text(
        "sig { pred M1/1; }\n"
        "assert forall x. M1(x);\n"
        "assert exists x. M1(x);\n"
    )
    code, payload, _ = run_json(capsys, ["generators", str(p)])
    assert code == cli.EXIT_OK
    flags = [s["generator"] for s in payload["sentences"]]
    assert flags == [True, False]
    assert payload["engine"] == "exact-monadic"


def test_proximate(capsys, demo_file):
    code, payload, _ = run_json(
        capsys,
        [
            "proximate",
            demo_file,
            "--species",
            "Ab",
            "--candidates",
            "Mon,Grp",
        ],
    )
    assert code == cli.EXIT_OK
    assert payload["chosen"] == "Grp"
    assert payload["difference"] == "Comm(x)"
    scores = {s["name"]: (s["contains"], s["score"]) for s in payload["scores"]}
    assert scores == {"Mon": (True, 3), "Grp": (True, 1)}


def test_ceiling_flag_and_env(capsys, monkeypatch):
    argv = ["sat", "--formula", "exists x. M1(x)", "--sig", "pred M1/1;"]
    code, _, err = run(capsys, argv + ["--ceiling", "1"])
    assert code == cli.EXIT_ERROR
    assert "ceiling is 1" in err
    monkeypatch.setenv(cli.CEILING_ENV, "1")
    code, _, err = run(capsys, argv)
    assert code == cli.EXIT_ERROR
    assert "ceiling is 1" in err
    code, _, _ = run(capsys, argv + ["--ceiling", "1000"])
    assert code == cli.EXIT_OK
    monkeypatch.setenv(cli.CEILING_ENV, "not-a-number")
    code, _, err = run(capsys, argv)
    assert code == cli.EXIT_ERROR


# The directory the porphyry package is imported from, for child processes.
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])

# Runs the CLI on sys.argv[1:] with at most 1 GiB of address space, so that
# a count built by mistake fails the test instead of exhausting the host.
CAPPED_MAIN = """
import resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from porphyry.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


def child_env():
    """The environment of a child python with porphyry importable."""
    env = dict(os.environ)
    env.pop(cli.CEILING_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def run_child(*args, timeout=120):
    """Run python with the given arguments and porphyry importable;
    subprocess.TimeoutExpired past `timeout` seconds."""
    r = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
    )
    return r.returncode, r.stdout, r.stderr


def test_python_dash_m_runs_the_cli():
    sig = ["--sig", "pred M/1;"]
    for module in ("porphyry", "porphyry.cli"):
        code, out, _ = run_child("-m", module, "sat", "--formula", "exists x. M(x)", *sig)
        assert (code, out.splitlines()[0]) == (cli.EXIT_OK, "satisfiable: yes")
        code, out, _ = run_child("-m", module, "sat", "--formula", "M(x) & !M(x)", *sig)
        assert (code, out) == (cli.EXIT_FOUND, "satisfiable: no\n")


# The proximate genus of S, whose body is G(x) and a chain of `<->`: an even
# chain is valid, so G(x) alone recovers S, and an odd one is M(x), so the
# difference is the whole chain, whose cost is the tree size of its negation
# normal form.
PROXIMATE_CHAIN = """
import sys
from porphyry import parse, proximate_genus
for n in map(int, sys.argv[1:]):
    chain = " <-> ".join(["M(x)"] * n)
    sig = "sig { pred M/1; pred G/1; }"
    d = parse(sig + f" defsys {{ def S(x) := G(x) & ({chain}); }}")
    r = proximate_genus("S", ["G"], d.system)
    print(n, r.chosen, r.scores[0].score)
"""


def test_nested_iff_chains_answer_at_once():
    # As a tree, the negation normal form of a chain of n `<->` has about
    # 2^n nodes; the normal form and the proximate genus must not build or
    # walk it.  Each child gets 20 s, where one answers in well under 1 s.
    chain = " <-> ".join(["M(x)"] * 40)
    outs = [
        run_child(
            "-m", "porphyry", "normalize", "--formula", f, "--sig", "pred M/1;",
            timeout=20,
        )
        for f in (" <-> ".join(["M(x)"] * 12), chain)
    ]
    assert outs[0] == outs[1] == (cli.EXIT_OK, "!M(x) | M(x)\npure: yes\n", "")
    code, out, err = run_child("-c", PROXIMATE_CHAIN, "40", "41", timeout=20)
    assert (code, err) == (0, "")
    # s(n) = 6 + 2 s(n - 1) nodes for a chain of n >= 2 atoms, s(2) = 9.
    size = 9
    for _ in range(41 - 2):
        size = 6 + 2 * size
    assert out.splitlines() == ["40 G 1", f"41 G {size}"]


def test_closed_stdout_exits_2_without_a_traceback():
    # As in `porphyry demo magma --max-size 3 | head -1`, but the reading
    # end is closed before the child writes anything, so the report meets
    # a pipe with no reader every time.
    for argv in (
        ["demo", "magma", "--max-size", "3"],
        ["sat", "--formula", "exists x. M(x)", "--sig", "pred M/1;", "--json"],
    ):
        child = subprocess.Popen(
            [sys.executable, "-m", "porphyry", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (cli.EXIT_ERROR, b""), argv


def test_ceiling_past_the_digit_limit_exits_cleanly(capsys, tmp_path):
    # The redundancy check over R/14 trips the ceiling at size 2, with
    # 2^16384 interpretations: the check is skipped, not an error.
    r14 = "R(" + ", ".join(["x"] * 14) + ")"
    p = tmp_path / "r14.pdl"
    p.write_text(f"sig {{ pred R/14; }}\ndefsys {{ def A(x) := {r14} & {r14}; }}\n")
    code, out, err = run(capsys, ["check", str(p)])
    assert (code, out, err) == (
        cli.EXIT_OK,
        "valid: yes\nwarning check skipped: resource ceiling\n",
        "",
    )
    # 2^(2^40) supports, and 2^(2^40) interpretations of R/40 at size 2.
    r40 = "R(" + ", ".join(["x"] * 40) + ")"
    for argv, what in (
        (
            [
                "sat",
                "--formula",
                " & ".join(f"M{i}(x)" for i in range(40)),
                "--sig",
                " ".join(f"pred M{i}/1;" for i in range(40)),
            ],
            "supports",
        ),
        (
            ["entail", "--lhs", f"forall x. {r40}", "--rhs", f"exists x. {r40}",
             "--sig", "pred R/40;"],
            "interpretations",
        ),
    ):
        code, out, err = run_child("-c", CAPPED_MAIN, *argv)
        assert (code, out) == (cli.EXIT_ERROR, ""), err
        assert err == (
            f"error: enumeration needs at least 2^65536 {what}, "
            "ceiling is 2000000\n"
        )


def test_error_exits(capsys):
    code, _, err = run(capsys, ["check", "/nonexistent.pdl"])
    assert code == cli.EXIT_ERROR
    assert err.startswith("error:")
    code, _, err = run(
        capsys, ["sat", "--formula", "exists x. M1(x", "--sig", "pred M1/1;"]
    )
    assert code == cli.EXIT_ERROR
    code, _, err = run(
        capsys,
        ["sat", "--formula", "exists x. R(x, x)", "--sig", "pred R/2;"],
    )
    assert code == cli.EXIT_ERROR
    deep = "(" * 300 + "R(a, a)" + ")" * 300
    code, _, err = run(
        capsys, ["sat", "--formula", deep, "--sig", "pred R/2; const a;"]
    )
    assert code == cli.EXIT_ERROR
    assert "nested deeper than 100 levels" in err
    chain = " & ".join(["R(a, a)"] * 3000)
    for argv in (
        ["sat", "--formula", chain],
        ["entail", "--lhs", chain, "--rhs", "R(a, a)"],
    ):
        code, _, err = run(capsys, argv + ["--sig", "pred R/2; const a;"])
        assert code == cli.EXIT_ERROR
        assert "formula deeper than 500 levels" in err


def test_too_deep_after_unfolding_exits_2(capsys, tmp_path):
    # Each body parses, being under the parser's depth limit, but
    # unfolding C stacks the depths of A, B and C, past what the
    # recursive evaluators take.
    conj = " & ".join(["P(x)"] * 449)
    p = tmp_path / "deep.pdl"
    p.write_text(
        "sig { pred P/1; }\ndefsys {\n"
        f"  def A(x) := P(x) & {conj};\n"
        f"  def B(x) := A(x) & {conj};\n"
        f"  def C(x) := B(x) & {conj};\n"
        "}\nmodel m { universe 2; P = {0}; }\n"
    )
    # extensions evaluates each body as written, so it never unfolds.
    code, out, err = run(capsys, ["extensions", str(p), "--model", "m"])
    assert (code, out, err) == (cli.EXIT_OK, "A = {0}\nB = {0}\nC = {0}\n", "")
    # Unfolding keeps an explicit stack, and the redundancy warnings
    # evaluate one conjunct at a time, so check answers: every conjunct is
    # equivalent to P(x), so each is removable.
    code, out, err = run(capsys, ["check", str(p)])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.count("is removable on all small models") == 3 * 450
    # P(x) is C's difference, so classify only evaluates the shallow
    # difference; !P(x) is not, so it evaluates the whole of C, 1,350 deep.
    argv = ["classify", str(p), "--species", "C", "--formula", "P(x)"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (cli.EXIT_OK, "") and "difference" in out
    argv = ["classify", str(p), "--species", "C", "--formula", "!P(x)"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == "error: input too deep for the evaluators\n"


GRP_FILE = str(Path(__file__).resolve().parents[1] / "demos" / "grp.pdl")

# Values for each argument of the command table, mostly good, some bad.
ALL_DECLS = "pred M1/1; pred M2/1; pred Comm/1; pred R/2; const c;"
ARG_VALUES = {
    "file": [GRP_FILE] * 5 + ["no-such-file.pdl"],
    "topic": ["magma"] * 5 + ["groups"],
    "--species": ["Ab", "Grp", "Mon", "Ab", "Grp", "Mon", "Assoc", "nope"],
    "--formula": [
        "Comm(x)",
        "Comm(x) & M1(x)",
        "exists x. Comm(x) & !M1(x)",
        "M1(x) & !M2(y)",
        "forall x. M1(x) -> exists y. M2(y) & M1(c)",
        "M2(x) | exists y. M1(y)",
        "exists x. R(x, x)",
        "R(x, x",
    ],
    "--lhs": [
        "forall x. M1(x) -> M2(x)",
        "forall x. exists y. R(x, y)",
        "M1(x)",
        "M1(c) & Comm(x)",
        "(",
    ],
    "--rhs": [
        "exists x. M2(x)",
        "exists x. exists y. R(x, y)",
        "exists x. R(x, x)",
        "M2(c)",
        "M1(x) | !M2(x)",
        "x",
    ],
    "--sig": [ALL_DECLS] * 4 + ["pred M1/1; pred M2/1; pred Comm/1;", "pred M1/1"],
    "--var": ["x", "y", "x", "forall"],
    "--model": ["toy"] * 4 + ["nope"],
    "--family": [
        "A={0,1,2,3}; B={0,1}; C={1}",
        "A={0,1,2}; B={1}",
        "A={0,1}; B={1,2}",
        "A={0}; B={0,1,2,3}",
        "A=0",
    ],
    "--candidates": ["Mon,Grp", "Grp, Ab", "Mon", "Mon,nope"],
    "--max-size": ["1", "2", "1", "2", "0"],
    "--bound": ["1", "2", "3", "1", "2", "3", "0", "x"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for flags, kwargs in cli._COMMANDS[command].args:
        name = flags[0]
        optional = name.startswith("--") and not kwargs.get("required")
        if optional and draw(st.booleans()):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(name)
        elif name.startswith("--"):
            argv += [name, draw(st.sampled_from(ARG_VALUES[name]))]
        else:
            argv.append(draw(st.sampled_from(ARG_VALUES[name])))
    if draw(st.integers(0, 3)) == 0:
        argv += ["--bound", draw(st.sampled_from(ARG_VALUES["--bound"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv + ["--ceiling", draw(st.sampled_from(["100000", "300", "1"]))]


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_argv_fuzz_exit_codes_and_schemas(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_FOUND, cli.EXIT_ERROR, cli.EXIT_INCONCLUSIVE)
    if code == cli.EXIT_ERROR:
        assert out.getvalue() == ""
        assert err.getvalue()
    elif "--json" in argv:
        payload = json.loads(out.getvalue())
        jsonschema.validate(payload, cli.SCHEMAS[argv[0]])
