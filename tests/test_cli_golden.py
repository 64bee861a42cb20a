"""Golden table of CLI outputs.

Every case runs `cli.main` twice, as written and with `--json`, and
compares the exit code, stdout and stderr with `cli_golden.json` byte for
byte.  The cases cover every command and every result branch, so a
refactor of `cli.py` that changes any output fails here; the table also
holds the published `SCHEMAS`.

After an intended output change, rewrite the table with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of `tests/cli_golden.json`.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from porphyry import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

FILES = {
    "grp.pdl": """sig { pred Assoc/1; pred HasId/1; pred HasInv/1; pred Comm/1; }
defsys {
  def Mon(x) := Assoc(x) & HasId(x);
  def Grp(x) := Mon(x) & HasInv(x);
  def Ab(x) := Grp(x) & Comm(x);
}
model toy {
  universe 4;
  Assoc = {0, 1, 2};
  HasId = {0, 1, 3};
  HasInv = {0, 1};
  Comm = {1, 2, 3};
}
assert forall x. Ab(x) -> Mon(x);
assert exists x. Grp(x);
""",
    "tree.pdl": """sig { pred P/1; pred Q/1; pred R/2; }
defsys {
  def A(x) := P(x);
  def B(x) := A(x) & Q(x);
  def C(x) := A(x) | Q(x);
  def D(x, y) := R(x, y) & B(x);
}
""",
    "warn.pdl": """sig { pred P/1; pred Q/1; const c; }
defsys {
  def A(x) := P(x) & P(x);
  def B(x) := A(x) & Q(x);
  defconst e := c;
}
model m { universe 2; P = {0}; Q = {0, 1}; c = {1}; }
""",
    "bad.pdl": """sig { pred M1/1; }
defsys {
  def A(x) := B(x);
  def A(y) := M1(y) & M1(x);
}
""",
    "rel.pdl": """sig { pred R/2; }
defsys {
  def A(x) := exists y. R(x, y);
  def B(x) := A(x) & R(x, x);
}
assert forall x. R(x, x);
assert forall x. exists y. R(x, y);
""",
    "grid.pdl": """sig { pred M1/1; pred M2/1; }
model w { universe 4; M1 = {1, 3}; M2 = {2, 3}; }
model v { universe 3; M1 = {0, 1}; M2 = {1, 2}; }
model u { universe 3; M1 = {0, 1}; M2 = {}; }
""",
    "empty.pdl": """sig { pred P/1; }
model m { universe 2; P = {1}; }
""",
}

GRP, TREE, WARN, BAD, REL, GRID, EMPTY = (
    "{dir}/" + name for name in FILES
)
M12 = "pred M1/1; pred M2/1;"

CASES = {
    "check-valid-warnings": ["check", WARN],
    "check-warnings-skipped": ["check", WARN, "--ceiling", "1"],
    "check-invalid": ["check", BAD],
    "tree-plain": ["tree", TREE],
    "tree-grp": ["tree", GRP],
    "tree-dot": ["tree", GRP, "--dot"],
    "classify-difference": ["classify", GRP, "--species", "Ab", "--formula", "Comm(x)"],
    "classify-property": [
        "classify", GRP, "--species", "Ab", "--formula", "Grp(x) & Comm(x)"
    ],
    "classify-accident": ["classify", GRP, "--species", "Ab", "--formula", "Assoc(x)"],
    "classify-unrelated": ["classify", GRP, "--species", "Mon", "--formula", "Comm(x)"],
    "classify-bounded-difference": [
        "classify", REL, "--species", "B", "--formula", "R(x, x)", "--bound", "2"
    ],
    "classify-bounded-accident": [
        "classify", REL, "--species", "B", "--formula", "exists y. R(y, x)",
        "--bound", "2",
    ],
    "entail-holds": [
        "entail", "--lhs", "forall x. M1(x) -> M2(x)",
        "--rhs", "(exists x. M1(x)) -> exists x. M2(x)", "--sig", M12,
    ],
    "entail-countermodel": [
        "entail", "--lhs", "forall x. M1(x) -> M2(x)",
        "--rhs", "forall x. M2(x) -> M1(x)", "--sig", M12,
    ],
    "entail-countermodel-inferred-sig": ["entail", "--lhs", "M1(x)", "--rhs", "M2(x)"],
    "entail-holds-up-to": [
        "entail", "--lhs", "forall x. exists y. R(x, y)",
        "--rhs", "exists x. exists y. R(x, y)", "--bound", "2",
    ],
    "entail-bounded-countermodel": [
        "entail", "--lhs", "forall x. exists y. R(x, y)",
        "--rhs", "exists x. R(x, x)", "--bound", "3",
    ],
    "entail-bounded-default-bound": [
        "entail", "--lhs", "R(x, y)", "--rhs", "R(y, x)", "--sig", "pred R/2;",
    ],
    "sat-yes": ["sat", "--formula", "exists x. M1(x) & !M2(x)", "--sig", M12],
    "sat-yes-assignment": ["sat", "--formula", "M1(x) & !M2(y)", "--sig", M12],
    "sat-no": ["sat", "--formula", "exists x. M1(x) & !M1(x)", "--sig", "pred M1/1;"],
    "normalize-impure": [
        "normalize", "--formula", "M2(x) & exists y. M1(y)", "--sig", M12
    ],
    "normalize-pure": [
        "normalize", "--formula", "M1(y) | !M2(y)", "--sig", M12, "--var", "y"
    ],
    "extensions": ["extensions", GRP, "--model", "toy"],
    "extensions-none": ["extensions", EMPTY, "--model", "m"],
    "reconstruct-system": [
        "reconstruct", GRID, "--model", "w", "--family", "A={0,1,2,3}; B={1,3}; C={3}"
    ],
    "reconstruct-renamed": [
        "reconstruct", GRID, "--model", "w", "--family", "M1={0,1,2,3}; forall={1,3}"
    ],
    "reconstruct-not-laminar": [
        "reconstruct", GRID, "--model", "v", "--family", "A={0,1}; B={1,2}"
    ],
    "reconstruct-undefinable": [
        "reconstruct", GRID, "--model", "u", "--family", "A={0,1,2}; B={0}"
    ],
    "generators-exact": ["generators", GRP],
    "generators-bounded": ["generators", REL, "--bound", "2"],
    "demo-1": ["demo", "magma", "--max-size", "1"],
    "demo-2": ["demo", "magma"],
    "proximate": ["proximate", GRP, "--species", "Ab", "--candidates", "Mon,Grp"],
    "proximate-not-containing": [
        "proximate", GRP, "--species", "Grp", "--candidates", "Mon, Ab,"
    ],
    "error-missing-file": ["check", "{dir}/missing.pdl"],
    "error-parse": ["sat", "--formula", "exists x. M1(x", "--sig", "pred M1/1;"],
    "error-bound": ["entail", "--lhs", "M1(x)", "--rhs", "M1(x)", "--bound", "0"],
    "error-no-model": ["extensions", GRP, "--model", "nope"],
    "error-family": ["reconstruct", GRID, "--model", "w", "--family", "A=0"],
    "error-no-asserts": ["generators", TREE],
    "error-demo-size": ["demo", "magma", "--max-size", "4"],
}


def run_case(argv: list[str], workdir: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([a.replace("{dir}", workdir) for a in argv])
    return {
        "code": code,
        "stdout": out.getvalue().replace(workdir, "{dir}"),
        "stderr": err.getvalue().replace(workdir, "{dir}"),
    }


def record(workdir: str) -> dict:
    for name, text in FILES.items():
        Path(workdir, name).write_text(text)
    table = {"SCHEMAS": cli.SCHEMAS}
    for case, argv in CASES.items():
        table[case] = run_case(argv, workdir)
        table[case + " --json"] = run_case(argv + ["--json"], workdir)
    return table


def test_cli_outputs_match_golden_table(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CEILING_ENV, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text())
    got = record(str(tmp_path))
    assert sorted(got) == sorted(expected)
    for case in expected:
        assert got[case] == expected[case], case


if __name__ == "__main__":
    import os

    os.environ.pop(cli.CEILING_ENV, None)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as d:
        table = record(d)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
