"""Golden corpus of parser inputs.

A fixed seed generates a few thousand texts: whole files with sig, defsys,
model and assert blocks, standalone formulas, formulas at and past the
nesting and depth limits, copies of files and formulas with a few
characters cut out or pasted in, and texts mixed from the grammar's
pieces.  Each text goes through `parse`, `parse_formula` and
`parse_formulas_infer`.  What each returns, written out canonically, or the
message, line and column of the ParseError it raises, is hashed into one
short digest per text, and `parse_golden.json` holds the digests.  A change
to the parser that alters any result or any error fails here.

After an intended change to what the parser gives, rewrite the table with

    PYTHONPATH=src python tests/test_parse_golden.py

and review which texts moved.
"""

import collections
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

from porphyry import ParseError, parse, parse_formula, parse_formulas_infer
from test_parser import _PIECES

GOLDEN = Path(__file__).with_name("parse_golden.json")
SEED = 20211
N_FILES = 700
N_FORMULAS = 700
N_MIXED = 1200

# Interpreters since 3.11 refuse int() of more than 4300 digits, so an
# overlong integer parses on some versions and not on others.
PIECES = [p for p in _PIECES if len(p) < 100]
# Blanks, a comment, and characters that are blanks elsewhere, numbers
# that are not decimal digits, a decimal digit that is not ASCII, and
# letters that are not ASCII.
ODD = [" ", "\t", "\n", "\r\n", "\r", "#", "\x0c", "\xa0", "²", "½", "٣", "é", "_", "'"]
CHARS = "abcxyzPQR019_ (){},;.=!&|/-<>:#\t\n" + "".join(ODD)

PREDS = ["P", "Q", "R", "Mon", "_p", "é1", "x²", "forallx", "sig2", "Z"]
CONSTS = ["c", "d", "k", "c2"]
VARS = ["x", "y", "z", "v1", "_t", "c"]

# The signature and system that parse_formula reads every text against.
SYSTEM = parse(
    "sig { pred P/1; pred Q/1; pred R/2; pred Z/0; const c; const d; equality; }\n"
    "defsys { def Mon(x) := P(x) & Q(x); def D(x, y) := R(x, y) | Mon(x);\n"
    "  defconst k := c; def E() := Z; }"
).system


def _word(tok: str) -> bool:
    return tok[:1].isalnum() or tok[:1] == "_"


def _join(rng: random.Random, toks: list[str]) -> str:
    """Tokens with random layout between them; two words always get a
    blank, so the layout never joins them into one."""
    out = [toks[0]] if toks else []
    for a, b in zip(toks, toks[1:]):
        r = rng.random()
        if r < 0.08:
            sep = rng.choice(["\n", "\t", "\r\n", "  # note\n", " \n  "])
        elif r < 0.4 and not (_word(a) and _word(b)):
            sep = ""
        else:
            sep = " "
        out += [sep, b]
    return "".join(out)


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def arity(self, preds: dict[str, int], name: str) -> int:
        # Now and then the wrong number of arguments.
        if name in preds and self.rng.random() < 0.97:
            return preds[name]
        return self.rng.randrange(3)

    def term(self, bound: list[str], consts: list[str]) -> str:
        pool = bound + consts + VARS
        return self.rng.choice(pool)

    def formula(self, depth: int, bound: list[str], preds, consts, eq) -> list[str]:
        rng = self.rng
        r = rng.random()
        if depth <= 0 or r < 0.3:
            r = rng.random()
            if r < 0.07:
                return [rng.choice(["true", "false"])]
            if r < 0.17 and eq:
                return [self.term(bound, consts), "=", self.term(bound, consts)]
            known = list(preds)
            name = rng.choice(known if known and rng.random() < 0.95 else PREDS)
            n = self.arity(preds, name)
            if n == 0 and rng.random() < 0.7:
                return [name]
            args: list[str] = []
            for i in range(n):
                args += ([","] if i else []) + [self.term(bound, consts)]
            return [name, "("] + args + [")"]
        if r < 0.42:
            return ["!"] + self.formula(depth - 1, bound, preds, consts, eq)
        if r < 0.55:
            var = rng.choice(VARS[:-1] if rng.random() < 0.95 else VARS)
            q = rng.choice(["forall", "exists"])
            body = self.formula(depth - 1, bound + [var], preds, consts, eq)
            return [q, var, "."] + body
        if r < 0.65:
            inner = self.formula(depth - 1, bound, preds, consts, eq)
            return ["("] + inner + [")"]
        op = rng.choice(["&", "&", "|", "|", "->", "<->"])
        left = self.formula(depth - 1, bound, preds, consts, eq)
        right = self.formula(depth - 1, bound, preds, consts, eq)
        return left + [op] + right

    def file(self) -> list[str]:
        rng = self.rng
        preds = {p: rng.randrange(3) for p in PREDS if rng.random() < 0.5}
        consts = [c for c in CONSTS if rng.random() < 0.4]
        eq = rng.random() < 0.5
        toks = ["sig", "{"]
        clauses = [["pred", p, "/", str(n), ";"] for p, n in preds.items()]
        clauses += [["const", c, ";"] for c in consts]
        clauses += [["equality", ";"]] if eq else []
        rng.shuffle(clauses)
        for c in clauses:
            toks += c
        toks.append("}")
        defined = dict(preds)
        for _ in range(rng.randrange(5)):
            kind = rng.random()
            if kind < 0.45:
                toks += ["defsys", "{"]
                for _ in range(rng.randrange(5)):
                    name = rng.choice(["A", "B", "C", "Mon", "D2"] + PREDS[:1])
                    if consts and rng.random() < 0.15:
                        toks += ["defconst", name, ":=", rng.choice(consts + ["zz"]), ";"]
                        continue
                    params = [rng.choice(VARS[:-1]) for _ in range(rng.randrange(3))]
                    toks += ["def", name, "("]
                    for i, p in enumerate(params):
                        toks += ([","] if i else []) + [p]
                    toks += [")", ":="]
                    toks += self.formula(3, params, defined, consts, eq) + [";"]
                    defined.setdefault(name, len(params))
                toks.append("}")
            elif kind < 0.7:
                # Now and then an empty universe or an element past it.
                size = rng.randrange(1, 4) if rng.random() < 0.95 else 0
                toks += ["model", rng.choice(["m", "n"]), "{", "universe", str(size), ";"]
                for p in preds if rng.random() < 0.8 else PREDS[:3]:
                    toks += [p, "=", "{"]
                    n = self.arity(preds, p)
                    for i in range(rng.randrange(3)):
                        toks += [","] if i else []
                        top = size + (rng.random() < 0.05)
                        elems = [str(rng.randrange(max(top, 1))) for _ in range(n)]
                        if n == 1 and rng.random() < 0.6:
                            toks += elems
                        else:
                            toks.append("(")
                            for j, e in enumerate(elems):
                                toks += ([","] if j else []) + [e]
                            toks.append(")")
                    toks += ["}", ";"]
                for c in consts:
                    v = str(rng.randrange(max(size, 1)))
                    toks += [c, "="] + (["{", v, "}"] if rng.random() < 0.5 else [v]) + [";"]
                toks.append("}")
            else:
                toks += ["assert"] + self.formula(4, [], defined, consts, eq) + [";"]
        return toks


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(len(text) + 1)
        r = rng.random()
        if r < 0.4:
            text = text[:i] + text[i + rng.randrange(1, 4):]
        elif r < 0.8:
            text = text[:i] + rng.choice(PIECES + ODD) + text[i:]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:i] + text[min(i, j):max(i, j)][:20] + text[i:]
    return text


def _limits() -> list[str]:
    """Formulas at and just past MAX_NESTING and MAX_DEPTH."""
    atom = "R(c, x)"
    out = []
    for n in (99, 100, 101):
        out += [
            "(" * n + atom + ")" * n,
            "!" * n + atom,
            " -> ".join([atom] * (n + 1)),
            " <-> ".join([atom] * (n + 1)),
            "forall y. " * n + atom,
        ]
    for n in (499, 500, 501, 502):
        out += [
            " & ".join([atom] * n),
            " | ".join([atom] * n),
            "forall y. " + " & ".join(["R(y, c)"] * n),
            "!(" + " | ".join([atom] * 250) + ") & " + " & ".join([atom] * (n - 250)),
        ]
    return out


def texts() -> list[str]:
    rng = random.Random(SEED)
    gen = _Gen(rng)
    out: list[str] = []
    for _ in range(N_FILES):
        text = _join(rng, gen.file())
        out.append(text)
        out.append(_mutate(rng, text))
    for _ in range(N_FORMULAS):
        eq = rng.random() < 0.5
        toks = gen.formula(rng.randrange(1, 6), [], {"P": 1, "R": 2, "Z": 0}, ["c", "d"], eq)
        text = _join(rng, toks)
        out.append(text)
        out.append(_mutate(rng, text))
    out += _limits()
    for _ in range(N_MIXED):
        pieces = [
            rng.choice(PIECES)
            if rng.random() < 0.8
            else "".join(rng.choice(CHARS) for _ in range(rng.randrange(4)))
            for _ in range(rng.randrange(41))
        ]
        out.append(rng.choice(["", " "]).join(pieces))
    return out


def canon(x) -> str:
    """x written out in prefix form, with an explicit stack, so the deepest
    formula the parser accepts does not overflow it.  Dataclasses by class
    name and fields, tuples and dicts with their length, frozensets sorted."""
    out: list[str] = []
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, (str, int, bool, type(None))):
            out.append(repr(x))
        elif isinstance(x, tuple):
            out.append(f"({len(x)}")
            stack.extend(reversed(x))
        elif isinstance(x, dict):
            out.append(f"{{{len(x)}")
            stack.extend(reversed(list(x.items())))
        elif isinstance(x, frozenset):
            out.append(f"#{len(x)}")
            stack.extend(reversed(sorted(x)))
        elif dataclasses.is_dataclass(x):
            out.append(type(x).__name__)
            stack.extend(reversed([getattr(x, f.name) for f in dataclasses.fields(x)]))
        else:
            raise TypeError(f"no canonical form for {x!r}")
    return " ".join(out)


def results(text: str) -> list:
    """What parse, parse_formula and parse_formulas_infer give for text:
    each result, or the message, line and column of its ParseError."""
    out = []
    for call in (
        lambda: parse(text),
        lambda: parse_formula(text, SYSTEM.base, SYSTEM),
        lambda: parse_formulas_infer(text.split(";")),
    ):
        try:
            out.append(call())
        except ParseError as e:
            out.append(("ParseError", e.message, e.line, e.col))
    return out


def digest_of(got: list) -> str:
    parts = [canon(r) for r in got]
    return hashlib.blake2b("\n".join(parts).encode(), digest_size=6).hexdigest()


def digest(text: str) -> str:
    return digest_of(results(text))


def test_parse_results_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    corpus = texts()
    assert expected["seed"] == SEED and len(expected["digests"]) == len(corpus)
    differ = [
        (i, text)
        for i, (text, want) in enumerate(zip(corpus, expected["digests"]))
        if digest(text) != want
    ]
    assert differ == [], f"{len(differ)} texts parse differently, first: {differ[:3]}"


def test_shuffled_parses_match_golden_digests():
    # The parser's node table lives as long as the process and hands back
    # live nodes by their children's ids.  In another order, with a random
    # few results kept alive a while and the rest dropped at once, so that
    # the ids of dead nodes are taken again, every text gives the same.
    expected = json.loads(GOLDEN.read_text())["digests"]
    corpus = list(enumerate(texts()))
    rng = random.Random(29)
    rng.shuffle(corpus)
    kept: collections.deque = collections.deque(maxlen=16)
    differ = []
    for i, text in corpus:
        got = results(text)
        if digest_of(got) != expected[i]:
            differ.append((i, text))
        if rng.random() < 0.25:
            kept.append(got)
    assert differ == [], f"{len(differ)} texts parse differently, first: {differ[:3]}"


if __name__ == "__main__":
    corpus = texts()
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "digests": [digest(t) for t in corpus]}, indent=0)
        + "\n"
    )
    print(f"wrote {len(corpus)} digests to {GOLDEN}", file=sys.stderr)
