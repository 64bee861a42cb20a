import gc
import operator
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import all_models, naive_eval
from porphyry import (
    rename_apart,
    And,
    Const,
    ConstantDef,
    DefinitionSystem,
    Eq,
    Exists,
    Falsum,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Pred,
    Signature,
    Var,
    Verum,
    parse,
    parse_formula,
    parse_formulas_infer,
    parse_path,
    render,
    validate,
)
from porphyry.parser import _NODES, _PUNCT, KEYWORDS, _words
from porphyry.syntax import CONNECTIVES, KEYWORD_OF

SIG = Signature((("M1", 1), ("M2", 1)), ("c",), False)


def P(name, v):
    return Pred(name, (Var(v),))


FULL = """
# a complete file
sig {
  pred M1/1;
  pred R/2;
  const c;
  equality;
}
defsys {
  def A(x) := M1(x) & R(x, c);
  defconst e := c;
}
model tiny {
  universe 2;
  M1 = {0};
  R = {(0, 1), (1, 1)};
  c = 1;
}
assert exists x. M1(x);
"""


def test_parse_full_file():
    pf = parse(FULL)
    assert pf.signature == Signature(
        (("M1", 1), ("R", 2)), ("c",), True
    )
    assert [e.name for e in pf.system.entries] == ["A", "e"]
    cd = pf.system.entries[1]
    assert isinstance(cd, ConstantDef)
    assert cd.body == Eq(Var(cd.var), Const("c"))
    m = pf.models["tiny"]
    assert m.size == 2
    assert sorted(m.predicates["R"]) == [(0, 1), (1, 1)]
    assert m.constants == {"c": 1}
    assert pf.asserts == (Exists("x", P("M1", "x")),)


def test_precedence_and_associativity():
    f = parse_formula("!M1(x) & M2(x) | M1(x) -> M2(x) <-> M1(x)", SIG)
    expected = Iff(
        Implies(Or(And(Not(P("M1", "x")), P("M2", "x")), P("M1", "x")), P("M2", "x")),
        P("M1", "x"),
    )
    assert f == expected
    assert parse_formula("M1(x) -> M2(x) -> M1(x)", SIG) == Implies(
        P("M1", "x"), Implies(P("M2", "x"), P("M1", "x"))
    )
    assert parse_formula("M1(x) <-> M2(x) <-> M1(x)", SIG) == Iff(
        P("M1", "x"), Iff(P("M2", "x"), P("M1", "x"))
    )
    # Every ordered pair of connectives, loosest first: unparenthesized, the
    # tighter one groups first, and of two equal ones `&` and `|` group to
    # the left and the arrows to the right.
    ops = [("<->", Iff), ("->", Implies), ("|", Or), ("&", And)]
    a, b, c = P("M1", "x"), P("M2", "x"), P("M1", "y")
    for power, (sym, op) in enumerate(ops):
        for power2, (sym2, op2) in enumerate(ops):
            left, right = op2(op(a, b), c), op(a, op2(b, c))
            text = f"M1(x) {sym} M2(x) {sym2} M1(y)"
            first = power > power2 or (power == power2 and sym not in ("->", "<->"))
            assert parse_formula(text, SIG) == (left if first else right), text
            assert parse_formula(f"(M1(x) {sym} M2(x)) {sym2} M1(y)", SIG) == left
            assert parse_formula(f"M1(x) {sym} (M2(x) {sym2} M1(y))", SIG) == right


def test_quantifier_scope_maximal():
    f = parse_formula("forall x. M1(x) & M2(x)", SIG)
    assert f == Forall("x", And(P("M1", "x"), P("M2", "x")))
    g = parse_formula("!forall x. M1(x)", SIG)
    assert g == Not(Forall("x", P("M1", "x")))
    h = parse_formula("(forall x. M1(x)) & M2(y)", SIG)
    assert h == And(Forall("x", P("M1", "x")), P("M2", "y"))
    k = parse_formula("exists x. M1(x) -> M2(x)", SIG)
    assert k == Exists("x", Implies(P("M1", "x"), P("M2", "x")))


def test_constants_and_literals():
    assert parse_formula("true", SIG) == Verum()
    assert parse_formula("false", SIG) == Falsum()
    assert parse_formula("M1(c)", SIG) == Pred("M1", (Const("c"),))


def test_model_extent_forms():
    pf = parse(
        "sig { pred p/0; pred M1/1; pred R/2; const c; }\n"
        "model m { universe 3; p = {()}; M1 = {(1), 2}; R = {(0, 1)}; c = {2}; }"
    )
    m = pf.models["m"]
    assert sorted(m.predicates["p"]) == [()]
    assert sorted(m.predicates["M1"]) == [(1,), (2,)]
    assert sorted(m.predicates["R"]) == [(0, 1)]
    assert m.constants == {"c": 2}


def test_model_defaults_and_errors():
    pf = parse("sig { pred M1/1; } model m { universe 1; }")
    assert pf.models["m"].predicates["M1"] == frozenset()
    with pytest.raises(ParseError):
        parse("sig { const c; } model m { universe 1; }")
    with pytest.raises(ParseError):
        parse("sig { pred M1/1; } model m { universe 2; M1 = {0, 2}; }")
    with pytest.raises(ParseError):
        parse("sig { pred M1/1; } model m { universe 2; M1 = {0}; M1 = {1}; }")
    with pytest.raises(ParseError):
        parse("sig { pred M1/1; } model m { universe 0; }")
    with pytest.raises(ParseError):
        parse("sig { pred R/2; } model m { universe 2; R = {0}; }")
    with pytest.raises(ParseError):
        parse("sig { } model m { universe 1; } model m { universe 1; }")


def test_defconst_requires_declared_constant():
    with pytest.raises(ParseError):
        parse("sig { pred M1/1; } defsys { defconst e := d; }")


def test_defconst_of_a_predicate_is_a_term_misused():
    # A reads as the base predicate, even after a clashing `defconst A`,
    # so naming it as a constant fails as a body term A would.
    text = "sig { pred A/1; const c; }\ndefsys { defconst A := c;\n  defconst B := A; }"
    assert _where(lambda: parse(text)) == ("predicate A used as a term", 3, 17)
    body = "sig { pred A/1; const c; equality; }\ndefsys { defconst A := c;"
    with pytest.raises(ParseError, match="predicate A used as a term"):
        parse(body + " def D(x) := x = A; }")
    earlier_def = "sig { const c; } defsys { def A() := true; defconst A := c;"
    with pytest.raises(ParseError, match="predicate A used as a term"):
        parse(earlier_def + " defconst B := A; }")
    # A clashing `defconst` first read as a constant may still be named.
    pf = parse(
        "sig { const c; }\n"
        "defsys { defconst A := c; defconst A := c; defconst B := A; }"
    )
    assert [v.kind for v in validate(pf.system).violations] == ["name-clash"]


def test_def_bodies_parse_tolerantly():
    pf = parse("sig { pred M1/1; } defsys { def A(x) := M1(x) & B(x); }")
    rep = validate(pf.system)
    assert not rep.valid
    assert [(v.entry, v.kind, v.symbol) for v in rep.violations] == [
        (0, "forward-reference", "B")
    ]


def test_asserts_are_strict():
    with pytest.raises(ParseError, match="unknown predicate"):
        parse("sig { pred M1/1; } assert B(x);")
    with pytest.raises(ParseError, match="declared /1"):
        parse("sig { pred M1/1; } assert M1(x, x);")


def test_asserts_read_one_symbol_table(monkeypatch):
    # However many asserts a file holds, the parser builds the same number
    # of symbol tables, and each assert is what parse_formula reads against
    # the entries before it.
    claims = [
        "forall x. {d}(x) -> P(x)",
        "(forall x. P(x)) & (forall x. {d}(x) | P(c))",
        "P(x1) & exists x. {d}(x) & x = c",
    ]

    def source(per_block):
        blocks = ["sig { pred P/1; const c; equality; }"]
        for k in range(10):
            blocks.append(f"defsys {{ def D{k}(x) := P(x) & P(c); }}")
            blocks += [f"assert {claims[j % 3].format(d=f'D{k}')};" for j in range(per_block)]
        return "\n".join(blocks)

    built = []
    symbols = DefinitionSystem.symbols
    monkeypatch.setattr(
        DefinitionSystem, "symbols", lambda self: built.append(1) or symbols(self)
    )
    counts = []
    for per_block in (0, 1, 5):
        built.clear()
        pf = parse(source(per_block))
        counts.append(len(built))
    assert counts[0] == counts[1] == counts[2]
    monkeypatch.undo()

    expected = [
        parse_formula(
            claims[j % 3].format(d=f"D{k}"),
            pf.signature,
            DefinitionSystem(pf.signature, pf.system.entries[: k + 1]),
        )
        for k in range(10)
        for j in range(5)
    ]
    assert pf.asserts == tuple(expected)
    assert pf.asserts[1] == And(
        Forall("x", P("P", "x")),
        Forall("x1", Or(P("D0", "x1"), Pred("P", (Const("c"),)))),
    )


def test_equality_gate():
    with pytest.raises(ParseError, match="equality"):
        parse_formula("x = c", Signature((), ("c",), False))
    f = parse_formula("x = c", Signature((), ("c",), True))
    assert f == Eq(Var("x"), Const("c"))


def test_binder_shadowing_rejected():
    with pytest.raises(ParseError, match="already bound"):
        parse_formula("forall x. exists x. M1(x)", SIG)
    with pytest.raises(ParseError):
        parse_formula("forall c. M1(c)", SIG)
    with pytest.raises(ParseError):
        parse("sig { pred M1/1; } defsys { def A(x, x) := M1(x); }")


def test_duplicate_definition_names_still_parse():
    pf = parse(
        "sig { pred M1/1; } defsys { def A(x) := M1(x); def A(x) := !M1(x); }"
    )
    rep = validate(pf.system)
    assert not rep.valid
    assert [(v.entry, v.kind) for v in rep.violations] == [(1, "name-clash")]


def test_parse_error_position():
    try:
        parse("sig { pred M1/1; }\nassert M1(x,, x);")
    except ParseError as e:
        assert e.line == 2
        assert str(e).startswith("2:")
    else:
        pytest.fail("expected ParseError")


def _where(call):
    """The message, line and column of the ParseError that call raises."""
    with pytest.raises(ParseError) as info:
        call()
    e = info.value
    assert str(e) == f"{e.line}:{e.col}: {e.message}"
    return e.message, e.line, e.col


_NO_CLAUSE = "expected 'pred', 'const', or 'equality', got 'end of input'"


@pytest.mark.parametrize(
    "text, where",
    [
        # After a comment, and on a later line.
        ("# note\nsig { pred M1/1 }", ("expected ';', got '}'", 2, 17)),
        ("sig {\n  pred M1/1;\n}\nassert M1(x,, x);", ("expected a name, got ','", 4, 13)),
        # A tab is one column.
        ("sig {\tpred\tM1/x; }", ("expected an integer, got 'x'", 1, 15)),
        # \r\n ends a line; a lone \r is one column.
        ("sig { }\r\nsig { }", ("signature already declared", 2, 1)),
        ("sig { }\r sig { }", ("signature already declared", 1, 10)),
        # End of input sits after a trailing newline, and after a comment
        # that ends the text.
        ("sig { pred M1/1;\n", (_NO_CLAUSE, 2, 1)),
        ("sig {\n  # open", (_NO_CLAUSE, 2, 9)),
        # A name resolved by the formula's scope.
        ("sig { pred M1/1; }\nassert\tM2(x);", ("unknown predicate M2", 2, 8)),
        ("sig { pred M1/1; }\nassert M1(M1);", ("predicate M1 used as a term", 2, 11)),
        # Blanks are space, tab, \r and \n only.
        ("sig { }\x0c", ("unexpected character '\\x0c'", 1, 8)),
        ("sig {\xa0}", ("unexpected character '\\xa0'", 1, 6)),
        ("sig { pred ½/1; }", ("unexpected character '½'", 1, 12)),
    ],
)
def test_parse_error_line_and_column(text, where):
    assert _where(lambda: parse(text)) == where


def test_parse_formulas_infer_error_line_and_column():
    texts = ["M1(x)", "exists y.\n\tR(y) & M1(y, y)"]
    assert _where(lambda: parse_formulas_infer(texts)) == (
        "M1 applied with arities 1 and 2", 2, 9
    )
    assert _where(lambda: parse_formula("M1(x) M2(x)", SIG)) == (
        "trailing input 'M2'", 1, 7
    )


def test_integers_raise_only_parse_error():
    # str.isdigit() holds for `²`, but int() cannot read it.
    assert _where(lambda: parse("sig { pred P/² ; }")) == (
        "unexpected character '²'", 1, 14
    )
    assert _where(lambda: parse("sig { pred P/1²; }")) == (
        "unexpected character '²'", 1, 15
    )
    # Any Unicode decimal digit reads as its value.
    assert parse("sig { pred P/٣; }").signature.predicates == (("P", 3),)


def test_overlong_integers_raise_only_parse_error():
    big = "9" * 5000
    for text, col in (
        (f"sig {{ pred P/{big}; }}", 14),
        (f"model m {{ universe {big}; }}", 20),
    ):
        try:
            parse(text)
        except ParseError as e:
            assert (e.message, e.line, e.col) == (
                "integer of 5000 digits is too long", 1, col
            )
        else:
            # Only interpreters with a limit on int() digits refuse it.
            assert not hasattr(sys, "get_int_max_str_digits")


def test_nesting_limit():
    sig = Signature((("R", 2),), ("a",), False)
    atom = "R(a, a)"
    deep = "(" * 100 + atom + ")" * 100
    assert parse_formula(deep, sig) == Pred("R", (Const("a"), Const("a")))
    too_deep = [
        "(" * 101 + atom + ")" * 101,
        "(" * 300 + atom + ")" * 300,
        "!" * 300 + atom,
        " -> ".join([atom] * 300),
        " <-> ".join([atom] * 300),
        "forall x. " + "(" * 300 + "R(x, a)" + ")" * 300,
    ]
    for text in too_deep:
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse_formula(text, sig)
    with pytest.raises(ParseError, match="nested deeper"):
        parse(f"sig {{ pred R/2; const a; }}\nassert {too_deep[1]};")

    # Flat chains nest no parentheses but make a deep syntax tree: 500
    # connectives deep parse, one more is a ParseError, and so is a chain of
    # 3000 conjuncts that rename_apart used to overflow the stack on.
    at_limit = [
        " & ".join([atom] * 501),
        " | ".join([atom] * 501),
        "forall x. " + " & ".join(["R(x, a)"] * 500),
        "!(" + " | ".join([atom] * 250) + ") & " + " & ".join([atom] * 250),
    ]
    for text in at_limit:
        parse_formula(text, sig)
    too_long = [
        " & ".join([atom] * 502),
        " & ".join([atom] * 3000),
        " | ".join([atom] * 3000),
        "forall x. " + " & ".join(["R(x, a)"] * 501),
        "!(" + " | ".join([atom] * 250) + ") & " + " & ".join([atom] * 251),
    ]
    for text in too_long:
        with pytest.raises(ParseError, match="formula deeper than 500 levels"):
            parse_formula(text, sig)
    with pytest.raises(ParseError, match="formula deeper"):
        parse(f"sig {{ pred R/2; const a; }}\nassert {too_long[1]};")
    with pytest.raises(ParseError, match="formula deeper"):
        parse(f"defsys {{ def D(x) := {too_long[2]}; }}")
    with pytest.raises(ParseError, match="formula deeper"):
        parse_formulas_infer([too_long[1]])


def _nodes(formulas):
    """Every formula and term node under `formulas`, once per occurrence."""
    out = []
    stack = list(formulas)
    while stack:
        g = stack.pop()
        out.append(g)
        if isinstance(g, Pred):
            out += g.args
        elif isinstance(g, Eq):
            out += (g.left, g.right)
        elif isinstance(g, (And, Or, Implies, Iff)):
            stack += (g.left, g.right)
        elif isinstance(g, (Not, Forall, Exists)):
            stack.append(g.body)
    return out


def _chain(n, rng):
    """A file of n definitions, each a genus and a difference."""
    base = [f"Q{k}" for k in range(6)]
    lines = ["sig { " + " ".join(f"pred {q}/1;" for q in base) + " pred R/2; }"]
    lines.append("defsys {")
    names = list(base)
    for i in range(n):
        q, r = rng.choice(base), rng.choice(base)
        difference = rng.choice(
            [f"{q}(x)", f"!{q}(x)", f"(exists y. R(x, y) & {q}(y))", f"({q}(x) | !{r}(x))"]
        )
        lines.append(f"  def D{i}(x) := {rng.choice(names)}(x) & {difference};")
        names.append(f"D{i}")
    return "\n".join(lines + ["}"])


def test_a_parse_builds_each_distinct_subtree_once():
    # Imported here: that module imports this one.
    from test_parse_golden import _Gen, _join

    rng = random.Random(23)
    texts = [_chain(1000, rng)]
    gen = _Gen(rng)
    while len(texts) < 300:
        text = _join(rng, gen.file())
        try:
            parse(text)
        except ParseError:
            continue
        texts.append(text)
    for text in texts:
        first, second = parse(text), parse(text)
        nodes = _nodes(e.body for e in first.system.entries)
        # Structurally equal nodes of one parse are one object ...
        assert len({id(g) for g in nodes}) == len(set(nodes))
        # ... and two parses of one text share every node.
        again = _nodes(e.body for e in second.system.entries)
        assert again == nodes
        assert all(g is h for g, h in zip(nodes, again))
        assert all(map(operator.is_, first.system.entries, second.system.entries))


def test_node_table_keys_are_untracked():
    # A key holds the class's name, names and ids, never the class, so one
    # collection untracks every key of the process's node table.
    text = _chain(200, random.Random(28)).replace(
        "pred R/2; }", "pred R/2; const c; equality; }"
    )
    parsed = parse(
        text
        + "\ndefsys { defconst k := c; def T() := !true | false <-> true; }"
        + "\nassert forall x. x = c -> Q0(c);"
    )
    # Every node class has keys: Var, Const, Pred, Eq, Not, the tables'
    # and both kinds of definition.
    kinds = {key[0] for key in _NODES}
    assert len(kinds) == 5 + len(KEYWORD_OF) + len(CONNECTIVES) + 2
    gc.collect()
    assert not any(gc.is_tracked(key) for key in _NODES)
    assert len(parsed.system.entries) == 202


def test_node_table_holds_only_live_nodes():
    # The table holds its nodes weakly: what a dropped parse alone kept
    # alive leaves it, and what is left is alive.
    gc.collect()
    before = len(_NODES)
    files = [parse(_chain(200, random.Random(seed))) for seed in range(3)]
    assert len(_NODES) > before + 3 * 200
    del files
    gc.collect()
    assert len(_NODES) == before
    assert all(ref() is not None for ref in _NODES.values())


def test_two_parses_of_a_deep_body_compare_equal():
    # Structural == on two separately built 450-conjunct chains recurses
    # past the interpreter's limit; two parses of the chain share it.
    body = " & ".join(["M(x)", "N(x)", "!M(x)"] * 150)
    text = f"sig {{ pred M/1; pred N/1; }}\ndefsys {{ def D(x) := {body}; }}"
    first, second = parse(text), parse(text)
    assert first == second
    assert first.system.entries[0] is second.system.entries[0]


def test_each_mark_is_one_word():
    # The tokenizer reads its marks from the syntax tables.
    marks = {symbol for symbol, _, _ in CONNECTIVES.values()} | _PUNCT
    assert marks >= {"<->", "->", "|", "&", ":=", "!"}
    for mark in marks:
        assert _words(mark) == ([mark, ""], set())
        assert _words(f"a{mark}b") == (["a", mark, "b", ""], {"a", "b"})


def test_parse_formulas_infer():
    sig, fs = parse_formulas_infer(["R(x, c) & M1(c)", "exists y. R(y, y)"])
    assert sig == Signature((("R", 2), ("M1", 1)), ("x", "c"), False)
    assert fs[0] == And(
        Pred("R", (Const("x"), Const("c"))), Pred("M1", (Const("c"),))
    )
    assert fs[1] == Exists("y", Pred("R", (Var("y"), Var("y"))))
    sig2, fs2 = parse_formulas_infer(["x = y"])
    assert sig2.equality and sig2.constants == ("x", "y")
    with pytest.raises(ParseError, match="arities"):
        parse_formulas_infer(["M1(x) & M1"])
    with pytest.raises(ParseError, match="predicate and term"):
        parse_formulas_infer(["M1(x)", "R(M1, x)"])


def test_parse_path(tmp_path):
    p = tmp_path / "f.pdl"
    p.write_text("sig { pred M1/1; }\nassert forall x. M1(x);\n")
    pf = parse_path(str(p))
    assert pf.asserts == (Forall("x", P("M1", "x")),)


def test_signature_to_dsl_round_trip():
    sig = Signature((("M1", 1), ("R", 2)), ("c",), True)
    assert parse(sig.to_dsl()).signature == sig


def test_model_to_dsl_round_trip():
    pf = parse(FULL)
    m = pf.models["tiny"]
    back = parse(pf.signature.to_dsl() + "\n" + m.to_dsl("tiny", pf.signature))
    assert back.models["tiny"] == m


VARS = ("x", "y", "z")


def _formulas():
    atoms = st.one_of(
        st.just(Verum()),
        st.just(Falsum()),
        st.builds(
            Pred,
            st.sampled_from(("M1", "M2")),
            st.tuples(st.sampled_from([Var(v) for v in VARS] + [Const("c")])),
        ),
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Iff, kids, kids),
            st.builds(Forall, st.sampled_from(VARS), kids),
            st.builds(Exists, st.sampled_from(VARS), kids),
        ),
        max_leaves=10,
    )


@settings(max_examples=300)
@given(_formulas())
def test_render_parse_round_trip(f):
    f = rename_apart(f, frozenset(SIG.names()))
    g = parse_formula(render(f), SIG)
    assert parse_formula(render(g), SIG) == g
    m = all_models(SIG.predicates, SIG.constants, 2)[13]
    env = {v: 0 for v in VARS}
    assert naive_eval(f, m, dict(env)) == naive_eval(g, m, dict(env))


# The DSL's keywords and punctuation, some names and numbers, and layout:
# enough to get past the tokenizer and deep into every grammar rule.
_PIECES = sorted(KEYWORDS) + [
    "<->", "->", ":=", "(", ")", "{", "}", ",", ";", ".", "=", "!", "&", "|",
    "/", "M1", "M2", "R", "c", "x", "y", "0", "2", "()", "#", "\n", " ",
    "²", "9" * 5000,
]
_SIG_EQ = Signature((("M1", 1), ("M2", 1), ("R", 2), ("Z", 0)), ("c",), True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)), max_size=40),
    st.sampled_from(["", " "]),
)
def test_parsers_raise_only_parse_error(pieces, sep):
    text = sep.join(pieces)
    for call in (
        lambda: parse(text),
        lambda: parse_formula(text, _SIG_EQ),
        lambda: parse_formula(text, SIG),
        lambda: parse_formulas_infer(text.split(";")),
    ):
        try:
            call()
        except ParseError:
            pass
