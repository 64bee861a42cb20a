import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import all_models, naive_eval, occurring, random_formula
from porphyry import (
    And,
    Const,
    Eq,
    Exists,
    Falsum,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Signature,
    Var,
    Verum,
    big_and,
    big_or,
    free_vars,
    nnf,
    node_count,
    quantifier_depth,
    render,
    rename_apart,
    subst,
)
from porphyry.syntax import Facts, conjuncts, facts

VARS = ("x", "y", "z")
PREDS = ("M1", "M2")


def P(name, v):
    return Pred(name, (Var(v),))


def terms():
    return st.sampled_from([Var(v) for v in VARS] + [Const("c")])


def formulas():
    atoms = st.one_of(
        st.just(Verum()),
        st.just(Falsum()),
        st.builds(Pred, st.sampled_from(PREDS), st.tuples(terms())),
        st.builds(Eq, terms(), terms()),
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
        max_leaves=8,
    )


def models():
    sig_preds = tuple((p, 1) for p in PREDS)
    return st.sampled_from(all_models(sig_preds, ("c",), 2))


def envs():
    return st.fixed_dictionaries({v: st.sampled_from([0, 1]) for v in VARS})


def test_free_vars():
    f = Forall("x", And(P("M1", "x"), P("M2", "y")))
    assert free_vars(f) == frozenset({"y"})
    assert free_vars(Exists("y", f)) == frozenset()
    assert free_vars(Eq(Var("x"), Const("c"))) == frozenset({"x"})


def test_signature_basics():
    sig = Signature((("M1", 1), ("R", 2)), ("c",), True)
    assert sig.arity("R") == 2
    assert sig.is_constant("c")
    assert not sig.is_constant("M1")
    assert sig.to_dsl() == (
        "sig {\n  pred M1/1;\n  pred R/2;\n  const c;\n  equality;\n}"
    )
    with pytest.raises(ValueError):
        Signature((("M1", 1), ("M1", 2)), (), False)


def test_render_precedence():
    assert render(Implies(P("M1", "x"), Implies(P("M2", "x"), P("M1", "x")))) == (
        "M1(x) -> M2(x) -> M1(x)"
    )
    assert render(Implies(Implies(P("M1", "x"), P("M2", "x")), P("M1", "x"))) == (
        "(M1(x) -> M2(x)) -> M1(x)"
    )
    assert render(Not(And(P("M1", "x"), Or(P("M2", "x"), P("M1", "x"))))) == (
        "!(M1(x) & (M2(x) | M1(x)))"
    )
    assert render(And(Forall("x", P("M1", "x")), P("M2", "y"))) == (
        "(forall x. M1(x)) & M2(y)"
    )
    assert render(Forall("x", Implies(P("M1", "x"), Exists("y", P("M2", "y"))))) == (
        "forall x. M1(x) -> (exists y. M2(y))"
    )
    assert render(Pred("p", ())) == "p()"


def test_big_connectives():
    assert big_and(()) == Verum()
    assert big_or(()) == Falsum()
    assert big_and((P("M1", "x"),)) == P("M1", "x")
    assert big_and((P("M1", "x"), P("M2", "x"))) == And(P("M1", "x"), P("M2", "x"))


def test_node_count():
    assert node_count(And(P("M1", "x"), Not(P("M2", "x")))) == 4
    assert node_count(Verum()) == 1


def _subformulas_reference(f):
    """The recursive pre-order walk, left operand first."""
    if isinstance(f, (Not, Forall, Exists)):
        return [f, *_subformulas_reference(f.body)]
    if isinstance(f, (And, Or, Implies, Iff)):
        return [f, *_subformulas_reference(f.left), *_subformulas_reference(f.right)]
    return [f]


def _facts_reference(f):
    """Every field of facts(f), read off the recursive pre-order walk."""
    nodes = _subformulas_reference(f)
    preds, consts, names = {}, {}, set()
    for g in nodes:
        if isinstance(g, Pred):
            preds.setdefault(g.name, set()).add(len(g.args))
        if isinstance(g, (Forall, Exists)):
            names.add(g.var)
        if isinstance(g, (Pred, Eq)):
            for t in g.args if isinstance(g, Pred) else (g.left, g.right):
                names.add(t.name)
                if isinstance(t, Const):
                    consts.setdefault(t.name)
    return Facts(
        preds,
        tuple(consts),
        frozenset(occurring(f)[2]),
        frozenset(names),
        _depth_reference(f),
        any(isinstance(g, Eq) for g in nodes),
        len(nodes),
    )


def test_facts_match_recursive_reference():
    rng = random.Random(20)
    for i in range(300):
        f = random_formula(
            rng, ["M1", "M2"], scope=["x"], max_q=3, depth=7, consts=["c", "d"]
        )
        # Mix in equality and a predicate of another arity.
        if i % 3 == 0:
            f = Or(f, Pred("R", (Var("x"), Const("e"))))
        elif i % 3 == 1:
            f = And(Eq(Var("y"), Const("d")), f)
        got, want = facts(f), _facts_reference(f)
        assert got == want
        # First-occurrence order, which == on dicts does not compare.
        assert list(got.preds.items()) == list(want.preds.items())
    f = Forall("x", Implies(Eq(Var("x"), Const("c")), Not(P("M1", "x"))))
    assert facts(f) == Facts(
        {"M1": {1}}, ("c",), frozenset(), frozenset({"x", "c"}), 1, True, 5
    )


def test_facts_first_occurrence_is_pre_order():
    f = And(
        Or(Pred("B", (Const("k"),)), Pred("A", (Var("x"), Const("j")))),
        Exists("y", Pred("B", (Var("y"), Const("i")))),
    )
    fx = facts(f)
    assert list(fx.preds.items()) == [("B", {1, 2}), ("A", {2})]
    assert fx.consts == ("k", "j", "i")
    assert fx.frees == {"x"}
    with pytest.raises(ValueError, match="inconsistent arity for B"):
        fx.arities()


def test_facts_deep_chain():
    # Built in code, past what the parser accepts: the walk does not recurse.
    f = P("M1", "x")
    for i in range(5000):
        f = And(f, Exists("y", P("M2", "y")) if i % 2 else P("M2", f"z{i % 3}"))
    f = Forall("w", Or(f, Eq(Var("w"), Const("c"))))
    fx = facts(f)
    assert fx.nodes == 12504 == node_count(f)
    assert list(fx.preds) == ["M1", "M2"] and fx.consts == ("c",)
    assert fx.frees == {"x", "z0", "z1", "z2"} and fx.depth == 2
    assert fx.names == {"w", "x", "y", "z0", "z1", "z2", "c"} and fx.equality
    g = P("M1", "x")
    for _ in range(5000):
        g = Not(Exists("x", g))
    assert facts(g).depth == 5000 and facts(g).nodes == 10001


def test_conjuncts_deep_chain():
    parts = [P(f"M{i % 2 + 1}", f"x{i}") for i in range(5000)]
    assert conjuncts(big_and(parts)) == parts
    a, b, c, d = parts[:4]
    assert conjuncts(And(And(a, Or(b, c)), And(d, Not(And(a, b))))) == [
        a, Or(b, c), d, Not(And(a, b))
    ]


def _depth_reference(f):
    if isinstance(f, (Forall, Exists)):
        return 1 + _depth_reference(f.body)
    if isinstance(f, Not):
        return _depth_reference(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return max(_depth_reference(f.left), _depth_reference(f.right))
    return 0


def test_free_vars_and_quantifier_depth_match_recursive_reference():
    rng = random.Random(17)
    for _ in range(300):
        f = random_formula(rng, PREDS, scope=["x", "y"], max_q=3, depth=5, consts=["c"])
        assert free_vars(f) == frozenset(occurring(f)[2])
        assert quantifier_depth(f) == _depth_reference(f)


def test_free_vars_and_quantifier_depth_deep_chain():
    # Built in code, past what the parser accepts: neither walk recurses.
    f = P("M1", "x")
    for i in range(5000):
        f = And(f, Exists("y", P("M2", "y")) if i % 2 else P("M2", f"z{i % 3}"))
    f = Forall("w", Or(f, P("M1", "w")))
    assert free_vars(f) == {"x", "z0", "z1", "z2"}
    assert quantifier_depth(f) == 2


def test_free_vars_and_quantifier_depth_reject_non_formulas():
    for bad in (And(P("M1", "x"), "M2(x)"), Not(3), Forall("x", None)):
        with pytest.raises(TypeError):
            facts(bad)
        with pytest.raises(TypeError):
            free_vars(bad)
        with pytest.raises(TypeError):
            quantifier_depth(bad)


def test_rename_apart_duplicate_binders():
    f = And(Forall("x", P("M1", "x")), Forall("x", P("M2", "x")))
    g = rename_apart(f)
    assert g == And(Forall("x", P("M1", "x")), Forall("x1", P("M2", "x1")))


def test_rename_apart_respects_reserved():
    f = Forall("x", P("M1", "x"))
    g = rename_apart(f, frozenset({"x"}))
    assert isinstance(g, Forall) and g.var != "x"


def _binders(f):
    if isinstance(f, (Forall, Exists)):
        yield f.var
        yield from _binders(f.body)
    elif isinstance(f, Not):
        yield from _binders(f.body)
    elif isinstance(f, (And, Or, Implies, Iff)):
        yield from _binders(f.left)
        yield from _binders(f.right)


@given(formulas())
def test_rename_apart_distinctness(f):
    g = rename_apart(f, frozenset({"c"}))
    bound = list(_binders(g))
    assert len(bound) == len(set(bound))
    assert not set(bound) & free_vars(g)
    assert "c" not in bound
    assert free_vars(g) == free_vars(f)


@settings(max_examples=200)
@given(formulas(), models(), envs())
def test_rename_apart_preserves_meaning(f, m, env):
    assert naive_eval(f, m, dict(env)) == naive_eval(
        rename_apart(f), m, dict(env)
    )


def _nnf_shape_ok(f):
    if isinstance(f, Not):
        return isinstance(f.body, (Pred, Eq))
    if isinstance(f, (And, Or)):
        return _nnf_shape_ok(f.left) and _nnf_shape_ok(f.right)
    if isinstance(f, (Forall, Exists)):
        return _nnf_shape_ok(f.body)
    return isinstance(f, (Pred, Eq, Verum, Falsum))


@settings(max_examples=300)
@given(formulas(), models(), envs())
def test_nnf_equivalent_and_shaped(f, m, env):
    g = nnf(f)
    assert _nnf_shape_ok(g)
    assert naive_eval(f, m, dict(env)) == naive_eval(g, m, dict(env))


def test_nnf_examples():
    assert nnf(Not(Verum())) == Falsum()
    assert nnf(Implies(P("M1", "x"), P("M2", "x"))) == Or(
        Not(P("M1", "x")), P("M2", "x")
    )
    assert nnf(Not(Exists("x", P("M1", "x")))) == Forall("x", Not(P("M1", "x")))


def test_subst_capture_avoiding():
    f = Forall("y", And(P("M1", "x"), P("M2", "y")))
    g = subst(f, {"x": Var("y")})
    assert isinstance(g, Forall)
    assert g.var != "y"
    assert free_vars(g) == frozenset({"y"})


@settings(max_examples=200)
@given(formulas(), models(), envs(), st.sampled_from(VARS))
def test_subst_lemma(f, m, env, v):
    g = subst(f, {v: Const("c")})
    shifted = dict(env)
    shifted[v] = m.constants["c"]
    assert naive_eval(g, m, dict(env)) == naive_eval(f, m, shifted)
