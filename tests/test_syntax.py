import dataclasses
import random
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import all_models, naive_eval, occurring, random_formula
from porphyry import (
    And,
    Const,
    ConstantDef,
    Eq,
    Exists,
    Falsum,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    PredicateDef,
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
from porphyry.parser import parse_formula
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


# Each ordered pair of binary connectives, rendered as (a op b) op' c and as
# a op (b op' c).
PAIR_TEXTS = {
    (And, And): ("M1(x) & M2(x) & M1(y)", "M1(x) & (M2(x) & M1(y))"),
    (And, Or): ("M1(x) & M2(x) | M1(y)", "M1(x) & (M2(x) | M1(y))"),
    (And, Implies): ("M1(x) & M2(x) -> M1(y)", "M1(x) & (M2(x) -> M1(y))"),
    (And, Iff): ("M1(x) & M2(x) <-> M1(y)", "M1(x) & (M2(x) <-> M1(y))"),
    (Or, And): ("(M1(x) | M2(x)) & M1(y)", "M1(x) | M2(x) & M1(y)"),
    (Or, Or): ("M1(x) | M2(x) | M1(y)", "M1(x) | (M2(x) | M1(y))"),
    (Or, Implies): ("M1(x) | M2(x) -> M1(y)", "M1(x) | (M2(x) -> M1(y))"),
    (Or, Iff): ("M1(x) | M2(x) <-> M1(y)", "M1(x) | (M2(x) <-> M1(y))"),
    (Implies, And): ("(M1(x) -> M2(x)) & M1(y)", "M1(x) -> M2(x) & M1(y)"),
    (Implies, Or): ("(M1(x) -> M2(x)) | M1(y)", "M1(x) -> M2(x) | M1(y)"),
    (Implies, Implies): ("(M1(x) -> M2(x)) -> M1(y)", "M1(x) -> M2(x) -> M1(y)"),
    (Implies, Iff): ("M1(x) -> M2(x) <-> M1(y)", "M1(x) -> (M2(x) <-> M1(y))"),
    (Iff, And): ("(M1(x) <-> M2(x)) & M1(y)", "M1(x) <-> M2(x) & M1(y)"),
    (Iff, Or): ("(M1(x) <-> M2(x)) | M1(y)", "M1(x) <-> M2(x) | M1(y)"),
    (Iff, Implies): ("(M1(x) <-> M2(x)) -> M1(y)", "M1(x) <-> M2(x) -> M1(y)"),
    (Iff, Iff): ("(M1(x) <-> M2(x)) <-> M1(y)", "M1(x) <-> M2(x) <-> M1(y)"),
}


def test_nodes_are_slotted_frozen_dataclasses():
    # Terms, formula nodes and definitions keep their fields in slots, with
    # no __dict__, and stay frozen dataclasses hashed by their fields.  Each
    # takes a weak reference, as the parser's node table needs.
    x, c = Var("x"), Const("c")
    made = [
        x,
        c,
        Verum(),
        Falsum(),
        P("M1", "x"),
        Eq(x, c),
        Not(Verum()),
        *(cls(Verum(), Falsum()) for cls in (And, Or, Implies, Iff)),
        Forall("x", Verum()),
        Exists("x", Verum()),
        PredicateDef("D", ("x",), P("M1", "x")),
        ConstantDef("k", "y", Eq(Var("y"), c)),
    ]
    assert len({type(g) for g in made}) == len(made)
    for g in made:
        assert not hasattr(g, "__dict__")
        assert weakref.ref(g)() is g
        assert dataclasses.is_dataclass(g)
        for f in dataclasses.fields(g):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(g, f.name)
    rng = random.Random(28)
    for _ in range(200):
        f = random_formula(rng, PREDS, scope=["x"], max_q=3, consts=("c",))
        for g in _subformulas_reference(f):
            for h in [g, *(g.args if isinstance(g, Pred) else ())]:
                assert not hasattr(h, "__dict__")
                fields = tuple(getattr(h, k.name) for k in dataclasses.fields(h))
                assert hash(h) == hash(fields)


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
    sig = Signature((("M1", 1), ("M2", 1)), (), False)
    a, b, c = P("M1", "x"), P("M2", "x"), P("M1", "y")
    assert len(PAIR_TEXTS) == 16
    for (op, op2), (left_text, right_text) in PAIR_TEXTS.items():
        for f, text in ((op2(op(a, b), c), left_text), (op(a, op2(b, c)), right_text)):
            assert render(f) == text
            assert parse_formula(text, sig) == f


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


def _names(f):
    """Every variable, constant and binder name in f."""
    if isinstance(f, (Pred, Eq)):
        return {t.name for t in (f.args if isinstance(f, Pred) else (f.left, f.right))}
    if isinstance(f, (Forall, Exists)):
        return {f.var} | _names(f.body)
    if isinstance(f, Not):
        return _names(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return _names(f.left) | _names(f.right)
    return set()


def _rename_rebuilding(f, reserved):
    """rename_apart's renaming as a plain rebuild of every node: in
    pre-order, a binder whose name is free, reserved or given to an earlier
    binder takes the least suffix that is neither a name of f, given, nor
    reserved."""
    used = _names(f)
    taken = set(occurring(f)[2])

    def term(t, env):
        return Var(env.get(t.name, t.name)) if isinstance(t, Var) else t

    def walk(g, env):
        if isinstance(g, Pred):
            return Pred(g.name, tuple(term(t, env) for t in g.args))
        if isinstance(g, Eq):
            return Eq(term(g.left, env), term(g.right, env))
        if isinstance(g, Not):
            return Not(walk(g.body, env))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(walk(g.left, env), walk(g.right, env))
        if isinstance(g, (Forall, Exists)):
            name, k = g.var, 0
            while name in taken | reserved or k and name in used:
                k += 1
                name = f"{g.var}{k}"
            taken.add(name)
            used.add(name)
            return type(g)(name, walk(g.body, {**env, g.var: name}))
        return type(g)()

    return walk(f, {})


def test_rename_apart_keeps_what_it_does_not_rename():
    rng = random.Random(2006)
    kept = renamed = 0
    for i in range(300):
        f = random_formula(rng, PREDS, scope=["x"], max_q=3, consts=("c",))
        reserved = frozenset({"c", "v1"} if i % 2 else {"c"})
        want = _rename_rebuilding(f, reserved)
        got = rename_apart(f, reserved)
        assert got == want
        if want == f:
            assert got is f
            kept += 1
        else:
            renamed += 1
    assert kept > 50 and renamed > 50


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
    # The negation of every node kind.
    a, b = P("M1", "x"), P("M2", "x")
    eq = Eq(Var("x"), Const("c"))
    cases = [
        (Verum(), Falsum()),
        (Falsum(), Verum()),
        (a, Not(a)),
        (eq, Not(eq)),
        (Not(a), a),
        (And(a, b), Or(Not(a), Not(b))),
        (Or(a, b), And(Not(a), Not(b))),
        (Implies(a, b), And(a, Not(b))),
        # The normal forms depend on this order of disjuncts and conjuncts.
        (Iff(a, b), Or(And(a, Not(b)), And(Not(a), b))),
        (Forall("x", a), Exists("x", Not(a))),
        (Exists("x", a), Forall("x", Not(a))),
    ]
    for f, negated in cases:
        assert nnf(Not(f)) == negated
    assert nnf(Iff(a, b)) == And(Or(Not(a), b), Or(Not(b), a))
    assert nnf(Not(Not(Iff(a, b)))) == nnf(Iff(a, b))


def test_nnf_shares_each_rewritten_node():
    # A chain of n `<->` has a negation normal form of about 2^n nodes as a
    # tree, but one node per distinct subformula and polarity when shared.
    f = P("M1", "x")
    for _ in range(15):
        f = Iff(P("M1", "x"), f)
    g = nnf(f)
    seen, stack = set(), [g]
    while stack:
        h = stack.pop()
        if id(h) not in seen:
            seen.add(id(h))
            stack += [getattr(h, k) for k in ("left", "right", "body") if hasattr(h, k)]
    assert len(seen) < 10 * 16
    # The tree size, by the rewrite: the positive and the negative form of
    # a chain of n >= 2 atoms both have s(n) = 6 + 2 s(n - 1) nodes, and
    # s(2) = 6 + 1 + 2, the atom's two forms having 1 and 2.
    size = 6 + 1 + 2
    for _ in range(14):
        size = 6 + 2 * size
    assert node_count(g) == size
    short = Iff(P("M1", "x"), Iff(P("M1", "x"), Iff(P("M1", "x"), P("M1", "x"))))
    assert node_count(nnf(short)) == facts(nnf(short)).nodes == 6 + 2 * (6 + 2 * 9)


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
