import itertools
import random
import re
import time

import pytest

from helpers import (
    MIXED_SIG,
    all_models,
    alpha_equivalent,
    naive_eval,
    naive_unfold,
    occurring,
    random_mixed_model,
    random_mixed_formula,
    random_mixed_system,
    random_raw_system,
    validation_oracle,
)
from porphyry import (
    And,
    ConstantDef,
    Const,
    DefinitionSystem,
    Eq,
    Exists,
    FiniteModel,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    PredicateDef,
    Signature,
    Var,
    dependency_graph,
    expand_model,
    extensions,
    free_vars,
    irreducibility_warnings,
    parse,
    render,
    unfold,
    validate,
)
from porphyry.defsys import VIOLATION_KINDS
from porphyry.syntax import facts

SIG = Signature((("M1", 1), ("M2", 1)), ("c",), False)


def P(name, v):
    return Pred(name, (Var(v),))


def D(*entries, sig=SIG):
    return DefinitionSystem(sig, tuple(entries))


def test_violation_kind_registry():
    assert VIOLATION_KINDS == (
        "forward-reference",
        "self-reference",
        "arity-mismatch",
        "name-clash",
        "free-variable-mismatch",
    )


def test_validate_ok():
    d = D(
        PredicateDef("A", ("x",), And(P("M1", "x"), P("M2", "x"))),
        PredicateDef("B", ("x",), And(P("A", "x"), Not(P("M2", "x")))),
        ConstantDef("e", "y", Eq(Var("y"), Const("c")), ),
        sig=Signature((("M1", 1), ("M2", 1)), ("c",), True),
    )
    rep = validate(d)
    assert rep.valid and rep.violations == ()


def _flags(d):
    return [(v.entry, v.kind, v.symbol) for v in validate(d).violations]


def test_validate_self_reference():
    d = D(PredicateDef("A", ("x",), Or(P("M1", "x"), P("A", "x"))))
    assert _flags(d) == [(0, "self-reference", "A")]


def test_validate_forward_reference():
    d = D(
        PredicateDef("A", ("x",), P("B", "x")),
        PredicateDef("B", ("x",), P("M1", "x")),
    )
    assert _flags(d) == [(0, "forward-reference", "B")]


def test_validate_unknown_symbol_is_forward_reference():
    d = D(PredicateDef("A", ("x",), P("Nowhere", "x")))
    assert _flags(d) == [(0, "forward-reference", "Nowhere")]


def test_validate_name_clash_with_base():
    d = D(PredicateDef("M1", ("x",), P("M2", "x")))
    assert _flags(d) == [(0, "name-clash", "M1")]


def test_validate_name_clash_duplicate():
    d = D(
        PredicateDef("A", ("x",), P("M1", "x")),
        PredicateDef("A", ("x",), P("M2", "x")),
    )
    assert _flags(d) == [(1, "name-clash", "A")]


def test_validate_arity_mismatch():
    d = D(PredicateDef("A", ("x",), Pred("M1", (Var("x"), Var("x")))))
    assert _flags(d) == [(0, "arity-mismatch", "M1")]


def test_validate_mixed_arity_use():
    d = D(
        PredicateDef(
            "A", ("x",), And(P("M1", "x"), Pred("M1", (Var("x"), Var("x"))))
        )
    )
    assert _flags(d) == [(0, "arity-mismatch", "M1")]


def test_validate_constant_applied_as_predicate():
    d = D(PredicateDef("A", ("x",), Pred("c", (Var("x"),))))
    flags = _flags(d)
    assert len(flags) == 1 and flags[0][0] == 0 and flags[0][2] == "c"


def test_validate_free_variable_mismatch():
    d = D(PredicateDef("A", ("x",), P("M1", "y")))
    assert _flags(d) == [(0, "free-variable-mismatch", "A")]


def test_validate_multiple_faults_all_reported():
    d = D(
        PredicateDef("A", ("x",), P("A", "x")),
        PredicateDef("B", ("x",), P("Z", "x")),
    )
    assert sorted(_flags(d)) == [
        (0, "self-reference", "A"),
        (1, "forward-reference", "Z"),
    ]


def test_validate_matches_oracle_on_random_systems():
    rng = random.Random(17)
    variants = set()
    for _ in range(3000):
        d = random_raw_system(rng)
        report = validate(d)
        got = [(v.entry, v.kind, v.symbol, v.detail) for v in report.violations]
        assert got == validation_oracle(d), d
        assert report.valid == (not got)
        variants |= {(v[1], re.sub(r"\d+|:.*", "", v[3])) for v in got}
    assert variants == {
        ("name-clash", "clashes with base signature"),
        ("name-clash", "duplicate definition"),
        ("forward-reference", "symbol not defined anywhere"),
        ("forward-reference", "defined later at entry "),
        ("self-reference", "definition mentions itself"),
        ("free-variable-mismatch", "stray free variables"),
        ("arity-mismatch", "applied with multiple arities"),
        ("arity-mismatch", "declared /, applied /"),
        ("arity-mismatch", "defined /, applied /"),
        ("arity-mismatch", "constant applied as predicate"),
        ("arity-mismatch", "predicate used as term"),
    }


def test_full_signature_and_accessors():
    d = D(
        PredicateDef("A", ("x",), P("M1", "x")),
        ConstantDef("e", "y", Eq(Var("y"), Const("c"))),
        sig=Signature((("M1", 1), ("M2", 1)), ("c",), True),
    )
    full = d.full_signature()
    assert ("A", 1) in full.predicates
    assert "e" in full.constants
    assert d.defined_predicates() == {"A": 1}
    assert d.defined_constants() == ("e",)


def test_unfold_simple_and_nested():
    d = D(
        PredicateDef("A", ("x",), And(P("M1", "x"), P("M2", "x"))),
        PredicateDef("B", ("x",), And(P("A", "x"), Not(P("M2", "x")))),
    )
    assert render(unfold(Exists("z", P("A", "z")), d)) == (
        "exists z. M1(z) & M2(z)"
    )
    u = unfold(P("B", "w"), d)
    assert render(u) == "M1(w) & M2(w) & !M2(w)"


def test_unfold_quantified_body_avoids_capture():
    d = D(PredicateDef("A", ("x",), Exists("y", And(P("M1", "x"), P("M2", "y")))))
    u = unfold(Forall("y", P("A", "y")), d)
    for m in all_models(SIG.predicates, SIG.constants, 2):
        direct = all(
            any(
                (e,) in m.predicates["M1"] and (w,) in m.predicates["M2"]
                for w in range(m.size)
            )
            for e in range(m.size)
        )
        assert naive_eval(u, m) == direct


def test_unfold_defined_constant_term_form():
    sig = Signature((("M1", 1), ("M2", 1)), ("c",), True)
    d = D(
        ConstantDef("e", "y", Eq(Var("y"), Const("c"))),
        PredicateDef("A", ("x",), And(P("M1", "x"), Pred("M1", (Const("e"),)))),
        sig=sig,
    )
    assert render(unfold(P("A", "z"), d)) == "M1(z) & M1(c)"


def test_unfold_descriptive_constant():
    sig = Signature((("M1", 1), ("M2", 1)), ("c",), True)
    d = D(
        ConstantDef(
            "e", "y", And(Eq(Var("y"), Const("c")), P("M1", "y"))
        ),
        sig=sig,
    )
    u = unfold(Pred("M2", (Const("e"),)), d)
    assert render(u) == "exists y. y = c & M1(y) & M2(y)"


def _binders(f):
    """The binder names of f in pre-order."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Forall, Exists)):
            out.append(g.var)
            stack.append(g.body)
        elif isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, (And, Or, Implies, Iff)):
            stack += [g.right, g.left]
    return out


def test_unfold_names_binders_in_pre_order():
    # Every body binds y.  The first binder in pre-order, the innermost
    # definition's, keeps y, and each later one takes the next suffix, with
    # no suffix stacked on another.
    first = Exists("y", And(P("M1", "x"), P("M2", "y")))
    entries = [PredicateDef("D0", ("x",), first)]
    entries += [
        PredicateDef(
            f"D{i}", ("x",), And(P(f"D{i - 1}", "x"), Exists("y", P("M1", "y")))
        )
        for i in range(1, 12)
    ]
    d = D(*entries)
    suffixed = [f"y{i}" for i in range(1, 13)]
    assert _binders(unfold(P("D11", "x"), d)) == ["y", *suffixed[:-1]]
    # A written name that is free in the output, or a symbol, is renamed too.
    assert _binders(unfold(P("D11", "y"), d)) == suffixed
    d = D(PredicateDef("A", ("x",), Exists("c", And(P("M1", "x"), P("M2", "c")))))
    assert render(unfold(P("A", "x"), d)) == "exists c1. M1(x) & M2(c1)"


def _chain(rng, n):
    """n unary classes, each guarded by its predecessor and a literal;
    some also read one of the first three classes or a closed atom."""
    sig = Signature((("P", 1), ("Q", 1), ("R", 1)), (), False)

    def literal(var="x"):
        atom = P(rng.choice("PQR"), var)
        return atom if rng.random() < 0.6 else Not(atom)

    entries = [PredicateDef("E0", ("x",), literal())]
    for i in range(1, n):
        body = And(P(f"E{i - 1}", "x"), literal())
        roll = rng.random()
        if roll < 0.25 and i > 3:
            body = And(body, Or(literal(), P(f"E{rng.randrange(3)}", "x")))
        elif roll < 0.45:
            closed = Exists("y", And(P(rng.choice("PQR"), "y"), literal("y")))
            body = And(body, closed)
        entries.append(PredicateDef(f"E{i}", ("x",), body))
    return DefinitionSystem(sig, tuple(entries))


def test_unfold_of_a_long_chain_is_fast_and_iterative():
    # Expanding every entry and renaming each instance took 2.3 s on this
    # leaf of 300 definitions; the top-down walk takes milliseconds, and it
    # keeps an explicit stack, so the output's depth needs no recursion.
    d = _chain(random.Random(3), 300)
    start = time.perf_counter()
    u = unfold(P("E299", "x"), d)
    assert time.perf_counter() - start < 0.5
    fx = facts(u)
    assert set(fx.preds) <= {"P", "Q", "R"} and fx.frees == {"x"}
    names = _binders(u)
    assert len(set(names)) == len(names)


def test_unfold_reads_only_what_the_formula_reaches():
    # 2,000 entries, each calling its predecessor; D0 reaches one body.
    # Expanding every entry, as before, overflowed the stack here.
    entries = [PredicateDef("D0", ("x",), P("M1", "x"))] + [
        PredicateDef(f"D{i}", ("x",), And(P(f"D{i - 1}", "x"), P("M2", "x")))
        for i in range(1, 2000)
    ]
    d = D(*entries)
    start = time.perf_counter()
    assert unfold(P("D0", "z"), d) == P("M1", "z")
    assert time.perf_counter() - start < 0.5


def test_unfold_matches_naive_oracle_up_to_renaming():
    rng = random.Random(18)
    kinds = set()
    for _ in range(300):
        d = random_mixed_system(rng, rng.randrange(2, 9))
        preds = list(MIXED_SIG.predicates)
        consts = list(MIXED_SIG.constants)
        formulas = []
        for e in d.entries:
            if isinstance(e, PredicateDef):
                preds.append((e.name, e.arity))
                formulas.append(Pred(e.name, tuple(map(Var, e.params))))
                formulas.append(Pred(e.name, (Const("c"),) * e.arity))
            else:
                consts.append(e.name)
                formulas.append(Pred("R", (Const(e.name), Var("y"))))
                kinds.add(e.term_form() is None)
        formulas.append(random_mixed_formula(rng, preds, consts, ["x", "y"], max_q=2))
        symbols = set(d.symbols())
        for f in formulas:
            u = unfold(f, d)
            assert alpha_equivalent(u, naive_unfold(f, d)), (d, f)
            names = _binders(u)
            assert len(set(names)) == len(names)
            assert not set(names) & (symbols | free_vars(u))
    # Both constants read by a term and constants read by a description.
    assert kinds == {False, True}


def test_unfold_hands_back_what_it_does_not_change():
    d = parse(
        "sig { pred M1/1; pred M2/1; const c; }\n"
        "defsys {\n"
        "  def A(x) := M1(x) & (exists y. M2(y));\n"
        "  def B(x) := A(x) & (forall z. M1(z) | M2(c));\n"
        "}\n"
    ).system
    a, b = (e.body for e in d.entries)
    # Over base symbols, with no binder to rename: f itself.
    f = Forall("x", Implies(P("M1", "x"), Exists("y", P("M2", "y"))))
    assert unfold(f, d) is f
    # Each part of a body that the expansion does not change is the
    # parser's node: here all of A's body, read at its own parameter.
    u = unfold(P("B", "x"), d)
    assert u == And(a, b.right) and u.left is a and u.right is b.right
    # Read at another variable, the atom that mentions it is rebuilt.
    u = unfold(P("B", "w"), d)
    assert render(u) == "M1(w) & (exists y. M2(y)) & (forall z. M1(z) | M2(c))"
    assert u.left.right is a.right and u.right is b.right
    # A binder renamed away from a free variable is rebuilt, with what
    # reads it; what does not is kept.
    f = And(P("M1", "y"), Exists("y", And(P("M2", "y"), Pred("M1", (Const("c"),)))))
    u = unfold(f, d)
    assert render(u) == "M1(y) & (exists y1. M2(y1) & M1(c))"
    assert u.left is f.left and u.right.body.right is f.right.body.right


def test_unfold_is_the_formula_itself_when_nothing_changes():
    rng = random.Random(30)
    kept = changed = 0
    for _ in range(300):
        d = random_mixed_system(rng, rng.randrange(2, 6))
        f = random_mixed_formula(
            rng, MIXED_SIG.predicates, MIXED_SIG.constants, ["x", "y"], max_q=2
        )
        u = unfold(f, d)
        if u == f:
            assert u is f
            kept += 1
        else:
            changed += 1
    assert kept > 200 and changed > 10


def test_unfold_reads_a_description_that_unfolds_to_a_term():
    # k's description unfolds to `y = c` through D0 and D1, and e is
    # defined as k, so both read as c; j's description does not.
    sig = Signature((("M1", 1), ("M2", 1), ("R", 2)), ("c",), True)
    d = D(
        PredicateDef("D0", ("x", "z"), Eq(Var("z"), Var("x"))),
        PredicateDef("D1", ("x",), Pred("D0", (Const("c"), Var("x")))),
        ConstantDef("k", "y", P("D1", "y")),
        ConstantDef("e", "y", Eq(Var("y"), Const("k"))),
        ConstantDef("j", "y", And(P("D1", "y"), P("M2", "y"))),
        sig=sig,
    )
    f = Pred("R", (Const("e"), Const("j")))
    assert render(unfold(f, d)) == "exists y. y = c & M2(y) & R(c, y)"
    assert alpha_equivalent(unfold(f, d), naive_unfold(f, d))


def test_unfold_rejects_unknown_and_invalid():
    d = D(PredicateDef("A", ("x",), P("M1", "x")))
    with pytest.raises(ValueError):
        unfold(P("Q", "x"), d)
    bad = D(PredicateDef("A", ("x",), P("A", "x")))
    with pytest.raises(ValueError):
        unfold(P("A", "x"), bad)


def test_expand_model_extents_and_checks():
    d = D(
        PredicateDef("A", ("x",), And(P("M1", "x"), P("M2", "x"))),
        ConstantDef("e", "y", Eq(Var("y"), Const("c"))),
        sig=Signature((("M1", 1), ("M2", 1)), ("c",), True),
    )
    m = FiniteModel(
        3,
        {"c": 2},
        {"M1": frozenset({(0,), (2,)}), "M2": frozenset({(1,), (2,)})},
    )
    em, checks = expand_model(d, m)
    assert em.predicates["A"] == frozenset({(2,)})
    assert em.constants["e"] == 2
    assert checks == (("e", (2,), True),) or checks[0].name == "e"
    assert checks[0].extent == (2,)
    assert checks[0].unique


def test_expand_model_non_unique_constant():
    sig = Signature((("M1", 1),), (), False)
    d = DefinitionSystem(
        sig, (ConstantDef("e", "y", P("M1", "y")),)
    )
    m = FiniteModel(3, {}, {"M1": frozenset({(0,), (2,)})})
    em, checks = expand_model(d, m)
    assert checks[0].extent == (0, 2)
    assert not checks[0].unique
    assert "e" not in em.constants


def test_expand_model_matches_unfolded_oracle():
    # Each extent expand_model computes, entry by entry, is the one the
    # unfolded body has under the oracle evaluator.
    rng = random.Random(6)
    for _ in range(150):
        d = random_mixed_system(rng, rng.randrange(2, 7))
        for size in (1, 2, 3):
            m = random_mixed_model(rng, size)
            em, checks = expand_model(d, m)
            unary = {}
            for e in d.entries:
                if isinstance(e, PredicateDef):
                    u = unfold(Pred(e.name, tuple(map(Var, e.params))), d)
                    tuples = itertools.product(range(size), repeat=len(e.params))
                    want = {
                        t for t in tuples if naive_eval(u, m, dict(zip(e.params, t)))
                    }
                    assert em.predicates[e.name] == want, (d, m, e.name)
                    if len(e.params) == 1:
                        unary[e.name] = {t[0] for t in want}
                    continue
                u = unfold(Eq(Var("w"), Const(e.name)), d)
                want = tuple(w for w in range(size) if naive_eval(u, m, {"w": w}))
                check = next(c for c in checks if c.name == e.name)
                assert (check.extent, check.unique) == (want, len(want) == 1)
                assert em.constants.get(e.name) == (want[0] if check.unique else None)
            assert dict(extensions(d, m).sets) == unary
            assert {k: em.predicates[k] for k in m.predicates} == m.predicates
            assert em.constants["c"] == m.constants["c"]


def test_description_read_at_the_atom_as_written():
    # k is not uniquely described, so D(k) is "D of some element of k's
    # extent", not the negation of "P of some element of it".
    sig = Signature((("P", 1), ("Q", 1)), (), False)
    d = DefinitionSystem(
        sig,
        (
            PredicateDef("D", ("x",), Not(P("P", "x"))),
            ConstantDef("k", "y", P("Q", "y")),
            PredicateDef("E", (), Pred("D", (Const("k"),))),
        ),
    )
    u = unfold(Pred("E", ()), d)
    assert render(u) == "exists y. Q(y) & !P(y)"
    m = FiniteModel(3, {}, {"P": frozenset({(0,)}), "Q": frozenset({(0,), (1,)})})
    em, checks = expand_model(d, m)
    assert checks[0].extent == (0, 1) and not checks[0].unique
    assert em.predicates["E"] == frozenset({()}) and naive_eval(u, m)
    assert "k" not in em.constants


def test_expand_model_requires_every_base_symbol():
    d = D(PredicateDef("A", ("x",), P("M1", "x")))
    m = FiniteModel(2, {}, {"M1": frozenset({(0,)})})
    for call in (expand_model, extensions):
        with pytest.raises(ValueError, match="missing base symbols: M2, c"):
            call(d, m)


def test_dependency_graph_dot():
    d = D(
        PredicateDef("A", ("x",), P("M1", "x")),
        PredicateDef("B", ("x",), P("A", "x")),
    )
    g = dependency_graph(d)
    assert set(g.nodes) == {"A", "B"}
    assert g.to_dot() == 'digraph definitions {\n  "B" -> "A";\n}'


def test_irreducibility_warnings():
    sig_r = Signature((("R", 2),), (), False)
    rxx = Pred("R", (Var("x"), Var("x")))
    rxy = Exists("y", Pred("R", (Var("x"), Var("y"))))
    cases = [
        (
            SIG,
            [
                (P("M1", "x"), Or(P("M1", "x"), P("M2", "x"))),
                (P("M1", "x"), P("M2", "x")),
            ],
            [(0, 1, "M1(x) | M2(x)")],
        ),
        (sig_r, [(rxx, rxy)], [(0, 1, "exists y. R(x, y)")]),
    ]
    for sig, bodies, expected in cases:
        d = D(
            *(
                PredicateDef(f"A{i}", ("x",), And(*parts))
                for i, parts in enumerate(bodies)
            ),
            sig=sig,
        )
        ws = irreducibility_warnings(d)
        assert [(w.entry, w.conjunct, w.rendered) for w in ws] == expected
        # Oracle: conjunct j is removable iff the body and the other
        # conjunct have the same extent on every model of size 1..3.
        models = [
            m
            for n in range(1, 4)
            for m in all_models(sig.predicates, sig.constants, n)
        ]
        removable = [
            (i, j)
            for i, parts in enumerate(bodies)
            for j in range(2)
            if all(
                naive_eval(And(*parts), m, {"x": e})
                == naive_eval(parts[1 - j], m, {"x": e})
                for m in models
                for e in range(m.size)
            )
        ]
        assert [(w.entry, w.conjunct) for w in ws] == removable


def test_system_to_dsl_round_trip():
    text = (
        "sig { pred M1/1; pred M2/1; const c; equality; }\n"
        "defsys { def A(x) := M1(x) & M2(x); defconst e := c; }"
    )
    pf = parse(text)
    block = "defsys {\n" + pf.system.to_dsl() + "\n}"
    back = parse(pf.signature.to_dsl() + "\n" + block)
    assert back.system == pf.system


def test_dependency_graph_matches_pairwise_construction():
    # Each entry against every entry name in order, skipping repeats.
    rng = random.Random(23)
    for _ in range(60):
        d = random_mixed_system(rng, rng.randrange(1, 9))
        edges = []
        for e in d.entries:
            preds, consts, _ = occurring(e.body)
            for name in (x.name for x in d.entries):
                if name in preds | consts and (e.name, name) not in edges:
                    edges.append((e.name, name))
        g = dependency_graph(d)
        assert g.edges == tuple(edges)
        assert g.nodes == tuple(e.name for e in d.entries)
