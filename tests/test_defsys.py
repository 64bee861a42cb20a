import itertools
import random

import pytest

from helpers import (
    all_models,
    naive_eval,
    occurring,
    random_mixed_model,
    random_mixed_system,
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
    Not,
    Or,
    Pred,
    PredicateDef,
    Signature,
    Var,
    dependency_graph,
    expand_model,
    extensions,
    irreducibility_warnings,
    parse,
    render,
    unfold,
    validate,
)
from porphyry.defsys import VIOLATION_KINDS

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
    assert render(u) == "exists y1. y1 = c & M1(y1) & M2(y1)"


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
    assert render(u) == "exists y11. Q(y11) & !P(y11)"
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
