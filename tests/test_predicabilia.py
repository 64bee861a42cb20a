import pytest

import porphyry.defsys
from helpers import all_models, naive_eval
from porphyry import (
    Accident,
    And,
    Countermodel,
    DefinitionSystem,
    Difference,
    Exists,
    Forall,
    Holds,
    HoldsUpTo,
    Not,
    Or,
    Pred,
    PredicateDef,
    Property,
    ResourceCeilingError,
    Signature,
    Unrelated,
    Var,
    big_and,
    classify_formula,
    decide_entails,
    evaluate,
    expand_model,
    generators,
    parse_formula,
    porphyry_tree,
    proximate_genus,
    render,
    unfold,
)
from porphyry.magma import DEMO_SYSTEM
from porphyry.syntax import conjuncts, nnf, node_count

SIG = Signature((("M1", 1), ("M2", 1)), (), False)


def P(name, v):
    return Pred(name, (Var(v),))


TOY = DefinitionSystem(
    SIG, (PredicateDef("S", ("x",), And(P("M1", "x"), P("M2", "x"))),)
)


def test_tree_magma_chain():
    tree, unguarded = porphyry_tree(DEMO_SYSTEM)
    assert tree.nodes == ("Mon", "Grp", "Ab")
    assert [(e.species, e.genus, render(e.difference)) for e in tree.edges] == [
        ("Grp", "Mon", "HasInv(x)"),
        ("Ab", "Grp", "Comm(x)"),
    ]
    assert tree.roots == ("Mon",)
    assert unguarded == ()


def test_tree_unguarded_definition():
    d = DefinitionSystem(
        SIG,
        (
            PredicateDef("D", ("x",), Or(P("M1", "x"), P("M2", "x"))),
            PredicateDef("E", ("x",), And(P("D", "x"), P("M1", "x"))),
            PredicateDef("F", ("x",), Not(P("M1", "x"))),
        ),
    )
    tree, unguarded = porphyry_tree(d)
    assert [(e.species, e.genus) for e in tree.edges] == [("E", "D")]
    assert "D" in tree.nodes
    assert tree.roots == ("D",)
    assert unguarded == ("F",)


def test_tree_empty_system():
    tree, unguarded = porphyry_tree(DefinitionSystem(SIG, ()))
    assert tree.nodes == () and tree.edges == () and tree.roots == ()
    assert unguarded == ()


def test_tree_rejects_invalid():
    bad = DefinitionSystem(SIG, (PredicateDef("A", ("x",), P("A", "x")),))
    with pytest.raises(ValueError):
        porphyry_tree(bad)


def test_tree_dot_output():
    tree, _ = porphyry_tree(DEMO_SYSTEM)
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert '"Grp" -> "Mon" [label="HasInv(x)"]' in dot


def test_classify_difference_magma():
    rho = parse_formula("Comm(x)", DEMO_SYSTEM.base)
    v = classify_formula(rho, "Ab", DEMO_SYSTEM)
    assert isinstance(v, Difference)
    assert v.exact


def test_classify_accident_toy():
    v = classify_formula(P("M1", "x"), "S", TOY)
    assert isinstance(v, Accident)
    assert v.exact
    cm = v.evidence["rho_entails_psi"]
    assert isinstance(cm, Countermodel)
    assert cm.model.predicates["M1"] == frozenset({(0,)})
    assert cm.model.predicates["M2"] == frozenset()
    assert v.evidence["psi_entails_rho"] == Holds()


def test_classify_property_toy():
    v = classify_formula(And(P("M2", "x"), P("M1", "x")), "S", TOY)
    assert isinstance(v, Property)
    assert v.evidence == {
        "psi_entails_rho": Holds(),
        "rho_entails_psi": Holds(),
    }


def test_classify_unrelated():
    v = classify_formula(Not(P("M1", "x")), "S", TOY)
    assert isinstance(v, Unrelated)
    assert all(isinstance(e, Countermodel) for e in v.evidence.values())


def test_classify_verdict_stability_under_unfolding():
    rho = parse_formula("Grp(x)", DEMO_SYSTEM.full_signature())
    v1 = classify_formula(rho, "Ab", DEMO_SYSTEM)
    v2 = classify_formula(unfold(rho, DEMO_SYSTEM), "Ab", DEMO_SYSTEM)
    assert type(v1) is type(v2) is Accident


def test_classify_rejects_later_symbols():
    rho = parse_formula("Ab(x)", DEMO_SYSTEM.full_signature())
    with pytest.raises(ValueError):
        classify_formula(rho, "Grp", DEMO_SYSTEM)


def test_symbol_misuse_is_a_value_error():
    # A is binary; applied to one argument its parameter z would leak out
    # of the unfolding as a free variable.
    d = DefinitionSystem(
        SIG,
        (
            PredicateDef("A", ("x", "z"), And(P("M1", "x"), P("M2", "z"))),
            PredicateDef("G", ("x",), P("M1", "x")),
            PredicateDef("S", ("x",), And(P("G", "x"), P("M2", "x"))),
        ),
    )
    arity = r"arity-mismatch \(A\): defined /2, applied /1"
    with pytest.raises(ValueError, match=arity):
        unfold(P("A", "u"), d)
    with pytest.raises(ValueError, match=r"\(M1\): declared /1, applied /2"):
        unfold(Pred("M1", (Var("u"), Var("v"))), d)
    with pytest.raises(ValueError, match=arity):
        classify_formula(P("A", "x"), "S", d)
    with pytest.raises(ValueError, match=arity):
        generators([Exists("x", P("A", "x"))], d)
    # rho is read at the class's own entry: the class itself, or a later
    # one, is not available to it.
    with pytest.raises(ValueError, match=r"self-reference \(S\)"):
        classify_formula(P("S", "x"), "S", d)
    with pytest.raises(ValueError, match=r"forward-reference \(S\): defined later"):
        classify_formula(P("S", "x"), "G", d)


def test_classify_bounded_outside_fragment():
    sigR = Signature((("R", 2), ("M1", 1)), (), False)
    d = DefinitionSystem(
        sigR,
        (PredicateDef("A", ("x",), Exists("v", Pred("R", (Var("x"), Var("v"))))),),
    )
    rho = Exists("v", Pred("R", (Var("v"), Var("x"))))
    v = classify_formula(rho, "A", d)
    assert not v.exact
    assert v.bound == 4
    w = classify_formula(rho, "A", d, bound=2)
    assert w.bound == 2


def test_classify_evidence_recheck():
    v = classify_formula(P("M1", "x"), "S", TOY)
    psi = unfold(P("S", "x"), TOY)
    cm = v.evidence["rho_entails_psi"]
    assert evaluate(P("M1", "x"), cm.model, dict(cm.assignment))
    assert not evaluate(psi, cm.model, dict(cm.assignment))


def test_proximate_genus_magma():
    r = proximate_genus("Ab", ["Grp", "Mon"], DEMO_SYSTEM)
    assert r.chosen == "Grp"
    assert render(r.difference) == "Comm(x)"
    table = {s.name: (s.contains, s.score) for s in r.scores}
    assert table["Grp"] == (True, 1)
    assert table["Mon"] == (True, 3)
    assert render([s for s in r.scores if s.name == "Mon"][0].difference) == (
        "HasInv(x) & Comm(x)"
    )
    assert r.exact


def test_proximate_genus_single_candidate():
    r = proximate_genus("Ab", ["Mon"], DEMO_SYSTEM)
    assert r.chosen == "Mon"


def test_proximate_genus_tie_breaks_lexicographically():
    d = DefinitionSystem(
        SIG,
        (
            PredicateDef("A", ("x",), P("M1", "x")),
            PredicateDef("B", ("x",), P("M1", "x")),
            PredicateDef("S", ("x",), And(P("A", "x"), P("M2", "x"))),
        ),
    )
    r = proximate_genus("S", ["B", "A"], d)
    assert r.chosen == "A"
    assert {(s.name, s.score) for s in r.scores} == {("A", 1), ("B", 1)}


def test_proximate_genus_non_containing_candidate():
    d = DefinitionSystem(
        SIG,
        (
            PredicateDef("A", ("x",), P("M1", "x")),
            PredicateDef("N", ("x",), Not(P("M1", "x"))),
            PredicateDef("S", ("x",), And(P("A", "x"), P("M2", "x"))),
        ),
    )
    r = proximate_genus("S", ["A", "N"], d)
    assert r.chosen == "A"
    table = {s.name: s.contains for s in r.scores}
    assert table == {"A": True, "N": False}
    with pytest.raises(ValueError):
        proximate_genus("S", ["N"], d)


def test_proximate_genus_walks_sub_conjunctions_in_cost_order():
    # Conjuncts of different sizes, so cost order is not mask order.
    sig = Signature((("M1", 1), ("M2", 1), ("M3", 1)), (), False)
    x = Var("x")
    body = [
        P("A", "x"),
        Or(Not(P("M2", "x")), P("M3", "x")),
        Exists("y", P("M3", "y")),
        P("M2", "x"),
        Not(Not(P("M3", "x"))),
    ]
    d = DefinitionSystem(
        sig,
        (
            PredicateDef("A", ("x",), P("M1", "x")),
            PredicateDef("B", ("x",), Or(P("M1", "x"), P("M2", "x"))),
            PredicateDef("S", ("x",), big_and(body)),
        ),
    )
    r = proximate_genus("S", ["A", "B"], d)
    psi = unfold(Pred("S", (x,)), d)
    parts = conjuncts(psi)

    def subset(mask):
        return big_and([p for b, p in enumerate(parts) if (mask >> b) & 1])

    masks = sorted(
        range(1 << len(parts)), key=lambda m: (node_count(nnf(subset(m))), m)
    )
    for s in r.scores:
        genus = unfold(Pred(s.name, (x,)), d)
        first = next(
            m
            for m in masks
            if decide_entails(And(genus, subset(m)), psi, sig) == Holds()
        )
        assert s.difference == subset(first)
        assert s.score == node_count(nnf(s.difference))
    # The cost is taken after negation normal form, where `!!M3(x)` is 1.
    assert (r.chosen, render(r.difference)) == ("A", "M2(x) & !!M3(x)")
    assert r.scores[0].score == 3


def test_proximate_genus_counts_sub_conjunctions_against_the_ceiling():
    # Over one predicate the engine needs 4 supports; the body's five
    # conjuncts give 2^5 = 32 sub-conjunctions, counted before any is built.
    sig = Signature((("M1", 1),), (), False)
    body = [
        P("A", "x"),
        Not(Not(P("M1", "x"))),
        Or(P("M1", "x"), P("M1", "x")),
        Exists("y", P("M1", "y")),
        Forall("y", Or(P("M1", "y"), Not(P("M1", "y")))),
    ]
    d = DefinitionSystem(
        sig,
        (
            PredicateDef("A", ("x",), P("M1", "x")),
            PredicateDef("S", ("x",), big_and(body)),
        ),
    )
    assert proximate_genus("S", ["A"], d, ceiling=32) == proximate_genus("S", ["A"], d)
    with pytest.raises(ResourceCeilingError) as exc:
        proximate_genus("S", ["A"], d, ceiling=31)
    assert (exc.value.needed, exc.value.ceiling) == (32, 31)
    assert "32 sub-conjunctions" in str(exc.value)


def test_generators_toy_sets():
    sig0 = Signature((("p", 0), ("q", 0)), (), False)
    p, q = Pred("p", ()), Pred("q", ())
    d0 = DefinitionSystem(sig0, ())
    ts = generators([And(p, q), p, q], d0)
    assert ts.generator_flags == (True, False, False)
    assert not ts.exact
    assert ts.bound == 1

    d1 = DefinitionSystem(Signature((("M1", 1),), (), False), ())
    ts2 = generators(
        [Forall("x", P("M1", "x")), Exists("x", P("M1", "x"))], d1
    )
    assert ts2.generator_flags == (True, False)
    assert ts2.exact

    ts3 = generators([p, q], d0)
    assert ts3.generator_flags == (False, False)


def test_generators_equivalent_pair_both_flagged():
    d1 = DefinitionSystem(Signature((("M1", 1),), (), False), ())
    a = Forall("x", P("M1", "x"))
    b = Forall("y", And(P("M1", "y"), P("M1", "y")))
    ts = generators([a, b], d1)
    assert ts.generator_flags == (True, True)


def test_generators_requires_sentences():
    d1 = DefinitionSystem(Signature((("M1", 1),), (), False), ())
    with pytest.raises(ValueError):
        generators([], d1)
    with pytest.raises(ValueError):
        generators([P("M1", "x")], d1)


def _extent(formula, model, var="x"):
    return frozenset(
        e for e in range(model.size) if naive_eval(formula, model, {var: e})
    )


def test_edge_semantics_extensional():
    tree, _ = porphyry_tree(DEMO_SYSTEM)
    base = DEMO_SYSTEM.base
    for size in (1, 2):
        for m in all_models(base.predicates, (), size):
            em, _ = expand_model(DEMO_SYSTEM, m)
            for e in tree.edges:
                species = {t[0] for t in em.predicates[e.species]}
                genus = {t[0] for t in em.predicates[e.genus]}
                diff = _extent(unfold(e.difference, DEMO_SYSTEM), m)
                assert species == genus & diff


def test_opposition_partitions_genus():
    for size in (1, 2, 3):
        for m in all_models(DEMO_SYSTEM.base.predicates, (), size):
            em, _ = expand_model(DEMO_SYSTEM, m)
            grp = {t[0] for t in em.predicates["Grp"]}
            mon = {t[0] for t in em.predicates["Mon"]}
            anti = {
                e
                for e in mon
                if (e,) not in m.predicates["HasInv"]
            }
            assert grp & anti == set()
            assert grp | anti == mon


def test_public_calls_validate_once(monkeypatch):
    calls = []
    validate = porphyry.defsys.validate

    def counted(d):
        calls.append(d)
        return validate(d)

    monkeypatch.setattr(porphyry.defsys, "validate", counted)
    for run in (
        lambda: classify_formula(P("Comm", "x"), "Ab", DEMO_SYSTEM),
        lambda: proximate_genus("Ab", ["Grp", "Mon"], DEMO_SYSTEM),
        lambda: generators(
            [Forall("x", P("Ab", "x")), Exists("x", P("Grp", "x"))],
            DEMO_SYSTEM,
        ),
    ):
        calls.clear()
        run()
        assert calls == [DEMO_SYSTEM]


def test_public_calls_build_the_symbol_table_once(monkeypatch):
    # The table validation builds is the one the unfolding and the class
    # checks read.
    calls = []
    symbols = DefinitionSystem.symbols

    def counted(d):
        calls.append(d)
        return symbols(d)

    monkeypatch.setattr(DefinitionSystem, "symbols", counted)
    sentences = [Forall("x", P("Ab", "x")), Exists("x", P("Grp", "x"))]
    for run in (
        lambda: classify_formula(P("Comm", "x"), "Ab", DEMO_SYSTEM),
        lambda: proximate_genus("Ab", ["Grp", "Mon"], DEMO_SYSTEM),
        lambda: generators(sentences, DEMO_SYSTEM),
    ):
        calls.clear()
        run()
        assert calls == [DEMO_SYSTEM]


def test_tree_of_a_deep_body():
    # 5,000 conjuncts built in code, past what the parser accepts.
    rest = [P(f"M{i % 2 + 1}", "x") for i in range(5000)]
    body = big_and([*rest[:2500], P("G", "x"), *rest[2500:]])
    d = DefinitionSystem(
        SIG,
        (PredicateDef("G", ("x",), P("M1", "x")), PredicateDef("S", ("x",), body)),
    )
    tree, unguarded = porphyry_tree(d)
    assert [(e.species, e.genus) for e in tree.edges] == [("S", "G")]
    # == on two deep trees would recurse: compare the conjuncts instead.
    assert conjuncts(tree.edges[0].difference) == rest and unguarded == ()
