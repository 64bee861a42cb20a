import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from helpers import (
    all_models,
    canonical_monadic_models,
    first_cell_model,
    naive_eval,
    random_formula,
    random_monadic_sentence,
)
import porphyry.monadic
import porphyry.predicabilia
import porphyry.semantics
from porphyry import (
    And,
    Const,
    Countermodel,
    DefinitionSystem,
    Eq,
    Exists,
    Falsum,
    Forall,
    Holds,
    HoldsUpTo,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    PredicateDef,
    ResourceCeilingError,
    Sat,
    Signature,
    Unsat,
    Var,
    Verum,
    bounded_entails,
    classify_formula,
    decide_entails,
    decide_sat,
    evaluate,
    free_vars,
    is_monadic,
    monadic_normal_form,
    parse_formula,
    quantifier_depth,
    render,
)

SIG = Signature((("M1", 1), ("M2", 1)), (), False)


def F(text, sig=SIG):
    return parse_formula(text, sig)


def test_is_monadic():
    assert is_monadic(F("forall x. M1(x) -> M2(x)"))
    sigR = Signature((("R", 2),), (), False)
    assert not is_monadic(F("exists x. R(x, x)", sigR))
    sigE = Signature((("M1", 1),), (), True)
    assert not is_monadic(F("x = y", sigE))
    assert not is_monadic(Pred("M1", (Var("x"), Var("y"))))


def test_quantifier_depth():
    assert quantifier_depth(F("M1(x)")) == 0
    assert quantifier_depth(F("forall x. (exists y. M1(y)) & M1(x)")) == 2
    assert quantifier_depth(F("(forall x. M1(x)) & (exists y. M2(y))")) == 1


def test_decide_sat_implication_witness():
    v = decide_sat(F("(forall x. M1(x) -> M2(x)) & exists x. M1(x)"), SIG)
    assert isinstance(v, Sat)
    assert v.model.size == 1
    assert v.model.predicates["M1"] == frozenset({(0,)})
    assert v.model.predicates["M2"] == frozenset({(0,)})


def test_decide_sat_contradiction():
    assert decide_sat(F("(exists x. M1(x)) & forall x. !M1(x)"), SIG) == Unsat()
    assert isinstance(decide_sat(F("M1(x) & !M1(x)"), SIG), Unsat)


def test_decide_sat_all_cells_witness():
    f = F(
        "(exists x. M1(x) & M2(x)) & (exists x. M1(x) & !M2(x))"
        " & (exists x. !M1(x) & M2(x)) & (exists x. !M1(x) & !M2(x))"
    )
    v = decide_sat(f, SIG)
    assert v.model.size == 4
    assert sorted(v.model.predicates["M1"]) == [(1,), (3,)]
    assert sorted(v.model.predicates["M2"]) == [(2,), (3,)]


def test_decide_sat_free_vars_and_constants():
    sigc = Signature((("M1", 1),), ("c", "d"), False)
    v = decide_sat(F("M1(c)", sigc), sigc)
    assert v.model.size == 1
    assert v.model.constants == {"c": 0, "d": 0}
    assert v.model.predicates["M1"] == frozenset({(0,)})
    w = decide_sat(F("M1(x) & !M1(y)", sigc), sigc)
    assert isinstance(w, Sat)
    assert set(w.assignment) == {"x", "y"}
    assert evaluate(F("M1(x) & !M1(y)", sigc), w.model, dict(w.assignment))


def test_decide_sat_witnesses_recheck():
    rng = random.Random(5)
    for _ in range(150):
        f = random_formula(rng, ["M1", "M2"], scope=("x",), max_q=2, depth=4)
        v = decide_sat(f, SIG)
        if isinstance(v, Sat):
            assert evaluate(f, v.model, dict(v.assignment))


def test_decide_sat_agrees_with_brute_force():
    rng = random.Random(11)
    pool = []
    for n in range(1, 5):
        pool.extend(all_models(SIG.predicates, (), n))
    for _ in range(200):
        f = random_monadic_sentence(rng, ["M1", "M2"], max_q=2, depth=4)
        got = isinstance(decide_sat(f, SIG), Sat)
        want = any(naive_eval(f, m) for m in pool)
        assert got == want, render(f)


def test_decide_sat_canonical_witness():
    # The whole witness, not just the verdict: the first support by (number
    # of cells, value), then the first holder cells in lexicographic order.

    # x and c in different cells: which one gets cell 0 shows the holder
    # order (free variables first).
    sigc = Signature((("M1", 1),), ("c",), False)
    cases = [(F("!(M1(x) <-> M1(c))", sigc), ["M1"], sigc)]
    rng = random.Random(29)
    for _ in range(300):
        k = rng.randint(1, 3)
        preds = [f"M{i}" for i in range(1, k + 1)]
        consts = rng.sample(["c", "d"], rng.randint(0, 2))
        frees = rng.sample(["x", "y"], rng.randint(0, 2 - len(consts)))
        sig = Signature(
            tuple((p, 1) for p in preds) + (("R", 2),), tuple(sorted(consts)), False
        )
        f = random_formula(rng, preds, scope=frees, max_q=2, depth=4, consts=consts)
        cases.append((f, preds, sig))
    for f, preds, sig in cases:
        want = first_cell_model(f, preds, sig.constants)
        got = decide_sat(f, sig)
        if want is None:
            assert got == Unsat(), render(f)
        else:
            assert isinstance(got, Sat), render(f)
            assert (got.model, got.assignment) == want, render(f)


def test_decide_sat_masked_scan(monkeypatch):
    # Element e is cell e in every support, and quantifiers range over the
    # support's inhabited cells.  A quantifier over a body that is the same
    # for every support is one bitmask test per support; a body that reads
    # an outer quantifier's test (the inner body below reads the outer
    # variable) differs between supports and is masked instead.
    sig4 = Signature(tuple((f"M{i}", 1) for i in range(1, 5)), ("c",), False)
    preds4 = [p for p, _ in sig4.predicates]
    texts = [
        "(exists x. M1(x) & M2(x) & !M3(x)) & (exists x. !M1(x) & M4(x))"
        " & forall x. M3(x) -> M4(x)",
        # Four cells: the hit lies past the first 696 supports.
        "(exists x. M1(x) & M2(x) & !M3(x)) & (exists x. !M1(x) & M4(x))"
        " & (exists x. !M1(x) & M2(x) & !M4(x)) & (exists x. M1(x) & M3(x))"
        " & forall x. M3(x) -> M4(x)",
        "forall x. exists y. (M1(x) <-> !M1(y)) & (M2(y) -> M3(x) | M4(y))",
        "M1(c) & !M2(x) & forall y. exists z. (M3(y) -> M4(z)) & (M2(z) <-> M1(y))",
        "(exists x. forall y. M4(y) -> M1(x) & !M2(y)) & exists x. M2(x) & !M3(x)",
        "(forall x. M1(x) | M2(x)) & (exists x. !M1(x) & M3(x))"
        " & (exists x. !M2(x) & M4(x)) & exists x. M3(x) & M4(x) & !(M1(x) <-> M2(x))",
    ]
    # At k=4 a budget of 4096 cells splits the 65,535 supports into chunks.
    cases = [(F(text, sig4), preds4, sig4, (None, 4096)) for text in texts]
    # Smaller budgets also take the element-by-element path and fix holders
    # one assignment at a time.
    rng = random.Random(43)
    for _ in range(40):
        k = rng.randint(2, 3)
        preds = [f"M{i}" for i in range(1, k + 1)]
        consts = rng.sample(["c", "d"], rng.randint(0, 1))
        frees = rng.sample(["x", "y"], rng.randint(0, 2 - len(consts)))
        sig = Signature(tuple((p, 1) for p in preds), tuple(consts), False)
        f = random_formula(rng, preds, scope=frees, max_q=3, depth=5, consts=consts)
        cases.append((f, preds, sig, (None, 64, 8, 1)))
    for f, preds, sig, budgets in cases:
        want = first_cell_model(f, preds, sig.constants)
        for cells in budgets:
            if cells is not None:
                monkeypatch.setattr(porphyry.semantics, "_CHUNK_CELLS", cells)
                monkeypatch.setattr(porphyry.monadic, "_CHUNK_CELLS", cells)
            got = decide_sat(f, sig)
            if want is None:
                assert got == Unsat(), (render(f), cells)
            else:
                assert isinstance(got, Sat), (render(f), cells)
                assert (got.model, got.assignment) == want, (render(f), cells)
        monkeypatch.undo()


def unary_formulas():
    terms = st.sampled_from([Var(v) for v in ("x", "y", "z")] + [Const("c")])
    atoms = st.one_of(
        st.just(Verum()),
        st.just(Falsum()),
        st.builds(Pred, st.sampled_from(["M1", "M2"]), st.tuples(terms)),
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Iff, kids, kids),
            st.builds(Forall, st.sampled_from(["x", "y", "z"]), kids),
            st.builds(Exists, st.sampled_from(["x", "y", "z"]), kids),
        ),
        max_leaves=8,
    )


# G is a genus of S whose difference names the constant c.
_DIFFERENCE = Or(Pred("M2", (Var("x"),)), Pred("M1", (Const("c"),)))
_CLASSES = DefinitionSystem(
    Signature((("M1", 1), ("M2", 1)), ("c",), False),
    (
        PredicateDef("G", ("x",), Pred("M1", (Var("x"),))),
        PredicateDef("S", ("x",), And(Pred("G", (Var("x"),)), _DIFFERENCE)),
    ),
)


@settings(max_examples=200, deadline=None)
@given(unary_formulas(), unary_formulas())
@example(_DIFFERENCE, Verum())
@example(And(Pred("M1", (Var("x"),)), _DIFFERENCE), Verum())
def test_exact_and_bounded_engines_agree(f, g):
    # Small-model property: a satisfiable formula over k unary predicates
    # has a model of at most 2^k elements, and the smallest has as many
    # elements as the canonical witness has inhabited cells.  So the
    # bounded scan at 2^k agrees with the exact engine on satisfiability,
    # entailment and classification, constants included.
    sig = _CLASSES.base
    exact = decide_sat(f, sig)
    scan = bounded_entails(sig, (), Not(f), 4)
    assert isinstance(exact, Sat) == isinstance(scan, Countermodel)
    if isinstance(exact, Sat):
        assert exact.model.size == scan.model.size
    exact = decide_entails(f, g, sig)
    scan = bounded_entails(sig, [f], g, 4)
    assert isinstance(exact, Holds) == isinstance(scan, HoldsUpTo)
    if isinstance(exact, Countermodel):
        assert exact.model.size == scan.model.size
    if len(free_vars(f)) > 1:
        return
    exact = classify_formula(f, "S", _CLASSES)
    # A formula the engine chooser takes for non-monadic goes to the
    # bounded scan at default_bound(sig) = 4.
    with mock.patch.object(porphyry.predicabilia, "is_monadic", lambda f: False):
        scan = classify_formula(f, "S", _CLASSES)
    assert (exact.exact, scan.exact, scan.bound) == (True, False, 4)
    assert type(exact) is type(scan)
    assert exact.evidence.keys() == scan.evidence.keys()
    for key, verdict in exact.evidence.items():
        assert isinstance(verdict, Holds) == isinstance(scan.evidence[key], HoldsUpTo)


def test_decide_sat_deterministic():
    f = F("(exists x. M1(x)) | exists x. M2(x)")
    assert decide_sat(f, SIG) == decide_sat(f, SIG)


def test_decide_sat_cells_over_used_predicates_only():
    sig5 = Signature(tuple((f"P{i}", 1) for i in range(5)), (), False)
    v = decide_sat(Pred("P0", (Var("x"),)), sig5)
    assert isinstance(v, Sat) and v.model.size == 1


def test_decide_sat_ceiling():
    sig5 = Signature(tuple((f"P{i}", 1) for i in range(5)), (), False)
    from porphyry import big_and

    uses_all = big_and(tuple(Pred(f"P{i}", (Var("x"),)) for i in range(5)))
    with pytest.raises(ResourceCeilingError) as exc:
        decide_sat(uses_all, sig5)
    assert exc.value.needed == 2 ** 32
    assert str(exc.value) == (
        "enumeration needs 4294967296 supports, ceiling is 2000000"
    )
    # 2^(2^14) supports: past the digits Python prints, still this error.
    uses_14 = big_and(tuple(Pred(f"P{i}", (Var("x"),)) for i in range(14)))
    with pytest.raises(ResourceCeilingError) as exc:
        decide_sat(uses_14)
    assert exc.value.needed == 2 ** 2 ** 14
    assert str(exc.value).startswith("enumeration needs 2^16384 ")


def test_decide_sat_infers_signature():
    v = decide_sat(F("exists x. M1(x)"))
    assert isinstance(v, Sat)


def test_decide_sat_equality_mode():
    sige = Signature((("M1", 1),), (), True)
    two = F("exists x. exists y. !(x = y) & M1(x) & M1(y)", sige)
    v = decide_sat(two, sige, allow_equality=True)
    assert isinstance(v, Sat) and v.model.size == 2
    with pytest.raises(ValueError):
        decide_sat(two, sige)
    one = F("(forall x. forall y. x = y) & (exists z. !(z = y))", sige)
    assert decide_sat(one, sige, allow_equality=True) == Unsat()

    # Free variable y; the bound is 2^k * max(1, quantifier depth).
    sig2e = Signature((("M1", 1), ("M2", 1)), (), True)
    cases = [
        ("exists x. !(x = y) & M1(x) & !M1(y)", 2),
        ("(forall x. x = y) & M1(y) & M2(y)", 4),
        ("exists x. exists z. !(x = z) & !(x = y) & !(z = y) & M1(x)", 4),
        ("M1(y) & (forall x. M1(x) -> !(x = y))", 2),
        ("(forall x. x = y) & (exists z. !(z = y))", 1),
    ]
    for text, bound in cases:
        f = F(text, sig2e)
        sizes = [
            n
            for n in range(1, bound + 1)
            if any(
                naive_eval(f, m, {"y": e})
                for m in all_models(sig2e.predicates, (), n)
                for e in range(n)
            )
        ]
        v = decide_sat(f, sig2e, allow_equality=True)
        assert isinstance(v, Sat) == bool(sizes), text
        if sizes:
            assert naive_eval(f, v.model, dict(v.assignment)), text
            assert v.model.size == sizes[0], text


def test_decide_entails_basic():
    assert decide_entails(
        F("forall x. M1(x) -> M2(x)"),
        F("(exists x. M1(x)) -> exists x. M2(x)"),
        SIG,
    ) == Holds()
    v = decide_entails(F("exists x. M2(x)"), F("exists x. M1(x)"), SIG)
    assert isinstance(v, Countermodel)
    assert naive_eval(F("exists x. M2(x)"), v.model, dict(v.assignment))
    assert not naive_eval(F("exists x. M1(x)"), v.model, dict(v.assignment))


def test_decide_entails_free_vars_shared():
    v = decide_entails(F("M1(x)"), F("M2(x)"), SIG)
    assert isinstance(v, Countermodel)
    e = v.assignment["x"]
    assert (e,) in v.model.predicates["M1"]
    assert (e,) not in v.model.predicates["M2"]


def test_decide_entails_nonempty_domain():
    assert decide_entails(F("forall x. M1(x)"), F("exists x. M1(x)"), SIG) == Holds()


def test_mnf_shapes():
    m1 = monadic_normal_form(F("M2(x) & exists y. M1(y)"), "x", SIG)
    assert [(d.cell.literals, render(d.residue)) for d in m1.disjuncts] == [
        ((("M2", True),), "exists y. M1(y)")
    ]
    assert not m1.pure

    m2 = monadic_normal_form(F("M1(x) | !M1(x)"), "x", SIG)
    assert [(d.cell.literals, render(d.residue)) for d in m2.disjuncts] == [
        ((("M1", True),), "true"),
        ((("M1", False),), "true"),
    ]
    assert m2.pure

    m3 = monadic_normal_form(F("M1(x) & !M1(x)"), "x", SIG)
    assert m3.disjuncts == ()
    assert m3.pure
    assert render(m3.to_formula()) == "false"

    m4 = monadic_normal_form(F("M1(x) & exists y. M1(y)"), "x", SIG)
    assert [(d.cell.literals, render(d.residue)) for d in m4.disjuncts] == [
        ((("M1", True),), "true")
    ]
    assert m4.pure


def test_mnf_closed_input_degenerates():
    form = monadic_normal_form(F("exists x. M1(x)"), "x", SIG)
    assert len(form.disjuncts) == 1
    assert form.disjuncts[0].cell.literals == ()
    assert not form.pure


def test_mnf_preconditions():
    with pytest.raises(ValueError):
        monadic_normal_form(F("M1(x) & M2(y)"), "x", SIG)
    sigR = Signature((("R", 2),), (), False)
    with pytest.raises(ValueError):
        monadic_normal_form(F("R(x, x)", sigR), "x", sigR)


def test_mnf_random_equivalence():
    rng = random.Random(23)
    pool = []
    for n in range(1, 4):
        pool.extend(all_models(SIG.predicates, (), n))
    for _ in range(200):
        f = random_formula(rng, ["M1", "M2"], scope=("x",), max_q=1, depth=4)
        form = monadic_normal_form(f, "x", SIG)
        g = form.to_formula()
        for m in rng.sample(pool, 12):
            for e in range(m.size):
                assert naive_eval(f, m, {"x": e}) == naive_eval(g, m, {"x": e})
        if form.pure:
            assert all(d.residue == parse_formula("true", SIG) for d in form.disjuncts)


def test_mnf_cells_use_signature_order():
    f = F("M2(x) & M1(x)")
    form = monadic_normal_form(f, "x", SIG)
    assert form.disjuncts[0].cell.literals == (("M1", True), ("M2", True))
