import ast
import random
from itertools import product
from pathlib import Path

import pytest

from helpers import (
    all_models,
    chain_condition,
    cycle_model,
    naive_eval,
    random_formula,
)
import porphyry.semantics
from porphyry import (
    And,
    Const,
    Countermodel,
    DefinitionSystem,
    Eq,
    Exists,
    Falsum,
    FiniteModel,
    Forall,
    HoldsUpTo,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    PredicateDef,
    DEFAULT_CEILING,
    ResourceCeilingError,
    Signature,
    Var,
    Verum,
    RecheckError,
    big_and,
    bounded_entails,
    count_models,
    decide_sat,
    default_bound,
    enumerate_models,
    evaluate,
    expand_model,
    free_vars,
    monadic_normal_form,
    proximate_genus,
)

SIG2 = Signature((("M1", 1), ("M2", 1)), (), False)
SIGC = Signature((("M1", 1), ("M2", 1)), ("c",), False)
SIGR = Signature((("R", 2),), ("c",), False)
SIGX = Signature((("R", 2), ("P", 1), ("Z", 0)), ("c",), True)


def test_count_models():
    assert count_models(SIGC, 2) == 32
    assert count_models(SIGR, 2) == 2 ** 4 * 2
    assert count_models(SIG2, 3) == 2 ** 6


def test_enumerate_order_and_coverage():
    ms = list(enumerate_models(SIG2, 1))
    assert [
        (sorted(m.predicates["M1"]), sorted(m.predicates["M2"])) for m in ms
    ] == [([], []), ([], [(0,)]), ([(0,)], []), ([(0,)], [(0,)])]
    ms2 = list(enumerate_models(SIGC, 2))
    assert len(ms2) == count_models(SIGC, 2)

    def key(m):
        return (
            m.size,
            tuple(sorted(m.constants.items())),
            tuple(sorted((n, tuple(sorted(v))) for n, v in m.predicates.items())),
        )

    keys = {key(m) for m in ms2}
    assert len(keys) == len(ms2)
    assert list(enumerate_models(SIGC, 2)) == ms2
    assert keys == {key(m) for m in all_models(SIGC.predicates, SIGC.constants, 2)}

    # The documented order: one digit per predicate (bit j = j-th tuple in
    # lexicographic order), then one per constant, the last varying fastest.
    tuples = {a: list(product(range(2), repeat=a)) for a in (0, 1, 2)}
    expected = [
        FiniteModel(
            2,
            {"c": c},
            {
                name: frozenset(t for j, t in enumerate(tuples[a]) if mask >> j & 1)
                for (name, a), mask in zip(SIGX.predicates, masks)
            },
        )
        for *masks, c in product(range(16), range(4), range(2), range(2))
    ]
    assert list(enumerate_models(SIGX, 2)) == expected


def test_ceiling_error_keeps_what_it_counted():
    m1, m2 = Pred("M1", (Var("x"),)), Pred("M2", (Var("x"),))
    # The body of S unfolds to three conjuncts, so 2^3 = 8 sub-conjunctions,
    # while the exact engine needs only 2^2 = 4 supports over M1.
    d = DefinitionSystem(
        Signature((("M1", 1),), (), False),
        (
            PredicateDef("A", ("x",), m1),
            PredicateDef("S", ("x",), big_and((Pred("A", (Var("x"),)), m1, m1))),
        ),
    )
    calls = [
        (
            lambda: bounded_entails(SIG2, [], Implies(m1, m2), 2, 3),
            "interpretations",
        ),
        (lambda: decide_sat(And(m1, m2), SIG2, ceiling=3), "supports"),
        (
            lambda: monadic_normal_form(Or(m1, m2), "x", SIG2, 1),
            "normal form disjuncts",
        ),
        (lambda: proximate_genus("S", ["A"], d, ceiling=7), "sub-conjunctions"),
    ]
    for call, what in calls:
        with pytest.raises(ResourceCeilingError) as exc:
            call()
        assert exc.value.what == what
        assert f" {what}, ceiling is " in str(exc.value)


def test_enumerate_ceiling():
    with pytest.raises(ResourceCeilingError) as exc:
        list(enumerate_models(SIGR, 3, ceiling=100))
    assert exc.value.needed > exc.value.ceiling == 100


def test_ceiling_past_the_digit_limit():
    # 2^16384 has more digits than Python prints by default: the error
    # must still be a ResourceCeilingError, and say the count in powers of 2.
    sig = Signature((("R", 14),), (), False)
    r = Pred("R", (Var("x"),) * 14)
    for call in (
        lambda: bounded_entails(sig, [], Implies(r, r)),
        lambda: list(enumerate_models(sig, 2)),
    ):
        with pytest.raises(ResourceCeilingError) as exc:
            call()
        assert (exc.value.needed, exc.value.ceiling) == (2**16384, DEFAULT_CEILING)
        assert str(exc.value) == (
            "enumeration needs 2^16384 interpretations, ceiling is 2000000"
        )
    # Past 2^16 bits the count is not built at all.
    wide = Signature((("R", 17),), (), False)
    with pytest.raises(ResourceCeilingError) as exc:
        next(enumerate_models(wide, 2))
    assert exc.value.needed is None
    assert "needs at least 2^65536 interpretations" in str(exc.value)
    assert str(ResourceCeilingError(3 << 64, 1 << 70)) == (
        "enumeration needs more than 2^65 interpretations, ceiling is 2^70"
    )


def test_ceiling_on_array_axes():
    # Each level of quantifier nesting is one more array axis, past numpy's
    # limit (64 axes in numpy 2, 32 in numpy 1.x) at 70 levels: both
    # engines and the expansion of a model say so before building any.
    def nested(atom):
        for i in reversed(range(70)):
            atom = Forall(f"x{i}", atom)
        return atom

    unary = nested(Pred("M1", (Var("x0"),)))
    binary = nested(Pred("R", (Var("x0"), Var("x69"))))
    d = DefinitionSystem(SIG2, (PredicateDef("D", (), unary),))
    m = FiniteModel(1, {}, {"M1": frozenset(), "M2": frozenset()})
    for call in (
        lambda: decide_sat(unary, SIG2),
        lambda: bounded_entails(SIGR, [], binary, 1),
        lambda: expand_model(d, m),
    ):
        with pytest.raises(ResourceCeilingError) as exc:
            call()
        assert exc.value.what == "array axes"
        assert exc.value.needed == 71 and exc.value.ceiling in (32, 64)


def test_enumerate_past_int64():
    # 2^64 interpretations: indices no longer fit a machine word.
    sig = Signature((("T", 3),), (), False)
    models = enumerate_models(sig, 4, ceiling=2**70)
    first = [next(models).predicates["T"] for _ in range(3)]
    assert first == [frozenset(), {(0, 0, 0)}, {(0, 0, 1)}]


def test_evaluate_against_naive():
    rng = random.Random(7)
    pool = all_models(SIGC.predicates, SIGC.constants, 2) + all_models(
        SIGC.predicates, SIGC.constants, 3
    )
    for _ in range(1000):
        f = random_formula(rng, ["M1", "M2"], scope=("u",), max_q=2, depth=4)
        m = rng.choice(pool)
        env = {"u": rng.randrange(m.size)}
        assert evaluate(f, m, env) == naive_eval(f, m, dict(env))


def test_evaluate_equality_is_identity():
    m = FiniteModel(2, {"c": 1}, {})
    assert evaluate(Eq(Const("c"), Const("c")), m, {})
    assert not evaluate(Eq(Var("x"), Const("c")), m, {"x": 0})
    assert evaluate(Exists("x", Eq(Var("x"), Const("c"))), m, {})


def test_evaluate_missing_binding():
    m = FiniteModel(2, {}, {"M1": frozenset()})
    with pytest.raises(ValueError):
        evaluate(Pred("M1", (Var("x"),)), m, {})


def test_model_to_dsl():
    m = FiniteModel(2, {"c": 1}, {"M1": frozenset({(0,)}), "R": frozenset({(0, 1)})})
    sig = Signature((("M1", 1), ("R", 2)), ("c",), False)
    assert m.to_dsl("w", sig) == (
        "model w {\n  universe 2;\n  M1 = {0};\n  R = {(0, 1)};\n  c = {1};\n}"
    )


def test_default_bound():
    assert default_bound(SIGR) == 4
    assert default_bound(Signature((("A", 1), ("B", 1), ("C", 1)), (), False)) == 8
    assert default_bound(Signature((("p", 0),), (), False)) == 1


def test_bounded_entails_countermodel_frozen():
    v = bounded_entails(SIGR, [chain_condition(1)], chain_condition(2), 3)
    assert isinstance(v, Countermodel)
    assert v.model.size == 2
    assert sorted(v.model.predicates["R"]) == [(0, 1), (1, 0)]
    assert v.model.constants == {"c": 0}
    assert evaluate(chain_condition(1), v.model, dict(v.assignment))
    assert not evaluate(chain_condition(2), v.model, dict(v.assignment))


def test_bounded_entails_no_countermodel():
    v = bounded_entails(SIGR, [chain_condition(1)], chain_condition(1), 3)
    assert v == HoldsUpTo(3)
    taut = Implies(Pred("M1", (Var("x"),)), Pred("M1", (Var("x"),)))
    assert bounded_entails(SIG2, [], taut, 2) == HoldsUpTo(2)


def test_bounded_entails_free_variable_assignment():
    f = Pred("M1", (Var("x"),))
    g = Pred("M2", (Var("x"),))
    v = bounded_entails(SIG2, [f], g, 2)
    assert isinstance(v, Countermodel)
    assert set(v.assignment) == {"x"}
    e = v.assignment["x"]
    assert (e,) in v.model.predicates["M1"]
    assert (e,) not in v.model.predicates["M2"]


def test_bounded_entails_premise_set():
    m1 = Exists("x", Pred("M1", (Var("x"),)))
    only = Forall("x", And(Pred("M1", (Var("x"),)), Not(Pred("M2", (Var("x"),)))))
    v = bounded_entails(SIG2, [m1, only], Exists("x", Pred("M2", (Var("x"),))), 3)
    assert isinstance(v, Countermodel)
    assert evaluate(m1, v.model, {}) and evaluate(only, v.model, {})


def test_cycle_model_helper_sanity():
    assert evaluate(chain_condition(2), cycle_model(3), {})
    assert not evaluate(chain_condition(1), cycle_model(3), {})


def test_no_bare_asserts_in_package():
    # Re-checks must stay on under python -O, so the package raises
    # RecheckError instead of using assert statements.
    import porphyry

    assert issubclass(RecheckError, AssertionError)
    sources = sorted(Path(porphyry.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_bounded_entails_checks_symbols():
    sig = Signature((("R", 2),), ("a",), False)
    x = Var("x")
    cases = [
        (Forall("x", Or(Verum(), Pred("Q", (x,)))), "predicate Q is not declared"),
        (Or(Verum(), Pred("R", (x,))), "predicate R has arity 2, applied to 1"),
        (Or(Verum(), Eq(x, Const("d"))), "constant d is not declared"),
    ]
    for f, message in cases:
        with pytest.raises(ValueError, match=message):
            bounded_entails(sig, [], f, 2)
        with pytest.raises(ValueError, match=message):
            bounded_entails(sig, [f], Verum(), 2)


def test_bounded_entails_checks_symbols_of_a_deep_chain():
    # Built in code, past what the parser accepts: the check does not recurse.
    sig = Signature((("R", 2),), (), False)
    f = Pred("Q", (Var("x"),))
    for _ in range(3000):
        f = And(f, Pred("R", (Var("x"), Var("x"))))
    with pytest.raises(ValueError, match="predicate Q is not declared"):
        bounded_entails(sig, [f], Verum(), 2)


def _scalar_scan(sig, premises, conclusion, bound):
    """The plain loop the scan must agree with: every model in enumeration
    order, every assignment of the sorted free variables, evaluate."""
    frees = sorted(
        frozenset().union(*(free_vars(f) for f in (*premises, conclusion)))
    )
    for size in range(1, bound + 1):
        for model in enumerate_models(sig, size):
            for values in product(range(size), repeat=len(frees)):
                env = dict(zip(frees, values))
                if all(evaluate(p, model, env) for p in premises) and not evaluate(
                    conclusion, model, env
                ):
                    return Countermodel(model, env)
    return HoldsUpTo(bound)


def _random_query(rng):
    """Premises and conclusion over SIGX sharing up to two free variables;
    binders may reuse a free variable's name or the constant's."""

    def term(scope):
        if scope and rng.random() < 0.75:
            return Var(rng.choice(scope))
        return Const("c")

    def go(scope, depth):
        if depth == 0 or rng.random() < 0.2:
            kind = rng.randrange(5)
            if kind == 0:
                return Pred("R", (term(scope), term(scope)))
            if kind == 1:
                return Pred("P", (term(scope),))
            if kind == 2:
                return Pred("Z", ())
            if kind == 3:
                return Eq(term(scope), term(scope))
            return rng.choice([Verum(), Falsum()])
        kind = rng.randrange(6)
        if kind == 0:
            return Not(go(scope, depth - 1))
        if kind <= 2:
            v = rng.choice(["x", "y", "z", "c"])
            return rng.choice([Forall, Exists])(v, go(scope + [v], depth - 1))
        op = rng.choice([And, Or, Implies, Iff])
        return op(go(scope, depth - 1), go(scope, depth - 1))

    frees = rng.sample(["x", "y"], rng.randrange(3))
    premises = [go(frees, rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
    return premises, go(frees, rng.randrange(1, 5)), rng.randrange(1, 3)


def _assert_same_as_scalar(queries):
    for premises, conclusion, bound in queries:
        got = bounded_entails(SIGX, premises, conclusion, bound)
        assert got == _scalar_scan(SIGX, premises, conclusion, bound)
        if isinstance(got, Countermodel):
            env = dict(got.assignment)
            assert all(naive_eval(p, got.model, dict(env)) for p in premises)
            assert not naive_eval(conclusion, got.model, dict(env))


def test_bounded_entails_matches_scalar_scan():
    rng = random.Random(2003)
    queries = [_random_query(rng) for _ in range(150)]
    verdicts = {type(bounded_entails(SIGX, p, c, b)) for p, c, b in queries}
    assert verdicts == {Countermodel, HoldsUpTo}
    _assert_same_as_scalar(queries)


def test_scan_chunk_edges_and_ceiling(monkeypatch):
    # Refuted only by the last model of size 1 (R, P and Z all true), which
    # lies past the first chunk under every budget tried below.
    premises = [Pred("R", (Const("c"), Const("c"))), Pred("P", (Const("c"),))]
    conclusion = Exists("x", Forall("y", Not(Pred("Z", ()))))
    expected = _scalar_scan(SIGX, premises, conclusion, 2)
    assert isinstance(expected, Countermodel)
    assert expected.model == list(enumerate_models(SIGX, 1))[-1]
    # Queries that reach size 2, where the small budgets below bite.
    rng = random.Random(1931)
    queries = []
    while len(queries) < 40:
        ps, c, _ = _random_query(rng)
        if _scalar_scan(SIGX, ps, c, 1) == HoldsUpTo(1):
            queries.append((ps, c, 2))
    for cells in (16, 2, 1):
        monkeypatch.setattr(porphyry.semantics, "_CHUNK_CELLS", cells)
        assert bounded_entails(SIGX, premises, conclusion, 2) == expected
        if cells < 16:
            # Budgets below one model's array loop over quantified elements
            # and fix leading free variables one at a time.
            _assert_same_as_scalar(queries)
    monkeypatch.undo()

    # The ceiling is checked per size, before that size is scanned.
    valid = Implies(Pred("R", (Var("x"), Var("y"))), Pred("R", (Var("x"), Var("y"))))
    with pytest.raises(ResourceCeilingError) as exc:
        bounded_entails(SIGR, [], valid, 3, ceiling=100)
    assert (exc.value.needed, exc.value.ceiling) == (count_models(SIGR, 3), 100)
    two = Exists("x", Exists("y", Not(Eq(Var("x"), Var("y")))))
    v = bounded_entails(SIGR, [two], Pred("R", (Var("z"), Var("z"))), 3, ceiling=100)
    assert isinstance(v, Countermodel) and v.model.size == 2
