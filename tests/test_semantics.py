import ast
import random
from pathlib import Path

import pytest

from helpers import (
    all_models,
    chain_condition,
    cycle_model,
    naive_eval,
    random_formula,
)
from porphyry import (
    And,
    Const,
    Countermodel,
    Eq,
    Exists,
    FiniteModel,
    Forall,
    HoldsUpTo,
    Implies,
    Not,
    Pred,
    ResourceCeilingError,
    Signature,
    Var,
    RecheckError,
    bounded_entails,
    count_models,
    default_bound,
    enumerate_models,
    evaluate,
)

SIG2 = Signature((("M1", 1), ("M2", 1)), (), False)
SIGC = Signature((("M1", 1), ("M2", 1)), ("c",), False)
SIGR = Signature((("R", 2),), ("c",), False)


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


def test_enumerate_ceiling():
    with pytest.raises(ResourceCeilingError) as exc:
        list(enumerate_models(SIGR, 3, ceiling=100))
    assert exc.value.needed > exc.value.ceiling == 100


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
