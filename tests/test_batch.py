"""One scan answers a batch of entailment queries: each batch answer must
equal the per-query answer of an oracle independent of the library."""

import itertools
import random

import pytest

from helpers import all_models, first_cell_model, naive_eval, random_formula
import porphyry.monadic
import porphyry.semantics
from porphyry import (
    And,
    DefinitionSystem,
    Exists,
    Forall,
    Not,
    Or,
    Pred,
    PredicateDef,
    RecheckError,
    ResourceCeilingError,
    Signature,
    Var,
    big_and,
    decide_entails,
    generators,
    monadic_normal_form,
    parse_formula,
    proximate_genus,
)
from porphyry.monadic import _holds_exact
from porphyry.semantics import _countermodels


def _random_batch(rng, preds, consts, frees, rows=4):
    formulas = [
        random_formula(rng, preds, scope=frees, max_q=2, depth=3, consts=consts)
        for _ in range(rows)
    ]
    queries = [((i,), j) for i in range(rows) for j in range(rows) if i != j]
    queries += [((0, 1), 2), ((1, 2, 3), 0), ((), 3)]
    return formulas, queries


def _exact_oracle(formulas, query, preds, consts):
    premises, conclusion = query
    test = big_and([formulas[i] for i in premises] + [Not(formulas[conclusion])])
    return first_cell_model(test, preds, consts) is None


def _bounded_oracle(formulas, query, sig, frees, bound):
    premises, conclusion = query
    for size in range(1, bound + 1):
        for m in all_models(sig.predicates, sig.constants, size):
            for values in itertools.product(range(size), repeat=len(frees)):
                env = dict(zip(frees, values))
                if all(naive_eval(formulas[i], m, dict(env)) for i in premises) and (
                    not naive_eval(formulas[conclusion], m, dict(env))
                ):
                    return False
    return True


def _small_chunks(monkeypatch, cells):
    monkeypatch.setattr(porphyry.semantics, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(porphyry.monadic, "_CHUNK_CELLS", cells)


@pytest.mark.parametrize("cells", [None, 40, 3])
def test_exact_batch_matches_per_query_oracle(monkeypatch, cells):
    # 40 cells splits the supports into several chunks; 3 also fixes
    # holders one assignment at a time.
    if cells is not None:
        _small_chunks(monkeypatch, cells)
    rng = random.Random(101)
    for _ in range(25):
        preds = ["M1", "M2"][: rng.randint(1, 2)]
        consts = rng.sample(["c", "d"], rng.randint(0, 1))
        frees = rng.sample(["x", "y"], rng.randint(0, 2 - len(consts)))
        sig = Signature(tuple((p, 1) for p in preds), tuple(sorted(consts)), False)
        formulas, queries = _random_batch(rng, preds, consts, frees)
        got = _holds_exact(formulas, queries, sig, None)
        want = [_exact_oracle(formulas, q, preds, sig.constants) for q in queries]
        assert got == want


@pytest.mark.parametrize("cells", [None, 40, 3])
def test_bounded_batch_matches_per_query_oracle(monkeypatch, cells):
    if cells is not None:
        _small_chunks(monkeypatch, cells)
    rng = random.Random(202)
    for _ in range(12):
        consts = rng.sample(["c"], rng.randint(0, 1))
        frees = rng.sample(["x", "y"], rng.randint(0, 2 - len(consts)))
        sig = Signature((("M1", 1), ("M2", 1)), tuple(consts), False)
        formulas, queries = _random_batch(rng, ["M1", "M2"], consts, frees)
        hits = _countermodels(sig, formulas, queries, 3, None)
        want = [
            _bounded_oracle(formulas, q, sig, sorted(frees), 3) for q in queries
        ]
        assert [hit is None for hit in hits] == want


def test_generators_batch_past_the_pairwise_ceiling():
    # Five predicates in all (2^32 supports, past the default ceiling),
    # but at most four in any pair: each pair is then decided on its own.
    sig = Signature(tuple((f"M{i}", 1) for i in range(1, 6)), (), False)
    d = DefinitionSystem(sig, ())
    texts = [
        "(exists x. M1(x) & !M2(x)) & (forall x. M2(x) -> M1(x))",
        "exists x. M3(x) | M4(x)",
        "exists x. M5(x)",
    ]
    sentences = [parse_formula(t, sig) for t in texts]
    ts = generators(sentences, d)
    assert ts.exact
    assert ts.generator_flags == (False, False, False)
    # A single pair past the ceiling still raises, as its own call would.
    wide = parse_formula("exists x. M1(x) & M2(x) & M3(x) & M4(x) & M5(x)", sig)
    with pytest.raises(ResourceCeilingError):
        generators([wide, sentences[0]], d)
    with pytest.raises(ResourceCeilingError):
        decide_entails(wide, sentences[0], sig)


def test_generators_of_one_sentence_ask_nothing():
    # One sentence makes an empty batch: no scan, so not even a ceiling
    # of 0 is tripped, and the sentence generates itself.
    sig = Signature((("M1", 1), ("R", 2)), (), False)
    d = DefinitionSystem(sig, ())
    for text in ("exists x. M1(x)", "exists x. R(x, x)"):
        ts = generators([parse_formula(text, sig)], d, bound=2, ceiling=0)
        assert ts.generator_flags == (True,)


def test_proximate_genus_batch_past_the_pairwise_ceiling():
    # The rows use four predicates together (2^16 supports), each query
    # three (256): past a ceiling of 1000, each query gets its own scan.
    sig = Signature(tuple((f"M{i}", 1) for i in range(1, 5)), (), False)
    x = Var("x")
    d = DefinitionSystem(
        sig,
        (
            PredicateDef("A", ("x",), Or(Pred("M1", (x,)), Pred("M3", (x,)))),
            PredicateDef("B", ("x",), Or(Pred("M1", (x,)), Pred("M4", (x,)))),
            PredicateDef("S", ("x",), And(Pred("M1", (x,)), Pred("M2", (x,)))),
        ),
    )
    got = proximate_genus("S", ["B", "A"], d, ceiling=1000)
    assert got == proximate_genus("S", ["B", "A"], d)
    assert got.chosen == "A"
    with pytest.raises(ResourceCeilingError):
        proximate_genus("S", ["B", "A"], d, ceiling=100)


def test_batch_rechecks_every_refuted_query(monkeypatch):
    # The scan re-checks each refuted query's first hit with evaluate; a
    # re-check that disagrees is an error, whichever engine ran.
    sig = Signature((("M1", 1), ("M2", 1)), (), False)
    x = Var("x")
    d = DefinitionSystem(
        sig,
        (
            PredicateDef("A", ("x",), Pred("M1", (x,))),
            PredicateDef("S", ("x",), big_and([Pred("A", (x,)), Pred("M2", (x,))])),
        ),
    )
    some = Exists("x", Pred("M1", (x,)))
    every = Forall("x", Pred("M1", (x,)))
    assert generators([some, every], d).generator_flags == (False, True)
    assert proximate_genus("S", ["A"], d).chosen == "A"
    sig_r = Signature((("M1", 1), ("R", 2)), (), False)
    d_r = DefinitionSystem(sig_r, ())
    loop = Exists("x", Pred("R", (x, x)))
    assert generators([some, loop], d_r, bound=2).generator_flags == (False, False)

    monkeypatch.setattr(porphyry.semantics, "evaluate", lambda f, m, env=None: False)
    with pytest.raises(RecheckError):
        generators([some, every], d)
    with pytest.raises(RecheckError):
        proximate_genus("S", ["A"], d)
    with pytest.raises(RecheckError):
        generators([some, loop], d_r, bound=2)


def test_normal_form_disjunct_ceiling():
    # nnf doubles each side of <->, and every quantifier multiplies the
    # disjuncts of its body: this 9-node formula outgrows memory without
    # a guard.  A small ceiling stops it before the form is built.
    sig = Signature((("M1", 1), ("M2", 1)), (), False)
    f = parse_formula(
        "forall v1. exists v2. M2(x) | M1(x) <-> M2(v2) <-> M2(v1)", sig
    )
    with pytest.raises(ResourceCeilingError) as exc:
        monadic_normal_form(f, "x", sig, ceiling=1000)
    assert exc.value.needed > 1000
    assert "normal form disjuncts" in str(exc.value)
