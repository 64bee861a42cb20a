"""One scan answers a batch of entailment queries: each batch answer must
equal the per-query answer of an oracle independent of the library."""

import itertools
import random

import pytest

from helpers import (
    all_models,
    first_cell_model,
    naive_eval,
    occurring,
    random_formula,
)
import porphyry.semantics
from porphyry import (
    And,
    Const,
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
    RecheckError,
    ResourceCeilingError,
    Signature,
    Var,
    big_and,
    bounded_entails,
    classify_formula,
    decide_entails,
    generators,
    is_monadic,
    monadic_normal_form,
    parse_formula,
    porphyry_tree,
    proximate_genus,
    quantifier_depth,
    unfold,
)
from porphyry.semantics import _verdicts


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
        got = [
            isinstance(v, Holds) for v in _verdicts(sig, formulas, queries, None, None)
        ]
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
        verdicts = _verdicts(sig, formulas, queries, 3, None)
        want = [
            _bounded_oracle(formulas, q, sig, sorted(frees), 3) for q in queries
        ]
        assert [isinstance(v, HoldsUpTo) for v in verdicts] == want


@pytest.mark.parametrize("cells", [None, 40, 3])
def test_bounded_batch_witnesses_match_one_query_scans(monkeypatch, cells):
    # Every query also names a tautology over all the batch's free
    # variables, so its own scan has the batch's holders and must find the
    # same first hit, model and assignment.
    if cells is not None:
        _small_chunks(monkeypatch, cells)
    rng = random.Random(404)
    for _ in range(12):
        consts = rng.sample(["c"], rng.randint(0, 1))
        frees = rng.sample(["x", "y"], rng.randint(0, 2 - len(consts)))
        sig = Signature((("M1", 1), ("M2", 1)), tuple(consts), False)
        formulas, queries = _random_batch(rng, ["M1", "M2"], consts, frees)
        pad = big_and(
            [Or(Pred("M1", (Var(v),)), Not(Pred("M1", (Var(v),)))) for v in frees]
        )
        rows = formulas + [pad]
        padded = [((*premises, len(formulas)), c) for premises, c in queries]
        verdicts = _verdicts(sig, rows, padded, 3, None)
        refuted = [isinstance(v, Countermodel) for v in verdicts]
        assert any(refuted) and not all(refuted)
        for query, v in zip(padded, verdicts):
            assert v == _verdicts(sig, rows, [query], 3, None)[0]


@pytest.mark.parametrize("cells", [40, 3])
@pytest.mark.parametrize("bound", [None, 2])
def test_leave_one_out_batches_match_one_query_scans(monkeypatch, cells, bound):
    # Each query leaves one row out, as the redundancy warnings ask, so its
    # premises are the first and the last rows and are conjoined from both
    # ends.  The one-query scan asks the same premises as one row, which
    # conjoins them inside the evaluator: the same rows and holders, so the
    # same verdict and witness.
    _small_chunks(monkeypatch, cells)
    rng = random.Random(505)
    kinds = set()
    for _ in range(12):
        consts = rng.sample(["c"], rng.randint(0, 1))
        frees = rng.sample(["x", "y"], rng.randint(0, 2 - len(consts)))
        sig = Signature((("M1", 1), ("M2", 1)), tuple(consts), False)
        rows = [
            random_formula(rng, ["M1", "M2"], scope=frees, max_q=2, depth=3, consts=consts)
            for _ in range(rng.randint(2, 4))
        ]
        # A row that another entails, so that some queries hold.
        rows.insert(rng.randrange(len(rows) + 1), Or(rows[0], rows[-1]))
        m = len(rows)
        queries = [(tuple(k for k in range(m) if k != j), j) for j in range(m)]
        verdicts = _verdicts(sig, rows, queries, bound, None)
        for (premises, j), v in zip(queries, verdicts):
            alone = [big_and([rows[k] for k in premises]), rows[j]]
            assert v == _verdicts(sig, alone, [((0,), 1)], bound, None)[0]
            kinds.add(type(v))
    assert Countermodel in kinds and len(kinds) == 2


def _pad(rows, sig):
    """A valid formula that uses every predicate and holder of the rows, so
    the oracle scans the cells and holders the batch scans."""
    preds, consts, frees = set(), set(), set()
    for f in rows:
        used, named, free = occurring(f)
        preds |= used
        consts |= named
        frees |= free
    preds = [p for p, _ in sig.predicates if p in preds]
    terms = [Var(v) for v in sorted(frees)] + [Const(c) for c in consts]
    parts = [Forall("v", Or(Pred(p, (Var("v"),)), Not(Pred(p, (Var("v"),))))) for p in preds]
    parts += [Or(Pred(preds[0], (t,)), Not(Pred(preds[0], (t,)))) for t in terms]
    return big_and(parts), len(terms)


def _packing_cases(rng, cells):
    """(sig, rows) batches: rows over holders x, y and c, quantifier-free
    ones mixed with quantified sentences."""
    M3 = Signature((("M1", 1), ("M2", 1), ("M3", 1)), (), False)
    M2c = Signature((("M1", 1), ("M2", 1)), ("c",), False)
    # The first hit's support has two cells that the last holder could
    # take: the packed test must give it the lower one.
    yield M2c, [parse_formula(t, M2c) for t in ("M1(x) & !M1(y)", "M2(c) | !M2(c)", "M2(y)")]
    yield M3, [
        parse_formula(t, M3)
        for t in ("(exists y. M1(y) & M2(y)) & exists y. M1(y) & !M2(y)", "M1(x)", "M3(x)")
    ]
    for trial in range(24):
        # k=4 rows are quantifier-free only: a first hit over h holders
        # then has at most h cells, which keeps the brute force small.
        # Three holders come with k=2.
        k = 4 if cells is None and trial % 2 else 3
        holders = rng.randint(1, 2 if k == 4 else 3)
        if holders == 3:
            k = 2
        preds = [f"M{i}" for i in range(1, k + 1)]
        consts = rng.sample(["c"], rng.randint(0, 1))
        frees = ["x", "y"][: holders - len(consts)]
        sig = Signature(tuple((p, 1) for p in preds), tuple(consts), False)
        rows = [
            random_formula(rng, preds, scope=frees, max_q=0, depth=3, consts=consts)
            for _ in range(3 if k == 4 else 2)
        ]
        if k < 4:
            rows.append(random_formula(rng, preds, max_q=2, depth=4, consts=consts))
        yield sig, rows


@pytest.mark.parametrize("cells", [None, 64, 8])
def test_packed_holder_matches_first_cell_model(monkeypatch, cells):
    # A hit over quantifier-free rows is the same for every support, so its
    # last holder is packed into one bitmask of cells.  Rows holding
    # quantified sentences differ between supports and keep the unpacked
    # path in the same batch, except in chunks of one support.  64 cells
    # splits the supports into chunks; 8 also takes one support per chunk
    # and fixes the first of two holders one cell at a time.
    if cells is not None:
        _small_chunks(monkeypatch, cells)
    queries = [((0,), 1), ((1,), 0), ((0, 1), 2), ((2,), None), ((), 0)]
    queries += [((0, 1), None), ((1,), 2)]
    packed = 0
    for trial, (sig, rows) in enumerate(_packing_cases(random.Random(303), cells)):
        preds = [p for p, _ in sig.predicates]
        pad, named = _pad(rows, sig)
        got = _verdicts(sig, rows, queries, None, None)
        for q, v in zip(queries, got):
            hit = (v.model, v.assignment) if isinstance(v, Countermodel) else None
            premises, conclusion = q
            parts = [rows[i] for i in premises]
            if conclusion is not None:
                parts.append(Not(rows[conclusion]))
            flat = all(quantifier_depth(f) == 0 for f in parts)
            packed += flat
            want = first_cell_model(
                big_and(parts + [pad]),
                preds,
                sig.constants,
                max(1, named) if flat else None,
            )
            assert hit == want, (trial, q, cells)
    assert packed > 60


def test_classify_pairs_match_one_query_entailments():
    # classify asks each mutual-entailment pair as one batch over its two
    # rows; each verdict and countermodel must be that of the pair's own
    # one-query call, under both engines.
    rng = random.Random(404)
    base = ["M1", "M2", "M3"]
    x = Var("x")
    cases = 0
    engines = set()
    for trial in range(16):
        bounded = trial % 4 == 3
        consts = ("c",) if trial % 2 else ()
        sig = Signature(
            tuple((p, 1) for p in base) + ((("R", 2),) if bounded else ()), consts, False
        )

        def body(scope, q=1):
            return random_formula(rng, base, scope=scope, max_q=q, depth=3, consts=consts)

        genus = body(["x"])
        if bounded:
            genus = And(genus, Exists("y", Pred("R", (x, Var("y")))))
        entries = (
            PredicateDef("G", ("x",), genus),
            PredicateDef("S", ("x",), And(Pred("G", (x,)), body(["x"]))),
            # A class whose body ignores its parameter, and a species of it.
            PredicateDef("B", ("x",), body([], 2)),
            PredicateDef("T", ("x",), And(Pred("B", (x,)), body(["x"]))),
        )
        d = DefinitionSystem(sig, entries)
        tree, _ = porphyry_tree(d)
        bound = 2 if bounded else None
        for species in ("S", "B", "T"):
            psi = unfold(Pred(species, (x,)), d)
            edge = next((e for e in tree.edges if e.species == species), None)
            delta = None if edge is None else unfold(edge.difference, d)
            # rho: a random formula, a sentence, the difference, the body.
            rhos = [body(["x"]), body([], 2), psi]
            if edge is not None:
                rhos.append(edge.difference)
            for rho in rhos:
                rho_u = unfold(rho, d)
                pool = [rho_u, psi] + ([delta] if delta is not None else [])
                exact = all(is_monadic(f) for f in pool)
                if exact:
                    one = lambda p, c: decide_entails(p, c, sig)
                else:
                    one = lambda p, c: bounded_entails(sig, [p], c, bound)
                got = classify_formula(rho, species, d, bound=bound)
                assert got.exact == exact
                engines.add(exact)
                if delta is not None:
                    pair = {
                        "rho_entails_delta": one(rho_u, delta),
                        "delta_entails_rho": one(delta, rho_u),
                    }
                    if all(isinstance(v, (Holds, HoldsUpTo)) for v in pair.values()):
                        assert isinstance(got, Difference)
                        assert got.evidence == pair
                        cases += 1
                        continue
                pair = {"psi_entails_rho": one(psi, rho_u), "rho_entails_psi": one(rho_u, psi)}
                assert got.evidence == pair, (trial, species, rho)
                assert not isinstance(got, Difference)
                cases += 1
    assert cases > 100 and engines == {True, False}


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
