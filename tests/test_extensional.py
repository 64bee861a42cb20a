import random
from math import comb

import pytest

from helpers import random_laminar_cell_family, random_model, seeded_cover_family
from porphyry import (
    DefinitionSystem,
    ExtensionFamily,
    FiniteModel,
    Laminar,
    NotLaminar,
    Pred,
    PredicateDef,
    ReconstructedSystem,
    ResourceCeilingError,
    Signature,
    Undefinable,
    Var,
    check_laminar,
    extensions,
    reconstruct,
    validate,
)
from porphyry.magma import DEMO_SYSTEM, demo_magma

SIG = Signature((("M1", 1), ("M2", 1)), (), False)
GRID = FiniteModel(
    4, {}, {"M1": frozenset({(1,), (3,)}), "M2": frozenset({(2,), (3,)})}
)


def test_family_validation():
    with pytest.raises(ValueError):
        ExtensionFamily(SIG, GRID, (("A", frozenset({0})), ("A", frozenset({1}))))
    with pytest.raises(ValueError):
        ExtensionFamily(SIG, GRID, (("A", frozenset({4})),))
    fam = ExtensionFamily(SIG, GRID, (("A", frozenset({0})),))
    assert fam.as_dict() == {"A": frozenset({0})}


def test_extensions_magma():
    model, _ = demo_magma(2)
    fam = extensions(DEMO_SYSTEM, model)
    sets = fam.as_dict()
    assert sets["Mon"] == frozenset({0, 2, 7, 8, 10})
    assert sets["Grp"] == frozenset({0, 7, 10})
    assert sets["Ab"] == frozenset({0, 7, 10})
    assert [name for name, _ in fam.sets] == ["Mon", "Grp", "Ab"]


def test_extensions_requires_base_symbols():
    m = FiniteModel(2, {}, {"M1": frozenset()})
    d = DefinitionSystem(
        SIG, (PredicateDef("A", ("x",), Pred("M1", (Var("x"),))),)
    )
    with pytest.raises(ValueError):
        extensions(d, m)


def test_check_laminar():
    fam = ExtensionFamily(
        SIG,
        GRID,
        (("A", frozenset({0, 1})), ("B", frozenset({2})), ("C", frozenset({0}))),
    )
    assert check_laminar(fam) == Laminar()
    bad = ExtensionFamily(
        SIG,
        GRID,
        (("D", frozenset({1, 2})), ("C", frozenset({0, 1}))),
    )
    v = check_laminar(bad)
    assert isinstance(v, NotLaminar)
    assert v.first == ("C", frozenset({0, 1}))
    assert v.second == ("D", frozenset({1, 2}))


def test_reconstruct_nested_chain():
    fam = ExtensionFamily(
        SIG,
        GRID,
        (
            ("A", frozenset({0, 1, 2, 3})),
            ("B", frozenset({1, 3})),
            ("C", frozenset({3})),
        ),
    )
    r = reconstruct(fam)
    assert isinstance(r, ReconstructedSystem)
    assert [e.to_dsl() for e in r.system.entries] == [
        "def A(x) := true;",
        "def B(x) := A(x) & M1(x);",
        "def C(x) := B(x) & M2(x);",
    ]
    assert r.names == {"A": "A", "B": "B", "C": "C"}
    assert validate(r.system).valid


def test_reconstruct_round_trip():
    fam = ExtensionFamily(
        SIG,
        GRID,
        (("A", frozenset({1, 3})), ("B", frozenset({3})), ("C", frozenset({0, 2}))),
    )
    r = reconstruct(fam)
    assert isinstance(r, ReconstructedSystem)
    back = extensions(r.system, GRID)
    got = back.as_dict()
    for name, elems in fam.sets:
        assert got[r.names[name]] == elems


def test_reconstruct_not_laminar():
    fam = ExtensionFamily(
        SIG, GRID, (("A", frozenset({0, 1})), ("B", frozenset({1, 2})))
    )
    r = reconstruct(fam)
    assert isinstance(r, NotLaminar)


def test_reconstruct_undefinable():
    m = FiniteModel(4, {}, {"M1": frozenset({(0,), (1,)}), "M2": frozenset()})
    fam = ExtensionFamily(SIG, m, (("B", frozenset({0})),))
    r = reconstruct(fam)
    assert isinstance(r, Undefinable)
    assert r.name == "B"
    assert "0" in r.reason and "1" in r.reason


def test_reconstruct_rejects_degenerate_sets():
    with pytest.raises(ValueError):
        reconstruct(ExtensionFamily(SIG, GRID, (("A", frozenset()),)))
    fam = ExtensionFamily(
        SIG, GRID, (("A", frozenset({1, 3})), ("B", frozenset({1, 3})))
    )
    with pytest.raises(ValueError):
        reconstruct(fam)


def test_reconstruct_rejects_non_unary_base():
    sig = Signature((("R", 2),), (), False)
    m = FiniteModel(2, {}, {"R": frozenset()})
    fam = ExtensionFamily(sig, m, (("A", frozenset({0})),))
    with pytest.raises(ValueError):
        reconstruct(fam)


def test_reconstruct_sanitizes_clashing_names():
    m = FiniteModel(4, {}, {"M1": frozenset({(0,), (1,)}), "M2": frozenset()})
    fam = ExtensionFamily(
        SIG,
        m,
        (("M1", frozenset({0, 1})), ("def", frozenset({0, 1, 2, 3}))),
    )
    r = reconstruct(fam)
    assert isinstance(r, ReconstructedSystem)
    assert r.names == {"def": "def1", "M1": "M11"}
    assert validate(r.system).valid
    got = extensions(r.system, m).as_dict()
    assert got["M11"] == frozenset({0, 1})
    assert got["def1"] == frozenset({0, 1, 2, 3})


def test_reconstruct_random_round_trips():
    rng = random.Random(41)
    preds = ["M1", "M2"]
    for _ in range(40):
        model = random_model(rng, preds, rng.randint(1, 6))
        fam_sets = random_laminar_cell_family(rng, model, preds)
        fam = ExtensionFamily(SIG, model, fam_sets)
        assert check_laminar(fam) == Laminar()
        r = reconstruct(fam)
        assert isinstance(r, ReconstructedSystem)
        got = extensions(r.system, model).as_dict()
        for name, elems in fam_sets:
            assert got[r.names[name]] == elems


def test_reconstruct_counts_its_cover_search_against_the_ceiling():
    # The seeded k=5 set needs 6 of its p primes: the search tries at most
    # C(p, 1) + ... + C(p, 6) combinations, and checks the ceiling before
    # each size, so it finishes at exactly that ceiling and not below.
    family = seeded_cover_family(5)
    with pytest.raises(ResourceCeilingError) as first:
        reconstruct(family, ceiling=1)
    primes = first.value.needed
    assert first.value.what == "cover search nodes"
    needed = sum(comb(primes, r) for r in range(1, 7))
    assert reconstruct(family, ceiling=needed) == reconstruct(family)
    with pytest.raises(ResourceCeilingError) as short:
        reconstruct(family, ceiling=needed - 1)
    assert (short.value.needed, short.value.ceiling) == (needed, needed - 1)
