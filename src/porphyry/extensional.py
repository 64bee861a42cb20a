"""Extensions of defined classes, laminar families, and reconstruction.

Reconstruction inverts extension-taking: given a family of subsets of a
finite model's universe, produce an ordered definition system over the
model's unary base predicates whose class extents reproduce the family.
This is possible exactly when the family is laminar (pairwise disjoint or
nested) and every member is a union of base-predicate cells; both failure
modes are reported with evidence rather than raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .defsys import (
    DefinitionSystem,
    PredicateDef,
    expand_model,
)
from .parser import KEYWORDS
from .semantics import FiniteModel, recheck
from .syntax import (
    And,
    Formula,
    Not,
    Pred,
    Signature,
    Var,
    big_and,
    big_or,
    fresh_name,
)


@dataclass(frozen=True)
class ExtensionFamily:
    signature: Signature
    model: FiniteModel
    sets: tuple[tuple[str, frozenset[int]], ...]

    def __post_init__(self):
        names = [n for n, _ in self.sets]
        if len(set(names)) != len(names):
            raise ValueError("set names must be unique")
        for name, elems in self.sets:
            bad = [e for e in elems if not 0 <= e < self.model.size]
            if bad:
                raise ValueError(f"{name} contains out-of-universe {bad}")

    def as_dict(self) -> dict[str, frozenset[int]]:
        return dict(self.sets)


@dataclass(frozen=True)
class Laminar:
    pass


@dataclass(frozen=True)
class NotLaminar:
    first: tuple[str, frozenset[int]]
    second: tuple[str, frozenset[int]]


@dataclass(frozen=True)
class Undefinable:
    name: str
    reason: str


@dataclass(frozen=True)
class ReconstructedSystem:
    system: DefinitionSystem
    names: dict[str, str]


ReconstructionResult = ReconstructedSystem | NotLaminar | Undefinable


def extensions(d: DefinitionSystem, m: FiniteModel) -> ExtensionFamily:
    """Extent of every unary defined class over m, in entry order."""
    expanded, _ = expand_model(d, m)
    sets = tuple(
        (e.name, frozenset(t[0] for t in expanded.predicates[e.name]))
        for e in d.entries
        if isinstance(e, PredicateDef) and len(e.params) == 1
    )
    return ExtensionFamily(d.base, m, sets)


def check_laminar(g: ExtensionFamily) -> Laminar | NotLaminar:
    """Every two sets must be disjoint or nested; the first offending pair
    in name order is the witness."""
    items = sorted(g.sets)
    for (an, a), (bn, b) in combinations(items, 2):
        if a & b and not (a <= b or b <= a):
            return NotLaminar((an, a), (bn, b))
    return Laminar()


# ---------------------------------------------------------- cell algebra


def _unary_preds(sig: Signature) -> list[str]:
    non_unary = [name for name, arity in sig.predicates if arity != 1]
    if non_unary:
        raise ValueError(
            "reconstruction needs an all-unary base signature; offending: "
            + ", ".join(non_unary)
        )
    return [name for name, _ in sig.predicates]

def _cell_of(m: FiniteModel, preds: list[str]) -> list[int]:
    cells = []
    for e in range(m.size):
        c = 0
        for i, p in enumerate(preds):
            if (e,) in m.predicates.get(p, frozenset()):
                c |= 1 << i
        cells.append(c)
    return cells


def _implicant_formula(
    value: int, care: int, preds: list[str], var: str
) -> Formula:
    lits = []
    for i, p in enumerate(preds):
        if (care >> i) & 1:
            atom: Formula = Pred(p, (Var(var),))
            lits.append(atom if (value >> i) & 1 else Not(atom))
    return big_and(lits)


def _minimal_cover(
    k: int, minterms: frozenset[int], dontcare: frozenset[int]
) -> list[tuple[int, int]]:
    """Smallest disjunction of cell-literal conjunctions covering minterms,
    free to include dontcare cells.  Deterministic: prime implicants ordered
    by (literal count, fixed bits, values), first minimal combination wins."""
    allowed = minterms | dontcare
    # An implicant (value, care) covers the cells c with c & care == value:
    # value plus any bits outside care.  Its coverage determines it.
    cells = range(1 << k)
    implicants: dict[frozenset[int], tuple[int, int]] = {}
    for care in cells:
        spread = [c for c in cells if not c & care]
        for value in cells:
            if value & care != value:
                continue
            coverage = frozenset(value | c for c in spread)
            if coverage <= allowed and coverage & minterms:
                implicants[coverage] = (value, care)
    primes = [
        (cov, vc)
        for cov, vc in implicants.items()
        if not any(cov < other for other in implicants)
    ]
    primes.sort(key=lambda p: _impl_key(p[1]))
    for r in range(1, len(primes) + 1):
        for combo in combinations(primes, r):
            covered = frozenset().union(*(cov for cov, _ in combo))
            if minterms <= covered:
                return [vc for _, vc in combo]
    recheck(False, "cell cover must exist")


def _impl_key(vc: tuple[int, int]) -> tuple[int, int, int]:
    value, care = vc
    return (care.bit_count(), care, value)


def _sanitize(name: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not base or not (base[0].isalpha() or base[0] == "_"):
        base = "S_" + base
    return fresh_name(base, taken)


def reconstruct(g: ExtensionFamily) -> ReconstructionResult:
    """Invert extension-taking over the family's carrier model.

    Largest sets first; each set becomes a definition whose body is a
    minimized disjunction of base cells, guarded by its parent (the
    smallest strict superset, unique in a laminar family).  Cells outside
    the parent are don't-cares, which is what lets a child body shrink to
    a single predicate when the model allows it.
    """
    m = g.model
    preds = _unary_preds(g.signature)
    sets = g.as_dict()
    by_extent: dict[frozenset[int], str] = {}
    for name, elems in sorted(sets.items()):
        if not elems:
            raise ValueError(f"{name} is empty; degenerate for reconstruction")
        if elems in by_extent:
            raise ValueError(
                f"{by_extent[elems]} and {name} have equal extents; "
                "degenerate for reconstruction"
            )
        by_extent[elems] = name
    verdict = check_laminar(g)
    if isinstance(verdict, NotLaminar):
        return verdict

    k = len(preds)
    cell_of = _cell_of(m, preds)
    classes: dict[int, frozenset[int]] = {}
    for e, c in enumerate(cell_of):
        classes[c] = classes.get(c, frozenset()) | {e}
    realized = frozenset(classes)
    for name, elems in sorted(sets.items()):
        for c, members in sorted(classes.items()):
            inside = members & elems
            if inside and inside != members:
                kept = min(inside)
                lost = min(members - inside)
                return Undefinable(
                    name,
                    f"not a union of base cells: elements {kept} and {lost} "
                    f"agree on every base predicate but only {kept} is in "
                    f"{name}",
                )

    order = sorted(sets, key=lambda n: (-len(sets[n]), n))
    taken = set(g.signature.names()) | KEYWORDS
    mapping: dict[str, str] = {}
    for name in order:
        mapping[name] = _sanitize(name, taken)
        taken.add(mapping[name])
    var = fresh_name("x", taken)

    entries = []
    for name in order:
        elems = sets[name]
        cells = frozenset(c for c in realized if classes[c] <= elems)
        supersets = [p for p in order if elems < sets[p]]
        if supersets:
            parent = min(supersets, key=lambda p: len(sets[p]))
            recheck(
                all(
                    sets[a] <= sets[b] or sets[b] <= sets[a]
                    for a, b in combinations(supersets, 2)
                ),
                "supersets of a class must form a chain",
            )
            parent_cells = frozenset(
                c for c in realized if classes[c] <= sets[parent]
            )
        else:
            parent = None
            parent_cells = realized
        dontcare = frozenset(range(1 << k)) - parent_cells
        cover = _minimal_cover(k, cells, dontcare)
        body = big_or(
            [_implicant_formula(v, c, preds, var) for v, c in cover]
        )
        if parent is not None:
            body = And(Pred(mapping[parent], (Var(var),)), body)
        entries.append(PredicateDef(mapping[name], (var,), body))

    system = DefinitionSystem(g.signature, tuple(entries))
    rebuilt = extensions(system, m).as_dict()
    recheck(
        all(rebuilt[mapping[name]] == sets[name] for name in order),
        "round-trip must be exact",
    )
    return ReconstructedSystem(system, mapping)
