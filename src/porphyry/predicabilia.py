"""Species/genus structure, predication verdicts, and generator analysis.

A definition whose body is a conjunction led by an application of an
earlier-defined unary class to the parameter is read as species-of-genus,
with the remaining conjuncts as the difference.  Everything here compares
formulas semantically: exactly inside the unary fragment, and up to a
stated model-size bound outside it, with the engine always recorded.

`generators` and `proximate_genus` ask their entailments as one batch, so
the engine's one scan evaluates each formula once per chunk rather than
once per pair.  `classify_formula` asks each of its two mutual-entailment
pairs (rho and the difference, the body and rho) as one batch over that
pair's two rows.  The batch scans the same predicates and holders in the
same order as either entailment alone, so each countermodel in its
evidence is that entailment's own first hit.

Each public call validates its definition system once, then unfolds and
builds the tree with the private forms `_unfold` and `_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .defsys import DefinitionSystem, PredicateDef, _require_valid, _unfold
from .monadic import _exact_verdicts, is_monadic
from .semantics import (
    Countermodel,
    EntailmentVerdict,
    Holds,
    HoldsUpTo,
    Query,
    _countermodels,
    default_bound,
    recheck,
)
from .syntax import (
    Formula,
    Pred,
    Signature,
    Var,
    big_and,
    conjuncts,
    facts,
    free_vars,
    nnf,
    node_count,
    render,
    subst,
)

# --------------------------------------------------------- Porphyry tree


@dataclass(frozen=True)
class PorphyryEdge:
    species: str
    genus: str
    difference: Formula


@dataclass(frozen=True)
class PorphyryTree:
    nodes: tuple[str, ...]
    edges: tuple[PorphyryEdge, ...]
    roots: tuple[str, ...]

    def to_dot(self) -> str:
        lines = ["digraph porphyry {"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for e in self.edges:
            label = render(e.difference).replace('"', '\\"')
            lines.append(f'  "{e.species}" -> "{e.genus}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _guarded_split(
    e: PredicateDef, class_names: set[str]
) -> tuple[str, Formula] | None:
    if len(e.params) != 1:
        return None
    param = e.params[0]
    parts = conjuncts(e.body)
    for i, part in enumerate(parts):
        if (
            isinstance(part, Pred)
            and part.name in class_names
            and part.args == (Var(param),)
        ):
            rest = parts[:i] + parts[i + 1 :]
            return part.name, big_and(rest)
    return None


def porphyry_tree(
    d: DefinitionSystem,
) -> tuple[PorphyryTree, tuple[str, ...]]:
    """Build the genus-species forest and list the unguarded classes.

    An edge needs the guarded shape: some conjunct of the body applies an
    earlier-defined unary class to the parameter; the first such conjunct
    is the genus, the remaining conjuncts the difference.  Unary classes
    with no guarded shape and no species of their own are unguarded and
    stay outside the tree.
    """
    _require_valid(d)
    return _tree(d)


def _tree(d: DefinitionSystem) -> tuple[PorphyryTree, tuple[str, ...]]:
    """porphyry_tree over a system already validated."""
    class_names = {
        e.name
        for e in d.entries
        if isinstance(e, PredicateDef) and len(e.params) == 1
    }
    edges: list[PorphyryEdge] = []
    for e in d.entries:
        if not (isinstance(e, PredicateDef) and len(e.params) == 1):
            continue
        hit = _guarded_split(e, class_names)
        if hit is not None:
            edges.append(PorphyryEdge(e.name, hit[0], hit[1]))
    in_tree = {e.species for e in edges} | {e.genus for e in edges}
    nodes = tuple(e.name for e in d.entries if e.name in in_tree)
    has_genus = {e.species for e in edges}
    roots = tuple(n for n in nodes if n not in has_genus)
    unguarded = tuple(
        e.name
        for e in d.entries
        if isinstance(e, PredicateDef)
        and len(e.params) == 1
        and e.name not in in_tree
    )
    recheck(len(has_genus) == len(edges), "one genus edge per species")
    return PorphyryTree(nodes, tuple(edges), roots), unguarded


# ------------------------------------------------------- engine plumbing


@dataclass(frozen=True)
class _Engine:
    """An engine's one batch callable: `verdicts(rows, queries)` answers
    every query (premise rows ⊨ conclusion row, see semantics.Query) over
    a list of formulas in one scan, with Holds (exact), HoldsUpTo
    (bounded) or a Countermodel, the query's first hit in that scan.  The
    scan covers the predicates and holders of every row asked, so a
    query whose rows are all the rows asked, such as each entailment of
    a pair over two rows, gets the witness of its own one-query call.
    `holds` keeps only whether each query holds."""

    verdicts: Callable[[list[Formula], list[Query]], list[EntailmentVerdict]]
    exact: bool
    bound: int | None

    def holds(self, rows: list[Formula], queries: list[Query]) -> list[bool]:
        return [_holds(v) for v in self.verdicts(rows, queries)]


def _holds(v: EntailmentVerdict) -> bool:
    return isinstance(v, (Holds, HoldsUpTo))


def _pick_engine(
    sig: Signature,
    formulas: tuple[Formula, ...],
    bound: int | None,
    ceiling: int | None,
) -> _Engine:
    """The engine for entailments among `formulas`: exact-monadic when all
    are monadic, otherwise bounded at `bound` or `default_bound(sig)`."""
    if all(is_monadic(f) for f in formulas):
        return _Engine(
            verdicts=lambda rows, queries: _exact_verdicts(rows, queries, sig, ceiling),
            exact=True,
            bound=None,
        )
    used = bound if bound is not None else default_bound(sig)
    return _Engine(
        verdicts=lambda rows, queries: [
            HoldsUpTo(used) if hit is None else Countermodel(*hit)
            for hit in _countermodels(sig, rows, queries, used, ceiling)
        ],
        exact=False,
        bound=used,
    )


# ----------------------------------------------------------- predication


@dataclass(frozen=True)
class ClassificationVerdict:
    """Base of the four verdicts; the subclass is the verdict itself."""

    evidence: dict[str, EntailmentVerdict]
    exact: bool
    bound: int | None


class Difference(ClassificationVerdict):
    pass


class Property(ClassificationVerdict):
    pass


class Accident(ClassificationVerdict):
    pass


class Unrelated(ClassificationVerdict):
    pass


def _species_entry(d: DefinitionSystem, species: str) -> PredicateDef:
    entry = d.entry(species)
    if not isinstance(entry, PredicateDef) or len(entry.params) != 1:
        raise ValueError(f"{species} is not a defined unary class")
    return entry


def _align_free_var(rho: Formula, param: str) -> Formula:
    frees = sorted(free_vars(rho))
    if len(frees) > 1:
        raise ValueError(
            "formula must have at most one free variable, got: "
            + ", ".join(frees)
        )
    if frees and frees[0] != param:
        return subst(rho, {frees[0]: Var(param)})
    return rho


def classify_formula(
    rho: Formula,
    species: str,
    d: DefinitionSystem,
    bound: int | None = None,
    ceiling: int | None = None,
) -> ClassificationVerdict:
    """Sort rho into difference / property / accident / unrelated for a class.

    All comparisons happen after unfolding, so logically equivalent inputs
    get the same verdict.  Difference: rho is equivalent to the difference
    of the class's genus edge.  Property: rho is equivalent to the whole
    definition body.  Accident: the body entails rho but not conversely,
    with the refuting model kept as evidence.
    """
    _require_valid(d)
    entry = _species_entry(d, species)
    s_index = d.index(species)
    earlier = {e.name for i, e in enumerate(d.entries) if i < s_index}
    allowed = d.base.names() | earlier
    fx = facts(rho)
    for name in [*fx.arities(), *fx.consts]:
        if name not in allowed:
            raise ValueError(
                f"{name} is not a base or earlier-defined symbol"
            )
    param = entry.params[0]
    rho = _align_free_var(rho, param)
    rho_u = _unfold(rho, d)
    psi = _unfold(Pred(species, (Var(param),)), d)

    tree, _ = _tree(d)
    edge = next((e for e in tree.edges if e.species == species), None)
    delta_u = None
    if edge is not None:
        delta_u = _unfold(_align_free_var(edge.difference, param), d)

    pool = [rho_u, psi] + ([delta_u] if delta_u is not None else [])
    eng = _pick_engine(d.base, tuple(pool), bound, ceiling)

    # Each pair is one batch over its two rows: the same predicates, holders
    # and scan order as either entailment alone, so each first hit is that
    # entailment's own countermodel.
    both_ways = [((0,), 1), ((1,), 0)]
    if delta_u is not None:
        r_to_d, d_to_r = eng.verdicts([rho_u, delta_u], both_ways)
        if _holds(r_to_d) and _holds(d_to_r):
            return Difference(
                {"rho_entails_delta": r_to_d, "delta_entails_rho": d_to_r},
                eng.exact,
                eng.bound,
            )
    psi_to_rho, rho_to_psi = eng.verdicts([psi, rho_u], both_ways)
    evidence = {"psi_entails_rho": psi_to_rho, "rho_entails_psi": rho_to_psi}
    if _holds(psi_to_rho) and _holds(rho_to_psi):
        return Property(evidence, eng.exact, eng.bound)
    if _holds(psi_to_rho) and isinstance(rho_to_psi, Countermodel):
        return Accident(evidence, eng.exact, eng.bound)
    return Unrelated(evidence, eng.exact, eng.bound)


# ------------------------------------------------------- proximate genus


@dataclass(frozen=True)
class CandidateScore:
    name: str
    contains: bool
    difference: Formula | None
    score: int | None


@dataclass(frozen=True)
class ProximateGenusResult:
    chosen: str
    difference: Formula
    scores: tuple[CandidateScore, ...]
    exact: bool
    bound: int | None


def _class_formula(d: DefinitionSystem, name: str, param: str) -> Formula:
    if d.base.arity(name) == 1 or (
        isinstance(d.entry(name), PredicateDef)
        and len(d.entry(name).params) == 1
    ):
        return Pred(name, (Var(param),))
    raise ValueError(f"{name} is not a unary class symbol")


def proximate_genus(
    species: str,
    candidates: list[str],
    d: DefinitionSystem,
    bound: int | None = None,
    ceiling: int | None = None,
) -> ProximateGenusResult:
    """Choose the containing candidate with the smallest residual difference.

    The difference for a candidate C is the cheapest sub-conjunction D of
    the unfolded body with C(x) & D equivalent to the class; cost is node
    count after negation normal form.  Ties go to the lexicographically
    first name.  Candidates that do not contain the class are kept in the
    score table but excluded from the choice.
    """
    _require_valid(d)
    entry = _species_entry(d, species)
    param = entry.params[0]
    psi = _unfold(Pred(species, (Var(param),)), d)
    parts = conjuncts(psi)
    cand_formulas = {c: _unfold(_class_formula(d, c, param), d) for c in candidates}
    eng = _pick_engine(
        d.base, tuple([psi] + list(cand_formulas.values())), bound, ceiling
    )

    def members(mask: int) -> list[int]:
        return [b for b in range(len(parts)) if (mask >> b) & 1]

    def subset_key(mask: int) -> tuple[int, int]:
        return (node_count(nnf(big_and([parts[b] for b in members(mask)]))), mask)

    # Rows: the body, then each candidate, then each conjunct of the body.
    rows = [psi, *(cand_formulas[c] for c in candidates), *parts]
    first_part = 1 + len(candidates)
    contains = eng.holds(rows, [((0,), 1 + i) for i in range(len(candidates))])
    # Sub-conjunctions in cost order, asked in windows of doubling width for
    # every containing candidate still open, so the cheapest that recovers
    # the body is found without asking much past it.
    pending = [i for i in range(len(candidates)) if contains[i]]
    order = sorted(range(1 << len(parts)), key=subset_key) if pending else []
    best: dict[int, int] = {}
    start, width = 0, 1
    while pending and start < len(order):
        window = order[start : start + width]
        queries = [
            ((1 + i, *(first_part + b for b in members(mask))), 0)
            for i in pending
            for mask in window
        ]
        answers = iter(eng.holds(rows, queries))
        for i in pending:
            found = [mask for mask in window if next(answers)]
            if found:
                best[i] = found[0]
        pending = [i for i in pending if i not in best]
        start, width = start + width, 2 * width
    recheck(not pending, "full conjunction always recovers the body")
    scores: list[CandidateScore] = []
    for i, c in enumerate(candidates):
        if not contains[i]:
            scores.append(CandidateScore(c, False, None, None))
            continue
        delta = big_and([parts[b] for b in members(best[i])])
        scores.append(CandidateScore(c, True, delta, node_count(nnf(delta))))
    containing = [s for s in scores if s.contains]
    if not containing:
        raise ValueError(f"no candidate contains {species}")
    winner = min(containing, key=lambda s: (s.score, s.name))
    return ProximateGenusResult(
        chosen=winner.name,
        difference=winner.difference,
        scores=tuple(scores),
        exact=eng.exact,
        bound=eng.bound,
    )


# ------------------------------------------------------------ generators


@dataclass(frozen=True)
class TheorySet:
    sentences: tuple[Formula, ...]
    generator_flags: tuple[bool, ...]
    exact: bool
    bound: int | None


def generators(
    sentences: list[Formula],
    d: DefinitionSystem,
    bound: int | None = None,
    ceiling: int | None = None,
) -> TheorySet:
    """Flag each sentence that entails every other member of the list.

    Sentences may use defined symbols; comparison happens after unfolding.
    All flagged sentences are pairwise mutually entailing by construction,
    and that is re-asserted on the result.
    """
    if not sentences:
        raise ValueError("empty sentence list")
    for s in sentences:
        if free_vars(s):
            raise ValueError(f"not a sentence: {render(s)}")
    _require_valid(d)
    unfolded = [_unfold(s, d) for s in sentences]
    eng = _pick_engine(d.base, tuple(unfolded), bound, ceiling)
    n = len(unfolded)
    answers = iter(
        eng.holds(unfolded, [((i,), j) for i in range(n) for j in range(n) if i != j])
    )
    entails = [[i == j or next(answers) for j in range(n)] for i in range(n)]
    flags = tuple(all(entails[i]) for i in range(n))
    recheck(
        all(
            entails[i][j]
            for i in range(n)
            for j in range(n)
            if flags[i] and flags[j]
        ),
        "generators must be mutually entailing",
    )
    return TheorySet(tuple(sentences), flags, eng.exact, eng.bound)
