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

Each public call validates its definition system once, building its
symbol table once, then unfolds with the private form `_unfold`, which
reads that table.  `classify_formula` reads the genus edge of its species
off that species' own entry, as `porphyry_tree` draws it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .defsys import DefinitionSystem, PredicateDef, Symbol, _require_valid, _unfold
from .semantics import (
    Countermodel,
    EntailmentVerdict,
    Holds,
    HoldsUpTo,
    _check_ceiling,
    _engine_bound,
    _verdicts,
    recheck,
)
from .syntax import (
    Formula,
    Pred,
    Var,
    big_and,
    conjuncts,
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
    e: PredicateDef, table: dict[str, Symbol]
) -> tuple[str, Formula] | None:
    """The genus and the difference of a unary class of a valid system, or
    None: a conjunct applying a defined symbol to the parameter is a class,
    since the validator checked its arity."""
    parts = conjuncts(e.body)
    for i, part in enumerate(parts):
        if (
            isinstance(part, Pred)
            and part.args == (Var(e.params[0]),)
            and table[part.name][0] >= 0
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
    table = _require_valid(d)
    edges: list[PorphyryEdge] = []
    for e in d.entries:
        hit = _guarded_split(e, table) if e.arity == 1 else None
        if hit is not None:
            edges.append(PorphyryEdge(e.name, hit[0], hit[1]))
    in_tree = {e.species for e in edges} | {e.genus for e in edges}
    nodes = tuple(e.name for e in d.entries if e.name in in_tree)
    has_genus = {e.species for e in edges}
    roots = tuple(n for n in nodes if n not in has_genus)
    unguarded = tuple(
        e.name for e in d.entries if e.arity == 1 and e.name not in in_tree
    )
    recheck(len(has_genus) == len(edges), "one genus edge per species")
    return PorphyryTree(nodes, tuple(edges), roots), unguarded


def _holds(v: EntailmentVerdict) -> bool:
    return isinstance(v, (Holds, HoldsUpTo))


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


def _species_index(table: dict[str, Symbol], species: str) -> int:
    """The entry that defines species as a unary class."""
    entry, arity = table.get(species, (-1, None))
    if entry < 0 or arity != 1:
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
    with the refuting model kept as evidence.  rho may use only what the
    class's own body may, base and earlier-defined symbols each at its
    arity, or ValueError.
    """
    table = _require_valid(d)
    s_index = _species_index(table, species)
    param = d.entries[s_index].params[0]
    rho_u = _unfold(_align_free_var(rho, param), d, table, s_index)
    psi = _unfold(Pred(species, (Var(param),)), d, table)

    # The species' own genus edge, as porphyry_tree draws it.
    split = _guarded_split(d.entries[s_index], table)
    delta_u = None if split is None else _unfold(split[1], d, table)

    pool = [rho_u, psi] + ([delta_u] if delta_u is not None else [])
    b = _engine_bound(d.base, pool, bound)

    # Each pair is one batch over its two rows: the same predicates, holders
    # and scan order as either entailment alone, so each first hit is that
    # entailment's own countermodel.
    both_ways = [((0,), 1), ((1,), 0)]
    if delta_u is not None:
        r_to_d, d_to_r = _verdicts(d.base, [rho_u, delta_u], both_ways, b, ceiling)
        if _holds(r_to_d) and _holds(d_to_r):
            return Difference(
                {"rho_entails_delta": r_to_d, "delta_entails_rho": d_to_r},
                b is None,
                b,
            )
    psi_to_rho, rho_to_psi = _verdicts(d.base, [psi, rho_u], both_ways, b, ceiling)
    evidence = {"psi_entails_rho": psi_to_rho, "rho_entails_psi": rho_to_psi}
    if _holds(psi_to_rho) and _holds(rho_to_psi):
        return Property(evidence, b is None, b)
    if _holds(psi_to_rho) and isinstance(rho_to_psi, Countermodel):
        return Accident(evidence, b is None, b)
    return Unrelated(evidence, b is None, b)


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


def _class_formula(table: dict[str, Symbol], name: str, param: str) -> Formula:
    if name in table and table[name][1] == 1:
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
    score table but excluded from the choice.  When some candidate
    contains the class, the 2^m sub-conjunctions of the body's m conjuncts
    are counted against the ceiling before any is costed:
    ResourceCeilingError (what="sub-conjunctions") past it.
    """
    table = _require_valid(d)
    param = d.entries[_species_index(table, species)].params[0]
    psi = _unfold(Pred(species, (Var(param),)), d, table)
    parts = conjuncts(psi)
    cand_formulas = {
        c: _unfold(_class_formula(table, c, param), d, table)
        for c in candidates
    }
    b = _engine_bound(d.base, [psi, *cand_formulas.values()], bound)

    def members(mask: int) -> list[int]:
        return [b for b in range(len(parts)) if (mask >> b) & 1]

    # Rows: the body, then each candidate, then each conjunct of the body.
    rows = [psi, *(cand_formulas[c] for c in candidates), *parts]
    first_part = 1 + len(candidates)
    queries = [((0,), 1 + i) for i in range(len(candidates))]
    contains = [_holds(v) for v in _verdicts(d.base, rows, queries, b, ceiling)]
    pending = [i for i in range(len(candidates)) if contains[i]]
    # The cost of each sub-conjunction by mask, node_count(nnf(big_and(...))),
    # is additive: the parts' costs plus one `&` between each two, and 1 for
    # the empty one (`true`).  Ties go by mask, as the sort is stable.
    cost = [1]
    if pending:
        _check_ceiling(len(parts), ceiling, what="sub-conjunctions")
        for part in parts:
            c = node_count(nnf(part))
            cost += [c if mask == 0 else k + 1 + c for mask, k in enumerate(cost)]
    order = sorted(range(len(cost)), key=cost.__getitem__)
    # Sub-conjunctions in cost order, asked in windows of doubling width for
    # every containing candidate still open, so the cheapest that recovers
    # the body is found without asking much past it.
    best: dict[int, int] = {}
    start, width = 0, 1
    while pending and start < len(order):
        window = order[start : start + width]
        queries = [
            ((1 + i, *(first_part + b for b in members(mask))), 0)
            for i in pending
            for mask in window
        ]
        answers = (_holds(v) for v in _verdicts(d.base, rows, queries, b, ceiling))
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
        scores.append(CandidateScore(c, True, delta, cost[best[i]]))
    containing = [s for s in scores if s.contains]
    if not containing:
        raise ValueError(f"no candidate contains {species}")
    winner = min(containing, key=lambda s: (s.score, s.name))
    return ProximateGenusResult(
        chosen=winner.name,
        difference=winner.difference,
        scores=tuple(scores),
        exact=b is None,
        bound=b,
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
    table = _require_valid(d)
    unfolded = [_unfold(s, d, table) for s in sentences]
    b = _engine_bound(d.base, unfolded, bound)
    n = len(unfolded)
    queries = [((i,), j) for i in range(n) for j in range(n) if i != j]
    verdicts = iter(_verdicts(d.base, unfolded, queries, b, ceiling))
    entails = [[i == j or _holds(next(verdicts)) for j in range(n)] for i in range(n)]
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
    return TheorySet(tuple(sentences), flags, b is None, b)
