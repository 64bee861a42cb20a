"""Exact decision procedure and normal form for unary-predicate formulas.

With k unary predicates and no equality, elements matter only through their
cell: which of the k predicates they satisfy, cells being numbered by binary
counting over predicate indices (bit i set meaning predicate i holds).  A
model is then determined, up to the truth of any formula, by its support
(the nonempty set of inhabited cells) plus a cell for each holder: each free
variable and constant.  Any satisfying support yields a witness of size
<= 2^k with one element per inhabited cell.

Support s is evaluated as a cell model whose elements are its inhabited
cells.  Element e is always cell e, so predicate i holds of e exactly when
bit i of e is set, in every support: the extents are one boolean array of
2^k elements shared by all supports.  What varies is the domain, s itself
as a bitmask of cells, and quantifiers range over it.  Chunks of supports
go through the tensor evaluator of the bounded scan with their bitmasks as
its domain.  A quantified body that is the same for every support packs
into one bitmask of the cells it holds of, so each support is tested with
one integer operation (exists: s & mask != 0; forall: s & ~mask == 0); a
body that differs between supports is masked to the inhabited cells
first.  A holder is an outermost exists over the inhabited cells, so the
same test serves it: a hit that is the same for every support packs its
last holder into one bitmask of cells for each assignment of the others,
support s hits iff those others sit in inhabited cells and s & mask != 0,
and the last holder takes the lowest set bit of s & mask.  Any other hit
gives each holder its own axis, masked to the inhabited cells.  Supports
are numbered by binary counting over cells and scanned by (number of
inhabited cells, value); the reported witness is the first hit, holder
cells tried in lexicographic order, which makes witnesses reproducible and
small.  Packing keeps that order, so it keeps every witness.

One scan answers a batch of queries, each "conjunction of rows entails
row" over a list of formulas: each chunk evaluates every row asked about
once, over the predicates and holders of all those rows, and each open
query takes its first hit from them.  decide_sat is the one-query case;
generators and proximate_genus ask their entailments as one batch, and
classify_formula asks each of its mutual-entailment pairs as one.
Satisfiability does not change when predicates are added, so every
verdict of a batch is the verdict of the query's own scan.  When the
batch's predicates together exceed the ceiling, each query gets its own
scan instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .semantics import (
    DEFAULT_CEILING,
    Countermodel,
    FiniteModel,
    Holds,
    HoldsUpTo,
    Query,
    ResourceCeilingError,
    _CHUNK_CELLS,
    _asked,
    _check_ceiling,
    _first_hits,
    _fixed_holders,
    _recheck_hits,
    _Tensors,
    bounded_entails,
    evaluate,
    recheck,
)
from .syntax import (
    And,
    Exists,
    Facts,
    Falsum,
    Forall,
    Formula,
    Not,
    Or,
    Pred,
    Signature,
    Var,
    Verum,
    big_and,
    big_or,
    facts,
    free_vars,
    nnf,
    rename_apart,
    render,
    uses_equality,
)


def is_monadic(f: Formula) -> bool:
    """True iff every predicate in f is unary and equality never occurs."""
    return _monadic(facts(f))


def _monadic(fx: Facts) -> bool:
    return not fx.equality and all(a == {1} for a in fx.preds.values())


@dataclass(frozen=True)
class Sat:
    model: FiniteModel
    assignment: dict[str, int]


@dataclass(frozen=True)
class Unsat:
    pass


SatVerdict = Sat | Unsat


def _infer_signature(fs: tuple[Formula, ...]) -> Signature:
    preds: set[str] = set()
    consts: set[str] = set()
    for f in fs:
        fx = facts(f)
        fx.arities()  # ValueError on a predicate used at two arities
        preds.update(fx.preds)
        consts.update(fx.consts)
    return Signature(
        tuple((p, 1) for p in sorted(preds)), tuple(sorted(consts)), False
    )


def _check_fragment(
    fs: list[Formula] | tuple[Formula, ...], sig: Signature
) -> tuple[list[str], list[str], list[str], int]:
    """The predicates and the constants of fs, each in signature order, the
    sorted free variables that are not constants, and the deepest
    quantifier nesting, validating the monadic preconditions along the
    way."""
    used: set[str] = set()
    named: set[str] = set()
    frees: set[str] = set()
    depth = 0
    for f in fs:
        fx = facts(f)
        if not _monadic(fx):
            raise ValueError(f"not in the monadic fragment: {render(f)}")
        for name in fx.preds:
            if sig.arity(name) != 1:
                raise ValueError(f"predicate {name} not declared unary")
        for c in fx.consts:
            if not sig.is_constant(c):
                raise ValueError(f"constant {c} not declared")
        used.update(fx.preds)
        named.update(fx.consts)
        frees |= fx.frees
        depth = max(depth, fx.depth)
    consts = [c for c in sig.constants if c in named]
    return (
        [name for name, _ in sig.predicates if name in used],
        consts,
        sorted(frees - set(consts)),
        depth,
    )


@lru_cache(maxsize=None)
def _cell_models(k: int) -> np.ndarray:
    """The supports over k predicates in scan order, as int64 cell
    bitmasks: by number of inhabited cells, then value.  Read-only, as
    every call with the same k shares them."""
    supports = np.arange(1, 1 << (1 << k), dtype=np.int64)
    inhabited = sum((supports >> c) & 1 for c in range(1 << k))
    supports = supports[np.argsort(inhabited, kind="stable")]
    supports.setflags(write=False)
    return supports


def _canonical_model(
    support: int,
    names: dict[str, int],
    preds: list[str],
    sig: Signature,
    pred_index: dict[str, int],
) -> tuple[FiniteModel, dict[str, int]]:
    cells = [c for c in range(1 << len(preds)) if (support >> c) & 1]
    extents = {
        p: frozenset(
            (i,) for i, c in enumerate(cells) if (c >> pred_index[p]) & 1
        )
        for p in preds
    }
    for pname, arity in sig.predicates:
        if pname not in extents and arity == 1:
            extents[pname] = frozenset()
    consts = {c: cells.index(cell) for c, cell in names.items()}
    assignment = {}
    for c in sig.constants:
        consts.setdefault(c, 0)
    for name in list(consts):
        if not sig.is_constant(name):
            assignment[name] = consts.pop(name)
    return FiniteModel(len(cells), consts, extents), assignment


def decide_sat(
    f: Formula,
    sig: Signature | None = None,
    ceiling: int | None = None,
    allow_equality: bool = False,
) -> SatVerdict:
    """Exact satisfiability over all models, finite and infinite.

    The witness is the first hit of the cell-model scan over the k
    predicates of f (see the module docstring): the extents are fixed, bit
    i of element e for predicate i, and every quantifier ranges over the
    support's inhabited cells.  Holders are the sorted free variables,
    reported in the assignment, then the constants in signature order.
    The witness is re-checked by evaluate.  ResourceCeilingError,
    before any work, when the 2^(2^k) supports exceed the ceiling.  This
    is the one-query case of `_cell_countermodels`.

    With allow_equality, unary formulas with `=` are decided instead by the
    bounded scan of semantics.bounded_entails over universe sizes
    1..2^k * max(1, quantifier depth); the witness is the first model of f
    in that scan.  This path is slower and off by default.
    """
    if allow_equality and uses_equality(f):
        return _decide_sat_eq(f, sig, ceiling)
    if sig is None:
        sig = _infer_signature((f,))
    hit = _cell_countermodels([f], [((0,), None)], sig, ceiling)[0]
    return Unsat() if hit is None else Sat(*hit)


def _cell_countermodels(
    rows: list[Formula], queries: list[Query], sig: Signature, ceiling: int | None
) -> list[tuple[FiniteModel, dict[str, int]] | None]:
    """The first hit of each query (see semantics.Query) in the cell-model
    scan, as (model, assignment), or None when it has none: the exact
    engine's batch.

    One scan over the k predicates of the rows the queries name answers
    every query: each chunk of supports evaluates each row once, the
    queries still open read their hits off those rows, and the scan stops
    once every query is decided.  Holders are the sorted free variables of
    those rows, then their constants in signature order, so a one-query
    scan is exactly `decide_sat`.  Each hit is re-checked by evaluate.
    ResourceCeilingError, before any work, when the 2^(2^k) supports
    exceed the ceiling.
    """
    if not queries:
        return []
    asked = _asked(rows, queries)
    preds, consts, frees, depth = _check_fragment(asked, sig)
    ncells = 1 << len(preds)
    _check_ceiling(ncells, ceiling, what="supports")
    supports = _cell_models(len(preds))
    # Element e is cell e in every cell model: the extents do not depend on
    # the support, so their model axis has length 1.
    elements = np.arange(ncells)[:, None]
    ext = {p: (elements >> i) & 1 == 1 for i, p in enumerate(preds)}
    holders = frees + consts
    ndim = len(holders) + depth + 1
    fixed = _fixed_holders(len(holders), ncells)
    spread = ncells ** (len(holders) - fixed)
    # A chunk holds every row asked at once: the budget covers them as well
    # as the deepest quantifier.
    cells_each = spread * max(ncells**depth, len(asked))
    step = 1 if fixed else max(1, _CHUNK_CELLS // cells_each)
    found: dict[int, tuple[int, tuple[int, ...]]] = {}
    for start in range(0, len(supports), step):
        domain = supports[start : start + step]
        n = len(domain)

        def truths_of(prefix):
            where = [np.full((1,) * ndim, e) for e in prefix]
            where += [
                np.arange(ncells).reshape((1,) * i + (ncells,) + (1,) * (ndim - i - 1))
                for i in range(fixed, len(holders))
            ]
            named = dict(zip(consts, where[len(frees):]))
            ev = _Tensors(ext, named, n, ncells, ndim, domain)
            scope = {v: i if i >= fixed else where[i] for i, v in enumerate(frees)}
            return lambda f: ev.truth(f, scope, len(holders), n * spread)

        open_ = {q: queries[q] for q in range(len(queries)) if q not in found}
        hits = _first_hits(
            truths_of, rows, open_, n, ncells, len(holders), fixed, domain
        )
        for q, (row, values) in hits.items():
            found[q] = (int(domain[row]), tuple(values))
        if len(found) == len(queries):
            break
    pred_index = {p: i for i, p in enumerate(preds)}
    models = {}
    for column in found.values():
        if column not in models:
            support, values = column
            names = dict(zip(holders, values))
            models[column] = _canonical_model(support, names, preds, sig, pred_index)
    witnesses = {q: models[column] for q, column in found.items()}
    _recheck_hits(rows, queries, witnesses)
    return [witnesses.get(q) for q in range(len(queries))]


def _exact_verdicts(
    rows: list[Formula], queries: list[Query], sig: Signature, ceiling: int | None
) -> list[Holds | Countermodel]:
    """The verdict of each query (premise rows ⊨ conclusion row) by one scan
    of `_cell_countermodels`: Holds, or the query's first hit as its
    Countermodel.  When the predicates of the rows asked trip the ceiling
    together, each query gets its own scan instead, which raises only where
    that query alone would."""
    try:
        hits = _cell_countermodels(rows, queries, sig, ceiling)
    except ResourceCeilingError:
        if len(queries) < 2:
            raise
        hits = [_cell_countermodels(rows, [q], sig, ceiling)[0] for q in queries]
    return [Holds() if hit is None else Countermodel(*hit) for hit in hits]


def _decide_sat_eq(
    f: Formula, sig: Signature | None, ceiling: int | None
) -> SatVerdict:
    if sig is None:
        inferred = _infer_signature((f,))
        sig = Signature(inferred.predicates, inferred.constants, True)
    fx = facts(f)
    arities = fx.arities()
    if any(a != 1 for a in arities.values()):
        raise ValueError("equality extension still requires unary predicates")
    bound = (1 << len(arities)) * max(1, fx.depth)
    verdict = bounded_entails(sig, (), Not(f), bound, ceiling)
    if isinstance(verdict, HoldsUpTo):
        return Unsat()
    return Sat(verdict.model, verdict.assignment)


def decide_entails(
    premise: Formula,
    conclusion: Formula,
    sig: Signature | None = None,
    ceiling: int | None = None,
) -> Holds | Countermodel:
    """Exact entailment: Holds iff premise & !conclusion is unsatisfiable.

    Shared free variables are read universally, as in the bounded engine:
    a countermodel provides one assignment falsifying the implication.
    """
    if sig is None:
        sig = _infer_signature((premise, conclusion))
    test = And(premise, Not(conclusion))
    verdict = decide_sat(test, sig, ceiling)
    if isinstance(verdict, Unsat):
        return Holds()
    env = dict(verdict.assignment)
    recheck(
        evaluate(premise, verdict.model, env)
        and not evaluate(conclusion, verdict.model, env),
        "countermodel must satisfy the premise and refute the conclusion",
    )
    return Countermodel(verdict.model, verdict.assignment)


# ------------------------------------------------------------ normal form


@dataclass(frozen=True)
class CellConjunction:
    """Partial cell: per-predicate positive/negative marks, absent omitted."""

    literals: tuple[tuple[str, bool], ...]

    def formula(self, var: str) -> Formula:
        out = []
        for name, positive in self.literals:
            atom: Formula = Pred(name, (Var(var),))
            out.append(atom if positive else Not(atom))
        return big_and(out)


@dataclass(frozen=True)
class Disjunct:
    cell: CellConjunction
    residue: Formula


@dataclass(frozen=True)
class MonadicNormalForm:
    var: str
    disjuncts: tuple[Disjunct, ...]
    pure: bool

    def to_formula(self) -> Formula:
        parts = []
        for d in self.disjuncts:
            cell = d.cell.formula(self.var)
            if isinstance(d.residue, Verum):
                parts.append(cell)
            elif isinstance(cell, Verum):
                parts.append(d.residue)
            else:
                parts.append(And(cell, d.residue))
        return big_or(parts)


def _neg_units(g: Formula) -> Formula:
    """Negation that treats closed quantified subformulas as atoms."""
    if isinstance(g, Verum):
        return Falsum()
    if isinstance(g, Falsum):
        return Verum()
    if isinstance(g, And):
        return Or(_neg_units(g.left), _neg_units(g.right))
    if isinstance(g, Or):
        return And(_neg_units(g.left), _neg_units(g.right))
    if isinstance(g, Not):
        return g.body
    return Not(g)


def _dnf(g: Formula, limit: int) -> list[tuple[Formula, ...]]:
    """The disjuncts of g, each a tuple of conjuncts.  ResourceCeilingError
    before building a list of more than `limit` disjuncts."""
    if isinstance(g, Verum):
        return [()]
    if isinstance(g, Falsum):
        return []
    if isinstance(g, Or):
        out = _dnf(g.left, limit) + _dnf(g.right, limit)
        _fits(len(out), limit)
        return out
    if isinstance(g, And):
        left, right = _dnf(g.left, limit), _dnf(g.right, limit)
        _fits(len(left) * len(right), limit)
        return [a + b for a in left for b in right]
    return [(g,)]


def _fits(disjuncts: int, limit: int) -> None:
    if disjuncts > limit:
        raise ResourceCeilingError(disjuncts, limit, "normal form disjuncts")


def _separate(g: Formula, limit: int) -> Formula:
    """Rewrite an NNF monadic formula so every quantifier scope is a closed
    single-variable cell conjunction.  Uses nonemptiness: exists y. true
    is true.  No disjunctive form built on the way exceeds `limit`
    disjuncts (ResourceCeilingError)."""
    if isinstance(g, And):
        return And(_separate(g.left, limit), _separate(g.right, limit))
    if isinstance(g, Or):
        return Or(_separate(g.left, limit), _separate(g.right, limit))
    if isinstance(g, Exists):
        body = _separate(g.body, limit)
        parts = []
        for lits in _dnf(body, limit):
            alpha = [l for l in lits if g.var in free_vars(l)]
            beta = [l for l in lits if g.var not in free_vars(l)]
            if alpha:
                beta.append(Exists(g.var, big_and(alpha)))
            parts.append(big_and(beta))
        return big_or(parts)
    if isinstance(g, Forall):
        flipped = _separate(Exists(g.var, nnf(Not(g.body))), limit)
        return _neg_units(flipped)
    return g


def monadic_normal_form(
    f: Formula,
    var: str,
    sig: Signature | None = None,
    ceiling: int | None = None,
) -> MonadicNormalForm:
    """Equivalent disjunction of (cell on var, closed residue) pairs.

    Residues entailed by their cell collapse to true; disjuncts whose cell
    and residue jointly cannot hold are dropped; disjuncts with the same
    cell are merged by disjoining residues.  The form is pure when every
    surviving residue is true.  ResourceCeilingError when a disjunctive
    form on the way would have more disjuncts than the ceiling, before it
    is built.
    """
    fx = facts(f)
    if not _monadic(fx):
        raise ValueError(f"not in the monadic fragment: {render(f)}")
    stray = fx.frees - {var}
    if stray:
        raise ValueError(
            "free variables beyond the target: " + ", ".join(sorted(stray))
        )
    if sig is None:
        sig = _infer_signature((f,))
    _check_fragment((f,), sig)
    order = {name: i for i, (name, _) in enumerate(sig.predicates)}
    f = rename_apart(f, frozenset(sig.names()) | {var})
    limit = DEFAULT_CEILING if ceiling is None else ceiling
    sep = _separate(nnf(f), limit)
    merged: dict[tuple[tuple[str, bool], ...], list[Formula]] = {}
    for lits in _dnf(sep, limit):
        marks: dict[str, bool] = {}
        residue_parts: list[Formula] = []
        contradictory = False
        for lit in lits:
            atom = lit.body if isinstance(lit, Not) else lit
            if (
                isinstance(atom, Pred)
                and len(atom.args) == 1
                and isinstance(atom.args[0], Var)
                and atom.args[0].name == var
            ):
                positive = not isinstance(lit, Not)
                if marks.get(atom.name, positive) != positive:
                    contradictory = True
                    break
                marks[atom.name] = positive
            else:
                residue_parts.append(lit)
        if contradictory:
            continue
        key = tuple(sorted(marks.items(), key=lambda kv: order[kv[0]]))
        merged.setdefault(key, []).append(big_and(residue_parts))
    disjuncts: list[Disjunct] = []
    for key, residues in merged.items():
        cell = CellConjunction(key)
        residue = big_or(residues) if len(residues) > 1 else residues[0]
        guard = cell.formula(var)
        if not isinstance(residue, Verum):
            if isinstance(decide_entails(guard, residue, sig, ceiling), Holds):
                residue = Verum()
        if isinstance(residue, Falsum):
            continue
        joint = And(guard, residue)
        if isinstance(decide_sat(joint, sig, ceiling), Unsat):
            continue
        disjuncts.append(Disjunct(cell, residue))
    pure = all(isinstance(d.residue, Verum) for d in disjuncts)
    out = MonadicNormalForm(var, tuple(disjuncts), pure)
    _check_equivalent(f, out, sig, ceiling)
    return out


def _check_equivalent(
    f: Formula, form: MonadicNormalForm, sig: Signature, ceiling: int | None
) -> None:
    g = form.to_formula()
    recheck(
        isinstance(decide_entails(f, g, sig, ceiling), Holds)
        and isinstance(decide_entails(g, f, sig, ceiling), Holds),
        "normal form must be equivalent to the input",
    )
