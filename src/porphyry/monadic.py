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
as a bitmask of cells, and quantifiers range over it.  Slices of supports
are the chunks of semantics._scan, the first-hit scan that bounded_entails
also uses, with their bitmasks as its domain; this module keeps only what
is exact to it: the fragment check, the support order, the fixed cell
extents, constants as holders, and the canonical witness.  A quantified
body that is the same for every support packs into one bitmask of the cells
it holds of, so each support is tested with one integer operation (exists:
s & mask != 0; forall: s & ~mask == 0); a body that differs between
supports is masked to the inhabited cells first.  A holder is an outermost
exists over the inhabited cells, so the same test serves it: a hit that is
the same for every support packs its last holder into one bitmask of cells
for each assignment of the others, support s hits iff those others sit in
inhabited cells and s & mask != 0, and the last holder takes the lowest set
bit of s & mask.  Any other hit gives each holder its own axis, masked to
the inhabited cells.  Supports are numbered by binary counting over cells
and scanned by (number of inhabited cells, value); the reported witness is
the first hit, holder cells tried in lexicographic order, which makes
witnesses reproducible and small.  Packing keeps that order, so it keeps
every witness.

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

`_verdicts` is the one door to both engines.  The engine is a bound:
None for this exact scan, a universe size for the bounded scan of
semantics._countermodels, as `_engine_bound` picks it.  decide_sat,
decide_entails, the normal form's checks and every predicabilia and CLI
entailment are batches asked of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .semantics import (
    DEFAULT_CEILING,
    Countermodel,
    EntailmentVerdict,
    FiniteModel,
    Holds,
    HoldsUpTo,
    Query,
    ResourceCeilingError,
    _asked,
    _check_ceiling,
    _check_symbols,
    _countermodels,
    _recheck_hits,
    _scan,
    default_bound,
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
        _check_symbols(sig, fx)
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
    before any work, when the 2^(2^k) supports exceed the ceiling.

    With allow_equality, unary formulas with `=` are decided instead by the
    bounded scan of semantics._countermodels over universe sizes
    1..2^k * max(1, q + h), with q the quantifier depth and h the free
    variables plus the constants of f: each holder counts as an outermost
    exists.  The witness is the first model of f in that scan.  This path is
    slower and off by default.

    Either way this is a one-query `_verdicts` whose query has f as its
    premise and no conclusion: it holds iff f has no model.
    """
    bound = None
    if allow_equality and uses_equality(f):
        sig, bound = _equality_bound(f, sig)
    elif sig is None:
        sig = _infer_signature((f,))
    v = _verdicts(sig, [f], [((0,), None)], bound, ceiling)[0]
    return Sat(v.model, v.assignment) if isinstance(v, Countermodel) else Unsat()


def _equality_bound(f: Formula, sig: Signature | None) -> tuple[Signature, int]:
    """The signature (inferred, with equality, when none is given) and the
    bound of equality-mode decide_sat."""
    if sig is None:
        inferred = _infer_signature((f,))
        sig = Signature(inferred.predicates, inferred.constants, True)
    fx = facts(f)
    arities = fx.arities()
    if any(a != 1 for a in arities.values()):
        raise ValueError("equality extension still requires unary predicates")
    holders = len(fx.frees) + len(fx.consts)
    return sig, (1 << len(arities)) * max(1, fx.depth + holders)


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

    def chunks(step):
        """The supports in scan order, `step` to a chunk, as its domains."""
        for start in range(0, len(supports), step):
            domain = supports[start : start + step]
            yield len(domain), ext, {}, domain

    holders = frees + consts
    pred_index = {p: i for i, p in enumerate(preds)}
    models: dict[tuple, tuple[FiniteModel, dict[str, int]]] = {}
    witnesses = {}
    scan = _scan(
        rows, dict(enumerate(queries)), chunks, ncells, frees, consts, depth, 0
    )
    for (*_, domain), hits in scan:
        for q, (row, values) in hits.items():
            column = (int(domain[row]), tuple(values))
            if column not in models:
                names = dict(zip(holders, values))
                models[column] = _canonical_model(
                    column[0], names, preds, sig, pred_index
                )
            witnesses[q] = models[column]
    _recheck_hits(rows, queries, witnesses)
    return [witnesses.get(q) for q in range(len(queries))]


def _engine_bound(
    sig: Signature, formulas: list[Formula] | tuple[Formula, ...], bound: int | None
) -> int | None:
    """The engine for entailments among `formulas`, as the bound `_verdicts`
    takes: None, the exact monadic engine, when every formula is monadic,
    otherwise the bounded scan up to `bound` or `default_bound(sig)`."""
    if all(is_monadic(f) for f in formulas):
        return None
    return bound if bound is not None else default_bound(sig)


def _verdicts(
    sig: Signature,
    rows: list[Formula],
    queries: list[Query],
    bound: int | None,
    ceiling: int | None,
) -> list[EntailmentVerdict]:
    """The verdict of each query (premise rows ⊨ conclusion row, see
    semantics.Query) by one scan of the engine `bound` names: every
    entailment the library decides is asked here.

    bound None is the exact engine, `_cell_countermodels`: a query with no
    hit gets Holds.  When the predicates of the rows asked trip the ceiling
    together, each query gets its own scan instead, which raises only where
    that query alone would.  Any other bound is the bounded scan of
    semantics._countermodels over universe sizes 1..bound: a query with no
    hit gets HoldsUpTo(bound).  A hit is the query's Countermodel.  The
    scan covers the predicates and holders of every row asked, so a query
    whose rows are all the rows asked gets the witness of its own
    one-query scan.
    """
    if bound is not None:
        hits = _countermodels(sig, rows, queries, bound, ceiling)
        held: EntailmentVerdict = HoldsUpTo(bound)
    else:
        try:
            hits = _cell_countermodels(rows, queries, sig, ceiling)
        except ResourceCeilingError:
            if len(queries) < 2:
                raise
            hits = [_cell_countermodels(rows, [q], sig, ceiling)[0] for q in queries]
        held = Holds()
    return [held if hit is None else Countermodel(*hit) for hit in hits]


def decide_entails(
    premise: Formula,
    conclusion: Formula,
    sig: Signature | None = None,
    ceiling: int | None = None,
) -> Holds | Countermodel:
    """Exact entailment: Holds iff premise & !conclusion is unsatisfiable.

    Shared free variables are read universally, as in the bounded engine:
    a countermodel provides one assignment falsifying the implication.
    This is the one-query case of `_verdicts`' exact engine, so a
    ValueError for a formula outside the monadic fragment renders the side
    that is.
    """
    if sig is None:
        sig = _infer_signature((premise, conclusion))
    return _verdicts(sig, [premise, conclusion], [((0,), 1)], None, ceiling)[0]


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
    surviving residue is true.  Every cell's two checks are one batch of
    the exact engine, and the re-check that the form is equivalent to f is
    another: two scans in all.  ResourceCeilingError when a disjunctive
    form on the way would have more disjuncts than the ceiling, before it
    is built, or when a check's supports would.
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
    # One batch asks every cell's checks: does the cell entail its residue,
    # and can the two hold together.  Rows are each cell, then its residue.
    rows: list[Formula] = []
    queries: list[Query] = []
    for key, residues in merged.items():
        g = len(rows)
        rows += [
            CellConjunction(key).formula(var),
            big_or(residues) if len(residues) > 1 else residues[0],
        ]
        if not isinstance(rows[-1], Verum):
            queries.append(((g,), g + 1))
        queries.append(((g, g + 1), None))
    verdicts = iter(_verdicts(sig, rows, queries, None, ceiling))
    disjuncts: list[Disjunct] = []
    for key, residue in zip(merged, rows[1::2]):
        if not isinstance(residue, Verum) and isinstance(next(verdicts), Holds):
            residue = Verum()
        if isinstance(next(verdicts), Countermodel):
            disjuncts.append(Disjunct(CellConjunction(key), residue))
    pure = all(isinstance(d.residue, Verum) for d in disjuncts)
    out = MonadicNormalForm(var, tuple(disjuncts), pure)
    _check_equivalent(f, out, sig, ceiling)
    return out


def _check_equivalent(
    f: Formula, form: MonadicNormalForm, sig: Signature, ceiling: int | None
) -> None:
    both_ways = _verdicts(
        sig, [f, form.to_formula()], [((0,), 1), ((1,), 0)], None, ceiling
    )
    recheck(
        all(isinstance(v, Holds) for v in both_ways),
        "normal form must be equivalent to the input",
    )
