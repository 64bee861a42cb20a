"""Exact decision procedure and normal form for unary-predicate formulas.

With k unary predicates and no equality, elements matter only through their
cell: which of the k predicates they satisfy.  A model is then determined,
up to the truth of any formula, by its support (the nonempty set of
inhabited cells) plus a cell for each holder: each free variable and
constant.  Any satisfying support yields a witness of size <= 2^k with one
element per inhabited cell, so scanning the supports decides satisfiability
over all models, finite and infinite.  The scan is the exact engine of
semantics._verdicts, the one door to both engines (see the semantics
docstring); decide_sat and decide_entails are one-query batches asked of
it, and the normal form's checks are two more.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import (
    DEFAULT_CEILING,
    Countermodel,
    FiniteModel,
    Holds,
    Query,
    ResourceCeilingError,
    _check_symbols,
    _monadic,
    _verdicts,
    recheck,
)
from .syntax import (
    DUALS,
    And,
    Exists,
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


def decide_sat(
    f: Formula,
    sig: Signature | None = None,
    ceiling: int | None = None,
    allow_equality: bool = False,
) -> SatVerdict:
    """Exact satisfiability over all models, finite and infinite.

    The witness is the first hit of the cell-model scan over the k
    predicates of f (see the semantics docstring): the extents are fixed, bit
    i of element e for predicate i, and every quantifier ranges over the
    support's inhabited cells.  Holders are the sorted free variables,
    reported in the assignment, then the constants in signature order.
    The witness is re-checked by evaluate.  ResourceCeilingError,
    before any work, when the 2^(2^k) supports exceed the ceiling.

    With allow_equality, unary formulas with `=` are decided instead by the
    bounded engine of semantics._verdicts over universe sizes
    1..2^k * max(1, q + h), with q the quantifier depth and h the free
    variables plus the constants of f: each holder counts as an outermost
    exists.  The witness is the first model of f in that scan.  This path is
    slower and off by default.

    Either way this is a one-query `_verdicts` batch whose query has f as its
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
    if isinstance(g, (And, Or)):
        return DUALS[type(g)](_neg_units(g.left), _neg_units(g.right))
    if isinstance(g, (Verum, Falsum)):
        return DUALS[type(g)]()
    if isinstance(g, Not):
        return g.body
    return Not(g)


def _once(disjuncts) -> list[tuple[Formula, ...]]:
    """The first disjunct of each set of conjuncts, in order."""
    first: dict[frozenset[Formula], tuple[Formula, ...]] = {}
    for d in disjuncts:
        first.setdefault(frozenset(d), d)
    return list(first.values())


def _fits(disjuncts: int, limit: int) -> None:
    if disjuncts > limit:
        raise ResourceCeilingError(disjuncts, limit, "normal form disjuncts")


class _Separator:
    """The separated and disjunctive forms of the nodes of one normal form's
    input, each distinct node rewritten once.  No disjunctive form built on
    the way exceeds `limit` disjuncts (ResourceCeilingError).

    The memos are keyed by id and hold the node they key: `separate` builds
    nodes that nothing else keeps, whose ids would otherwise be reused.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.separated: dict[int, tuple[Formula, Formula]] = {}
        self.disjuncts: dict[int, tuple[Formula, list[tuple[Formula, ...]]]] = {}

    def dnf(self, g: Formula) -> list[tuple[Formula, ...]]:
        """The disjuncts of g, each a tuple of its conjuncts in order of
        first occurrence, each conjunct once, and each set of conjuncts
        once."""
        if id(g) in self.disjuncts:
            return self.disjuncts[id(g)][1]
        if isinstance(g, Verum):
            out: list[tuple[Formula, ...]] = [()]
        elif isinstance(g, Falsum):
            out = []
        elif isinstance(g, Or):
            out = _once(self.dnf(g.left) + self.dnf(g.right))
            _fits(len(out), self.limit)
        elif isinstance(g, And):
            left, right = self.dnf(g.left), self.dnf(g.right)
            _fits(len(left) * len(right), self.limit)
            out = _once(tuple(dict.fromkeys(a + b)) for a in left for b in right)
        else:
            out = [(g,)]
        self.disjuncts[id(g)] = g, out
        return out

    def separate(self, g: Formula) -> Formula:
        """Rewrite an NNF monadic formula so every quantifier scope is a
        closed single-variable cell conjunction.  Uses nonemptiness: exists
        y. true is true."""
        if id(g) in self.separated:
            return self.separated[id(g)][1]
        if isinstance(g, (And, Or)):
            out = type(g)(self.separate(g.left), self.separate(g.right))
        elif isinstance(g, Exists):
            parts = []
            for lits in self.dnf(self.separate(g.body)):
                alpha = [l for l in lits if g.var in free_vars(l)]
                beta = [l for l in lits if g.var not in free_vars(l)]
                if alpha:
                    beta.append(Exists(g.var, big_and(alpha)))
                parts.append(big_and(beta))
            out = big_or(parts)
        elif isinstance(g, Forall):
            out = _neg_units(self.separate(Exists(g.var, nnf(Not(g.body)))))
        else:
            out = g
        self.separated[id(g)] = g, out
        return out


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
    _check_symbols(sig, fx)
    order = {name: i for i, (name, _) in enumerate(sig.predicates)}
    f = rename_apart(f, frozenset(sig.names()) | {var})
    limit = DEFAULT_CEILING if ceiling is None else ceiling
    separator = _Separator(limit)
    merged: dict[tuple[tuple[str, bool], ...], list[Formula]] = {}
    for lits in separator.dnf(separator.separate(nnf(f))):
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
