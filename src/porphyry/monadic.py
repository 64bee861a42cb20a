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
first.  Each holder has its own axis, masked to the inhabited cells.
Supports are numbered by binary counting over cells and scanned by (number
of inhabited cells, value); the reported witness is the first hit, holder
cells tried in lexicographic order, which makes witnesses reproducible and
small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .semantics import (
    Countermodel,
    FiniteModel,
    Holds,
    HoldsUpTo,
    _CHUNK_CELLS,
    _check_ceiling,
    _first_hit,
    _fixed_holders,
    _Tensors,
    bounded_entails,
    evaluate,
    recheck,
)
from .syntax import (
    And,
    Const,
    Eq,
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
    constants_of,
    free_vars,
    nnf,
    predicates_of,
    quantifier_depth,
    rename_apart,
    render,
    subformulas,
    uses_equality,
)


def is_monadic(f: Formula) -> bool:
    """True iff every predicate in f is unary and equality never occurs."""
    return _unary_symbols(f) is not None


def _unary_symbols(f: Formula) -> tuple[list[str], list[str]] | None:
    """The predicates and the constants of f, each in order of first
    occurrence, in one walk; None when equality occurs or a predicate is
    applied to other than one argument."""
    preds: dict[str, None] = {}
    consts: dict[str, None] = {}
    for g in subformulas(f):
        if isinstance(g, Eq) or isinstance(g, Pred) and len(g.args) != 1:
            return None
        if isinstance(g, Pred):
            preds[g.name] = None
            if isinstance(g.args[0], Const):
                consts[g.args[0].name] = None
    return list(preds), list(consts)


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
        preds |= set(predicates_of(f))
        consts |= constants_of(f)
    return Signature(
        tuple((p, 1) for p in sorted(preds)), tuple(sorted(consts)), False
    )


def _check_fragment(
    fs: tuple[Formula, ...], sig: Signature
) -> tuple[list[str], list[str]]:
    """The predicates and the constants of fs, each in signature order,
    validating the monadic preconditions along the way."""
    used: set[str] = set()
    named: set[str] = set()
    for f in fs:
        symbols = _unary_symbols(f)
        if symbols is None:
            raise ValueError(f"not in the monadic fragment: {render(f)}")
        preds, consts = symbols
        for name in preds:
            if sig.arity(name) != 1:
                raise ValueError(f"predicate {name} not declared unary")
        for c in consts:
            if not sig.is_constant(c):
                raise ValueError(f"constant {c} not declared")
        used.update(preds)
        named.update(consts)
    return (
        [name for name, _ in sig.predicates if name in used],
        [c for c in sig.constants if c in named],
    )


@lru_cache(maxsize=None)
def _cell_models(k: int):
    """(supports, inhabited): the supports over k predicates in scan order,
    as int64 cell bitmasks, and inhabited[c, j] when support j inhabits cell
    c.  Read-only, as every call with the same k shares them."""
    ncells = 1 << k
    supports = np.arange(1, 1 << ncells, dtype=np.int64)
    inhabited = (supports >> np.arange(ncells)[:, None]) & 1 == 1
    order = np.argsort(inhabited.sum(axis=0), kind="stable")
    supports, inhabited = supports[order], inhabited[:, order]
    for a in (supports, inhabited):
        a.setflags(write=False)
    return supports, inhabited


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
    bounded scan of semantics.bounded_entails over universe sizes
    1..2^k * max(1, quantifier depth); the witness is the first model of f
    in that scan.  This path is slower and off by default.
    """
    if allow_equality and uses_equality(f):
        return _decide_sat_eq(f, sig, ceiling)
    if sig is None:
        sig = _infer_signature((f,))
    preds, consts = _check_fragment((f,), sig)
    ncells = 1 << len(preds)
    _check_ceiling(ncells, ceiling)
    supports, inhabited = _cell_models(len(preds))
    # Element e is cell e in every cell model: the extents do not depend on
    # the support, so their model axis has length 1.
    elements = np.arange(ncells)[:, None]
    ext = {p: (elements >> i) & 1 == 1 for i, p in enumerate(preds)}
    frees = sorted(free_vars(f) - set(consts))
    holders = frees + consts
    depth = quantifier_depth(f)
    ndim = len(holders) + depth + 1
    fixed = _fixed_holders(len(holders), ncells)
    spread = ncells ** (len(holders) - fixed)
    step = 1 if fixed else max(1, _CHUNK_CELLS // (spread * ncells**depth))
    for start in range(0, len(supports), step):
        part = slice(start, start + step)
        cells = inhabited[:, part]
        n = cells.shape[1]

        def hit_of(prefix):
            where = [np.full((1,) * ndim, e) for e in prefix]
            where += [
                np.arange(ncells).reshape((1,) * i + (ncells,) + (1,) * (ndim - i - 1))
                for i in range(fixed, len(holders))
            ]
            named = dict(zip(consts, where[len(frees):]))
            ev = _Tensors(ext, named, n, ncells, ndim, supports[part])
            scope = {v: i if i >= fixed else where[i] for i, v in enumerate(frees)}
            hit = ev.truth(f, scope, len(holders), n * spread)
            for w in where:
                hit = hit & cells[w, ev.model]
            return hit

        found = _first_hit(hit_of, n, ncells, len(holders), fixed)
        if found is not None:
            row, values = found
            support, names = int(supports[start + row]), dict(zip(holders, values))
            pred_index = {p: i for i, p in enumerate(preds)}
            model, assignment = _canonical_model(support, names, preds, sig, pred_index)
            recheck(evaluate(f, model, dict(assignment)), "witness must satisfy f")
            return Sat(model, assignment)
    return Unsat()


def _decide_sat_eq(
    f: Formula, sig: Signature | None, ceiling: int | None
) -> SatVerdict:
    if sig is None:
        inferred = _infer_signature((f,))
        sig = Signature(inferred.predicates, inferred.constants, True)
    try:
        arities = predicates_of(f)
    except ValueError as exc:
        raise ValueError(str(exc)) from exc
    if any(a != 1 for a in arities.values()):
        raise ValueError("equality extension still requires unary predicates")
    k = len(arities)
    bound = (1 << k) * max(1, quantifier_depth(f))
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


def _dnf(g: Formula) -> list[tuple[Formula, ...]]:
    if isinstance(g, Verum):
        return [()]
    if isinstance(g, Falsum):
        return []
    if isinstance(g, Or):
        return _dnf(g.left) + _dnf(g.right)
    if isinstance(g, And):
        return [a + b for a in _dnf(g.left) for b in _dnf(g.right)]
    return [(g,)]


def _separate(g: Formula) -> Formula:
    """Rewrite an NNF monadic formula so every quantifier scope is a closed
    single-variable cell conjunction.  Uses nonemptiness: exists y. true
    is true."""
    if isinstance(g, And):
        return And(_separate(g.left), _separate(g.right))
    if isinstance(g, Or):
        return Or(_separate(g.left), _separate(g.right))
    if isinstance(g, Exists):
        body = _separate(g.body)
        parts = []
        for lits in _dnf(body):
            alpha = [l for l in lits if g.var in free_vars(l)]
            beta = [l for l in lits if g.var not in free_vars(l)]
            if alpha:
                beta.append(Exists(g.var, big_and(alpha)))
            parts.append(big_and(beta))
        return big_or(parts)
    if isinstance(g, Forall):
        flipped = _separate(Exists(g.var, nnf(Not(g.body))))
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
    surviving residue is true.
    """
    if not is_monadic(f):
        raise ValueError(f"not in the monadic fragment: {render(f)}")
    stray = free_vars(f) - {var}
    if stray:
        raise ValueError(
            "free variables beyond the target: " + ", ".join(sorted(stray))
        )
    if sig is None:
        sig = _infer_signature((f,))
    _check_fragment((f,), sig)
    order = {name: i for i, (name, _) in enumerate(sig.predicates)}
    f = rename_apart(f, frozenset(sig.names()) | {var})
    sep = _separate(nnf(f))
    merged: dict[tuple[tuple[str, bool], ...], list[Formula]] = {}
    for lits in _dnf(sep):
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
