"""Ordered definition systems: validation, dependency structure, unfolding,
and the expansion of a model by definitions.

A system extends a base signature with an ordered sequence of definitions,
each allowed to mention only base symbols and strictly earlier definienda.
Predicate definitions abbreviate formulas; constant definitions are definite
descriptions (a body with one designated free variable), whose unique
satisfaction is checked per finite model and reported, never assumed.

Because each body mentions only earlier symbols, a model is expanded one
entry at a time (`expand_model`): each body is evaluated once, as written,
over the extents already in hand.  `unfold` instead rewrites a formula into
base symbols, for display and for the entailment engines.  Both read an
atom that mentions a constant which is not uniquely described as "the atom
holds of some element the description holds of", through one rewrite,
`_describe_atom`.

Well-formedness is a property of the system, not of each question asked
of it, so each public call validates its system once: `unfold` is
`_require_valid` and then `_unfold`, and callers that unfold several
formulas over one system validate once and call `_unfold`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .semantics import FiniteModel, _countermodels, _Tensors, recheck
from .syntax import (
    BINARY,
    QUANTIFIERS,
    And,
    Const,
    Eq,
    Exists,
    Falsum,
    Formula,
    Not,
    Pred,
    Signature,
    Term,
    Var,
    Verum,
    all_names,
    big_and,
    conjuncts,
    facts,
    fresh_name,
    quantifier_depth,
    render,
    rename_apart,
    subst,
)

VIOLATION_KINDS = (
    "forward-reference",
    "self-reference",
    "arity-mismatch",
    "name-clash",
    "free-variable-mismatch",
)


@dataclass(frozen=True)
class PredicateDef:
    name: str
    params: tuple[str, ...]
    body: Formula

    def to_dsl(self) -> str:
        return f"def {self.name}({', '.join(self.params)}) := {render(self.body)};"


@dataclass(frozen=True)
class ConstantDef:
    name: str
    var: str
    body: Formula

    def term_form(self) -> Term | None:
        """The defining term when the body is `var = t`, else None."""
        b = self.body
        if isinstance(b, Eq):
            if isinstance(b.left, Var) and b.left.name == self.var:
                return b.right
            if isinstance(b.right, Var) and b.right.name == self.var:
                return b.left
        return None

    def to_dsl(self) -> str:
        t = self.term_form()
        if t is None:
            raise ValueError(
                f"constant definition {self.name} has no term form; "
                "not expressible in the DSL"
            )
        return f"defconst {self.name} := {t};"


Definition = Union[PredicateDef, ConstantDef]


@dataclass(frozen=True)
class DefinitionSystem:
    base: Signature
    entries: tuple[Definition, ...] = ()

    def predicate_defs(self) -> tuple[PredicateDef, ...]:
        return tuple(e for e in self.entries if isinstance(e, PredicateDef))

    def constant_defs(self) -> tuple[ConstantDef, ...]:
        return tuple(e for e in self.entries if isinstance(e, ConstantDef))

    def entry(self, name: str) -> Definition | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def index(self, name: str) -> int | None:
        for i, e in enumerate(self.entries):
            if e.name == name:
                return i
        return None

    def defined_predicates(self) -> dict[str, int]:
        return {
            e.name: len(e.params)
            for e in self.entries
            if isinstance(e, PredicateDef)
        }

    def defined_constants(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if isinstance(e, ConstantDef))

    def full_signature(self) -> Signature:
        """Base signature extended with all defined symbols, in entry order."""
        preds = list(self.base.predicates)
        consts = list(self.base.constants)
        for e in self.entries:
            if isinstance(e, PredicateDef):
                preds.append((e.name, len(e.params)))
            else:
                consts.append(e.name)
        return Signature(tuple(preds), tuple(consts), self.base.equality)

    def to_dsl(self) -> str:
        return "\n".join(e.to_dsl() for e in self.entries)


# ------------------------------------------------------------ validation


@dataclass(frozen=True)
class Violation:
    entry: int
    kind: str
    symbol: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def validate(d: DefinitionSystem) -> ValidationReport:
    """Check ordering discipline and well-formedness of every entry.

    A body symbol that is declared nowhere at all is reported as a
    forward-reference: it is not available at that point (or ever).
    """
    vs: list[Violation] = []
    base_names = d.base.names()
    first_index: dict[str, int] = {}
    for i, entry in enumerate(d.entries):
        if entry.name in base_names:
            vs.append(
                Violation(i, "name-clash", entry.name, "clashes with base signature")
            )
        elif entry.name in first_index:
            vs.append(Violation(i, "name-clash", entry.name, "duplicate definition"))
        else:
            first_index[entry.name] = i

    def ref_violation(i: int, entry: Definition, name: str) -> Violation | None:
        j = first_index.get(name)
        if j is None:
            return Violation(
                i, "forward-reference", name, "symbol not defined anywhere"
            )
        if j == i:
            return Violation(i, "self-reference", name, "definition mentions itself")
        if j > i:
            return Violation(
                i, "forward-reference", name, f"defined later at entry {j}"
            )
        return None

    for i, entry in enumerate(d.entries):
        params = entry.params if isinstance(entry, PredicateDef) else (entry.var,)
        fx = facts(entry.body)
        stray = fx.frees - set(params)
        if stray:
            vs.append(
                Violation(
                    i,
                    "free-variable-mismatch",
                    entry.name,
                    "stray free variables: " + ", ".join(sorted(stray)),
                )
            )
        uses = fx.preds
        mixed = {n for n, ars in uses.items() if len(ars) > 1}
        for name in sorted(mixed):
            vs.append(
                Violation(i, "arity-mismatch", name, "applied with multiple arities")
            )
        for name, used_arity in sorted(
            (n, next(iter(ars))) for n, ars in uses.items() if n not in mixed
        ):
            declared = d.base.arity(name)
            if declared is not None:
                if declared != used_arity:
                    vs.append(
                        Violation(
                            i,
                            "arity-mismatch",
                            name,
                            f"declared /{declared}, applied /{used_arity}",
                        )
                    )
                continue
            if d.base.is_constant(name):
                vs.append(
                    Violation(i, "arity-mismatch", name, "constant applied as predicate")
                )
                continue
            bad = ref_violation(i, entry, name)
            if bad is not None:
                vs.append(bad)
                continue
            target = d.entries[first_index[name]]
            if isinstance(target, ConstantDef):
                vs.append(
                    Violation(i, "arity-mismatch", name, "constant applied as predicate")
                )
            elif len(target.params) != used_arity:
                vs.append(
                    Violation(
                        i,
                        "arity-mismatch",
                        name,
                        f"defined /{len(target.params)}, applied /{used_arity}",
                    )
                )
        for name in sorted(fx.consts):
            if d.base.is_constant(name):
                continue
            if d.base.arity(name) is not None:
                vs.append(
                    Violation(i, "arity-mismatch", name, "predicate used as term")
                )
                continue
            bad = ref_violation(i, entry, name)
            if bad is not None:
                vs.append(bad)
            elif isinstance(d.entries[first_index[name]], PredicateDef):
                vs.append(
                    Violation(i, "arity-mismatch", name, "predicate used as term")
                )
    return ValidationReport(valid=not vs, violations=tuple(vs))


def _require_valid(d: DefinitionSystem) -> None:
    report = validate(d)
    if not report.valid:
        lines = ", ".join(
            f"entry {v.entry} {v.kind} ({v.symbol})" for v in report.violations
        )
        raise ValueError(f"invalid definition system: {lines}")


# ------------------------------------------------------ dependency graph


@dataclass(frozen=True)
class DependencyGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def to_dot(self) -> str:
        lines = ["digraph definitions {"]
        mentioned = {n for e in self.edges for n in e}
        for node in self.nodes:
            if node not in mentioned:
                lines.append(f'  "{node}";')
        for src, dst in self.edges:
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines)


def dependency_graph(d: DefinitionSystem) -> DependencyGraph:
    """Nodes are definienda; edges run from a definition to each defined
    symbol its body mentions.  Acyclic for valid systems by construction."""
    _require_valid(d)
    index = {e.name: i for i, e in enumerate(d.entries)}
    edges: list[tuple[str, str]] = []
    for e in d.entries:
        fx = facts(e.body)
        used = sorted({index[n] for n in (*fx.preds, *fx.consts) if n in index})
        edges += [(e.name, d.entries[j].name) for j in used]
    for src, dst in edges:
        recheck(index[dst] < index[src], "dependency must point backwards")
    return DependencyGraph(
        nodes=tuple(e.name for e in d.entries), edges=tuple(edges)
    )


# -------------------------------------------------------------- unfolding

# What a constant stands for when an atom mentions it: the variable of its
# description, the description itself, and the term of a `defconst e := t`
# (None when the constant is read by its description).
_Described = dict[str, tuple[str, Formula, Term | None]]


def _term(e: ConstantDef) -> Term | None:
    """The term e is defined as, unless e has no term form or it is a
    variable."""
    term = e.term_form()
    return None if isinstance(term, Var) else term


def _describe(g: Formula, described: _Described, used: set[str]) -> Formula:
    """g with every atom rewritten by _describe_atom."""
    if isinstance(g, (Verum, Falsum)):
        return g
    if isinstance(g, (Pred, Eq)):
        return _describe_atom(g, described, used)
    if isinstance(g, Not):
        return Not(_describe(g.body, described, used))
    if isinstance(g, BINARY):
        return type(g)(
            _describe(g.left, described, used), _describe(g.right, described, used)
        )
    if isinstance(g, QUANTIFIERS):
        return type(g)(g.var, _describe(g.body, described, used))
    raise TypeError(f"not a formula: {g!r}")


def _describe_atom(
    atom: Formula,
    described: _Described,
    used: set[str],
    inner=lambda atom: atom,
) -> Formula:
    """The atom as written, with each constant in `described` read as some
    element its description holds of: `D(k)` becomes
    `exists w. desc_k(w) & D(w)`, which is `D` of the unique element when
    there is one.  A constant with a term is replaced by it instead.  inner
    rewrites the atom once no described constant is left in it; fresh names
    come from, and are added to, `used`."""
    terms = atom.args if isinstance(atom, Pred) else (atom.left, atom.right)
    target = next(
        (t.name for t in terms if isinstance(t, Const) and t.name in described),
        None,
    )
    if target is None:
        return inner(atom)
    var, body, term = described[target]
    if term is not None:
        return _describe_atom(
            _replace_const(atom, target, term), described, used, inner
        )
    waist = fresh_name(var, used)
    used.add(waist)
    inst = rename_apart(body, reserved=frozenset(used))
    used |= all_names(inst)
    rest = _replace_const(atom, target, Var(waist))
    return Exists(
        waist,
        And(
            subst(inst, {var: Var(waist)}),
            _describe_atom(rest, described, used, inner),
        ),
    )


def _replace_const(atom: Formula, name: str, t: Term) -> Formula:
    def rt(x: Term) -> Term:
        return t if isinstance(x, Const) and x.name == name else x

    if isinstance(atom, Pred):
        return Pred(atom.name, tuple(rt(x) for x in atom.args))
    return Eq(rt(atom.left), rt(atom.right))


class _Expander:
    """Precomputes fully expanded bodies, innermost first in entry order."""

    def __init__(self, d: DefinitionSystem):
        self.preds: dict[str, tuple[tuple[str, ...], Formula]] = {}
        self.consts: _Described = {}
        self.used: set[str] = set(d.base.names()) | {e.name for e in d.entries}
        for e in d.entries:
            body = self.expand(e.body)
            if isinstance(e, PredicateDef):
                self.preds[e.name] = (e.params, body)
            else:
                term = _term(ConstantDef(e.name, e.var, body))
                self.consts[e.name] = (e.var, body, term)

    def expand(self, g: Formula) -> Formula:
        """g over base symbols only.  A defined predicate applied to a
        described constant is described first, at the atom as written, and
        then expanded; the other atoms are described after every defined
        predicate is expanded, which fixes the order fresh names are taken
        in."""
        self.used |= all_names(g)
        return _describe(self._expand_preds(g), self.consts, self.used)

    def _expand_preds(self, g: Formula) -> Formula:
        if isinstance(g, (Verum, Falsum, Eq)):
            return g
        if isinstance(g, Pred):
            if g.name not in self.preds:
                return g
            return _describe_atom(g, self.consts, self.used, self._instance)
        if isinstance(g, Not):
            return Not(self._expand_preds(g.body))
        if isinstance(g, BINARY):
            return type(g)(self._expand_preds(g.left), self._expand_preds(g.right))
        if isinstance(g, QUANTIFIERS):
            return type(g)(g.var, self._expand_preds(g.body))
        raise TypeError(f"not a formula: {g!r}")

    def _instance(self, atom: Pred) -> Formula:
        params, pbody = self.preds[atom.name]
        inst = rename_apart(pbody, reserved=frozenset(self.used))
        self.used |= all_names(inst)
        return subst(inst, dict(zip(params, atom.args)))


def unfold(f: Formula, d: DefinitionSystem) -> Formula:
    """Replace every defined symbol in f by its base-signature expansion.

    Definitions expand innermost first, in ascending entry order.  A
    constant `defconst e := t` is replaced by t; any other defined constant
    is read by a descriptive existential around the atom that mentions it,
    as written (`D(k)` becomes `exists w. desc_k(w) & D(w)` before D is
    expanded), which is the atom of the unique element whenever the
    description is uniquely satisfied.  This is the reading expand_model
    gives.
    """
    _require_valid(d)
    return _unfold(f, d)


def _unfold(f: Formula, d: DefinitionSystem) -> Formula:
    """unfold over a system already validated."""
    defined = {e.name for e in d.entries}
    declared = d.base.names() | defined
    fx = facts(f)
    symbols = [*fx.arities(), *fx.consts]
    for name in symbols:
        if name not in declared:
            raise ValueError(f"symbol {name} not declared anywhere")
    if defined.isdisjoint(symbols):
        # Nothing to expand: the expander would rebuild an equal tree.
        return rename_apart(f)
    return rename_apart(_Expander(d).expand(f))


# ------------------------------------------------------- model expansion


@dataclass(frozen=True)
class ConstantCheck:
    """Per-model uniqueness report for one constant definition."""

    name: str
    extent: tuple[int, ...]
    unique: bool


def expand_model(
    d: DefinitionSystem, m: FiniteModel
) -> tuple[FiniteModel, tuple[ConstantCheck, ...]]:
    """Definitional expansion of a base model, one entry at a time.

    Each body is evaluated as written, in entry order, by the tensor
    evaluator over the extents already in hand: the base ones and those of
    earlier entries.  A defined predicate gets the tuples its body holds
    of.  A defined constant gets the elements its description holds of, its
    extent, reported in a ConstantCheck; it is added to the model only when
    that is exactly one element.  Otherwise a later atom that mentions it
    reads as "some element of its extent", the reading unfold gives.
    ValueError when m leaves a base predicate or constant uninterpreted.
    """
    _require_valid(d)
    missing = [
        name for name, _ in d.base.predicates if name not in m.predicates
    ] + [c for c in d.base.constants if c not in m.constants]
    if missing:
        raise ValueError("model is missing base symbols: " + ", ".join(missing))
    reserved = d.base.names() | {e.name for e in d.entries}
    # Extents as boolean arrays, one axis per argument and a model axis of
    # length 1, as semantics._Tensors reads them.
    arrays = {
        name: _extent_array(m.predicates[name], arity, m.size)
        for name, arity in d.base.predicates
    }
    values = {c: m.constants[c] for c in d.base.constants}
    described: _Described = {}
    preds = dict(m.predicates)
    consts = dict(m.constants)
    checks: list[ConstantCheck] = []
    for e in d.entries:
        holders = e.params if isinstance(e, PredicateDef) else (e.var,)
        body = e.body
        if described:
            used = set(reserved | all_names(body) | set(holders))
            body = _describe(body, described, used)
        holds = _holds(body, holders, arrays, values, m.size)
        if isinstance(e, PredicateDef):
            arrays[e.name] = holds[..., None]
            preds[e.name] = frozenset(map(tuple, np.argwhere(holds).tolist()))
            continue
        extent = tuple(np.flatnonzero(holds).tolist())
        checks.append(ConstantCheck(e.name, extent, len(extent) == 1))
        if len(extent) == 1:
            values[e.name] = consts[e.name] = extent[0]
        else:
            # Described by its extent: `k(w)` holds of each element of it.
            arrays[e.name] = holds[:, None]
            described[e.name] = (e.var, Pred(e.name, (Var(e.var),)), _term(e))
    return FiniteModel(m.size, consts, preds), tuple(checks)


def _extent_array(tuples, arity: int, size: int) -> np.ndarray:
    """An extent as booleans with a model axis of length 1; tuples of
    another length hold of nothing, as in evaluate."""
    arr = np.zeros((size,) * arity + (1,), dtype=bool)
    rows = [t for t in tuples if len(t) == arity]
    if rows:
        cols = np.array(rows, dtype=np.intp).reshape(len(rows), arity).T
        arr[(*cols, 0)] = True
    return arr


def _holds(body, holders, arrays, values, size) -> np.ndarray:
    """Truth of body for every assignment of the holders, with one axis per
    holder; a variable named twice takes its last axis."""
    ndim = len(holders) + quantifier_depth(body) + 1
    ev = _Tensors(
        arrays, {c: np.full((1,) * ndim, v) for c, v in values.items()}, 1, size, ndim
    )
    scope = {v: i for i, v in enumerate(holders)}
    truth = ev.truth(body, scope, len(holders), size ** len(holders))
    truth = truth[(slice(None),) * len(holders) + (0,) * (ndim - len(holders))]
    return np.broadcast_to(truth, (size,) * len(holders))


# -------------------------------------------- structural irreducibility


@dataclass(frozen=True)
class RedundancyWarning:
    entry: int
    conjunct: int
    rendered: str


def irreducibility_warnings(
    d: DefinitionSystem, size_bound: int = 3, ceiling: int | None = None
) -> tuple[RedundancyWarning, ...]:
    """Flag top-level conjuncts removable without changing truth on any base
    model up to size_bound.  A bounded proxy for minimality; warning only."""
    _require_valid(d)
    exp = _Expander(d)
    warnings: list[RedundancyWarning] = []
    for i, e in enumerate(d.entries):
        parts = conjuncts(e.body)
        if len(parts) < 2:
            continue
        full = exp.expand(e.body)
        reduced = [
            exp.expand(big_and(parts[:j] + parts[j + 1 :])) for j in range(len(parts))
        ]
        # full is reduced[j] with one more conjunct, so it entails reduced[j]
        # and the two agree on every model where reduced[j] entails full.
        # Valid bodies have no free variables beyond their parameters, and a
        # parameter the body ignores cannot change its truth, so scanning
        # the free variables of full covers every assignment that matters.
        hits = _countermodels(
            d.base,
            [full, *reduced],
            [((j + 1,), 0) for j in range(len(parts))],
            size_bound,
            ceiling,
        )
        warnings += [
            RedundancyWarning(i, j, render(parts[j]))
            for j, hit in enumerate(hits)
            if hit is None
        ]
    return tuple(warnings)
