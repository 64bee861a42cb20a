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
base symbols, for display and for the entailment engines.  It expands
top-down from the formula, on an explicit stack: each use of a defined
atom reads the entry's raw body once, with the arguments for the
parameters, so only the entries the formula reaches are read and the time
is linear in the output (the unfolded formula is a tree view of the
definitions' DAG).  One last pass names the bound variables: in pre-order
each binder keeps its written name unless a free variable of the output,
a symbol of the system or an earlier binder has it, and then takes the
least free suffix.  Both read an atom that mentions a constant which is
not uniquely described as "the atom holds of some element the
description holds of", through the one expansion, `_expand`.

What a name is, predicate or constant, its arity and the entry that
defines it, is read from one symbol table, `DefinitionSystem.symbols`,
which also fixes which reading a clashing name gets: the base signature
wins over a definition, and the first definition over later ones.
`validate`, the parser's name resolution and the class checks of
`predicabilia` all read it.

Entries are frozen, slotted dataclasses, as the formula nodes are, so a
parsed system of a thousand definitions holds no `__dict__` per entry or
node; like the nodes, an entry has a slot for weak references, from
`syntax._Weak`.  The parser builds each distinct subformula and entry
once for the whole process, through a node table that holds them weakly
and whose keys are tuples of a class's name, names and ids of children:
they hold no class object, so the garbage collector untracks them, and
parses of one system, however many are kept, leave one set of nodes for
a full collection to walk.

Well-formedness is a property of the system, not of each question asked
of it, so each public call validates its system once: `unfold` is
`_require_valid` and then `_unfold`, and callers that unfold several
formulas over one system validate once and call `_unfold`.  The symbol
table is built once per call too: `_require_valid` returns the one it
validated with, and `_unfold` reads that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .semantics import Countermodel, FiniteModel, _truth_table, _verdicts, recheck
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
    _Weak,
    conjuncts,
    facts,
    render,
)

VIOLATION_KINDS = (
    "forward-reference",
    "self-reference",
    "arity-mismatch",
    "name-clash",
    "free-variable-mismatch",
)


@dataclass(frozen=True, slots=True)
class PredicateDef(_Weak):
    name: str
    params: tuple[str, ...]
    body: Formula

    @property
    def arity(self) -> int:
        return len(self.params)

    def to_dsl(self) -> str:
        return f"def {self.name}({', '.join(self.params)}) := {render(self.body)};"


@dataclass(frozen=True, slots=True)
class ConstantDef(_Weak):
    name: str
    var: str
    body: Formula

    @property
    def arity(self) -> None:
        """A constant takes no arguments: None, as in a Symbol."""
        return None

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


# What a name of a definition system is, as (entry, arity): the entry that
# defines it (-1 for the base signature) and its arity (None for a
# constant).  A plain tuple, since a table is built on every name check.
Symbol = tuple[int, int | None]


def _define(table: dict[str, Symbol], i: int, e: Definition) -> None:
    """Enter entry i into a symbol table.  A name keeps its first reading,
    so the base signature wins over a definition and the first definition
    over later ones: a system with a name clash still reads each name one
    way, and the validator reports the clash."""
    table.setdefault(e.name, (i, e.arity))


@dataclass(frozen=True)
class DefinitionSystem:
    base: Signature
    entries: tuple[Definition, ...] = ()

    def symbols(self) -> dict[str, Symbol]:
        """The symbol table: every declared or defined name, base
        predicates, then base constants, then entries in order, each read
        by `_define`'s precedence rule.  Every name check of the system
        reads it."""
        table: dict[str, Symbol] = {
            name: (-1, arity) for name, arity in self.base.predicates
        }
        table.update((name, (-1, None)) for name in self.base.constants)
        for i, e in enumerate(self.entries):
            _define(table, i, e)
        return table

    def defined_predicates(self) -> dict[str, int]:
        return {
            n: arity
            for n, (i, arity) in self.symbols().items()
            if i >= 0 and arity is not None
        }

    def defined_constants(self) -> tuple[str, ...]:
        return tuple(
            n for n, (i, arity) in self.symbols().items() if i >= 0 and arity is None
        )

    def full_signature(self) -> Signature:
        """Base signature extended with all defined symbols, in entry order,
        each name read as in `symbols`."""
        table = self.symbols()
        return Signature(
            tuple((n, a) for n, (_, a) in table.items() if a is not None),
            tuple(n for n, (_, a) in table.items() if a is None),
            self.base.equality,
        )

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
    # The symbol table the report was read against, for callers that read
    # names of the system next.
    symbols: dict[str, Symbol] = field(
        default_factory=dict, compare=False, repr=False
    )


def validate(d: DefinitionSystem) -> ValidationReport:
    """Check ordering discipline and well-formedness of every entry.

    First every entry whose name already has a reading in the symbol table
    is a name-clash.  Then, entry by entry: stray free variables, each
    predicate applied at more than one arity, and each other symbol use,
    predicates and then constants, each sorted by name (`_misuse`).
    """
    table = d.symbols()
    vs = [
        Violation(
            i,
            "name-clash",
            e.name,
            "clashes with base signature"
            if table[e.name][0] < 0
            else "duplicate definition",
        )
        for i, e in enumerate(d.entries)
        if table[e.name][0] != i
    ]
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
        preds = sorted(fx.preds.items())
        vs += [
            Violation(i, "arity-mismatch", name, "applied with multiple arities")
            for name, arities in preds
            if len(arities) > 1
        ]
        uses = [(name, *arities) for name, arities in preds if len(arities) == 1]
        for name, arity in uses + [(name, None) for name in sorted(fx.consts)]:
            bad = _misuse(table, i, name, arity)
            if bad is not None:
                vs.append(Violation(i, bad[0], name, bad[1]))
    return ValidationReport(not vs, tuple(vs), table)


def _misuse(
    table: dict[str, Symbol], i: int, name: str, arity: int | None
) -> tuple[str, str] | None:
    """(kind, detail) of what is wrong with entry i using name at
    arity (None: as a term), or None.  The name must be defined, and
    before entry i; a predicate must be used as one, at its arity, and a
    constant as a term.  A name declared nowhere is a forward-reference: it
    is not available at that point, or ever."""
    if name not in table:
        return "forward-reference", "symbol not defined anywhere"
    j, declared = table[name]
    if j == i:
        return "self-reference", "definition mentions itself"
    if j > i:
        return "forward-reference", f"defined later at entry {j}"
    if declared is None and arity is not None:
        return "arity-mismatch", "constant applied as predicate"
    if arity is None and declared is not None:
        return "arity-mismatch", "predicate used as term"
    if arity != declared:
        how = "declared" if j < 0 else "defined"
        return "arity-mismatch", f"{how} /{declared}, applied /{arity}"
    return None


def _require_valid(d: DefinitionSystem) -> dict[str, Symbol]:
    """d's symbol table, built once for the check and returned for the
    caller's own name reads; ValueError when d is invalid."""
    report = validate(d)
    if not report.valid:
        lines = ", ".join(
            f"entry {v.entry} {v.kind} ({v.symbol})" for v in report.violations
        )
        raise ValueError(f"invalid definition system: {lines}")
    return report.symbols


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
    table = _require_valid(d)
    edges: list[tuple[str, str]] = []
    for i, e in enumerate(d.entries):
        fx = facts(e.body)
        used = sorted({table[n][0] for n in (*fx.preds, *fx.consts)} - {-1})
        recheck(all(j < i for j in used), "dependency must point backwards")
        edges += [(e.name, d.entries[j].name) for j in used]
    return DependencyGraph(
        nodes=tuple(e.name for e in d.entries), edges=tuple(edges)
    )


# -------------------------------------------------------------- unfolding


def _expand(
    f: Formula, table: dict[str, Symbol], entries: Sequence[Definition]
) -> Formula:
    """f with each name the table reads as an entry (index >= 0) replaced
    by that entry, top-down, so that only what f reaches is read.

    An atom of a defined predicate becomes the predicate's body with the
    arguments for the parameters.  A defined constant is read by its
    description around the atom that mentions it, as written: `D(k)`
    becomes `exists w. desc_k(w) & D(w)`, one binder per distinct constant
    in argument order, before D is expanded.  But a constant whose
    description unfolds to the one atom `w = t`, as `defconst k := t`
    does, is replaced by t.

    One explicit-stack walk emits the output in pre-order.  Each raw body
    is read once per use, under an environment from its terms to what they
    stand for: a binder (by its index in pre-order), a free variable of f
    or a base constant.  Then each binder is named, in pre-order: it
    keeps its written name unless that is a free variable of the output, a
    symbol or an earlier binder's name, and then takes the least free
    suffix, as `fresh_name` does, counted on from the last one taken for
    that name.  Last, the tree is built bottom-up from the emitted ops.
    """
    ops: list[tuple] = []  # the output in pre-order: (node type, fields...)
    written: list[str] = []  # each binder's written name, in pre-order
    taken: set[str] = set()  # the output's free variables, then binder names
    reads: dict[str, Const] = {}  # the defined constants that read as a term
    # An item is a formula with what its terms stand for, or a constant
    # whose description was just emitted, with where its wrap starts in ops.
    stack: list[tuple] = [(f, {})]
    while stack:
        g, env = stack.pop()
        if isinstance(g, BINARY):
            ops.append((type(g),))
            stack += ((g.right, env), (g.left, env))
        elif isinstance(g, (Pred, Eq)):
            name, raw = (
                (g.name, g.args) if isinstance(g, Pred) else (None, (g.left, g.right))
            )
            args = [
                env.get(t, reads.get(t.name, t) if isinstance(t, Const) else t)
                for t in raw
            ]
            c = next((a for a in args if _by_description(a, table)), None)
            j, arity = table[name] if name is not None else (-1, None)
            if c is not None:
                e = entries[table[c.name][0]]
                b = len(written)
                written.append(e.var)
                stack += [
                    (g, {**env, c: b}),
                    (c, len(ops)),
                    (e.body, {Var(e.var): b}),
                ]
                ops += [(Exists, b), (And,)]
            elif j >= 0 and arity is not None:
                e = entries[j]
                stack.append((e.body, dict(zip(map(Var, e.params), args))))
            else:
                taken.update(a.name for a in args if isinstance(a, Var))
                ops.append((type(g), name, args))
        elif isinstance(g, Const):
            # g's description is emitted.  When it unfolded to the one atom
            # `w = t`, g reads as t, as `defconst g := t` does: the wrap is
            # undone, and the atom that mentions g reads t.
            desc = ops[env + 2 :]
            b = len(written) - 1
            if len(desc) == 1 and desc[0][0] is Eq and b in desc[0][2]:
                left, right = desc[0][2]
                t = right if left == b else left
                if isinstance(t, Const):
                    reads[g.name] = stack[-1][1][g] = t
                    del ops[env:]
                    written.pop()
        elif isinstance(g, Not):
            ops.append((Not,))
            stack.append((g.body, env))
        elif isinstance(g, QUANTIFIERS):
            ops.append((type(g), len(written)))
            stack.append((g.body, {**env, Var(g.var): len(written)}))
            written.append(g.var)
        elif isinstance(g, (Verum, Falsum)):
            ops.append((type(g),))
        else:
            raise TypeError(f"not a formula: {g!r}")

    names: list[str] = []
    cursor: dict[str, int] = {}
    for base in written:
        name = base
        if name in table or name in taken:
            k = cursor.get(base, 1)
            while f"{base}{k}" in table or f"{base}{k}" in taken:
                k += 1
            cursor[base] = k
            name = f"{base}{k}"
        taken.add(name)
        names.append(name)

    out: list[Formula] = []
    for op in reversed(ops):
        kind = op[0]
        if kind is Pred or kind is Eq:
            terms = tuple(Var(names[a]) if isinstance(a, int) else a for a in op[2])
            out.append(Pred(op[1], terms) if kind is Pred else Eq(*terms))
        elif kind is Not:
            out.append(Not(out.pop()))
        elif kind in QUANTIFIERS:
            out.append(kind(names[op[1]], out.pop()))
        elif kind in BINARY:
            left = out.pop()
            out.append(kind(left, out.pop()))
        else:
            out.append(kind())
    return out.pop()


def _by_description(t: object, table: dict[str, Symbol]) -> bool:
    """Whether t, an argument as `_expand` reads it, is a defined constant
    to read by its description."""
    if not isinstance(t, Const):
        return False
    j, arity = table[t.name]
    return j >= 0 and arity is None


def unfold(f: Formula, d: DefinitionSystem) -> Formula:
    """Replace every defined symbol in f by its base-signature expansion.

    Expansion runs top-down from f and reads only the entries f reaches.
    A constant `defconst e := t` is replaced by t; any other defined
    constant is read by a descriptive existential around the atom that
    mentions it, as written (`D(k)` becomes `exists w. desc_k(w) & D(w)`
    before D is expanded), which is the atom of the unique element whenever
    the description is uniquely satisfied.  This is the reading
    expand_model gives.  Each binder keeps the name written in its
    definition, unless that is a free variable of the output, a symbol of
    the system or an earlier binder's name in pre-order; then it takes the
    least free suffix (`y`, `y1`, `y2`, ...).  ValueError when d is
    invalid, or when f uses a symbol that is not declared or defined, or at
    another arity or kind than its own.
    """
    return _unfold(f, d, _require_valid(d))


def _unfold(
    f: Formula,
    d: DefinitionSystem,
    table: dict[str, Symbol],
    entry: int | None = None,
) -> Formula:
    """unfold over a system already validated, with its symbol table.  f
    is read as the body of entry `entry` (default: one past the last), so
    each symbol use must pass `_misuse` there, or ValueError."""
    fx = facts(f)
    at = len(d.entries) if entry is None else entry
    for name, arity in [*fx.arities().items(), *((c, None) for c in fx.consts)]:
        bad = _misuse(table, at, name, arity)
        if bad is not None:
            raise ValueError(f"{bad[0]} ({name}): {bad[1]}")
    return _expand(f, table, d.entries)


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
    table = _require_valid(d)
    missing = [
        name for name, _ in d.base.predicates if name not in m.predicates
    ] + [c for c in d.base.constants if c not in m.constants]
    if missing:
        raise ValueError("model is missing base symbols: " + ", ".join(missing))
    # Extents as boolean arrays, one axis per argument and a model axis of
    # length 1, as semantics._truth_table reads them.
    arrays = {
        name: _extent_array(m.predicates[name], arity, m.size)
        for name, arity in d.base.predicates
    }
    values = {c: m.constants[c] for c in d.base.constants}
    # Once in the model, an entry reads as a base symbol (entry -1 in the
    # table), except a constant without one element, which reads by its
    # extent: `k(w)` holds of each element of it.
    entries = list(d.entries)
    described = False
    preds = dict(m.predicates)
    consts = dict(m.constants)
    checks: list[ConstantCheck] = []
    for i, e in enumerate(d.entries):
        holders = e.params if isinstance(e, PredicateDef) else (e.var,)
        body = _expand(e.body, table, entries) if described else e.body
        holds = _truth_table(body, holders, arrays, values, m.size)
        if isinstance(e, PredicateDef):
            arrays[e.name] = holds[..., None]
            preds[e.name] = frozenset(map(tuple, np.argwhere(holds).tolist()))
            table[e.name] = (-1, e.arity)
            continue
        extent = tuple(np.flatnonzero(holds).tolist())
        checks.append(ConstantCheck(e.name, extent, len(extent) == 1))
        if len(extent) == 1:
            values[e.name] = consts[e.name] = extent[0]
            table[e.name] = (-1, None)
        else:
            arrays[e.name] = holds[:, None]
            entries[i] = ConstantDef(e.name, e.var, Pred(e.name, (Var(e.var),)))
            described = True
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


# -------------------------------------------- structural irreducibility


@dataclass(frozen=True)
class RedundancyWarning:
    entry: int
    conjunct: int
    rendered: str


def irreducibility_warnings(
    d: DefinitionSystem, size_bound: int | None = 3, ceiling: int | None = None
) -> tuple[RedundancyWarning, ...]:
    """Flag top-level conjuncts removable without changing truth on any base
    model up to size_bound.  A bounded proxy for minimality; warning only.
    size_bound=None asks the exact monadic engine instead, over all models
    (ValueError outside the monadic fragment)."""
    table = _require_valid(d)
    warnings: list[RedundancyWarning] = []
    for i, e in enumerate(d.entries):
        parts = conjuncts(e.body)
        if len(parts) < 2:
            continue
        # The body is the rest with conjunct j added, so it entails the
        # rest, and the two agree on every model where the rest entails
        # conjunct j.  That query conjoins the other conjuncts as premises,
        # so each conjunct is unfolded and evaluated once, not once per
        # rest.  Valid bodies have no free variables beyond their
        # parameters, and a parameter the body ignores cannot change its
        # truth, so scanning the conjuncts' free variables covers every
        # assignment that matters.
        rows = [_expand(part, table, d.entries) for part in parts]
        n = len(parts)
        queries = [(tuple(k for k in range(n) if k != j), j) for j in range(n)]
        verdicts = _verdicts(d.base, rows, queries, size_bound, ceiling)
        warnings += [
            RedundancyWarning(i, j, render(parts[j]))
            for j, v in enumerate(verdicts)
            if not isinstance(v, Countermodel)
        ]
    return tuple(warnings)
