"""Finite models, Tarskian evaluation, and both entailment engines.

The interpretations of a signature on {0..size-1} are numbered.  Index i is
read as mixed-radix digits, one of radix 2^(size^arity) per predicate and one
of radix size per constant, in signature order with the last digit varying
fastest: bit j of a predicate's digit puts its j-th argument tuple, in
lexicographic order, into the extent, and a constant's digit is its element.
`enumerate_models` walks this order, so the first countermodel found is a
stable, reproducible artifact.

`_verdicts` is the one door to both engines: every entailment the library
decides is a batch asked of it, and it alone turns scan hits into
verdicts.  The engine is a bound: None for the exact monadic scan, a
universe size for the bounded scan, as `_engine_bound` picks it.  A query
is "conjunction of rows entails row" over one list of formulas; one scan
answers a batch of them, each chunk evaluating every row asked about once
and each open query taking its first hit from those rows.  Each hit is
re-checked by `evaluate`, the plain recursive evaluator, before it
becomes a Countermodel; a query with no hit gets Holds (exact) or
HoldsUpTo(bound).  A resource ceiling guards every enumeration; nothing
silently explodes.

One chunked first-hit scan, `_scan`, serves both engines; they differ
only in the chunks they hand it and in how a hit becomes a witness.  The
scan sizes the chunks to a cell budget, evaluates each formula over a
whole chunk, and over every assignment of its holders, as one numpy
boolean tensor (`_Tensors`), and takes the first hit in scan order.  The
bounded engine's chunks are runs of interpretations of each size
1..bound in the order above, decoded into boolean extent arrays by the
loop `enumerate_models` also walks.

The exact engine decides formulas over k unary predicates without
equality.  Elements then matter only through their cell: which of the k
predicates they satisfy, cells being numbered by binary counting over
predicate indices (bit i set meaning predicate i holds).  A model is
determined, up to the truth of any formula, by its support (the
nonempty set of inhabited cells) plus a cell for each holder: each free
variable and constant.  Support s is evaluated as a cell model whose
elements are its inhabited cells.  Element e is always cell e, so
predicate i holds of e exactly when bit i of e is set, in every support:
the extents are one boolean array of 2^k elements shared by all
supports.  What varies is the domain, s itself as a bitmask of cells,
and quantifiers range over it: slices of supports are the chunks, with
their bitmasks as the scan's domain.  A quantified body that is the same
for every support packs into one bitmask of the cells it holds of, so
each support is tested with one integer operation (exists: s & mask !=
0; forall: s & ~mask == 0); a body that differs between supports is
masked to the inhabited cells first.  A holder is an outermost exists
over the inhabited cells, so the same test serves it: a hit that is the
same for every support packs its last holder into one bitmask of cells
for each assignment of the others, support s hits iff those others sit
in inhabited cells and s & mask != 0, and the last holder takes the
lowest set bit of s & mask.  Any other hit gives each holder its own
axis, masked to the inhabited cells.  Supports are numbered by binary
counting over cells and scanned by (number of inhabited cells, value);
the witness is the first hit, holder cells tried in lexicographic order,
rebuilt with one element per inhabited cell, which makes witnesses
reproducible and small (at most 2^k elements).  Packing keeps that
order, so it keeps every witness.  Satisfiability does not change when
predicates are added, so every verdict of a batch is the verdict of the
query's own scan; when the batch's predicates together exceed the
ceiling, each query gets its own scan instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
from typing import Iterable, Iterator, Mapping

import numpy as np

from .syntax import (
    And,
    Eq,
    Exists,
    Facts,
    Falsum,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Signature,
    Term,
    Var,
    Verum,
    facts,
    render,
)

DEFAULT_CEILING = 2_000_000
_MISSING = object()
# Most cells one boolean array of the scan may hold.  Chunks of
# interpretations, and the axes they get, are sized to stay under it, which
# caps the scan's memory.
_CHUNK_CELLS = 1 << 20


class RecheckError(AssertionError):
    """A verdict failed the independent re-check made before returning it."""


def recheck(ok: bool, what: str) -> None:
    """Raise RecheckError unless ok; unlike assert, stays on under -O."""
    if not ok:
        raise RecheckError(what)


# ResourceCeilingError keeps the count it was asked for exact up to this
# many bits.
_EXACT_BITS = 1 << 16


class ResourceCeilingError(Exception):
    """Raised when an enumeration would exceed the configured ceiling.

    `what` names what was counted: "interpretations" (the bounded engine),
    "supports" (the exact engine), "normal form disjuncts",
    "sub-conjunctions" (proximate_genus) or "array axes" (either engine, or
    the expansion of a model, on a formula whose arrays would need more
    axes than numpy allows: one per holder and per level of quantifier
    nesting, and one for the model).  `needed` is the exact count
    asked for, or None when that count has more than 2^16 bits: it is then
    at least 2^65536, and is never built.  Counts of 2^64 or more are
    printed as powers of two.
    """

    def __init__(
        self, needed: int | None, ceiling: int, what: str = "interpretations"
    ):
        self.needed = needed
        self.ceiling = ceiling
        self.what = what
        wanted = f"at least 2^{_EXACT_BITS}" if needed is None else _count(needed)
        super().__init__(
            f"enumeration needs {wanted} {what}, ceiling is {_count(ceiling)}"
        )


@lru_cache(maxsize=None)
def _max_axes() -> int:
    """The most axes numpy lets an array have: 64 in numpy 2, 32 in numpy
    1.x.  Found by trying, on first use, so that importing costs nothing."""
    try:
        np.empty((1,) * 64, dtype=bool)
    except ValueError:
        return 32
    return 64


def _check_axes(ndim: int) -> None:
    """ResourceCeilingError when arrays of ndim axes pass numpy's limit."""
    if ndim > _max_axes():
        raise ResourceCeilingError(ndim, _max_axes(), "array axes")


def _count(n: int) -> str:
    """n in decimal below 2^64, else as a power of two."""
    if n < 1 << 64:
        return str(n)
    power = f"2^{n.bit_length() - 1}"
    return power if (n & (n - 1)) == 0 else f"more than {power}"


@dataclass(frozen=True)
class FiniteModel:
    """Interpretation over universe {0, ..., size-1}.  Equality is identity."""

    size: int
    constants: dict[str, int] = field(default_factory=dict)
    predicates: dict[str, frozenset] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("universe must be nonempty")
        for name, e in self.constants.items():
            if not 0 <= e < self.size:
                raise ValueError(f"constant {name} = {e} out of range")
        for name, ext in self.predicates.items():
            for tup in ext:
                if any(not 0 <= e < self.size for e in tup):
                    raise ValueError(f"tuple {tup} for {name} out of range")

    def to_dsl(self, name: str, sig: Signature) -> str:
        lines = [f"model {name} {{", f"  universe {self.size};"]
        for pname, arity in sig.predicates:
            ext = sorted(self.predicates.get(pname, frozenset()))
            if arity == 1:
                body = ", ".join(str(t[0]) for t in ext)
            elif arity == 0:
                body = "()" if ext else ""
            else:
                body = ", ".join(
                    "(" + ", ".join(str(e) for e in t) + ")" for t in ext
                )
            lines.append(f"  {pname} = {{{body}}};")
        for cname in sig.constants:
            if cname in self.constants:
                lines.append(f"  {cname} = {{{self.constants[cname]}}};")
        lines.append("}")
        return "\n".join(lines)


def evaluate(f: Formula, m: FiniteModel, env: Mapping[str, int] | None = None) -> bool:
    """Truth of f in m under an assignment of the free variables.

    The plain recursive evaluator.  The library computes with the tensor
    evaluator `_Tensors`; this one is the independent re-check of every
    witness before it is returned.
    """
    scope: dict[str, int] = dict(env) if env else {}

    def val(t: Term) -> int:
        if isinstance(t, Var):
            if t.name in scope:
                return scope[t.name]
            if t.name in m.constants:
                return m.constants[t.name]
            raise ValueError(f"unbound variable {t.name}")
        if t.name in m.constants:
            return m.constants[t.name]
        raise ValueError(f"constant {t.name} not interpreted")

    def ev(g: Formula) -> bool:
        if isinstance(g, Verum):
            return True
        if isinstance(g, Falsum):
            return False
        if isinstance(g, Pred):
            if g.name not in m.predicates:
                raise ValueError(f"predicate {g.name} not interpreted")
            return tuple(val(t) for t in g.args) in m.predicates[g.name]
        if isinstance(g, Eq):
            return val(g.left) == val(g.right)
        if isinstance(g, Not):
            return not ev(g.body)
        if isinstance(g, And):
            return ev(g.left) and ev(g.right)
        if isinstance(g, Or):
            return ev(g.left) or ev(g.right)
        if isinstance(g, Implies):
            return (not ev(g.left)) or ev(g.right)
        if isinstance(g, Iff):
            return ev(g.left) == ev(g.right)
        if isinstance(g, (Forall, Exists)):
            saved = scope.get(g.var, _MISSING)
            want_all = isinstance(g, Forall)
            result = want_all
            for e in range(m.size):
                scope[g.var] = e
                if ev(g.body) != want_all:
                    result = not want_all
                    break
            if saved is _MISSING:
                scope.pop(g.var, None)
            else:
                scope[g.var] = saved
            return result
        raise TypeError(f"not a formula: {g!r}")

    return ev(f)


def count_models(sig: Signature, size: int) -> int:
    """2^(sum of size^arity) * size^(number of constants)."""
    return (1 << _bits(sig, size)) * size ** len(sig.constants)


def _bits(sig: Signature, size: int) -> int:
    """Bits of the predicate digits of an interpretation: sum of size^arity."""
    return sum(size**arity for _, arity in sig.predicates)


def enumerate_models(
    sig: Signature, size: int, ceiling: int | None = None
) -> Iterator[FiniteModel]:
    """All interpretations of sig on {0..size-1}, exactly once, in index order."""
    if size < 1:
        raise ValueError("universe must be nonempty")
    step = max(1, _CHUNK_CELLS // max(1, _bits(sig, size)))
    for n, preds, consts, _ in _interpretations(sig, size, ceiling, step):
        for row in range(n):
            yield _model(size, preds, consts, row)


def _interpretations(sig: Signature, size: int, ceiling: int | None, step: int):
    """The interpretations of sig on {0..size-1} in index order, as chunks of
    `step` (the last may be shorter): (n, extents, constants, None) as
    _decode gives them, None being the domain of _scan (every element).
    ResourceCeilingError before the first chunk when there are more than
    the ceiling."""
    total = _check_ceiling(_bits(sig, size), ceiling, size ** len(sig.constants))
    for start in range(0, total, step):
        n = min(step, total - start)
        yield (n, *_decode(sig, size, start, n), None)


def _check_ceiling(
    bits: int, ceiling: int | None, times: int = 1, what: str = "interpretations"
) -> int:
    """The count 2^bits * times of `what`, unless it exceeds the ceiling:
    ResourceCeilingError.  The exponent is compared first, so a count far
    past the ceiling is built only when it has at most 2^16 bits."""
    limit = DEFAULT_CEILING if ceiling is None else ceiling
    if bits <= limit.bit_length():
        needed = (1 << bits) * times
        if needed <= limit:
            return needed
        raise ResourceCeilingError(needed, limit, what)
    if bits + times.bit_length() > _EXACT_BITS:
        raise ResourceCeilingError(None, limit, what)
    raise ResourceCeilingError((1 << bits) * times, limit, what)


def _decode(sig: Signature, size: int, start: int, n: int):
    """Interpretations start..start+n-1 as arrays whose last axis is the
    model: each extent as booleans of shape (size, ..., size, n), one axis
    per argument, and each constant as elements of shape (n,)."""
    # Past 2^62 interpretations a digit may not fit in int64: use exact
    # Python integers instead.
    wide = count_models(sig, size) > 1 << 62
    rest = np.arange(n, dtype=object if wide else np.int64) + start
    radices = [1 << size**arity for _, arity in sig.predicates]
    radices += [size] * len(sig.constants)
    digits = []
    for radix in reversed(radices):
        digits.append(rest % radix)
        rest = rest // radix
    digits.reverse()
    preds = {}
    for (name, arity), mask in zip(sig.predicates, digits):
        bits = (mask >> np.arange(size**arity, dtype=mask.dtype)[:, None]) & 1
        preds[name] = bits.astype(bool).reshape((size,) * arity + (n,))
    consts = {
        name: digit.astype(np.intp)
        for name, digit in zip(sig.constants, digits[len(sig.predicates):])
    }
    return preds, consts


def _model(size: int, preds, consts, row: int) -> FiniteModel:
    """Model `row` of a decoded chunk as a FiniteModel."""
    return FiniteModel(
        size=size,
        constants={name: int(v[row]) for name, v in consts.items()},
        predicates={
            name: frozenset(map(tuple, np.argwhere(ext[..., row]).tolist()))
            for name, ext in preds.items()
        },
    )


def default_bound(sig: Signature) -> int:
    """4 when a predicate of arity >= 2 is present, else the monadic 2^k."""
    if sig.max_arity() >= 2:
        return 4
    return 2 ** len(sig.unary_predicates())


# ------------------------------------------------------------- verdicts


@dataclass(frozen=True)
class Holds:
    """Conclusive: no countermodel of any size (exact monadic engine)."""


@dataclass(frozen=True)
class HoldsUpTo:
    """No countermodel with universe size up to `bound`.  Not a proof."""

    bound: int


@dataclass(frozen=True)
class Countermodel:
    """All premises hold and the conclusion fails under `assignment`."""

    model: FiniteModel
    assignment: dict[str, int] = field(default_factory=dict)


EntailmentVerdict = Holds | HoldsUpTo | Countermodel


# A query over a list of formulas, the rows: (premise rows, conclusion row).
# Its hits are the models and assignments that make every premise true and
# the conclusion false; with no conclusion (None), every premise true.
Query = tuple[tuple[int, ...], "int | None"]


def _asked(rows: list[Formula], queries: Iterable[Query]) -> list[Formula]:
    """The rows that some query names, in row order."""
    named = {i for premises, conclusion in queries for i in premises}
    named.update(c for _, c in queries if c is not None)
    return [rows[i] for i in sorted(named)]


def bounded_entails(
    sig: Signature,
    premises: list[Formula] | tuple[Formula, ...],
    conclusion: Formula,
    bound: int | None = None,
    ceiling: int | None = None,
) -> HoldsUpTo | Countermodel:
    """Search universes of size 1..bound for a countermodel.

    Free variables shared between premises and conclusion range over one
    assignment; for a countermodel all premises are true and the conclusion
    false under it.  Every predicate and constant must be declared in sig,
    predicates with their arity, or ValueError names the symbol before any
    model is built.  Each size must fit the ceiling (ResourceCeilingError
    otherwise, raised before that size is scanned).

    The scan (`_scan`) decodes chunks of interpretation indices into
    boolean arrays and evaluates the premises and the conclusion over a
    whole chunk and every assignment at once.  The countermodel returned
    is the first hit in enumeration order (smallest size first, then
    interpretation index, then assignments with the sorted free variables
    varying last-fastest) and is re-checked by evaluate before being
    returned.  This is the one-query case of `_verdicts`.
    """
    if bound is None:
        bound = default_bound(sig)
    query = (tuple(range(len(premises))), len(premises))
    return _verdicts(sig, [*premises, conclusion], [query], bound, ceiling)[0]


def _monadic(fx: Facts) -> bool:
    return not fx.equality and all(a == {1} for a in fx.preds.values())


def _engine_bound(
    sig: Signature, formulas: list[Formula] | tuple[Formula, ...], bound: int | None
) -> int | None:
    """The engine for entailments among `formulas`, as the bound `_verdicts`
    takes: None, the exact monadic engine, when every formula is monadic,
    otherwise the bounded scan up to `bound` or `default_bound(sig)`."""
    if all(_monadic(facts(f)) for f in formulas):
        return None
    return bound if bound is not None else default_bound(sig)


def _verdicts(
    sig: Signature,
    rows: list[Formula],
    queries: list[Query],
    bound: int | None,
    ceiling: int | None,
) -> list[EntailmentVerdict]:
    """The verdict of each query (premise rows ⊨ conclusion row, see Query)
    by one scan of the engine `bound` names: every entailment the library
    decides is asked here.

    bound None is the exact engine over the supports of the k predicates
    of the rows asked (ValueError for a row outside the monadic fragment):
    a query with no hit gets Holds.  When those supports trip the ceiling,
    each query gets its own scan instead, which raises only where that
    query alone would.  Any other bound is the bounded scan over universe
    sizes 1..bound, each size checked against the ceiling before it is
    scanned: a query with no hit gets HoldsUpTo(bound).  A hit, re-checked
    by evaluate, is the query's Countermodel.  The scan covers the
    predicates and holders of every row asked, so a query whose rows are
    all the rows asked gets the witness of its own one-query scan.
    """
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1")
    if not queries:
        return []
    formulas = _asked(rows, queries)
    asked = [facts(f) for f in formulas]
    for f, fx in zip(formulas, asked):
        if bound is None and not _monadic(fx):
            raise ValueError(f"not in the monadic fragment: {render(f)}")
        _check_symbols(sig, fx)
    depth = max(fx.depth for fx in asked)
    frees = frozenset().union(*(fx.frees for fx in asked))
    if bound is None:
        try:
            scans = [_support_scan(sig, asked, frees, ceiling)]
        except ResourceCeilingError:
            if len(queries) < 2:
                raise
            return [_verdicts(sig, rows, [q], None, ceiling)[0] for q in queries]
        held: EntailmentVerdict = Holds()
    else:
        scans = (
            _interpretation_scan(sig, size, sorted(frees), ceiling)
            for size in range(1, bound + 1)
        )
        held = HoldsUpTo(bound)
    found: dict[int, tuple[FiniteModel, dict[str, int]]] = {}
    for size, chunks, holders, consts, extent_cells, witness in scans:
        open_ = {q: query for q, query in enumerate(queries) if q not in found}
        if not open_:
            break
        scan = _scan(rows, open_, chunks, size, holders, consts, depth, extent_cells)
        for chunk, hits in scan:
            # Queries that hit one column of the chunk share its witness.
            witnesses = {}
            for q, (row, values) in hits.items():
                column = (row, *values)
                if column not in witnesses:
                    witnesses[column] = witness(chunk, row, values)
                found[q] = witnesses[column]
    _recheck_hits(rows, queries, found)
    return [
        Countermodel(*found[q]) if q in found else held for q in range(len(queries))
    ]


def _interpretation_scan(sig: Signature, size: int, frees: list[str], ceiling):
    """The bounded engine's scan of the universe {0..size-1}, as `_verdicts`
    reads it: (size, chunks, holders, constant holders, extent cells,
    witness).  The chunks decode the interpretations and include the
    constants; a hit's witness is its interpretation and the assignment of
    the free variables."""

    def witness(chunk, row: int, values: list[int]):
        _, preds, consts, _ = chunk
        return _model(size, preds, consts, row), dict(zip(frees, values))

    chunks = partial(_interpretations, sig, size, ceiling)
    return size, chunks, frees, (), _bits(sig, size), witness


def _support_scan(sig: Signature, asked: list[Facts], frees, ceiling):
    """The exact engine's scan of the supports over the predicates of the
    rows asked, in signature order, as `_interpretation_scan` gives its
    own.  The holders are the sorted free variables, then the constants in
    signature order; a hit's witness is `_canonical_model`.
    ResourceCeilingError, before any work, when the 2^(2^k) supports exceed
    the ceiling."""
    used = {p for fx in asked for p in fx.preds}
    named = {c for fx in asked for c in fx.consts}
    preds = [name for name, _ in sig.predicates if name in used]
    consts = [c for c in sig.constants if c in named]
    frees = sorted(frees - named)
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

    def witness(chunk, row: int, values: list[int]):
        names = dict(zip(frees + consts, values))
        return _canonical_model(int(chunk[3][row]), names, preds, sig)

    return ncells, chunks, frees, consts, 0, witness


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
    support: int, names: dict[str, int], preds: list[str], sig: Signature
) -> tuple[FiniteModel, dict[str, int]]:
    """The witness of a support: one element per inhabited cell, in cell
    order, with each holder of `names` on the element of its cell.  Free
    variables go to the assignment; unnamed constants denote element 0,
    and unused unary predicates are empty."""
    cells = [c for c in range(1 << len(preds)) if (support >> c) & 1]
    extents = {
        p: frozenset((e,) for e, c in enumerate(cells) if (c >> i) & 1)
        for i, p in enumerate(preds)
    }
    for pname, arity in sig.predicates:
        if pname not in extents and arity == 1:
            extents[pname] = frozenset()
    at = {name: cells.index(cell) for name, cell in names.items()}
    consts = {c: e for c, e in at.items() if sig.is_constant(c)}
    for c in sig.constants:
        consts.setdefault(c, 0)
    assignment = {v: e for v, e in at.items() if not sig.is_constant(v)}
    return FiniteModel(len(cells), consts, extents), assignment


def _recheck_hits(rows, queries, found) -> None:
    """Re-check every hit with evaluate.  Hits that share a model and an
    assignment share the evaluation of each row."""
    truth: dict[tuple, bool] = {}

    def holds(i: int, model: FiniteModel, env: dict[str, int]) -> bool:
        key = (i, id(model), tuple(env.items()))
        if key not in truth:
            truth[key] = evaluate(rows[i], model, env)
        return truth[key]

    for q, (model, env) in found.items():
        premises, conclusion = queries[q]
        ok = all(holds(i, model, env) for i in premises)
        if conclusion is None:
            recheck(ok, "witness must satisfy f")
        else:
            recheck(
                ok and not holds(conclusion, model, env),
                "countermodel must satisfy the premises and refute the conclusion",
            )


def _check_symbols(sig: Signature, fx: Facts) -> None:
    """Raise ValueError naming an undeclared or misapplied symbol: the
    first such predicate, in order of first occurrence, else the first
    such constant."""
    for name, arities in fx.preds.items():
        arity = sig.arity(name)
        if arity is None:
            raise ValueError(f"predicate {name} is not declared")
        wrong = sorted(arities - {arity})
        if wrong:
            raise ValueError(
                f"predicate {name} has arity {arity}, "
                f"applied to {wrong[0]} arguments"
            )
    for name in fx.consts:
        if not sig.is_constant(name):
            raise ValueError(f"constant {name} is not declared")


def _scan(rows, queries, chunks, size, frees, consts, depth, extent_cells):
    """The first hit of each of `queries` (index -> Query), scanning models
    on {0..size-1} chunk by chunk: both engines' scan.  Yields (chunk, hits)
    for each chunk where some query still open has its first hit, hits
    mapping the query to (row, holder elements), row indexing the chunk's
    models; the scan stops once every query has one.

    chunks(step) gives the chunks in scan order, `step` models each (the
    last may be shorter), as (n, extents, constants, domain): extents and
    domain as _Tensors reads them, and each constant as elements of shape
    (n,).  `extent_cells` is what each model's own extents take of the
    chunk budget.  The holders are frees, then the constants `consts` that
    chunks leave out, each given every element.  A chunk holds every row
    the queries name at once, so its budget covers them as well as the
    deepest quantifier.  When the holders' axes alone would pass the
    budget, leading holders are fixed one assignment at a time, with one
    model per chunk, until the axes of the others fit.  Arrays have axis i
    for holder i, one more axis per level of quantifier nesting, and the
    model last.  Each row a query needs is evaluated once per chunk and
    assignment of the fixed holders.

    A hit is first in (model, holder elements lexicographic) order, and
    every holder sits inside its model's universe.  It is flattened into
    one column per (model, holder elements).  But a hit that every model
    of the chunk shares (model axis of length 1) packs its last holder,
    when that holder has an axis and there is a domain, into one bitmask of
    the elements it holds at for each assignment of the other holders, as
    _Tensors._test does for a quantifier: model j hits there iff the other
    holders are inside its universe and domain[j] & mask != 0, and the
    lowest set bit of domain[j] & mask is the last holder's first element.
    """
    holders = len(frees) + len(consts)
    fixed = 0
    while size ** (holders - fixed) > _CHUNK_CELLS:
        fixed += 1
    spread = size ** (holders - fixed)
    width = len(_asked(rows, queries.values()))
    cells = max(spread * max(size**depth, width), extent_cells)
    step = 1 if fixed else max(1, _CHUNK_CELLS // cells)
    ndim = holders + depth + 1
    _check_axes(ndim)
    held = {
        c: np.arange(size).reshape((1,) * i + (size,) + (1,) * (ndim - i - 1))
        for i, c in enumerate(consts, len(frees))
        if i >= fixed
    }
    weights = np.left_shift(1, np.arange(size, dtype=np.int64))
    lead = (holders, *range(holders))
    found: set[int] = set()
    for chunk in chunks(step):
        n, preds, named, domain = chunk
        named = {c: v.reshape((1,) * (ndim - 1) + (n,)) for c, v in named.items()}
        named.update(held)
        shape = (n,) + (1,) * fixed + (size,) * (holders - fixed)
        if domain is not None:
            universe = domain.reshape((n,) + (1,) * holders)
        hits = {}
        for prefix in product(range(size), repeat=fixed):
            where = [np.full((1,) * ndim, e) for e in prefix]
            scope = {v: where[i] if i < fixed else i for i, v in enumerate(frees)}
            named.update(zip(consts, where[len(frees):]))
            ev = _Tensors(preds, named, n, size, ndim, domain)
            truths: dict[int, np.ndarray] = {}
            guards: dict[int, np.ndarray | None] = {}

            def truth(i: int) -> np.ndarray:
                if i not in truths:
                    truths[i] = ev.truth(rows[i], scope, holders, n * spread)
                return truths[i]

            def guard(upto: int) -> np.ndarray | None:
                """Holders 0..upto-1 all sit inside the universe, model
                axis first; None when that is no constraint."""
                if upto not in guards:
                    inside = None
                    for i in range(upto if domain is not None else 0):
                        along = (1,) * (i + 1) + (size,) + (1,) * (holders - i - 1)
                        bit = weights[prefix[i]] if i < fixed else weights.reshape(along)
                        here = universe & bit != 0
                        inside = here if inside is None else inside & here
                    guards[upto] = inside
                return guards[upto]

            for q, (premises, conclusion) in queries.items():
                if q in found:
                    continue
                hit = None
                for i in premises:
                    hit = truth(i) if hit is None else hit & truth(i)
                if conclusion is not None:
                    # On booleans, a > b is a & ~b in one pass.
                    t = truth(conclusion)
                    hit = ~t if hit is None else hit > t
                # The model axis first, then one axis per holder.
                hit = hit[(slice(None),) * holders + (0,) * depth].transpose(lead)
                mask = None
                if domain is not None and holders > fixed and hit.shape[0] == 1:
                    mask = np.where(hit, weights, 0).sum(axis=-1, keepdims=True)
                    hit, at_shape = universe & mask != 0, shape[:-1] + (1,)
                    inside = guard(holders - 1)
                else:
                    at_shape, inside = shape, guard(holders)
                at = _first_true(hit if inside is None else hit & inside, at_shape)
                if at is None:
                    continue
                row, *rest = at
                if mask is not None:
                    bits = np.broadcast_to(mask, at_shape)[tuple(at)]
                    bits = int(domain[row]) & int(bits)
                    rest[-1] = (bits & -bits).bit_length() - 1
                found.add(q)
                hits[q] = row, [*prefix, *rest[fixed:]]
            if len(found) == len(queries):
                break
        # Free this chunk's arrays before the next chunk is decoded, so that
        # the decode can reuse their memory.
        del ev, truths, guards, hit, mask, inside
        if hits:
            yield chunk, hits
        if len(found) == len(queries):
            return


def _first_true(a: np.ndarray, shape: tuple[int, ...]) -> list[int] | None:
    """The index, in C order, of the first true cell of a broadcast to
    shape, or None when there is none."""
    if a.shape != shape:
        full = np.zeros(shape, dtype=bool)
        full |= a
        a = full
    flat = a.ravel()
    first = int(flat.argmax())
    if not flat[first]:
        return None
    return [int(e) for e in np.unravel_index(first, shape)]


def _truth_table(f: Formula, holders, extents, values, size: int) -> np.ndarray:
    """The truth of f in one model on {0..size-1} for every assignment of
    the holders, one axis per holder; a variable named twice takes its last
    axis.  extents maps each predicate to a boolean array with one axis per
    argument and a model axis of length 1, and values each constant to its
    element."""
    ndim = len(holders) + facts(f).depth + 1
    _check_axes(ndim)
    ev = _Tensors(
        extents, {c: np.full((1,) * ndim, v) for c, v in values.items()}, 1, size, ndim
    )
    scope = {v: i for i, v in enumerate(holders)}
    truth = ev.truth(f, scope, len(holders), size ** len(holders))
    truth = truth[(slice(None),) * len(holders) + (0,) * (ndim - len(holders))]
    return np.broadcast_to(truth, (size,) * len(holders))


class _Tensors:
    """Truth of formulas over a chunk of n models on {0..size-1}, as boolean
    arrays of ndim axes whose last axis is the model, so elementwise loops
    run over the models.  Each extent has one axis per argument and the
    model last, of length n, or 1 when every model of the chunk shares it.
    Each constant is an index array of ndim axes, shaped by the caller.  A
    scope maps each variable in scope to the axis it varies along, or to one
    fixed element.

    Quantifiers range over all of {0..size-1} unless a domain is given: the
    universe of each model as an int64 bitmask (bit e set when element e is
    in it), shape (n,).  Then a quantifier whose body has a model axis of
    length 1 packs the body along its own axis into one bitmask for each
    outer assignment and tests every universe with one integer operation;
    any other body is first masked to each universe.
    """

    def __init__(self, preds, consts, n: int, size: int, ndim: int, domain=None):
        self.preds = preds
        self.consts = consts
        self.model = np.arange(n).reshape((1,) * (ndim - 1) + (n,))
        self.n = n
        self.size = size
        self.ndim = ndim
        self.domain = domain
        self._members = None

    def element(self, e: int) -> np.ndarray:
        return np.full((1,) * self.ndim, e)

    def _shape(self, axes) -> list[int]:
        shape = [1] * self.ndim
        for k in axes:
            shape[k] = self.size
        return shape

    def members(self) -> np.ndarray:
        """(size, n) booleans: element e is in the universe of model j."""
        if self._members is None:
            shifts = np.arange(self.size, dtype=np.int64)[:, None]
            self._members = (self.domain >> shifts) & 1 == 1
        return self._members

    def value(self, t: Term, scope) -> np.ndarray:
        """The elements t denotes, as an index array of ndim axes."""
        # As in evaluate, a variable in scope shadows a constant.
        if isinstance(t, Var) and t.name in scope:
            where = scope[t.name]
            if isinstance(where, int):
                return np.arange(self.size).reshape(self._shape([where]))
            return where
        if t.name in self.consts:
            return self.consts[t.name]
        raise ValueError(f"unbound variable {t.name}")

    def truth(self, f: Formula, scope, level: int, cells: int) -> np.ndarray:
        """f over the chunk; `level` is the next unused axis and `cells` the
        size of a full array at this level."""
        if isinstance(f, (Verum, Falsum)):
            return np.full((1,) * self.ndim, isinstance(f, Verum))
        if isinstance(f, Pred):
            ext = self.preds[f.name]
            axes = [
                scope.get(t.name) if isinstance(t, Var) else None for t in f.args
            ]
            if all(isinstance(k, int) for k in axes) and len(set(axes)) == len(axes):
                # Distinct variables, each on its own axis: a view, no gather.
                order = sorted(range(len(axes)), key=axes.__getitem__)
                shape = self._shape(axes)
                shape[-1] = ext.shape[-1]
                return ext.transpose(*order, len(axes)).reshape(shape)
            # An extent every model shares has one column, index 0.
            model = self.model if ext.shape[-1] == self.n else 0
            return ext[(*(self.value(t, scope) for t in f.args), model)]
        if isinstance(f, Eq):
            return self.value(f.left, scope) == self.value(f.right, scope)
        if isinstance(f, Not):
            return ~self.truth(f.body, scope, level, cells)
        if isinstance(f, (And, Or, Implies, Iff)):
            left = self.truth(f.left, scope, level, cells)
            right = self.truth(f.right, scope, level, cells)
            if isinstance(f, And):
                return left & right
            if isinstance(f, Or):
                return left | right
            if isinstance(f, Implies):
                return ~left | right
            return left == right
        if isinstance(f, (Forall, Exists)):
            every = isinstance(f, Forall)
            join = np.logical_and if every else np.logical_or
            wide = cells * self.size > _CHUNK_CELLS
            if not wide:
                inner = {**scope, f.var: level}
                body = self.truth(f.body, inner, level + 1, cells * self.size)
                if self.domain is not None:
                    if body.shape[-1] == 1:
                        return self._test(body, level, every)
                    shape = self._shape([level])
                    shape[-1] = self.n
                    body = _within(body, self.members().reshape(shape), every)
                # Slice by slice: faster than all/any along one axis.
                parts = (
                    body[(slice(None),) * level + (slice(e, e + 1),)]
                    for e in range(body.shape[level])
                )
            else:
                # Too wide for one more axis: one element at a time, stopping
                # once every cell is decided.
                parts = (
                    self.truth(
                        f.body, {**scope, f.var: self.element(e)}, level + 1, cells
                    )
                    for e in range(self.size)
                )
                if self.domain is not None:
                    parts = (
                        _within(part, self.members()[e], every)
                        for e, part in enumerate(parts)
                    )
            acc = None
            for part in parts:
                acc = part if acc is None else join(acc, part)
                if wide and (not acc.any() if every else acc.all()):
                    break
            return acc
        raise TypeError(f"not a formula: {f!r}")

    def _test(self, body, level: int, every: bool) -> np.ndarray:
        """The quantifier over `level` of a body every model shares: the
        elements it holds of, packed into one bitmask per outer assignment,
        tested against each universe."""
        weights = np.left_shift(1, np.arange(self.size, dtype=np.int64))
        mask = np.where(body, weights.reshape(self._shape([level])), 0)
        mask = mask.sum(axis=level, keepdims=True)
        domain = self.domain.reshape((1,) * (self.ndim - 1) + (self.n,))
        if every:
            return (domain & ~mask) == 0
        return (domain & mask) != 0


def _within(body: np.ndarray, inside: np.ndarray, every: bool) -> np.ndarray:
    """body with each element outside its model's universe made neutral for
    the quantifier: true under forall, false under exists."""
    return body | ~inside if every else body & inside
