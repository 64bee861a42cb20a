"""Finite models, Tarskian evaluation, and bounded entailment search.

The interpretations of a signature on {0..size-1} are numbered.  Index i is
read as mixed-radix digits, one of radix 2^(size^arity) per predicate and one
of radix size per constant, in signature order with the last digit varying
fastest: bit j of a predicate's digit puts its j-th argument tuple, in
lexicographic order, into the extent, and a constant's digit is its element.
`enumerate_models` walks this order, so the first countermodel found is a
stable, reproducible artifact.

`bounded_entails` scans the same order in chunks.  It decodes a chunk of
indices at once into boolean extent arrays and evaluates each formula over
the whole chunk, and over every assignment of its free variables, as one
numpy boolean tensor; the first hit in enumeration order is the countermodel.
`evaluate`, the plain recursive evaluator, re-checks that witness before it
is returned.  A resource ceiling guards every enumeration; nothing silently
explodes.

The scan answers a batch of queries at once (`_countermodels`): each is
"conjunction of rows entails row" over one list of formulas, each chunk
evaluates every row once, and each query still open takes its first hit
from those rows.  `bounded_entails` is the one-query case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    `needed` is the exact count of interpretations (or supports, or normal
    form disjuncts, as `what` says) asked for, or None when that count has
    more than 2^16 bits: it is then at least 2^65536, and is never built.
    Counts of 2^64 or more are printed as powers of two.
    """

    def __init__(
        self, needed: int | None, ceiling: int, what: str = "interpretations"
    ):
        self.needed = needed
        self.ceiling = ceiling
        wanted = f"at least 2^{_EXACT_BITS}" if needed is None else _count(needed)
        super().__init__(
            f"enumeration needs {wanted} {what}, ceiling is {_count(ceiling)}"
        )


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
    total = _check_ceiling(_bits(sig, size), ceiling, size ** len(sig.constants))
    step = _models_per_chunk(sig, size, 1)
    for start in range(0, total, step):
        n = min(step, total - start)
        preds, consts = _decode(sig, size, start, n)
        for row in range(n):
            yield _model(size, preds, consts, row)


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


def _models_per_chunk(sig: Signature, size: int, cells: int) -> int:
    """How many models, each needing `cells` cells, fit the chunk budget."""
    return max(1, _CHUNK_CELLS // max(cells, _bits(sig, size)))


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

    The scan decodes chunks of interpretation indices into boolean arrays
    and evaluates the premises and the conclusion over a whole chunk and
    every assignment at once.  The countermodel returned is the first hit in
    enumeration order (smallest size first, then interpretation index, then
    assignments with the sorted free variables varying last-fastest) and is
    re-checked by evaluate before being returned.  This is the one-query
    case of `_countermodels`.
    """
    if bound is None:
        bound = default_bound(sig)
    rows = [*premises, conclusion]
    query = (tuple(range(len(premises))), len(premises))
    hit = _countermodels(sig, rows, [query], bound, ceiling)[0]
    return HoldsUpTo(bound) if hit is None else Countermodel(*hit)


def _countermodels(sig, rows, queries, bound, ceiling):
    """The first hit of each query (see Query) over universes of size
    1..bound, as (model, assignment), or None when it has none.

    One scan answers every query: each chunk evaluates each row once, the
    queries still open read their hits off those rows, and the scan stops
    once every query is decided.  The free variables of the rows the
    queries name are the holders, so a one-query scan is exactly
    `bounded_entails`; a batch gives each query the same verdict as its
    own scan.  Each hit is re-checked by evaluate.  bound None means
    `default_bound(sig)`.
    """
    if bound is None:
        bound = default_bound(sig)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if not queries:
        return []
    asked = [facts(f) for f in _asked(rows, queries)]
    for fx in asked:
        _check_symbols(sig, fx)
    depth = max(fx.depth for fx in asked)
    frees = sorted(frozenset().union(*(fx.frees for fx in asked)))
    found: dict[int, tuple[FiniteModel, dict[str, int]]] = {}
    for size in range(1, bound + 1):
        if len(found) == len(queries):
            break
        open_ = {q: queries[q] for q in range(len(queries)) if q not in found}
        found.update(_scan(sig, rows, open_, frees, depth, size, ceiling))
    _recheck_hits(rows, queries, found)
    return [found.get(q) for q in range(len(queries))]


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


def _scan(sig, rows, queries, frees, depth, size, ceiling):
    """The first hit, as (model, assignment), of each of `queries` (index
    -> Query) that has one at this size.

    Arrays have axis i for free variable frees[i], one more axis per level
    of quantifier nesting, and the model last.  A chunk holds every row the
    queries name at once, so its budget covers them as well as the deepest
    quantifier.
    """
    total = _check_ceiling(_bits(sig, size), ceiling, size ** len(sig.constants))
    fixed = _fixed_holders(len(frees), size)
    spread = size ** (len(frees) - fixed)
    width = len(_asked(rows, queries.values()))
    step = (
        1
        if fixed
        else _models_per_chunk(sig, size, spread * max(size**depth, width))
    )
    ndim = len(frees) + depth + 1
    found = {}
    for start in range(0, total, step):
        n = min(step, total - start)
        preds, consts = _decode(sig, size, start, n)
        shaped = {c: v.reshape((1,) * (ndim - 1) + (n,)) for c, v in consts.items()}
        ev = _Tensors(preds, shaped, n, size, ndim)

        def truths_of(prefix):
            scope = {v: ev.element(e) for v, e in zip(frees, prefix)}
            scope.update((v, i) for i, v in enumerate(frees) if i >= fixed)
            return lambda f: ev.truth(f, scope, len(frees), n * spread)

        open_ = {q: query for q, query in queries.items() if q not in found}
        models = {}
        for q, (row, values) in _first_hits(
            truths_of, rows, open_, n, size, len(frees), fixed
        ).items():
            if row not in models:
                models[row] = _model(size, preds, consts, row)
            found[q] = (models[row], dict(zip(frees, values)))
        if len(found) == len(queries):
            break
    return found


def _fixed_holders(holders: int, size: int) -> int:
    """How many leading holders (the names an assignment gives elements) to
    fix one assignment at a time, so that the axes of the others fit the
    chunk budget.  A scan that fixes any takes one model per chunk."""
    fixed = 0
    while size ** (holders - fixed) > _CHUNK_CELLS:
        fixed += 1
    return fixed


def _first_hits(
    truths_of, rows, queries, n: int, size: int, holders: int, fixed: int, domain=None
):
    """The first hit of each of `queries` (index -> Query) in a chunk of n
    models, as (row, holder elements) in (model, holder elements
    lexicographic) order; queries with no hit in the chunk are left out.

    truths_of(prefix) gives truth with the first `fixed` holders set to
    prefix (one model per chunk then): truth(f) is f as a _Tensors.truth
    array with an axis for each other holder.  Each row a query needs is
    evaluated once per prefix.  domain, when given, is the universe of each
    model as an int64 bitmask of shape (n,), as in _Tensors, and every
    holder must sit inside it; otherwise every element is in every universe.

    A query's hit is flattened into one column per (model, holder elements).
    But a hit that every model of the chunk shares (model axis of length 1)
    packs its last holder, when that holder has an axis and there is a
    domain, into one bitmask of the elements it holds at for each
    assignment of the other holders, as _Tensors._test does for a
    quantifier: model j hits there iff the other holders are inside its
    universe and domain[j] & mask != 0, and the lowest set bit of
    domain[j] & mask is the last holder's first element.
    """
    shape = (n,) + (1,) * fixed + (size,) * (holders - fixed)
    axes = (holders, *range(holders))
    packs = domain is not None and holders > fixed
    if domain is not None:
        universe = domain.reshape((n,) + (1,) * holders)
        weights = np.left_shift(1, np.arange(size, dtype=np.int64))

    def lead(a):
        """a with the model axis first, then one axis per holder."""
        return a[(slice(None),) * holders + (0,) * (a.ndim - holders - 1)].transpose(axes)

    found = {}
    for prefix in product(range(size), repeat=fixed):
        truth = truths_of(prefix)
        truths: dict[int, np.ndarray] = {}
        guards: dict[int, np.ndarray | None] = {}

        def guard(upto: int) -> np.ndarray | None:
            """Holders 0..upto-1 all sit inside the universe, in lead()
            form; None when that is no constraint."""
            if upto not in guards:
                inside = None
                for i in range(upto if domain is not None else 0):
                    along = (1,) * (i + 1) + (size,) + (1,) * (holders - i - 1)
                    bit = weights[prefix[i]] if i < fixed else weights.reshape(along)
                    here = universe & bit != 0
                    inside = here if inside is None else inside & here
                guards[upto] = inside
            return guards[upto]

        def row_truth(i: int) -> np.ndarray:
            if i not in truths:
                truths[i] = truth(rows[i])
            return truths[i]

        for q, (premises, conclusion) in queries.items():
            if q in found:
                continue
            hit = None
            for i in premises:
                hit = row_truth(i) if hit is None else hit & row_truth(i)
            if conclusion is not None:
                # On booleans, a > b is a & ~b in one pass.
                t = row_truth(conclusion)
                hit = ~t if hit is None else hit > t
            hit = lead(hit)
            if packs and hit.shape[0] == 1:
                mask = np.where(hit, weights, 0).sum(axis=-1, keepdims=True)
                tested = universe & mask != 0
                if guard(holders - 1) is not None:
                    tested = tested & guard(holders - 1)
                packed = shape[:-1] + (1,)
                at = _first_true(tested, packed)
                if at is not None:
                    row, *rest = at
                    bits = int(domain[row]) & int(np.broadcast_to(mask, packed)[tuple(at)])
                    rest[-1] = (bits & -bits).bit_length() - 1
                    found[q] = row, [*prefix, *rest[fixed:]]
                continue
            if guard(holders) is not None:
                hit = hit & guard(holders)
            at = _first_true(hit, shape)
            if at is not None:
                row, *rest = at
                found[q] = row, [*prefix, *rest[fixed:]]
        if len(found) == len(queries):
            break
    return found


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
