"""Finite models, Tarskian evaluation, and bounded entailment search.

Everything here is brute force on purpose: models are enumerated in a fixed
deterministic order (constants vary fastest, then predicate extents in
lexicographic bitmask order, later signature entries cycling faster), so the
first countermodel found is a stable, reproducible artifact.  A resource
ceiling guards every enumeration; nothing silently explodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping

from .syntax import (
    And,
    Const,
    Eq,
    Exists,
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
    free_vars,
)

DEFAULT_CEILING = 2_000_000
_MISSING = object()


class RecheckError(AssertionError):
    """A verdict failed the independent re-check made before returning it."""


def recheck(ok: bool, what: str) -> None:
    """Raise RecheckError unless ok; unlike assert, stays on under -O."""
    if not ok:
        raise RecheckError(what)


class ResourceCeilingError(Exception):
    """Raised when an enumeration would exceed the configured ceiling."""

    def __init__(self, needed: int, ceiling: int):
        self.needed = needed
        self.ceiling = ceiling
        super().__init__(
            f"enumeration needs {needed} interpretations, ceiling is {ceiling}"
        )


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
    """Truth of f in m under an assignment of the free variables."""
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
    bits = sum(size**arity for _, arity in sig.predicates)
    return (1 << bits) * size ** len(sig.constants)


def enumerate_models(
    sig: Signature, size: int, ceiling: int | None = None
) -> Iterator[FiniteModel]:
    """All interpretations of sig on {0..size-1}, exactly once, in order."""
    if size < 1:
        raise ValueError("universe must be nonempty")
    limit = DEFAULT_CEILING if ceiling is None else ceiling
    needed = count_models(sig, size)
    if needed > limit:
        raise ResourceCeilingError(needed, limit)
    names = [name for name, _ in sig.predicates]
    tuple_lists = [
        list(product(range(size), repeat=arity)) for _, arity in sig.predicates
    ]
    mask_ranges = [range(1 << len(ts)) for ts in tuple_lists]
    const_ranges = [range(size)] * len(sig.constants)
    for combo in product(*mask_ranges, *const_ranges):
        masks = combo[: len(names)]
        cvals = combo[len(names):]
        preds = {
            name: frozenset(
                ts[i] for i in range(len(ts)) if (mask >> i) & 1
            )
            for name, ts, mask in zip(names, tuple_lists, masks)
        }
        yield FiniteModel(
            size=size,
            constants=dict(zip(sig.constants, cvals)),
            predicates=preds,
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
    false under it.  The countermodel returned is the first in enumeration
    order (smallest size first, assignments varying fastest) and is
    re-checked by evaluate before being returned.
    """
    if bound is None:
        bound = default_bound(sig)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    frees = sorted(
        frozenset().union(*(free_vars(p) for p in premises), free_vars(conclusion))
        if premises
        else free_vars(conclusion)
    )
    for size in range(1, bound + 1):
        hit = _scan(sig, premises, conclusion, frees, size, ceiling)
        if hit is not None:
            model, env = hit
            recheck(
                all(evaluate(p, model, env) for p in premises)
                and not evaluate(conclusion, model, env),
                "countermodel must satisfy the premises and refute the conclusion",
            )
            return Countermodel(model, env)
    return HoldsUpTo(bound)


def _scan(sig, premises, conclusion, frees, size, ceiling):
    for model in enumerate_models(sig, size, ceiling):
        for assignment in product(range(size), repeat=len(frees)):
            env = dict(zip(frees, assignment))
            if all(evaluate(p, model, env) for p in premises) and not evaluate(
                conclusion, model, env
            ):
                return model, env
    return None
