"""Formula AST, signatures, and the operations that keep them honest.

Terms are variables or constants only; there are no function symbols of
positive arity.  Formulas are immutable dataclasses compared structurally.
A parsed formula shares its equal subtrees (see `parser`), and
`rename_apart` keeps each node it does not change, so `is` never tells two
occurrences of a subformula apart: walkers look at structure, not identity.

One walk, `facts`, finds what a formula mentions: its predicates with
their arities, constants, free variables, names, quantifier depth, use of
equality and size.  `free_vars`, `predicates_of` and the other readers are
one-line reads of it, and a caller that needs several facts of a formula
takes them from one call.  The walk keeps an explicit stack, so no depth of
nesting overflows the interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Union


# ---------------------------------------------------------------- terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Var, Const]


# ------------------------------------------------------------- formulas


@dataclass(frozen=True)
class Verum:
    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Falsum:
    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Pred:
    name: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Not:
    body: "Formula"

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"

    def __str__(self) -> str:
        return render(self)


Formula = Union[
    Verum, Falsum, Pred, Eq, Not, And, Or, Implies, Iff, Forall, Exists
]

BINARY = (And, Or, Implies, Iff)
QUANTIFIERS = (Forall, Exists)


# ------------------------------------------------------------ signature


@dataclass(frozen=True)
class Signature:
    """Ordered symbol table: predicates with arity, constants, equality flag."""

    predicates: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()
    equality: bool = False

    def __post_init__(self) -> None:
        names = [n for n, _ in self.predicates] + list(self.constants)
        if len(names) != len(set(names)):
            raise ValueError("signature names must be pairwise distinct")
        for name, arity in self.predicates:
            if arity < 0:
                raise ValueError(f"negative arity for {name}")

    def arity(self, name: str) -> int | None:
        for n, a in self.predicates:
            if n == name:
                return a
        return None

    def is_constant(self, name: str) -> bool:
        return name in self.constants

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.predicates) | frozenset(self.constants)

    def unary_predicates(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.predicates if a == 1)

    def max_arity(self) -> int:
        return max((a for _, a in self.predicates), default=0)

    def to_dsl(self) -> str:
        lines = ["sig {"]
        for name, arity in self.predicates:
            lines.append(f"  pred {name}/{arity};")
        for name in self.constants:
            lines.append(f"  const {name};")
        if self.equality:
            lines.append("  equality;")
        lines.append("}")
        return "\n".join(lines)


# ----------------------------------------------------------- traversals


class Facts(NamedTuple):
    """What one walk of a formula finds.

    preds maps each predicate to the arities it is applied at, and consts
    lists the constants, both in order of first occurrence in pre-order.
    names holds every variable, constant and binder name.  depth is the
    deepest quantifier nesting, equality whether `=` occurs, and nodes the
    number of formula nodes (terms are not counted).
    """

    preds: dict[str, set[int]]
    consts: tuple[str, ...]
    frees: frozenset[str]
    names: frozenset[str]
    depth: int
    equality: bool
    nodes: int

    def arities(self) -> dict[str, int]:
        """Each predicate with its one arity; ValueError naming the first
        predicate, in order of first occurrence, applied at two."""
        out: dict[str, int] = {}
        for name, arities in self.preds.items():
            if len(arities) > 1:
                raise ValueError(f"inconsistent arity for {name}")
            out[name] = next(iter(arities))
        return out


def facts(f: Formula) -> Facts:
    """The Facts of f, from one pre-order walk, left operand first, with an
    explicit stack.  TypeError on a non-formula."""
    preds: dict[str, set[int]] = {}
    consts: dict[str, None] = {}
    frees: set[str] = set()
    names: set[str] = set()
    depth = 0
    equality = False
    nodes = 0
    stack: list[tuple[Formula, frozenset[str], int]] = [(f, frozenset(), 0)]
    while stack:
        g, bound, level = stack.pop()
        nodes += 1
        if isinstance(g, BINARY):
            stack.append((g.right, bound, level))
            stack.append((g.left, bound, level))
        elif isinstance(g, (Pred, Eq)):
            if isinstance(g, Pred):
                preds.setdefault(g.name, set()).add(len(g.args))
                terms = g.args
            else:
                equality = True
                terms = (g.left, g.right)
            for t in terms:
                names.add(t.name)
                if isinstance(t, Const):
                    consts[t.name] = None
                elif t.name not in bound:
                    frees.add(t.name)
        elif isinstance(g, Not):
            stack.append((g.body, bound, level))
        elif isinstance(g, QUANTIFIERS):
            depth = max(depth, level + 1)
            names.add(g.var)
            stack.append((g.body, bound | {g.var}, level + 1))
        elif not isinstance(g, (Verum, Falsum)):
            raise TypeError(f"not a formula: {g!r}")
    return Facts(
        preds,
        tuple(consts),
        frozenset(frees),
        frozenset(names),
        depth,
        equality,
        nodes,
    )


def free_vars(f: Formula) -> frozenset[str]:
    """The variables of f that no quantifier above them binds."""
    return facts(f).frees


def predicates_of(f: Formula) -> dict[str, int]:
    """Predicate symbols used in f with their observed arity."""
    return facts(f).arities()


def uses_equality(f: Formula) -> bool:
    return facts(f).equality


def all_names(f: Formula) -> frozenset[str]:
    """Every variable, constant, and binder name occurring anywhere in f."""
    return facts(f).names


# --------------------------------------------------------- substitution


def fresh_name(base: str, avoid: set[str] | frozenset[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def _subst_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var) and t.name in mapping:
        return mapping[t.name]
    return t


def subst(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
    if not mapping:
        return f
    if isinstance(f, (Verum, Falsum)):
        return f
    if isinstance(f, Pred):
        return Pred(f.name, tuple(_subst_term(t, mapping) for t in f.args))
    if isinstance(f, Eq):
        return Eq(_subst_term(f.left, mapping), _subst_term(f.right, mapping))
    if isinstance(f, Not):
        return Not(subst(f.body, mapping))
    if isinstance(f, BINARY):
        return type(f)(subst(f.left, mapping), subst(f.right, mapping))
    if isinstance(f, QUANTIFIERS):
        inner = {v: t for v, t in mapping.items() if v != f.var}
        if not inner:
            return f
        clashing = {
            t.name for t in inner.values() if isinstance(t, Var)
        }
        var = f.var
        body = f.body
        if var in clashing:
            avoid = set(clashing) | set(all_names(body)) | set(inner)
            var = fresh_name(f.var, avoid)
            body = subst(body, {f.var: Var(var)})
        return type(f)(var, subst(body, inner))
    raise TypeError(f"not a formula: {f!r}")


def rename_apart(
    f: Formula, reserved: set[str] | frozenset[str] = frozenset()
) -> Formula:
    """Rename binders so all bound names are distinct from each other, from
    free variables, and from `reserved`.  Names are kept when already unique;
    clashes get the smallest fresh suffix, deterministically in pre-order.
    """
    fx = facts(f)
    # A binder is renamed when its name is taken (free in f, reserved, or
    # given to an earlier binder), to one that is neither used (a name of
    # f, or given) nor reserved.  `reserved` is copied only for a binder
    # that is renamed, so a call that renames nothing costs no more for a
    # large one.  Every name in `taken` is also in `used`: every free
    # variable is a name, and each binder joins both.
    used = set(fx.names)
    taken = set(fx.frees)

    # A node whose parts all come back as the same objects, its binder
    # keeping its name, comes back as itself: a call that renames nothing
    # builds nothing, and what it keeps stays shared as it was.
    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, (Verum, Falsum)):
            return g
        if isinstance(g, Pred):
            args = tuple(_rename_term(t, env) for t in g.args)
            if all(a is t for a, t in zip(args, g.args)):
                return g
            return Pred(g.name, args)
        if isinstance(g, Eq):
            left = _rename_term(g.left, env)
            right = _rename_term(g.right, env)
            if left is g.left and right is g.right:
                return g
            return Eq(left, right)
        if isinstance(g, Not):
            body = walk(g.body, env)
            return g if body is g.body else Not(body)
        if isinstance(g, BINARY):
            left = walk(g.left, env)
            right = walk(g.right, env)
            if left is g.left and right is g.right:
                return g
            return type(g)(left, right)
        if isinstance(g, QUANTIFIERS):
            if g.var in taken or g.var in reserved:
                name = fresh_name(g.var, used.union(reserved))
            else:
                name = g.var
            taken.add(name)
            used.add(name)
            body = walk(g.body, {**env, g.var: name})
            if name == g.var and body is g.body:
                return g
            return type(g)(name, body)
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {})


def _rename_term(t: Term, env: dict[str, str]) -> Term:
    if isinstance(t, Var):
        name = env.get(t.name, t.name)
        if name != t.name:
            return Var(name)
    return t


# ------------------------------------------------------------ rendering

# Precedence: ! binds tightest, then & then | then -> then <->.
# -> and <-> associate to the right; quantifier bodies extend maximally right.
_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5
_PREC_ATOM = 6


def render(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, ctx: int) -> str:
    if isinstance(f, Verum):
        return "true"
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Pred):
        return f"{f.name}({', '.join(str(t) for t in f.args)})"
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        return "!" + _render(f.body, _PREC_NOT)
    if isinstance(f, And):
        s = _render(f.left, _PREC_AND) + " & " + _render(f.right, _PREC_AND + 1)
        return f"({s})" if _PREC_AND < ctx else s
    if isinstance(f, Or):
        s = _render(f.left, _PREC_OR) + " | " + _render(f.right, _PREC_OR + 1)
        return f"({s})" if _PREC_OR < ctx else s
    if isinstance(f, Implies):
        s = (
            _render(f.left, _PREC_IMPLIES + 1)
            + " -> "
            + _render(f.right, _PREC_IMPLIES)
        )
        return f"({s})" if _PREC_IMPLIES < ctx else s
    if isinstance(f, Iff):
        s = _render(f.left, _PREC_IFF + 1) + " <-> " + _render(f.right, _PREC_IFF)
        return f"({s})" if _PREC_IFF < ctx else s
    if isinstance(f, Forall):
        s = f"forall {f.var}. " + _render(f.body, 0)
        return f"({s})" if ctx > 0 else s
    if isinstance(f, Exists):
        s = f"exists {f.var}. " + _render(f.body, 0)
        return f"({s})" if ctx > 0 else s
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------------- builders


def big_and(parts: list[Formula] | tuple[Formula, ...]) -> Formula:
    if not parts:
        return Verum()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def big_or(parts: list[Formula] | tuple[Formula, ...]) -> Formula:
    if not parts:
        return Falsum()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def conjuncts(f: Formula) -> list[Formula]:
    """Flatten nested conjunctions into a left-to-right list, by an
    explicit stack."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


# ------------------------------------------------- normal form and size


def nnf(f: Formula) -> Formula:
    """Negation normal form: no -> or <->, negation only on atoms."""
    if isinstance(f, (Verum, Falsum, Pred, Eq)):
        return f
    if isinstance(f, Not):
        return _neg(f.body)
    if isinstance(f, And):
        return And(nnf(f.left), nnf(f.right))
    if isinstance(f, Or):
        return Or(nnf(f.left), nnf(f.right))
    if isinstance(f, Implies):
        return Or(_neg(f.left), nnf(f.right))
    if isinstance(f, Iff):
        return And(
            Or(_neg(f.left), nnf(f.right)), Or(_neg(f.right), nnf(f.left))
        )
    if isinstance(f, Forall):
        return Forall(f.var, nnf(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, nnf(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _neg(f: Formula) -> Formula:
    if isinstance(f, Verum):
        return Falsum()
    if isinstance(f, Falsum):
        return Verum()
    if isinstance(f, (Pred, Eq)):
        return Not(f)
    if isinstance(f, Not):
        return nnf(f.body)
    if isinstance(f, And):
        return Or(_neg(f.left), _neg(f.right))
    if isinstance(f, Or):
        return And(_neg(f.left), _neg(f.right))
    if isinstance(f, Implies):
        return And(nnf(f.left), _neg(f.right))
    if isinstance(f, Iff):
        return Or(
            And(nnf(f.left), _neg(f.right)), And(_neg(f.left), nnf(f.right))
        )
    if isinstance(f, Forall):
        return Exists(f.var, _neg(f.body))
    if isinstance(f, Exists):
        return Forall(f.var, _neg(f.body))
    raise TypeError(f"not a formula: {f!r}")


def quantifier_depth(f: Formula) -> int:
    """Deepest nesting of quantifiers in f."""
    return facts(f).depth


def node_count(f: Formula) -> int:
    """Number of formula nodes; term nodes are not counted."""
    return facts(f).nodes
