"""Formula AST, signatures, and the operations that keep them honest.

Terms are variables or constants only; there are no function symbols of
positive arity.  Terms and formulas are frozen, slotted dataclasses,
compared and hashed by their fields: a node has no `__dict__`, so it is
smaller and quicker to build, and the garbage collector has less to
traverse in a heap of parsed definitions.  Each has one more slot, for
weak references, from its base `_Weak`.  Parsed formulas share their equal
subtrees, within a parse and across parses (see `parser`), and
`rename_apart` keeps each node it does not change, so `is` never tells two
occurrences of a subformula apart: walkers look at structure, not
identity.  The parser finds the live node it already built
for an equal subtree in one table for the process, which holds its nodes
weakly and keys each by the class's name, the node's names and its
children's ids: a key of strings and ints, with no class object in it, is
one the garbage collector stops tracking, and a node that dies drops it.

The concrete syntax is declared once, in three tables: `CONNECTIVES` gives
each binary connective's symbol, binding power and associativity,
`KEYWORD_OF` the keyword of each quantifier and truth constant, and `DUALS`
the dual of each under negation.  The parser, `render`, `nnf` and the
monadic normal form read them.  `nnf` rewrites each distinct node once per
polarity and shares the results, and `node_count` visits each distinct node
once, so neither blows up on a chain of `<->`.

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


class _Weak:
    """The base of terms, formula nodes and definitions: its one slot is the
    one a weak reference needs, as the parser's node table holds them."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Var(_Weak):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const(_Weak):
    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Var, Const]


# ------------------------------------------------------------- formulas


class _Node(_Weak):
    """A formula node: its str is its text in the DSL."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Verum(_Node):
    """The formula `true`."""


@dataclass(frozen=True, slots=True)
class Falsum(_Node):
    """The formula `false`."""


@dataclass(frozen=True, slots=True)
class Pred(_Node):
    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists(_Node):
    var: str
    body: "Formula"


Formula = Union[
    Verum, Falsum, Pred, Eq, Not, And, Or, Implies, Iff, Forall, Exists
]

BINARY = (And, Or, Implies, Iff)
QUANTIFIERS = (Forall, Exists)

# The concrete syntax, declared once: the parser, `render`, `nnf` and the
# monadic normal form read these tables.  Each binary connective has its
# symbol, its binding power (loosest first) and whether it associates to the
# right, as the two arrows do.  `!` binds tighter than all of them, and a
# quantifier's body extends as far right as it can.
CONNECTIVES = {
    Iff: ("<->", 1, True),
    Implies: ("->", 2, True),
    Or: ("|", 3, False),
    And: ("&", 4, False),
}
# The keyword of each quantifier and truth constant.
KEYWORD_OF = {Forall: "forall", Exists: "exists", Verum: "true", Falsum: "false"}
# The dual under negation: !(a & b) is !a | !b, !forall is exists !, and
# !true is false.
DUALS = {
    And: Or, Or: And, Forall: Exists, Exists: Forall, Verum: Falsum, Falsum: Verum
}


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


def render(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, ctx: int) -> str:
    """f as DSL text, parenthesized when it binds looser than `ctx`: the
    binding power its place asks for, 0 for a place that takes any formula."""
    if isinstance(f, Pred):
        return f"{f.name}({', '.join([t.name for t in f.args])})"
    if isinstance(f, BINARY):
        symbol, power, right_assoc = CONNECTIVES[type(f)]
        left = _render(f.left, power + right_assoc)
        s = f"{left} {symbol} {_render(f.right, power + 1 - right_assoc)}"
        return f"({s})" if power < ctx else s
    if isinstance(f, Not):
        # Tighter than every binary connective.
        return "!" + _render(f.body, len(CONNECTIVES) + 1)
    if isinstance(f, QUANTIFIERS):
        s = f"{KEYWORD_OF[type(f)]} {f.var}. " + _render(f.body, 0)
        return f"({s})" if ctx > 0 else s
    if isinstance(f, Eq):
        return f"{f.left.name} = {f.right.name}"
    if isinstance(f, (Verum, Falsum)):
        return KEYWORD_OF[type(f)]
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
    """Negation normal form: no -> or <->, negation only on atoms.  Each
    distinct node of f is rewritten once per polarity, and the results are
    shared, so a chain of `<->` gives a form linear in its length."""
    # One memo per polarity, by id, each entry holding the node it keys.
    # Atoms are rewritten where they occur, without one.
    memos: tuple[dict, dict] = ({}, {})

    def walk(g: Formula, positive: bool) -> Formula:
        """g under an even (positive) or odd number of negations."""
        if isinstance(g, (Pred, Eq)):
            return g if positive else Not(g)
        memo = memos[positive]
        if id(g) in memo:
            return memo[id(g)][1]
        # Its own class, or under a negation its dual, if it has one.
        cls = type(g) if positive else DUALS.get(type(g))
        if isinstance(g, Not):
            out = walk(g.body, not positive)
        elif isinstance(g, (And, Or)):
            out = cls(walk(g.left, positive), walk(g.right, positive))
        elif isinstance(g, Implies):
            # !a | b, and a & !b under a negation.
            cls = Or if positive else And
            out = cls(walk(g.left, not positive), walk(g.right, positive))
        elif isinstance(g, Iff):
            # (!a | b) & (!b | a), and (a & !b) | (!a & b) under a negation.
            a, na = walk(g.left, True), walk(g.left, False)
            b, nb = walk(g.right, True), walk(g.right, False)
            out = And(Or(na, b), Or(nb, a)) if positive else Or(And(a, nb), And(na, b))
        elif isinstance(g, QUANTIFIERS):
            out = cls(g.var, walk(g.body, positive))
        elif isinstance(g, (Verum, Falsum)):
            out = g if positive else cls()
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[id(g)] = g, out
        return out

    return walk(f, True)


def quantifier_depth(f: Formula) -> int:
    """Deepest nesting of quantifiers in f."""
    return facts(f).depth


def node_count(f: Formula) -> int:
    """Number of formula nodes of f as a tree; term nodes are not counted.
    The walk keeps an explicit stack and visits each distinct node once, so
    a form that shares its subtrees, as nnf's does, is counted in time
    linear in its distinct nodes.  TypeError on a non-formula."""
    # By id, holding the node it keys: the tree size of each node counted.
    sizes: dict[int, tuple[Formula, int]] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if isinstance(g, BINARY):
            parts: tuple[Formula, ...] = (g.left, g.right)
        elif isinstance(g, (Not, Forall, Exists)):
            parts = (g.body,)
        elif isinstance(g, (Pred, Eq, Verum, Falsum)):
            parts = ()
        else:
            raise TypeError(f"not a formula: {g!r}")
        todo = [p for p in parts if id(p) not in sizes]
        if todo:
            stack += todo
        else:
            stack.pop()
            sizes[id(g)] = g, 1 + sum(sizes[id(p)][1] for p in parts)
    return sizes[id(f)][1]
