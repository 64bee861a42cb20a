"""Independent checker: its own formula form, evaluator, text reader and
model enumerators.

Nothing here calls into porphyry's reasoning code.  Formulas are nested
tuples, written out as porphyry source text by `text`, so the library only
ever sees text or the AST its own parser produced, and every expected
answer comes either from how an input was built or from brute force over
models built here.  Library results are read through `from_lib`, which
copies the public dataclass fields of porphyry's AST into tuples.

Formula tuples:
    ("true",) ("false",) ("pred", name, (term, ...)) ("eq", t, u)
    ("not", f) ("and", f, g) ("or", f, g) ("imp", f, g) ("iff", f, g)
    ("all", var, f) ("ex", var, f)
A term is a name; a name bound in the environment is a variable, any other
name is looked up among the model's constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count, product

class Mismatch(Exception):
    """An answer that differs from the expected one."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


# ------------------------------------------------------------- building


def pred(name, *args):
    return ("pred", name, tuple(args))


def neg(f):
    return ("not", f)


def conj(parts):
    parts = list(parts)
    if not parts:
        return ("true",)
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def disj(parts):
    parts = list(parts)
    if not parts:
        return ("false",)
    out = parts[0]
    for p in parts[1:]:
        out = ("or", out, p)
    return out


def cell_formula(cell, preds, var):
    """Full cell: every predicate of `preds` fixed by the bits of `cell`."""
    return conj(
        pred(p, var) if (cell >> i) & 1 else neg(pred(p, var))
        for i, p in enumerate(preds)
    )


_TEXT_OPS = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def text(f) -> str:
    """porphyry source text for f, parenthesised so precedence never matters."""
    tag = f[0]
    if tag == "true":
        return "true"
    if tag == "false":
        return "false"
    if tag == "pred":
        return f"{f[1]}({', '.join(f[2])})" if f[2] else f[1]
    if tag == "eq":
        return f"{f[1]} = {f[2]}"
    if tag == "not":
        return "!" + _wrap(f[1])
    if tag in _TEXT_OPS:
        return f"{_wrap(f[1])} {_TEXT_OPS[tag]} {_wrap(f[2])}"
    word = "forall" if tag == "all" else "exists"
    return f"{word} {f[1]}. {_wrap(f[2])}"


def _wrap(f) -> str:
    return text(f) if f[0] in ("true", "false", "pred") else f"({text(f)})"


# ----------------------------------------------------------- inspection


def walk(f):
    """Every node of f, in pre-order."""
    yield f
    tag = f[0]
    if tag == "not":
        yield from walk(f[1])
    elif tag in _TEXT_OPS:
        yield from walk(f[1])
        yield from walk(f[2])
    elif tag in ("all", "ex"):
        yield from walk(f[2])


def preds_of(f) -> set:
    return {g[1] for g in walk(f) if g[0] == "pred"}


def node_count(f) -> int:
    return sum(1 for _ in walk(f))


def nnf_size(f, positive=True) -> int:
    """Node count of f's negation normal form (-> and <-> expanded,
    negation pushed onto atoms), without building it."""
    tag = f[0]
    if tag in ("pred", "eq"):
        return 1 if positive else 2
    if tag in ("true", "false"):
        return 1
    if tag == "not":
        return nnf_size(f[1], not positive)
    if tag in ("and", "or"):
        return 1 + nnf_size(f[1], positive) + nnf_size(f[2], positive)
    if tag == "imp":
        return 1 + nnf_size(f[1], not positive) + nnf_size(f[2], positive)
    if tag == "iff":
        a = nnf_size(f[1], True) + nnf_size(f[1], False)
        b = nnf_size(f[2], True) + nnf_size(f[2], False)
        return 3 + a + b
    return 1 + nnf_size(f[2], positive)


def rename_bound(f, names, env=None):
    """f with each bound variable renamed to the next of `names`."""
    env = {} if env is None else env
    tag = f[0]
    if tag == "pred":
        return ("pred", f[1], tuple(env.get(t, t) for t in f[2]))
    if tag == "eq":
        return ("eq", env.get(f[1], f[1]), env.get(f[2], f[2]))
    if tag == "not":
        return ("not", rename_bound(f[1], names, env))
    if tag in _TEXT_OPS:
        return (tag, rename_bound(f[1], names, env), rename_bound(f[2], names, env))
    if tag in ("all", "ex"):
        name = next(names)
        return (tag, name, rename_bound(f[2], names, {**env, f[1]: name}))
    return f


def canon(f):
    """f with bound variables renamed b0, b1, ... in order of binding, so
    alpha-equivalent formulas compare equal."""
    return rename_bound(f, (f"b{i}" for i in count()))


def conjunct_list(f) -> list:
    if f[0] == "and":
        return conjunct_list(f[1]) + conjunct_list(f[2])
    return [f]


_LIB_BINARY = {"And": "and", "Or": "or", "Implies": "imp", "Iff": "iff"}


def from_lib(g):
    """Copy a porphyry AST node into the tuple form, by its public fields."""
    kind = type(g).__name__
    if kind == "Verum":
        return ("true",)
    if kind == "Falsum":
        return ("false",)
    if kind == "Pred":
        return ("pred", g.name, tuple(t.name for t in g.args))
    if kind == "Eq":
        return ("eq", g.left.name, g.right.name)
    if kind == "Not":
        return ("not", from_lib(g.body))
    if kind in _LIB_BINARY:
        return (_LIB_BINARY[kind], from_lib(g.left), from_lib(g.right))
    if kind in ("Forall", "Exists"):
        return ("all" if kind == "Forall" else "ex", g.var, from_lib(g.body))
    raise TypeError(f"not a formula node: {g!r}")


# ------------------------------------------------------------ evaluation


@dataclass(frozen=True)
class Model:
    size: int
    preds: dict = field(default_factory=dict)
    consts: dict = field(default_factory=dict)


def model_of(m) -> Model:
    """The tuple-free view of a porphyry FiniteModel (public fields only)."""
    return Model(m.size, {k: set(v) for k, v in m.predicates.items()}, dict(m.constants))


def holds(f, m: Model, env=None, defs=None) -> bool:
    """Truth of f in m.  `defs` maps a defined predicate to (params, body);
    an application is evaluated by evaluating the body, never by unfolding."""
    return _ev(f, m, dict(env or {}), defs or {})


def _val(t, m, env):
    if t in env:
        return env[t]
    return m.consts[t]


def _ev(f, m, env, defs):
    tag = f[0]
    if tag == "pred":
        args = tuple(_val(t, m, env) for t in f[2])
        if f[1] in defs:
            params, body = defs[f[1]]
            return _ev(body, m, dict(zip(params, args)), defs)
        return args in m.preds.get(f[1], ())
    if tag == "not":
        return not _ev(f[1], m, env, defs)
    if tag == "and":
        return _ev(f[1], m, env, defs) and _ev(f[2], m, env, defs)
    if tag == "or":
        return _ev(f[1], m, env, defs) or _ev(f[2], m, env, defs)
    if tag == "imp":
        return (not _ev(f[1], m, env, defs)) or _ev(f[2], m, env, defs)
    if tag == "iff":
        return _ev(f[1], m, env, defs) == _ev(f[2], m, env, defs)
    if tag in ("all", "ex"):
        var, body = f[1], f[2]
        saved = env.get(var)
        want = tag == "ex"
        result = not want
        for e in range(m.size):
            env[var] = e
            if _ev(body, m, env, defs) == want:
                result = want
                break
        if saved is None:
            env.pop(var, None)
        else:
            env[var] = saved
        return result
    if tag == "eq":
        return _val(f[1], m, env) == _val(f[2], m, env)
    if tag == "true":
        return True
    if tag == "false":
        return False
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------- cell-pattern oracle


def cell_models(preds, relevant, free_cells=0):
    """Models covering every truth value of a monadic formula that reads
    the inhabitation of the cells in `relevant` and the cells of
    `free_cells` free variables, and nothing else.

    Yields (model, cells of the free variables).  One element per inhabited
    relevant cell, one per free variable outside them, and a filler element
    from an irrelevant cell when the universe would otherwise be empty.
    """
    k = len(preds)
    relevant = sorted(relevant)
    filler = next((c for c in range(1 << k) if c not in relevant), None)
    for bits in product((False, True), repeat=len(relevant)):
        on = [c for c, b in zip(relevant, bits) if b]
        for xcells in product(range(1 << k), repeat=free_cells):
            if any(c in relevant and c not in on for c in xcells):
                continue
            cells = list(on)
            for c in xcells:
                if c not in cells:
                    cells.append(c)
            if not cells:
                if filler is None:
                    continue
                cells.append(filler)
            ext = {p: set() for p in preds}
            for e, c in enumerate(cells):
                for i, p in enumerate(preds):
                    if (c >> i) & 1:
                        ext[p].add((e,))
            yield Model(len(cells), ext, {}), tuple(cells.index(c) for c in xcells)


@dataclass(frozen=True)
class CellSpace:
    """The models `cell_models` gives, for formulas over one free variable
    (or none) built from literals on it and cell atoms in `relevant`."""

    preds: tuple
    relevant: frozenset
    free: str | None = None

    def points(self):
        n = 0 if self.free is None else 1
        for m, xs in cell_models(self.preds, self.relevant, n):
            yield m, ({self.free: xs[0]} if xs else {})

    def entails(self, f, g, defs=None) -> bool:
        return all(
            holds(g, m, env, defs)
            for m, env in self.points()
            if holds(f, m, env, defs)
        )

    def equivalent(self, f, g, defs=None) -> bool:
        return all(
            holds(f, m, env, defs) == holds(g, m, env, defs)
            for m, env in self.points()
        )

    def satisfiable(self, f, defs=None) -> bool:
        return any(holds(f, m, env, defs) for m, env in self.points())


# ------------------------------------------------------ brute enumeration


def all_models(sig_preds, sig_consts, size):
    """Every interpretation of the signature on {0..size-1}."""
    spaces = [list(product(range(size), repeat=a)) for _, a in sig_preds]
    names = [n for n, _ in sig_preds]
    for masks in product(*[range(1 << len(s)) for s in spaces]):
        ext = {
            n: {t for i, t in enumerate(s) if (mask >> i) & 1}
            for n, s, mask in zip(names, spaces, masks)
        }
        for cv in product(range(size), repeat=len(sig_consts)):
            yield Model(size, ext, dict(zip(sig_consts, cv)))


def first_countermodel_size(sig_preds, sig_consts, premises, conclusion, frees, bound):
    """Smallest universe size with a countermodel, or None up to bound."""
    for size in range(1, bound + 1):
        for m in all_models(sig_preds, sig_consts, size):
            for vals in product(range(size), repeat=len(frees)):
                env = dict(zip(frees, vals))
                if all(holds(p, m, env) for p in premises) and not holds(
                    conclusion, m, env
                ):
                    return size
    return None


# ---------------------------------------------------------------- magma


def magma_axioms(max_size):
    """Index sets of the operation tables satisfying each demo axiom, in the
    order the demo lists tables: by carrier size, then lexicographically."""
    out = {"Assoc": set(), "HasId": set(), "HasInv": set(), "Comm": set()}
    idx = 0
    for n in range(1, max_size + 1):
        dom = range(n)
        for flat in product(dom, repeat=n * n):
            op = [flat[i * n : (i + 1) * n] for i in dom]
            if all(op[op[a][b]][c] == op[a][op[b][c]] for a in dom for b in dom for c in dom):
                out["Assoc"].add(idx)
            ids = [e for e in dom if all(op[e][a] == a == op[a][e] for a in dom)]
            if ids:
                out["HasId"].add(idx)
                e = ids[0]
                if all(any(op[a][b] == e == op[b][a] for b in dom) for a in dom):
                    out["HasInv"].add(idx)
            if all(op[a][b] == op[b][a] for a in dom for b in dom):
                out["Comm"].add(idx)
            idx += 1
    return out, idx


# ----------------------------------------------------------- text reader

_TOKEN = re.compile(r"\s*(<->|->|[A-Za-z_][A-Za-z0-9_']*|\d+|[()!&|.,={};/])")


def _tokens(s):
    pos, out = 0, []
    s = re.sub(r"#[^\n]*", "", s)
    while pos < len(s):
        if s[pos:].strip() == "":
            break
        m = _TOKEN.match(s, pos)
        if m is None:
            raise ValueError(f"cannot read {s[pos:pos + 20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, s):
        self.t = _tokens(s)
        self.i = 0

    def peek(self):
        return self.t[self.i] if self.i < len(self.t) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def formula(self):
        left = self.implication()
        if self.peek() == "<->":
            self.take()
            return ("iff", left, self.formula())
        return left

    def implication(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.implication())
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.peek() == "|":
            self.take()
            out = ("or", out, self.conjunction())
        return out

    def conjunction(self):
        out = self.unary()
        while self.peek() == "&":
            self.take()
            out = ("and", out, self.unary())
        return out

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return ("not", self.unary())
        if tok in ("forall", "exists"):
            self.take()
            var = self.take()
            self.take(".")
            return ("all" if tok == "forall" else "ex", var, self.formula())
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok == "true":
            self.take()
            return ("true",)
        if tok == "false":
            self.take()
            return ("false",)
        name = self.take()
        if self.peek() == "(":
            self.take()
            args = [] if self.peek() == ")" else [self.take()]
            while self.peek() == ",":
                self.take()
                args.append(self.take())
            self.take(")")
            return ("pred", name, tuple(args))
        if self.peek() == "=":
            self.take()
            return ("eq", name, self.take())
        return ("pred", name, ())


def read_formula(s):
    r = _Reader(s)
    f = r.formula()
    if r.peek() is not None:
        raise ValueError(f"trailing {r.peek()!r}")
    return f


def read_model(s):
    """A `model NAME { universe N; SYM = {...}; ... }` block, as a Model."""
    m = re.search(r"model\s+\w+\s*\{(.*)\}", s, re.S)
    if m is None:
        raise ValueError("no model block")
    body = re.sub(r"#[^\n]*", "", m.group(1))
    size = int(re.search(r"universe\s+(\d+)\s*;", body).group(1))
    preds = {}
    for name, inner in re.findall(r"(\w+)\s*=\s*\{([^{}]*)\}\s*;", body):
        tuples = re.findall(r"\(([^()]*)\)", inner)
        if tuples:
            preds[name] = {
                tuple(int(x) for x in t.replace(",", " ").split()) for t in tuples
            }
        else:
            preds[name] = {(int(x),) for x in inner.replace(",", " ").split()}
    return Model(size, preds)


def read_defs(s):
    """`def NAME(x, ...) := body;` lines, as {name: (params, body)} in order."""
    out = {}
    for name, params, body in re.findall(
        r"def\s+(\w+)\s*\(([^)]*)\)\s*:=\s*([^;]*);", s
    ):
        out[name] = (tuple(p.strip() for p in params.split(",") if p.strip()), read_formula(body))
    return out
