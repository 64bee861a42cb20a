"""Shared oracles and random generators for the test suite.

Everything here is written from first principles so the package is
checked against independent logic rather than against itself.  The one
exception, `count_walks`, is a probe: it counts what the package does and
decides nothing.
"""

import itertools
import random

import porphyry.syntax
from porphyry import (
    And,
    Const,
    ConstantDef,
    DefinitionSystem,
    Eq,
    Exists,
    ExtensionFamily,
    Falsum,
    FiniteModel,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    PredicateDef,
    Signature,
    Var,
    Verum,
)

_MISSING = object()


def term_value(t, model, env):
    if isinstance(t, Var):
        return env[t.name]
    return model.constants[t.name]


def naive_eval(f, model, env=None):
    """Plain recursive truth evaluation, independent of the package's."""
    if env is None:
        env = {}
    if isinstance(f, Verum):
        return True
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Pred):
        args = tuple(term_value(t, model, env) for t in f.args)
        return args in model.predicates.get(f.name, frozenset())
    if isinstance(f, Eq):
        return term_value(f.left, model, env) == term_value(f.right, model, env)
    if isinstance(f, Not):
        return not naive_eval(f.body, model, env)
    if isinstance(f, And):
        return naive_eval(f.left, model, env) and naive_eval(f.right, model, env)
    if isinstance(f, Or):
        return naive_eval(f.left, model, env) or naive_eval(f.right, model, env)
    if isinstance(f, Implies):
        return (not naive_eval(f.left, model, env)) or naive_eval(f.right, model, env)
    if isinstance(f, Iff):
        return naive_eval(f.left, model, env) == naive_eval(f.right, model, env)
    if isinstance(f, (Forall, Exists)):
        keep = env.get(f.var, _MISSING)
        want = isinstance(f, Exists)
        result = not want
        for e in range(model.size):
            env[f.var] = e
            if naive_eval(f.body, model, env) == want:
                result = want
                break
        if keep is _MISSING:
            env.pop(f.var, None)
        else:
            env[f.var] = keep
        return result
    raise TypeError(f"unexpected formula node {f!r}")


def _subsets(space):
    for bits in itertools.product((False, True), repeat=len(space)):
        yield frozenset(t for t, b in zip(space, bits) if b)


def all_models(preds, consts, size):
    """Every model of the signature on carrier 0..size-1, brute force."""
    names = [n for n, _ in preds]
    spaces = [
        list(itertools.product(range(size), repeat=a)) for _, a in preds
    ]
    out = []
    for extents in itertools.product(*[list(_subsets(s)) for s in spaces]):
        for values in itertools.product(range(size), repeat=len(consts)):
            out.append(
                FiniteModel(
                    size, dict(zip(consts, values)), dict(zip(names, extents))
                )
            )
    return out


def weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def canonical_monadic_models(pred_names, max_size):
    """One model per isomorphism class: elements grouped by cell."""
    k = len(pred_names)
    for n in range(1, max_size + 1):
        for counts in weak_compositions(n, 1 << k):
            ext = {p: set() for p in pred_names}
            e = 0
            for cell, cnt in enumerate(counts):
                for _ in range(cnt):
                    for i in range(k):
                        if cell >> i & 1:
                            ext[pred_names[i]].add((e,))
                    e += 1
            yield FiniteModel(
                n, {}, {p: frozenset(v) for p, v in ext.items()}
            )


def random_formula(rng, preds, scope=(), max_q=2, depth=5, consts=()):
    """Random quantified boolean combination of unary atoms, whose
    arguments are variables in scope or the constants `consts`."""

    def term(scope):
        if consts and (not scope or rng.random() < 0.3):
            return Const(rng.choice(consts))
        return Var(rng.choice(scope))

    def leaf(scope):
        if (scope or consts) and rng.random() < 0.8:
            return Pred(rng.choice(preds), (term(scope),))
        return Verum() if rng.random() < 0.5 else Falsum()

    def go(budget, scope, depth):
        if depth == 0 or not preds:
            return leaf(scope)
        opts = []
        if scope or consts:
            opts += ["atom"] * 4
        if budget:
            opts += ["quant"] * 3
        opts += ["const", "not", "not", "bin", "bin", "bin"]
        kind = rng.choice(opts)
        if kind == "atom":
            return Pred(rng.choice(preds), (term(scope),))
        if kind == "quant":
            v = f"v{len(scope)}"
            body = go(budget - 1, scope + [v], depth - 1)
            return rng.choice([Forall, Exists])(v, body)
        if kind == "const":
            return Verum() if rng.random() < 0.5 else Falsum()
        if kind == "not":
            return Not(go(budget, scope, depth - 1))
        op = rng.choice([And, Or, Implies, Iff])
        return op(go(budget, scope, depth - 1), go(budget, scope, depth - 1))

    return go(max_q, list(scope), depth)


def occurring(f, bound=frozenset()):
    """The predicates, constants and free variables of f, as three sets."""
    if isinstance(f, (Pred, Eq)):
        terms = f.args if isinstance(f, Pred) else (f.left, f.right)
        return (
            {f.name} if isinstance(f, Pred) else set(),
            {t.name for t in terms if isinstance(t, Const)},
            {t.name for t in terms if isinstance(t, Var) and t.name not in bound},
        )
    if isinstance(f, (Forall, Exists)):
        return occurring(f.body, bound | {f.var})
    if isinstance(f, Not):
        return occurring(f.body, bound)
    if isinstance(f, (And, Or, Implies, Iff)):
        left, right = occurring(f.left, bound), occurring(f.right, bound)
        return tuple(a | b for a, b in zip(left, right))
    return set(), set(), set()


def first_cell_model(f, unary, constants, max_cells=None):
    """The documented canonical witness of an equality-free unary formula,
    by brute force: (model, assignment), or None when f is unsatisfiable.

    Cells over the k predicates f uses, taken in the order of `unary`, are
    numbered so that bit i is set when the i-th of them holds.  Supports
    (nonempty sets of cells) are tried by number of cells, then value; each
    becomes a model with element i in its i-th lowest cell.  The holders,
    f's sorted free variables and then its constants in the order of
    `constants`, take elements in lexicographic order.  Constants f does not
    use are element 0, predicates of `unary` it does not use are empty.

    max_cells, when given, stops after the supports of that many cells: the
    caller knows that a first witness, if any, has no more.
    """
    used, in_f, frees = occurring(f)
    preds = [p for p in unary if p in used]
    holders = sorted(frees) + [c for c in constants if c in in_f]
    ncells = 1 << len(preds)
    supports = range(1, 1 << ncells)
    if max_cells is not None:
        supports = [s for s in supports if bin(s).count("1") <= max_cells]
    supports = sorted(supports, key=lambda s: (bin(s).count("1"), s))
    for s in supports:
        cells = [c for c in range(ncells) if s >> c & 1]
        extents = {p: frozenset() for p in unary}
        for i, p in enumerate(preds):
            extents[p] = frozenset((e,) for e, c in enumerate(cells) if c >> i & 1)
        for elems in itertools.product(range(len(cells)), repeat=len(holders)):
            value = dict(zip(holders, elems))
            model = FiniteModel(
                len(cells), {c: value.get(c, 0) for c in constants}, extents
            )
            env = {v: value[v] for v in frees}
            if naive_eval(f, model, env):
                return model, env
    return None


def random_monadic_sentence(rng, preds, max_q=2, depth=5):
    return random_formula(rng, preds, scope=(), max_q=max_q, depth=depth)


def random_system(rng, base_preds, n_defs, max_q=1, depth=3):
    """Valid-by-construction system of unary definitions over unary bases."""
    sig = Signature(tuple((p, 1) for p in base_preds), (), False)
    entries = []
    available = list(base_preds)
    for i in range(n_defs):
        name = f"D{i}"
        body = random_formula(
            rng, available, scope=("x",), max_q=max_q, depth=depth
        )
        entries.append(PredicateDef(name, ("x",), body))
        available.append(name)
    return DefinitionSystem(sig, tuple(entries))


MIXED_SIG = Signature((("P", 1), ("Q", 1), ("R", 2), ("Z", 0)), ("c",), True)


def random_mixed_formula(rng, preds, consts, scope, max_q=1, depth=3):
    """Random formula over predicates of any arity (name, arity pairs) and
    `=`, whose terms are variables in scope or the constants `consts`."""

    def term(scope):
        if consts and (not scope or rng.random() < 0.3):
            return Const(rng.choice(consts))
        return Var(rng.choice(scope))

    def atom(scope):
        if not scope and not consts:
            nullary = [name for name, arity in preds if arity == 0]
            if not nullary:
                return Verum()
            return Pred(rng.choice(nullary), ())
        if rng.random() < 0.15:
            return Eq(term(scope), term(scope))
        name, arity = rng.choice(preds)
        return Pred(name, tuple(term(scope) for _ in range(arity)))

    def go(budget, scope, depth):
        if depth == 0:
            return atom(scope)
        kinds = ["atom"] * 3 + ["not", "bin", "bin"]
        if budget:
            kinds += ["quant"] * 2
        kind = rng.choice(kinds)
        if kind == "atom":
            return atom(scope)
        if kind == "quant":
            v = f"v{len(scope)}"
            body = go(budget - 1, scope + [v], depth - 1)
            return rng.choice([Forall, Exists])(v, body)
        if kind == "not":
            return Not(go(budget, scope, depth - 1))
        op = rng.choice([And, Or, Implies, Iff])
        return op(go(budget, scope, depth - 1), go(budget, scope, depth - 1))

    return go(max_q, list(scope), depth)


def random_mixed_system(rng, n_defs, descriptions=True):
    """Valid-by-construction system over MIXED_SIG: predicates of arity 0-2
    with quantified bodies, and constants defined by a term (a base or an
    earlier constant) or, when `descriptions`, by a description, which may
    mention earlier constants and predicates."""
    preds = list(MIXED_SIG.predicates)
    consts = list(MIXED_SIG.constants)
    entries = []
    for i in range(n_defs):
        if rng.random() < 0.3:
            name = f"k{i}"
            if descriptions and rng.random() < 0.6:
                body = random_mixed_formula(rng, preds, consts, ["y"])
            else:
                body = Eq(Var("y"), Const(rng.choice(consts)))
            entries.append(ConstantDef(name, "y", body))
            consts.append(name)
        else:
            name = f"D{i}"
            params = ("x", "y")[: rng.randrange(3)]
            body = random_mixed_formula(rng, preds, consts, list(params))
            entries.append(PredicateDef(name, params, body))
            preds.append((name, len(params)))
    return DefinitionSystem(MIXED_SIG, tuple(entries))


def random_mixed_model(rng, size):
    """Random model of MIXED_SIG on 0..size-1."""
    preds = {
        name: frozenset(
            t
            for t in itertools.product(range(size), repeat=arity)
            if rng.random() < 0.5
        )
        for name, arity in MIXED_SIG.predicates
    }
    return FiniteModel(size, {"c": rng.randrange(size)}, preds)


def inject_fault(rng, d):
    """Plant one reference fault; returns (system, entry index, kind)."""
    entries = list(d.entries)
    kinds = ["self-reference", "name-clash"]
    if len(entries) > 1:
        kinds.append("forward-reference")
    kind = rng.choice(kinds)
    if kind == "self-reference":
        i = rng.randrange(len(entries))
        e = entries[i]
        bad = Or(e.body, Pred(e.name, tuple(Var(p) for p in e.params)))
        entries[i] = PredicateDef(e.name, e.params, bad)
        return DefinitionSystem(d.base, tuple(entries)), i, kind
    if kind == "forward-reference":
        i = rng.randrange(len(entries) - 1)
        j = rng.randrange(i + 1, len(entries))
        e = entries[i]
        bad = Or(e.body, Pred(entries[j].name, (Var(e.params[0]),)))
        entries[i] = PredicateDef(e.name, e.params, bad)
        return DefinitionSystem(d.base, tuple(entries)), i, kind
    h = rng.randrange(len(entries))
    dup = PredicateDef(
        entries[h].name,
        ("x",),
        random_formula(rng, list(d.base.names()), scope=("x",), max_q=0, depth=2),
    )
    entries.append(dup)
    return DefinitionSystem(d.base, tuple(entries)), len(entries) - 1, kind


def _symbol_uses(f, bound=frozenset()):
    """The predicates of f with the arities each is applied at, the
    constants of f, and its free variables."""
    if isinstance(f, Pred):
        preds = {f.name: {len(f.args)}}
        terms = f.args
    elif isinstance(f, Eq):
        preds, terms = {}, (f.left, f.right)
    elif isinstance(f, (Forall, Exists)):
        return _symbol_uses(f.body, bound | {f.var})
    elif isinstance(f, Not):
        return _symbol_uses(f.body, bound)
    elif isinstance(f, (And, Or, Implies, Iff)):
        lp, lc, lf = _symbol_uses(f.left, bound)
        rp, rc, rf = _symbol_uses(f.right, bound)
        for name, arities in rp.items():
            lp[name] = lp.get(name, set()) | arities
        return lp, lc | rc, lf | rf
    else:
        return {}, set(), set()
    consts = {t.name for t in terms if isinstance(t, Const)}
    frees = {t.name for t in terms if isinstance(t, Var) and t.name not in bound}
    return preds, consts, frees


def validation_oracle(d):
    """The violations of a definition system, as (entry, kind, symbol,
    detail) tuples in report order, from the documented rules.

    A name means what its first declaration says: the base signature
    (predicates, then constants) before any entry, and an earlier entry
    before a later one.  An entry whose name is already taken clashes,
    with the base or with an earlier definition; every clash comes first.
    Then each entry in turn: its stray free variables (those beyond its
    parameters, or beyond the variable of a constant's description),
    each predicate applied at two arities, then each other predicate and
    each constant it uses, by name.  A use must name a symbol declared
    somewhere, declared before this entry and not by it, of the same
    kind (predicate or constant), and for a predicate of the same arity.
    """

    def owner(name):
        """(entry, arity) of the first declaration of name; entry -1 for the
        base, arity None for a constant.  None when nothing declares it."""
        for pname, arity in d.base.predicates:
            if pname == name:
                return -1, arity
        if name in d.base.constants:
            return -1, None
        for i, e in enumerate(d.entries):
            if e.name == name:
                return i, len(e.params) if isinstance(e, PredicateDef) else None
        return None

    out = []
    for i, e in enumerate(d.entries):
        first = owner(e.name)[0]
        if first == -1:
            out.append((i, "name-clash", e.name, "clashes with base signature"))
        elif first < i:
            out.append((i, "name-clash", e.name, "duplicate definition"))
    for i, e in enumerate(d.entries):
        preds, consts, frees = _symbol_uses(e.body)
        params = e.params if isinstance(e, PredicateDef) else (e.var,)
        stray = sorted(frees - set(params))
        if stray:
            detail = "stray free variables: " + ", ".join(stray)
            out.append((i, "free-variable-mismatch", e.name, detail))
        uses = []
        for name in sorted(preds):
            if len(preds[name]) > 1:
                detail = "applied with multiple arities"
                out.append((i, "arity-mismatch", name, detail))
            else:
                uses.append((name, min(preds[name])))
        uses += [(name, None) for name in sorted(consts)]
        for name, used in uses:
            found = owner(name)
            if found is None:
                bad = "forward-reference", "symbol not defined anywhere"
            elif found[0] == i:
                bad = "self-reference", "definition mentions itself"
            elif found[0] > i:
                bad = "forward-reference", f"defined later at entry {found[0]}"
            elif found[1] is None and used is not None:
                bad = "arity-mismatch", "constant applied as predicate"
            elif used is None and found[1] is not None:
                bad = "arity-mismatch", "predicate used as term"
            elif used != found[1]:
                how = "declared" if found[0] == -1 else "defined"
                bad = "arity-mismatch", f"{how} /{found[1]}, applied /{used}"
            else:
                continue
            out.append((i, bad[0], name, bad[1]))
    return out


def naive_unfold(f, d):
    """f over the base symbols of a valid system d, by substitution alone,
    from the documented reading.

    An atom of a defined predicate is its body with the arguments
    substituted for the parameters.  A defined constant whose
    description, unfolded, is `v = t` or `t = v` for its variable v and a
    constant t is replaced by t.  Any other defined constant k is read at
    each atom that mentions it, distinct constants in argument order, as
    `exists w. desc_k(w) & atom[w/k]`.  Every binder of a substituted body
    gets a new name `_<n>`, so no substitution captures a variable.
    """
    defs = {e.name: e for e in d.entries}
    counter = itertools.count()

    def substitute(g, mapping):
        if isinstance(g, (Pred, Eq)):
            return replace_terms(
                g, lambda t: mapping.get(t.name, t) if isinstance(t, Var) else t
            )
        if isinstance(g, Not):
            return Not(substitute(g.body, mapping))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(substitute(g.left, mapping), substitute(g.right, mapping))
        if isinstance(g, (Forall, Exists)):
            w = f"_{next(counter)}"
            return type(g)(w, substitute(g.body, {**mapping, g.var: Var(w)}))
        return g

    def term_of(e):
        v = f"_{next(counter)}"
        u = go(substitute(e.body, {e.var: Var(v)}))
        if isinstance(u, Eq):
            sides = (u.left, u.right)
            if Var(v) in sides:
                other = sides[1] if sides[0] == Var(v) else sides[0]
                if isinstance(other, Const):
                    return other
        return None

    def go(g):
        if isinstance(g, (Pred, Eq)):
            terms = g.args if isinstance(g, Pred) else (g.left, g.right)
            for t in terms:
                e = defs.get(t.name) if isinstance(t, Const) else None
                if isinstance(e, ConstantDef):
                    term = term_of(e)
                    w = term if term is not None else Var(f"_{next(counter)}")
                    rest = replace_terms(g, lambda x: w if x == t else x)
                    if term is not None:
                        return go(rest)
                    desc = go(substitute(e.body, {e.var: w}))
                    return Exists(w.name, And(desc, go(rest)))
            e = defs.get(g.name) if isinstance(g, Pred) else None
            if isinstance(e, PredicateDef):
                return go(substitute(e.body, dict(zip(e.params, g.args))))
            return g
        if isinstance(g, Not):
            return Not(go(g.body))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, (Forall, Exists)):
            return type(g)(g.var, go(g.body))
        return g

    return go(f)


def replace_terms(atom, new):
    """The atom with each term t replaced by new(t)."""
    if isinstance(atom, Pred):
        return Pred(atom.name, tuple(map(new, atom.args)))
    return Eq(new(atom.left), new(atom.right))


def alpha_equivalent(f, g, left=None, right=None, depth=0):
    """Whether f and g are the same tree up to the names of bound
    variables: each bound variable is compared by the depth of its
    binder, each free variable by name."""
    left, right = left or {}, right or {}
    if type(f) is not type(g):
        return False

    def same(s, t):
        if isinstance(s, Var) and isinstance(t, Var):
            return left.get(s.name, s.name) == right.get(t.name, t.name)
        return s == t

    if isinstance(f, Pred):
        return (
            f.name == g.name
            and len(f.args) == len(g.args)
            and all(map(same, f.args, g.args))
        )
    if isinstance(f, Eq):
        return same(f.left, g.left) and same(f.right, g.right)
    if isinstance(f, Not):
        return alpha_equivalent(f.body, g.body, left, right, depth)
    if isinstance(f, (And, Or, Implies, Iff)):
        return all(
            alpha_equivalent(a, b, left, right, depth)
            for a, b in ((f.left, g.left), (f.right, g.right))
        )
    if isinstance(f, (Forall, Exists)):
        return alpha_equivalent(
            f.body, g.body, {**left, f.var: depth}, {**right, g.var: depth}, depth + 1
        )
    return True


def random_raw_system(rng):
    """A definition system drawn with no regard for the rules: a few base
    symbols and entries over one small pool of names, whose bodies apply
    and mention any name of it at arities 0-2, with stray variables."""
    names = ["P", "Q", "R", "c", "d", "A", "B", "e", "x"]
    variables = ["x", "y", "z"]
    pool = rng.sample(names, len(names))
    npreds = rng.randrange(4)
    base = Signature(
        tuple((pool[i], rng.choice([0, 1, 1, 2])) for i in range(npreds)),
        tuple(pool[npreds : npreds + rng.randrange(3)]),
        True,
    )

    def term(scope):
        if rng.random() < 0.5:
            return Var(rng.choice(scope + variables[:1]))
        return Const(rng.choice(names))

    def body(scope, depth):
        r = rng.random()
        if depth == 0 or r < 0.35:
            if r < 0.05:
                return Eq(term(scope), term(scope))
            arity = rng.choice([0, 1, 1, 2])
            return Pred(rng.choice(names), tuple(term(scope) for _ in range(arity)))
        if r < 0.5:
            return Not(body(scope, depth - 1))
        if r < 0.65:
            v = rng.choice(variables)
            return rng.choice([Forall, Exists])(v, body(scope + [v], depth - 1))
        op = rng.choice([And, Or, Implies, Iff])
        return op(body(scope, depth - 1), body(scope, depth - 1))

    entries = []
    for _ in range(rng.randrange(6)):
        name = rng.choice(names)
        if rng.random() < 0.75:
            params = tuple(rng.sample(variables, rng.choice([0, 1, 1, 2])))
            entries.append(PredicateDef(name, params, body(list(params), 3)))
        else:
            entries.append(ConstantDef(name, "y", body(["y"], 2)))
    return DefinitionSystem(base, tuple(entries))


def random_model(rng, pred_names, size):
    preds = {
        p: frozenset((e,) for e in range(size) if rng.random() < 0.5)
        for p in pred_names
    }
    return FiniteModel(size, {}, preds)


def model_cells(model, pred_names):
    """Element classes sharing the same base predicate memberships."""
    cells = {}
    for e in range(model.size):
        key = tuple((e,) in model.predicates[p] for p in pred_names)
        cells.setdefault(key, set()).add(e)
    return [frozenset(v) for v in cells.values()]


def random_laminar_cell_family(rng, model, pred_names):
    """Nested-or-disjoint family of cell unions, all distinct and nonempty."""
    atoms = model_cells(model, pred_names)
    sets = []

    def grow(pool, may_take_all):
        if not pool:
            return
        if may_take_all and rng.random() < 0.6:
            sets.append(frozenset().union(*pool))
        if len(pool) <= 1:
            return
        rng.shuffle(pool)
        cut = rng.randrange(1, len(pool))
        grow(pool[:cut], True)
        grow(pool[cut:], True)

    grow(list(atoms), rng.random() < 0.8)
    if not sets:
        sets.append(frozenset().union(*atoms))
    named = []
    for i, s in enumerate(sets):
        name = chr(ord("A") + i) if i < 26 else f"S{i}"
        named.append((name, s))
    return tuple(named)


def chain_condition(n):
    """Closed R-walk of length n+1 through c, inner stops quantified."""
    vs = [f"x{i}" for i in range(1, n + 1)]
    atoms = [Pred("R", (Const("c"), Var(vs[0])))]
    for a, b in zip(vs, vs[1:]):
        atoms.append(Pred("R", (Var(a), Var(b))))
    atoms.append(Pred("R", (Var(vs[-1]), Const("c"))))
    body = atoms[0]
    for at in atoms[1:]:
        body = And(body, at)
    for v in reversed(vs):
        body = Exists(v, body)
    return body


def cycle_model(length, c=0):
    edges = frozenset((i, (i + 1) % length) for i in range(length))
    return FiniteModel(length, {"c": c}, {"R": edges})


def brute_magma_axiom_sets(max_size):
    """Recompute which operation tables satisfy each axiom, by index."""
    idx = 0
    sets = {"Assoc": set(), "HasId": set(), "HasInv": set(), "Comm": set()}
    for n in range(1, max_size + 1):
        dom = range(n)
        for flat in itertools.product(dom, repeat=n * n):
            op = {(i, j): flat[i * n + j] for i in dom for j in dom}
            assoc = all(
                op[op[i, j], k] == op[i, op[j, k]]
                for i in dom
                for j in dom
                for k in dom
            )
            ids = [
                e
                for e in dom
                if all(op[e, i] == i and op[i, e] == i for i in dom)
            ]
            inv = bool(ids) and all(
                any(op[i, j] == ids[0] and op[j, i] == ids[0] for j in dom)
                for i in dom
            )
            comm = all(op[i, j] == op[j, i] for i in dom for j in dom)
            for name, val in (
                ("Assoc", assoc),
                ("HasId", bool(ids)),
                ("HasInv", inv),
                ("Comm", comm),
            ):
                if val:
                    sets[name].add(idx)
            idx += 1
    return sets, idx


def seeded_cover_family(k, seed=1):
    """A one-set family over k unary predicates whose cover search is the
    seeded one: cells in the set with probability 0.4, then 0.2 of the
    rest left out of the model, as don't-cares; one element per other
    cell."""
    rng = random.Random(seed)
    cells = range(1 << k)
    minterms = {c for c in cells if rng.random() < 0.4}
    dontcare = {c for c in cells if c not in minterms and rng.random() < 0.2}
    present = [c for c in cells if c not in dontcare]
    preds = [f"M{i}" for i in range(k)]
    model = FiniteModel(
        len(present),
        {},
        {
            p: frozenset((e,) for e, c in enumerate(present) if c >> i & 1)
            for i, p in enumerate(preds)
        },
    )
    sig = Signature(tuple((p, 1) for p in preds), (), False)
    inside = frozenset(e for e, c in enumerate(present) if c in minterms)
    return ExtensionFamily(sig, model, (("S", inside),))


def count_walks(monkeypatch):
    """A list that grows by one for each walk `facts` makes: each walk
    builds one Facts."""
    walks = []
    facts_type = porphyry.syntax.Facts

    def counted(*fields):
        walks.append(fields)
        return facts_type(*fields)

    monkeypatch.setattr(porphyry.syntax, "Facts", counted)
    return walks
