"""Seeded input generators.

Every generator takes a `random.Random` and returns tuple formulas (see
oracle.py) plus, where the answer is known from how the input was built,
that answer.  The same seed gives the same inputs.
"""

from __future__ import annotations

from oracle import (
    Model,
    cell_formula,
    conj,
    holds,
    neg,
    pred,
    rename_bound,
    text,
)

# ------------------------------------------------------------ monadic


def unary_preds(k, stem="P"):
    return tuple(f"{stem}{i}" for i in range(k))


def relevant_cells(rng, k):
    """Cells whose inhabitation a generated formula may read: fewer than
    all 2^k, so a filler cell always exists, and at most four."""
    n = min((1 << k) - 1, 4)
    return frozenset(rng.sample(range(1 << k), n))


def cell_atom(rng, preds, cells, var="y"):
    """A closed formula whose truth reads only whether one of `cells` is
    inhabited."""
    c = rng.choice(sorted(cells))
    if rng.random() < 0.5:
        return ("ex", var, cell_formula(c, preds, var))
    return ("all", var, neg(cell_formula(c, preds, var)))


def literal(rng, p, var="x"):
    return pred(p, var) if rng.random() < 0.6 else neg(pred(p, var))


def mformula(rng, preds, cells, free=None, atoms=3, lits=0, ops=("and", "or", "imp", "iff")):
    """Random monadic formula over exactly `atoms` cell atoms and `lits`
    literals on `free`: a fixed size keeps the engine's cost per query
    about the same from seed to seed."""
    leaves = [cell_atom(rng, preds, cells) for _ in range(atoms)]
    leaves += [literal(rng, rng.choice(preds), free) for _ in range(lits)]
    rng.shuffle(leaves)
    return combine(rng, leaves, ops)


def combine(rng, leaves, ops):
    if len(leaves) == 1:
        f = leaves[0]
    else:
        cut = rng.randint(1, len(leaves) - 1)
        f = (rng.choice(ops), combine(rng, leaves[:cut], ops), combine(rng, leaves[cut:], ops))
    return neg(f) if rng.random() < 0.15 else f


def rewrite(rng, f):
    """An equivalent formula by De Morgan, double negation, commutation,
    implication elimination and quantifier duality."""
    tag = f[0]
    if tag == "not":
        if f[1][0] == "not" and rng.random() < 0.7:
            return rewrite(rng, f[1][1])
        return neg(rewrite(rng, f[1]))
    if tag in ("and", "or"):
        a, b = rewrite(rng, f[1]), rewrite(rng, f[2])
        roll = rng.random()
        if roll < 0.35:
            return (tag, b, a)
        if roll < 0.7:
            dual = "or" if tag == "and" else "and"
            return neg((dual, neg(a), neg(b)))
        return (tag, a, b)
    if tag == "imp":
        a, b = rewrite(rng, f[1]), rewrite(rng, f[2])
        return ("or", neg(a), b) if rng.random() < 0.5 else ("imp", neg(b), neg(a))
    if tag == "iff":
        return ("iff", rewrite(rng, f[2]), rewrite(rng, f[1]))
    if tag in ("ex", "all"):
        body = rewrite(rng, f[2])
        if rng.random() < 0.5:
            dual = "all" if tag == "ex" else "ex"
            return neg((dual, f[1], neg(body)))
        return (tag, f[1], body)
    if tag == "pred" and rng.random() < 0.2:
        return neg(neg(f))
    return f


def sig_text(preds, consts=(), equality=False):
    lines = [f"pred {name}/{arity};" for name, arity in preds]
    lines += [f"const {c};" for c in consts]
    if equality:
        lines.append("equality;")
    return "sig { " + " ".join(lines) + " }"


# ------------------------------------------------- Porphyry-tree systems


class TreeSystem:
    """A chain A0 > A1 > ... > Ad over base P0..P(k-1), each Ai guarded by
    its predecessor with difference Li on Pi, plus a sibling B1 of A1.

    `with_atoms` lets the last difference also read a cell atom, so the
    exact engine sees quantifiers; the cells it reads are in `cells`.
    """

    def __init__(self, rng, k, depth, with_atoms=False):
        self.preds = unary_preds(k)
        self.cells = relevant_cells(rng, k)
        self.lits = [literal(rng, self.preds[i]) for i in range(depth + 1)]
        self.diffs = list(self.lits)
        if with_atoms:
            self.diffs[-1] = ("or", self.lits[-1], cell_atom(rng, self.preds, self.cells))
        self.defs = {"A0": (("x",), self.diffs[0])}
        self.order = ["A0"]
        for i in range(1, depth + 1):
            self.defs[f"A{i}"] = (("x",), ("and", pred(f"A{i-1}", "x"), self.diffs[i]))
            self.order.append(f"A{i}")
        sib = neg(self.lits[1]) if self.lits[1][0] == "pred" else self.lits[1][1]
        self.defs["B1"] = (("x",), ("and", pred("A0", "x"), sib))
        self.order.insert(2, "B1")
        self.depth = depth

    @property
    def leaf(self):
        return f"A{self.depth}"

    def source(self, asserts=()):
        defs = [(name, *self.defs[name]) for name in self.order]
        return defs_source(self.preds, defs, asserts=asserts)

    def rho(self, rng, label):
        """A formula for the leaf built to get `label`; the oracle has the
        final say."""
        d, genus = self.diffs[-1], pred(f"A{self.depth - 1}", "x")
        spare = [p for p in self.preds[self.depth + 1 :]]
        if label == "difference":
            return rewrite(rng, d)
        if label == "property":
            if rng.random() < 0.5:
                return ("and", genus, rewrite(rng, d))
            return rewrite(rng, conj(self.diffs))
        if label == "accident":
            if spare and rng.random() < 0.5:
                return ("or", d, literal(rng, rng.choice(spare)))
            return genus if rng.random() < 0.5 else rewrite(rng, self.diffs[0])
        if spare and rng.random() < 0.5:
            return literal(rng, rng.choice(spare))
        return neg(rewrite(rng, d))


# ---------------------------------------------------------- relational

X, Y, Z = "x", "y", "z"


def _R(a, b, r="R"):
    return pred(r, a, b)


def _all(vs, body):
    for v in reversed(vs):
        body = ("all", v, body)
    return body


def relation_props(r="R"):
    R = lambda a, b: _R(a, b, r)  # noqa: E731
    return {
        "refl": _all([X], R(X, X)),
        "irrefl": _all([X], neg(R(X, X))),
        "sym": _all([X, Y], ("imp", R(X, Y), R(Y, X))),
        "asym": _all([X, Y], ("imp", R(X, Y), neg(R(Y, X)))),
        "trans": _all([X, Y, Z], ("imp", ("and", R(X, Y), R(Y, Z)), R(X, Z))),
        "serial": _all([X], ("ex", Y, R(X, Y))),
        "eucl": _all([X, Y, Z], ("imp", ("and", R(X, Y), R(X, Z)), R(Y, Z))),
        "connex": _all([X, Y], ("or", R(X, Y), R(Y, X))),
        "dense": _all([X, Y], ("imp", R(X, Y), ("ex", Z, ("and", R(X, Z), R(Z, Y))))),
        "loop": ("ex", X, R(X, X)),
        "edge": ("ex", X, ("ex", Y, R(X, Y))),
        "sink": ("ex", Y, _all([X], R(X, Y))),
    }


def _P(v):
    return pred("P", v)


EXTRA_PROPS = {
    "R+P": {
        "p_closed": _all([X, Y], ("imp", ("and", _P(X), _R(X, Y)), _P(Y))),
        "some_p": ("ex", X, _P(X)),
        "p_loops": _all([X], ("imp", _P(X), _R(X, X))),
        "p_serial": _all([X], ("imp", _P(X), ("ex", Y, _R(X, Y)))),
        "not_all_p": ("ex", X, neg(_P(X))),
        "x_p": _P(X),
    },
    "R+c": {
        "c_loop": _R("c", "c"),
        "c_src": _all([X], _R("c", X)),
        "c_tgt": _all([X], _R(X, "c")),
        "c_out": ("ex", X, _R("c", X)),
        "x_c": _R(X, "c"),
        "c_x": _R("c", X),
    },
    "R+S": {
        "s_sub_r": _all([X, Y], ("imp", _R(X, Y, "S"), _R(X, Y))),
        "r_sub_s": _all([X, Y], ("imp", _R(X, Y), _R(X, Y, "S"))),
        **{f"s_{k}": v for k, v in relation_props("S").items() if k in ("refl", "sym", "irrefl", "serial")},
    },
}

FREE_X = {
    "x_loop": _R(X, X),
    "x_src": ("ex", Y, _R(X, Y)),
    "x_tgt": ("ex", Y, _R(Y, X)),
}


class RelSig:
    def __init__(self, name, preds, consts, bound):
        self.name, self.preds, self.consts, self.bound = name, preds, consts, bound
        self.props = {**relation_props(), **EXTRA_PROPS.get(name, {}), **FREE_X}


REL_SIGS = [
    RelSig("R", (("R", 2),), (), 3),
    RelSig("R+P", (("R", 2), ("P", 1)), (), 3),
    RelSig("R+c", (("R", 2),), ("c",), 3),
    RelSig("R+S", (("R", 2), ("S", 2)), (), 2),
]

# Entailments valid in every model, so a bounded search must scan every
# size up to its bound.  Names refer to RelSig.props.
VALID = {
    "R": [
        (["trans", "irrefl"], "asym"),
        (["asym"], "irrefl"),
        (["sym", "trans", "serial"], "refl"),
        (["refl", "eucl"], "sym"),
        (["refl", "eucl"], "trans"),
        (["sym", "eucl"], "trans"),
        (["connex"], "refl"),
        (["refl"], "dense"),
        (["sink"], "serial"),
        (["x_loop"], "x_tgt"),
    ],
    # One entry only: these full scans are the dearest operations of the
    # workload, and one cost keeps the tail inside the group rather than
    # on a step between two entries' costs.
    "R+P": [
        (["p_closed", "p_serial", "some_p"], "edge"),
    ],
    "R+c": [
        (["c_src"], "c_loop"),
        (["c_tgt", "sym"], "c_src"),
        (["c_src", "c_tgt"], "sink"),
        (["x_c", "sym"], "c_x"),
    ],
    "R+S": [
        (["s_sub_r", "s_refl"], "refl"),
        (["s_sub_r", "r_sub_s", "s_sym"], "sym"),
        (["s_sub_r", "irrefl"], "s_irrefl"),
        (["r_sub_s", "serial"], "s_serial"),
    ],
}


def random_model(rng, preds, consts, size, density=0.5):
    from itertools import product

    ext = {
        name: {t for t in product(range(size), repeat=arity) if rng.random() < density}
        for name, arity in preds
    }
    return Model(size, ext, {c: rng.randrange(size) for c in consts})


def free_of(f, bound=()):
    tag = f[0]
    if tag == "pred":
        return {t for t in f[2] if t in (X, Y, Z) and t not in bound}
    if tag == "not":
        return free_of(f[1], bound)
    if tag in ("and", "or", "imp", "iff"):
        return free_of(f[1], bound) | free_of(f[2], bound)
    if tag in ("all", "ex"):
        return free_of(f[2], tuple(bound) + (f[1],))
    return set()


# Premises with no model smaller than the key: an edge that is not
# returned needs two elements; an irreflexive, asymmetric relation in
# which every element has a successor needs a cycle of three.
FORCE_SIZE = {
    1: [],
    2: [("ex", X, ("ex", Y, ("and", _R(X, Y), neg(_R(Y, X)))))],
    3: [
        relation_props()["irrefl"],
        relation_props()["serial"],
        relation_props()["asym"],
    ],
}


def refuted_query(rng, rs: RelSig, size):
    """Premises true and conclusion false in a random model of `size`,
    whose premises include ones no smaller model satisfies: the first
    countermodel has exactly this size."""
    names = sorted(rs.props)
    force = FORCE_SIZE[size]
    while True:
        m = random_model(rng, rs.preds, rs.consts, size, rng.choice([0.3, 0.5, 0.7]))
        env = {X: rng.randrange(size)}
        if not all(holds(f, m, env) for f in force):
            continue
        true = [n for n in names if holds(rs.props[n], m, env)]
        false = [n for n in names if not holds(rs.props[n], m, env)]
        if not true or not false:
            continue
        prem = [rs.props[n] for n in rng.sample(true, min(len(true), rng.randint(1, 2)))]
        if force:
            prem.append(conj(force))
        rng.shuffle(prem)
        return prem, rs.props[rng.choice(false)]


def valid_query(rng, rs: RelSig, index):
    """The catalogue entry `index` (cyclically), its bound variables renamed
    afresh so that no two rounds send equal formulas."""
    prem, concl = VALID[rs.name][index % len(VALID[rs.name])]
    names = iter(rng.sample([f"{a}{i}" for a in "uvw" for i in range(10)], 30))
    return [rename_bound(rs.props[n], names) for n in prem], rename_bound(rs.props[concl], names)


# -------------------------------------------------------------- chains


def chain_defs(rng, n, preds, prefix="D"):
    """n unary definitions, each guarded by its predecessor; some bodies
    also call one of the first three classes or read a closed atom."""
    out = []
    for i in range(n):
        name = f"{prefix}{i}"
        if i == 0:
            body = literal(rng, rng.choice(preds))
        else:
            parts = [pred(f"{prefix}{i-1}", "x"), literal(rng, rng.choice(preds))]
            roll = rng.random()
            if roll < 0.25 and i > 3:
                j = rng.randrange(0, 3)
                parts.append(("or", literal(rng, rng.choice(preds)), pred(f"{prefix}{j}", "x")))
            elif roll < 0.45:
                p, q = rng.sample(list(preds), 2)
                parts.append(("ex", "y", ("and", pred(p, "y"), literal(rng, q, "y"))))
            body = conj(parts)
        out.append((name, ("x",), body))
    return out


def defs_source(preds, defs, models=(), asserts=()):
    lines = [sig_text([(p, 1) for p in preds]), "defsys {"]
    for name, params, body in defs:
        lines.append(f"  def {name}({', '.join(params)}) := {text(body)};")
    lines.append("}")
    for mname, m in models:
        lines.append(f"model {mname} {{")
        lines.append(f"  universe {m.size};")
        for p in preds:
            elems = ", ".join(str(t[0]) for t in sorted(m.preds.get(p, ())))
            lines.append(f"  {p} = {{{elems}}};")
        lines.append("}")
    lines += [f"assert {text(a)};" for a in asserts]
    return "\n".join(lines) + "\n"


def class_extents(defs, m: Model):
    """Extent of each unary definition over m, evaluated in entry order with
    earlier extents read back as predicates."""
    work = Model(m.size, dict(m.preds), dict(m.consts))
    out = {}
    for name, params, body in defs:
        ext = {(e,) for e in range(m.size) if holds(body, work, {params[0]: e})}
        work.preds[name] = ext
        out[name] = frozenset(e for (e,) in ext)
    return out


def laminar_family(rng, m: Model, preds):
    """Nested-or-disjoint family of distinct unions of base cells."""
    cells = {}
    for e in range(m.size):
        key = tuple((e,) in m.preds[p] for p in preds)
        cells.setdefault(key, set()).add(e)
    atoms = [frozenset(v) for _, v in sorted(cells.items())]
    sets = []

    def grow(pool, top):
        if not pool:
            return
        union = frozenset().union(*pool)
        if (top or rng.random() < 0.7) and union not in sets:
            sets.append(union)
        if len(pool) > 1:
            pool = list(pool)
            rng.shuffle(pool)
            cut = rng.randrange(1, len(pool))
            grow(pool[:cut], False)
            grow(pool[cut:], False)

    grow(atoms, True)
    return [(f"S{i}", s) for i, s in enumerate(sets)]
