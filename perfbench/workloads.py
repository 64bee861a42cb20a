"""The four workloads: seeded inputs, the operations on them, and the check
of every answer.

A workload's `build(seed)` is its set-up: it parses and constructs every
input and returns a list of rounds, each a list of `Op`.  Every round has
the same mix of operation kinds, so the share of cheap and dear operations
is the same for every seed; the seed changes the inputs only.  Rounds hold
distinct inputs, so an answer cache inside the library would see as few
repeats as a real caller gives it.
"""

from __future__ import annotations

import functools
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import porphyry as P

import gen
from oracle import (
    CellSpace,
    all_models,
    Mismatch,
    canon,
    conj,
    conjunct_list,
    disj,
    expect,
    first_countermodel_size,
    from_lib,
    holds,
    magma_axioms,
    model_of,
    neg,
    nnf_size,
    pred,
    preds_of,
    read_defs,
    read_formula,
    read_model,
    text,
)


_UNSET = object()


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    argv: list | None = None  # the CLI command, for cli-session
    verified: Any = field(default=_UNSET, repr=False)

    def verify(self, result):
        """Check a result; an answer equal to one already checked for the
        same input passes without a second oracle run."""
        if self.verified is not _UNSET and result == self.verified:
            return
        self.check(result)
        self.verified = result


def _lazy(fn):
    """Memoise an oracle computation; oracles run once per input, on the
    first check, never inside set-up or a timed call."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _sig(preds, consts=(), equality=False):
    return P.parse(gen.sig_text(preds, consts, equality)).signature


# ------------------------------------------------------- shared checks


def check_sat(f, space):
    expected = _lazy(lambda: space.satisfiable(f))

    def check(v):
        name = type(v).__name__
        if name == "Sat":
            expect(expected(), "Sat for an unsatisfiable formula")
            expect(
                holds(f, model_of(v.model), v.assignment),
                "Sat witness does not satisfy the formula",
            )
        else:
            expect(name == "Unsat", f"unexpected verdict {name}")
            expect(not expected(), "Unsat for a satisfiable formula")

    return check


def check_countermodel(m, env, premises, conclusion, defs=None):
    """Every premise true and the conclusion false in the oracle model m."""
    for p in premises:
        expect(holds(p, m, env, defs), "countermodel falsifies a premise")
    expect(not holds(conclusion, m, env, defs), "countermodel satisfies the conclusion")


def check_entails(f, g, space):
    expected = _lazy(lambda: space.entails(f, g))

    def check(v):
        name = type(v).__name__
        if name == "Holds":
            expect(expected(), "Holds for a refutable entailment")
        else:
            expect(name == "Countermodel", f"unexpected verdict {name}")
            expect(not expected(), "Countermodel for a valid entailment")
            check_countermodel(model_of(v.model), v.assignment, [f], g)

    return check


def expected_label(entails, rho, delta, psi):
    """The documented classification, with `entails(f, g)` from an oracle."""
    if delta is not None and entails(rho, delta) and entails(delta, rho):
        return "Difference"
    down = entails(psi, rho)
    if down and entails(rho, psi):
        return "Property"
    return "Accident" if down else "Unrelated"


def check_classify(rho, species, defs, delta, entails):
    """Expected label from the oracle; every Countermodel in the evidence
    re-evaluated."""
    psi = pred(species, "x")
    expected = _lazy(lambda: expected_label(entails, rho, delta, psi))
    sides = {"rho": rho, "delta": delta, "psi": psi}

    def check(v):
        label = type(v).__name__
        expect(label == expected(), f"classified {label}, expected {expected()}")
        for key, verdict in v.evidence.items():
            lhs, _, rhs = key.partition("_entails_")
            if type(verdict).__name__ == "Countermodel":
                check_countermodel(model_of(verdict.model), verdict.assignment, [sides[lhs]], sides[rhs], defs)

    return check


def generator_flags(sentences, entails):
    """Which sentences entail every other one."""
    return tuple(
        all(i == j or entails(a, b) for j, b in enumerate(sentences))
        for i, a in enumerate(sentences)
    )


def redundant_conjuncts(defs, models):
    """(entry, conjunct) pairs whose removal changes no extent on `models`."""
    dmap = {n: (ps, b) for n, ps, b in defs}
    out = set()
    for i, (_, params, body) in enumerate(defs):
        parts = conjunct_list(body)
        for j in range(len(parts) if len(parts) > 1 else 0):
            reduced = conj(parts[:j] + parts[j + 1 :])
            if all(
                holds(body, m, {params[0]: e}, dmap) == holds(reduced, m, {params[0]: e}, dmap)
                for m in models
                for e in range(m.size)
            ):
                out.add((i, j))
    return out


@functools.cache
def every_model(preds, consts, max_size):
    """All models of the signature with 1..max_size elements."""
    return [m for size in range(1, max_size + 1) for m in all_models(preds, consts, size)]


def check_generators(sentences, entails):
    expected = _lazy(lambda: generator_flags(sentences, entails))

    def check(ts):
        expect(tuple(ts.generator_flags) == expected(), f"generator flags {ts.generator_flags}, expected {expected()}")

    return check


# ------------------------------------------------------ monadic-classify


def _mk_decide(rng, k, slot, round_ops):
    preds = gen.unary_preds(k)
    cells = gen.relevant_cells(rng, k)
    sig = _sig([(p, 1) for p in preds])
    # At k=4 a free variable multiplies the support table's work by 16
    # and one query would outweigh a round, so k=4 asks sentences.
    free = "x" if k < 4 and slot % 2 else None
    atoms, lits = (4, 0) if free is None else (3, 2)
    space = CellSpace(preds, cells, free)
    f = gen.mformula(rng, preds, cells, free, atoms, lits)
    g = gen.mformula(rng, preds, cells, free, atoms, lits)
    unsat = ("and", g, neg(gen.rewrite(rng, g)))
    weak = ("or", gen.rewrite(rng, f), gen.mformula(rng, preds, cells, free, 1))
    lf, lu, lw, lg = (P.parse_formula(text(h), sig) for h in (f, unsat, weak, g))
    round_ops += [
        Op(f"decide_sat.k{k}", lambda: P.decide_sat(lf, sig), check_sat(f, space)),
        Op(f"decide_sat.k{k}", lambda: P.decide_sat(lu, sig), check_sat(unsat, space)),
        Op(f"decide_entails.k{k}", lambda: P.decide_entails(lf, lw, sig), check_entails(f, weak, space)),
        Op(f"decide_entails.k{k}", lambda: P.decide_entails(lf, lg, sig), check_entails(f, g, space)),
    ]


def _mk_classify(rng, k, label, round_ops, atoms=False):
    tree = gen.TreeSystem(rng, k, depth=max(1, k - 2), with_atoms=atoms)
    pf = P.parse(tree.source())
    rho = tree.rho(rng, label)
    lrho = P.parse_formula(text(rho), pf.signature, pf.system)
    space = CellSpace(tree.preds, tree.cells, "x")
    check = check_classify(
        rho, tree.leaf, tree.defs, tree.diffs[-1], lambda f, g: space.entails(f, g, tree.defs)
    )
    round_ops.append(
        Op(f"classify.k{k}", lambda: P.classify_formula(lrho, tree.leaf, pf.system), check)
    )


def _mk_generators(rng, k, n, round_ops):
    preds = gen.unary_preds(k)
    cells = gen.relevant_cells(rng, k)
    space = CellSpace(preds, cells)
    facts = [gen.mformula(rng, preds, cells, None, 2) for _ in range(3)]
    top = conj(facts)
    sentences = [top, gen.rewrite(rng, top)]
    while len(sentences) < n:
        roll = rng.random()
        if roll < 0.4:
            sentences.append(rng.choice(facts))
        elif roll < 0.7:
            sentences.append(("or", rng.choice(facts), gen.cell_atom(rng, preds, cells)))
        else:
            sentences.append(gen.rewrite(rng, conj(rng.sample(facts, 2))))
    rng.shuffle(sentences)
    pf = P.parse(gen.sig_text([(p, 1) for p in preds]) + "\ndefsys { }\n" + "".join(f"assert {text(s)};\n" for s in sentences))
    check = check_generators(sentences, space.entails)
    round_ops.append(
        Op(f"generators.k{k}", lambda: P.generators(list(pf.asserts), pf.system), check)
    )


def expected_proximate(tree, candidates):
    """The documented choice, by brute force: for each candidate C that
    contains the leaf, the cheapest sub-conjunction D of the leaf's body
    (node count in negation normal form, then subset order) with C & D
    entailing the body; the lowest (cost, name) wins."""
    space = CellSpace(tree.preds, tree.cells, "x")
    psi = conj(tree.diffs)
    parts = conjunct_list(psi)

    def cost(mask):
        chosen = [parts[i] for i in range(len(parts)) if (mask >> i) & 1]
        return nnf_size(conj(chosen)), mask

    best = None
    contains = {}
    for c in candidates:
        cx = pred(c, "x")
        contains[c] = space.entails(psi, cx, tree.defs)
        if not contains[c]:
            continue
        for mask in sorted(range(1 << len(parts)), key=cost):
            d = conj(parts[i] for i in range(len(parts)) if (mask >> i) & 1)
            if space.entails(("and", cx, d), psi, tree.defs):
                if best is None or (cost(mask)[0], c) < best[:2]:
                    best = (cost(mask)[0], c, d)
                break
    return best[1], canon(best[2]), contains


def _mk_proximate(rng, k, round_ops):
    tree = gen.TreeSystem(rng, k, depth=k - 1)
    pf = P.parse(tree.source())
    candidates = [f"A{i}" for i in range(tree.depth)] + ["B1", tree.preds[0]]
    rng.shuffle(candidates)
    expected = _lazy(lambda: expected_proximate(tree, candidates))

    def check(r):
        chosen, diff, contains = expected()
        expect(r.chosen == chosen, f"proximate genus {r.chosen}, expected {chosen}")
        expect(canon(from_lib(r.difference)) == diff, "wrong residual difference")
        for s in r.scores:
            expect(s.contains == contains[s.name], f"containment of {s.name} wrong")

    round_ops.append(
        Op(f"proximate_genus.k{k}", lambda: P.proximate_genus(tree.leaf, candidates, pf.system), check)
    )


def _mk_normal_form(rng, k, round_ops):
    preds = gen.unary_preds(k)
    cells = gen.relevant_cells(rng, k)
    sig = _sig([(p, 1) for p in preds])
    # No <-> or ->: their negation normal form doubles the formula and
    # makes the disjunctive form's size swing with the seed.
    f = gen.mformula(rng, preds, cells, "x", 2, 3, ("and", "or"))
    lf = P.parse_formula(text(f), sig)
    space = CellSpace(preds, cells, "x")

    def check(form):
        g = disj(
            ("and", conj(pred(p, form.var) if pos else neg(pred(p, form.var)) for p, pos in d.cell.literals), from_lib(d.residue))
            for d in form.disjuncts
        )
        expect(space.equivalent(f, g), "normal form not equivalent")
        expect(form.pure == all(from_lib(d.residue) == ("true",) for d in form.disjuncts), "pure flag wrong")

    round_ops.append(
        Op(f"monadic_normal_form.k{k}", lambda: P.monadic_normal_form(lf, "x", sig), check)
    )


def build_monadic(seed, rounds):
    rng = random.Random(seed)
    out = []
    labels = ["difference", "property", "accident", "unrelated"]
    for r in range(rounds):
        ops = []
        for k in (1, 2, 3, 4):
            _mk_decide(rng, k, r, ops)
        for i, label in enumerate(labels):
            _mk_classify(rng, 3, label, ops, atoms=(i + r) % 2 == 0)
            _mk_classify(rng, 4, label, ops)
        _mk_classify(rng, 2, labels[r % 4], ops)
        _mk_classify(rng, 2, labels[(r + 2) % 4], ops)
        # Seven sentences every time: the n^2 engine calls make generators
        # the dearest operation, so its count sets the tail.
        _mk_generators(rng, 3, 7, ops)
        _mk_proximate(rng, 3, ops)
        _mk_normal_form(rng, 2, ops)
        _mk_normal_form(rng, 3, ops)
        rng.shuffle(ops)
        out.append(ops)
    return out


# ---------------------------------------------------- relational-bounded


def _mk_bounded(rng, rs, sig, size, round_ops, index=0):
    """size None: valid entailment `index` of the catalogue, scanned in
    full; else one whose first countermodel has that size."""
    valid = size is None
    if valid:
        premises, conclusion = gen.valid_query(rng, rs, index)
    else:
        premises, conclusion = gen.refuted_query(rng, rs, size)
    frees = sorted(set().union(*(gen.free_of(p) for p in premises), gen.free_of(conclusion)))
    lp = [P.parse_formula(text(p), sig) for p in premises]
    lc = P.parse_formula(text(conclusion), sig)
    bound = rs.bound
    min_size = _lazy(
        lambda: None
        if valid
        else first_countermodel_size(rs.preds, rs.consts, premises, conclusion, frees, bound)
    )

    def check(v):
        name = type(v).__name__
        if valid:
            expect(name == "HoldsUpTo" and v.bound == bound, f"{name} for a valid entailment")
            return
        expect(name == "Countermodel", f"{name} where a countermodel exists")
        expect(min_size() == size, f"oracle: first countermodel at {min_size()}, built for {size}")
        expect(v.model.size == size, f"countermodel of size {v.model.size}, smallest is {size}")
        check_countermodel(model_of(v.model), v.assignment, premises, conclusion)

    kind = "full" if valid else f"refuted{size}"
    round_ops.append(
        Op(f"bounded_entails.{rs.name}.{kind}", lambda: P.bounded_entails(sig, lp, lc, bound), check)
    )


REL_SYSTEM = """sig { pred R/2; pred P/1; }
defsys {
  def Loop(x) := R(x, x);
  def PLoop(x) := Loop(x) & P(x);
  def Src(x) := exists y. R(x, y);
  def PSrc(x) := Src(x) & P(x);
  def Hub(x) := Src(x) & (exists y. R(y, x)) & (Src(x) | P(x));
}
"""
REL_DEFS = {
    "Loop": (("x",), pred("R", "x", "x")),
    "PLoop": (("x",), ("and", pred("Loop", "x"), pred("P", "x"))),
    "Src": (("x",), ("ex", "y", pred("R", "x", "y"))),
    "PSrc": (("x",), ("and", pred("Src", "x"), pred("P", "x"))),
    "Hub": (("x",), conj([pred("Src", "x"), ("ex", "y", pred("R", "y", "x")), ("or", pred("Src", "x"), pred("P", "x"))])),
}
REL_BOUND = 2
# Redundant top-level conjuncts (entry, conjunct), by construction: in Hub
# the third conjunct follows from the first.
REL_WARNINGS = {(4, 2)}
_RPP = (("R", 2), ("P", 1))


def _rel_entails(f, g):
    """f entails g on every model of R/2, P/1 up to the bound, reading the
    defined classes of REL_SYSTEM through their bodies."""
    return all(
        holds(g, m, {"x": e}, REL_DEFS)
        for m in every_model(_RPP, (), REL_BOUND)
        for e in range(m.size)
        if holds(f, m, {"x": e}, REL_DEFS)
    )


def _mk_rel_classify(rng, pf, round_ops):
    species, genus, delta = rng.choice(
        [("PLoop", "Loop", pred("P", "x")), ("PSrc", "Src", pred("P", "x"))]
    )
    base = pred("R", "x", "x") if genus == "Loop" else ("ex", "y", pred("R", "x", "y"))
    rho = rng.choice(
        [
            gen.rewrite(rng, delta),
            ("and", pred(genus, "x"), gen.rewrite(rng, delta)),
            gen.rewrite(rng, ("and", base, delta)),
            base,
            ("or", delta, pred("R", "x", "x")),
            neg(delta),
            ("ex", "y", ("and", pred("R", "y", "x"), pred("P", "y"))),
        ]
    )
    lrho = P.parse_formula(text(rho), pf.signature, pf.system)
    check = check_classify(rho, species, REL_DEFS, delta, _rel_entails)
    round_ops.append(
        Op("classify.bounded", lambda: P.classify_formula(lrho, species, pf.system, bound=REL_BOUND), check)
    )


def _mk_rel_generators(rng, pf, round_ops):
    pool = gen.relation_props()
    pool.update({k: v for k, v in gen.EXTRA_PROPS["R+P"].items() if not gen.free_of(v)})
    facts = [pool[n] for n in rng.sample(sorted(pool), 2)]
    top = conj(facts)
    sentences = [top, gen.rewrite(rng, top), facts[0], ("or", facts[1], pool[rng.choice(sorted(pool))])]
    rng.shuffle(sentences)
    lsent = [P.parse_formula(text(s), pf.signature, pf.system) for s in sentences]
    check = check_generators(sentences, _rel_entails)
    round_ops.append(
        Op("generators.bounded", lambda: P.generators(lsent, pf.system, bound=REL_BOUND), check)
    )


def _mk_sat_eq(rng, round_ops):
    """Unary formulas with equality, decided by enumeration: satisfiable
    ones by a model built first, unsatisfiable ones by a counting clash."""
    sig = _sig([("Q", 1)], equality=True)
    n = rng.randint(1, 2)
    xs = [f"v{i}" for i in range(n + 1)]
    distinct = conj(neg(("eq", a, b)) for i, a in enumerate(xs) for b in xs[i + 1 :])
    at_least = distinct
    for v in reversed(xs):
        at_least = ("ex", v, at_least)
    if rng.random() < 0.5:
        # n+1 distinct elements, but at most n of them: unsatisfiable.
        at_most = ("all", "a", ("all", "b", ("eq", "a", "b"))) if n == 1 else (
            "all", "a", ("all", "b", ("all", "c", ("or", ("eq", "a", "b"), ("or", ("eq", "a", "c"), ("eq", "b", "c")))))
        )
        f, sat = ("and", at_least, at_most), False
    else:
        f, sat = ("and", at_least, ("ex", "w", ("and", pred("Q", "w"), ("ex", "u", neg(pred("Q", "u")))))), True
    lf = P.parse_formula(text(f), sig)

    def check(v):
        name = type(v).__name__
        expect((name == "Sat") == sat, f"{name} for a formula that is {'sat' if sat else 'unsat'}isfiable")
        if sat:
            expect(holds(f, model_of(v.model), v.assignment), "Sat witness does not satisfy the formula")

    round_ops.append(Op("decide_sat.equality", lambda: P.decide_sat(lf, sig, allow_equality=True), check))


def build_relational(seed, rounds):
    rng = random.Random(seed)
    pf = P.parse(REL_SYSTEM)
    sigs = {rs.name: _sig(rs.preds, rs.consts) for rs in gen.REL_SIGS}
    warnings = _lazy(
        lambda: redundant_conjuncts(
            [(n, ps, b) for n, (ps, b) in REL_DEFS.items()], every_model(_RPP, (), REL_BOUND)
        )
    )

    def check_warn(ws):
        got = {(w.entry, w.conjunct) for w in ws}
        expect(got == warnings() == REL_WARNINGS, f"warnings {sorted(got)}, expected {sorted(warnings())}")

    out = []
    for r in range(rounds):
        ops = []
        # A third full scans, two thirds refuted at every size up to the
        # bound, so the median falls among early exits and the tail among
        # full scans, each well inside its group.
        for rs in gen.REL_SIGS:
            sizes = [None] * (1 if rs.name == "R+P" else 2)
            sizes += list(range(1, rs.bound + 1)) * (2 if rs.bound < 3 else 1)
            if rs.name == "R":
                sizes += [2, 3]
            for j, size in enumerate(sizes):
                _mk_bounded(rng, rs, sigs[rs.name], size, ops, index=2 * r + j)
        _mk_rel_classify(rng, pf, ops)
        _mk_rel_generators(rng, pf, ops)
        _mk_sat_eq(rng, ops)
        ops.append(Op("irreducibility_warnings", lambda: P.irreducibility_warnings(pf.system, REL_BOUND), check_warn))
        rng.shuffle(ops)
        out.append(ops)
    return out


# -------------------------------------------------------- defsys-extents

CHAIN_PREDS = gen.unary_preds(6, "Q")


class Chain:
    """A generated chain source with everything expected of it."""

    def __init__(self, rng, n, model_size=0, prefix="D"):
        self.defs = gen.chain_defs(rng, n, CHAIN_PREDS, prefix)
        self.model = (
            gen.random_model(rng, [(p, 1) for p in CHAIN_PREDS], (), model_size)
            if model_size
            else None
        )
        models = [("m", self.model)] if self.model else []
        self.source = gen.defs_source(CHAIN_PREDS, self.defs, models)
        self.leaf = self.defs[-1][0]
        self.names = [name for name, _, _ in self.defs]
        self.deps = {
            (name, other)
            for name, _, body in self.defs
            for other in preds_of(body)
            if other in self.names
        }

    def defs_map(self):
        return {name: (params, body) for name, params, body in self.defs}

    def check_parse(self, pf):
        got = [(e.name, tuple(e.params), from_lib(e.body)) for e in pf.system.entries]
        expect(got == self.defs, "parsed definitions differ from the source")
        if self.model is not None:
            m = model_of(pf.models["m"])
            expect(m.size == self.model.size, "parsed universe size differs")
            for p in CHAIN_PREDS:
                expect(m.preds.get(p, set()) == self.model.preds[p], f"parsed extent of {p} differs")


def _mk_parse(rng, chain, round_ops, kind):
    round_ops.append(Op(kind, lambda: P.parse(chain.source), chain.check_parse))


def _mk_validate(chain, pf, round_ops, fault_rng=None):
    system = pf.system
    expected = set()
    if fault_rng is not None:
        # Point one body at a later class: a forward reference there.
        i = fault_rng.randrange(1, len(chain.defs) - 2)
        j = fault_rng.randrange(i + 1, len(chain.defs))
        name, params, body = chain.defs[i]
        bad = ("and", body, pred(chain.names[j], "x"))
        entries = list(system.entries)
        lbad = P.parse_formula(text(bad), pf.signature, P.DefinitionSystem(pf.signature, tuple(entries)))
        entries[i] = P.PredicateDef(name, params, lbad)
        system = P.DefinitionSystem(pf.signature, tuple(entries))
        expected = {(i, "forward-reference", chain.names[j])}

    def check(report):
        got = {(v.entry, v.kind, v.symbol) for v in report.violations}
        expect(got == expected and report.valid == (not expected), f"violations {sorted(got)}, expected {sorted(expected)}")

    kind = "validate.fault" if expected else "validate"
    round_ops.append(Op(kind, lambda: P.validate(system), check))


def _mk_tree(chain, pf, round_ops):
    expected = []
    for i, (name, _, body) in enumerate(chain.defs[1:], start=1):
        parts = conjunct_list(body)
        expected.append((name, chain.names[i - 1], conj(parts[1:])))

    def check(res):
        tree, unguarded = res
        got = [(e.species, e.genus, from_lib(e.difference)) for e in tree.edges]
        expect(got == expected, "tree edges differ from the chain")
        expect(tuple(tree.roots) == (chain.names[0],) and not unguarded, "roots or unguarded classes wrong")

    round_ops.append(Op("porphyry_tree", lambda: P.porphyry_tree(pf.system), check))


def _mk_graph(chain, pf, round_ops):
    def check(g):
        expect(set(g.edges) == chain.deps and list(g.nodes) == chain.names, "dependency graph differs")

    round_ops.append(Op("dependency_graph", lambda: P.dependency_graph(pf.system), check))


def _mk_unfold(rng, chain, pf, round_ops, kind):
    f = P.parse_formula(f"{chain.leaf}(x)", pf.signature, pf.system)
    samples = [gen.random_model(rng, [(p, 1) for p in CHAIN_PREDS], (), 6) for _ in range(3)]
    defs = chain.defs_map()

    def check(g):
        out = from_lib(g)
        expect(preds_of(out) <= set(CHAIN_PREDS), "unfolding left a defined symbol")
        # Sampled, not exhaustive: the unfolded leaf reads up to 2^6 cells.
        for m in samples:
            for e in range(m.size):
                expect(
                    holds(out, m, {"x": e}) == holds(pred(chain.leaf, "x"), m, {"x": e}, defs),
                    "unfolding changes the extent of the leaf",
                )

    round_ops.append(Op(kind, lambda: P.unfold(f, pf.system), check))


def _mk_extensions(chain, pf, round_ops):
    m = pf.models["m"]
    expected = _lazy(lambda: gen.class_extents(chain.defs, chain.model))

    def check(fam):
        expect(dict(fam.sets) == expected(), "class extents differ")

    round_ops.append(Op("extensions.chain", lambda: P.extensions(pf.system, m), check))


def _mk_laminar(rng, round_ops, overlap):
    """check_laminar on a laminar family of cell unions, or on the same
    family plus a set that overlaps one member without nesting; the
    laminar one is also rebuilt by reconstruct."""
    preds = CHAIN_PREDS[:4]
    while True:
        m = gen.random_model(rng, [(p, 1) for p in preds], (), rng.randint(20, 40))
        fam = gen.laminar_family(rng, m, preds)
        proper = [s for _, s in fam if 2 <= len(s) < m.size]
        if proper:
            break
    sets = list(fam)
    if overlap:
        inner = sorted(proper[0])
        outside = next(e for e in range(m.size) if e not in proper[0])
        sets.append(("T", frozenset([inner[0], outside])))
    sig = _sig([(p, 1) for p in preds])
    lm = P.FiniteModel(m.size, {}, {p: frozenset(m.preds[p]) for p in preds})
    family = P.ExtensionFamily(sig, lm, tuple(sets))

    def first_bad():
        from itertools import combinations

        for (an, a), (bn, b) in combinations(sorted(sets), 2):
            if a & b and not (a <= b or b <= a):
                return an, bn
        return None

    expected = _lazy(first_bad)

    def check_lam(v):
        bad = expected()
        expect((bad is None) == (not overlap), "the family was built to be laminar or not")
        if bad is None:
            expect(type(v).__name__ == "Laminar", "laminar family reported not laminar")
        else:
            expect(type(v).__name__ == "NotLaminar", "overlap not found")
            expect((v.first[0], v.second[0]) == bad, f"witness {(v.first[0], v.second[0])}, expected {bad}")

    round_ops.append(Op("check_laminar", lambda: P.check_laminar(family), check_lam))
    if not overlap:
        round_ops.append(Op("reconstruct", lambda: P.reconstruct(family), check_reconstruct(dict(fam), m)))


def check_reconstruct(family, m):
    def check(r):
        expect(type(r).__name__ == "ReconstructedSystem", f"{type(r).__name__} for a laminar cell family")
        defs = [(e.name, tuple(e.params), from_lib(e.body)) for e in r.system.entries]
        got = gen.class_extents(defs, m)
        for name, elems in family.items():
            expect(got[r.names[name]] == elems, f"rebuilt {name} has another extent")

    return check


MAGMA_EDGES = [
    ("Grp", "Mon", pred("HasInv", "x")),
    ("Ab", "Grp", pred("Comm", "x")),
]


def _magma_expected(size):
    def compute():
        ax, n = magma_axioms(size)
        mon = ax["Assoc"] & ax["HasId"]
        grp = mon & ax["HasInv"]
        return n, {"Mon": frozenset(mon), "Grp": frozenset(grp), "Ab": frozenset(grp & ax["Comm"])}

    return _lazy(compute)


def build_defsys(seed, rounds):
    rng = random.Random(seed)
    model3, magma_sys = P.demo_magma(3)
    model2, _ = P.demo_magma(2)
    expected3 = _magma_expected(3)

    def check_magma(fam):
        n, sets = expected3()
        expect(fam.model.size == n and dict(fam.sets) == sets, "magma class extents differ")

    fam3 = P.extensions(magma_sys, model3)

    def check_fam3(v):
        # Ab and Grp have equal extents up to size 3, so the family nests.
        expect(type(v).__name__ == "Laminar", "the magma class family is nested")

    def check_magma_tree(res):
        tree, unguarded = res
        got = [(e.species, e.genus, from_lib(e.difference)) for e in tree.edges]
        expect(got == MAGMA_EDGES and not unguarded, "magma tree differs")

    def check_magma_graph(g):
        expect(set(g.edges) == {(s, t) for s, t, _ in MAGMA_EDGES}, "magma dependency graph differs")

    # One file of about a thousand definitions, parsed once per round.
    big = Chain(rng, 1000, prefix="E")
    mon2 = P.extensions(magma_sys, model2).as_dict()
    assoc2 = frozenset(t[0] for t in model2.predicates["Assoc"])
    fam2 = {"Assoc": assoc2, "Mon": mon2["Mon"], "Grp": mon2["Grp"]}
    lam2 = P.ExtensionFamily(magma_sys.base, model2, tuple(fam2.items()))
    out = []
    for r in range(rounds):
        ops = []
        # Fixed lengths: the seed changes the bodies, not the work.
        small = Chain(rng, 12, model_size=40)
        mid = Chain(rng, 50)
        pf_small = P.parse(small.source)
        pf_mid = P.parse(mid.source)
        _mk_parse(rng, small, ops, "parse.small")
        _mk_parse(rng, mid, ops, "parse.mid")
        _mk_validate(small, pf_small, ops)
        _mk_validate(mid, pf_mid, ops)
        _mk_validate(mid, pf_mid, ops, fault_rng=rng)
        _mk_tree(small, pf_small, ops)
        _mk_tree(mid, pf_mid, ops)
        _mk_graph(small, pf_small, ops)
        _mk_graph(mid, pf_mid, ops)
        _mk_unfold(rng, small, pf_small, ops, "unfold.small")
        _mk_unfold(rng, mid, pf_mid, ops, "unfold.mid")
        _mk_extensions(small, pf_small, ops)
        _mk_laminar(rng, ops, overlap=False)
        _mk_laminar(rng, ops, overlap=True)
        ops.append(Op("check_laminar.magma3", lambda: P.check_laminar(fam3), check_fam3))
        ops.append(Op("porphyry_tree.magma", lambda: P.porphyry_tree(magma_sys), check_magma_tree))
        ops.append(Op("dependency_graph.magma", lambda: P.dependency_graph(magma_sys), check_magma_graph))
        # The same definitions each round, under a different first line, so
        # a cache keyed on the text sees no repeats.
        big_text = f"# round {r}\n" + big.source
        ops.append(Op("parse.big", lambda text=big_text: P.parse(text), big.check_parse))
        ops.append(Op("extensions.magma3", lambda: P.extensions(magma_sys, model3), check_magma))
        ops.append(Op("reconstruct.magma2", lambda: P.reconstruct(lam2), check_reconstruct(fam2, model_of(model2))))
        rng.shuffle(ops)
        out.append(ops)
    return out


# ----------------------------------------------------------- cli-session

CLI_COMMANDS = (
    "check", "tree", "classify", "entail", "entail_bounded", "sat",
    "normalize", "extensions", "reconstruct", "generators", "demo", "proximate",
)
CLI_BOOT = "import sys; from porphyry.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_subprocess(argv, env):
    import subprocess
    import sys

    p = subprocess.run(
        [sys.executable, "-c", CLI_BOOT, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return p.returncode, p.stdout


def cli_inprocess(argv):
    from porphyry import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _payload(res, command, codes):
    """Exit code and schema first; the parsed payload for the rest."""
    import jsonschema
    from porphyry.cli import SCHEMAS

    code, out = res
    expect(code in codes, f"{command}: exit code {code}, expected {sorted(codes)}")
    try:
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMAS[command])
    except (ValueError, jsonschema.ValidationError) as exc:
        raise Mismatch(f"{command}: payload invalid: {exc}") from None
    return code, payload


def _cli_countermodel(verdict, premises, conclusion, defs=None):
    m = read_model(verdict["model"])
    check_countermodel(m, verdict.get("assignment", {}), premises, conclusion, defs)
    return m


class CliRound:
    """One round of commands over files written to `workdir`."""

    def __init__(self, rng, r, workdir, run):
        self.rng, self.dir, self.run_cli, self.ops = rng, workdir, run, []
        self.tag = r

    def write(self, name, source):
        path = f"{self.dir}/r{self.tag}-{name}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
        return path

    def add(self, kind, argv, command, codes, check_payload):
        def check(res):
            code, payload = _payload(res, command, codes)
            check_payload(code, payload)

        argv = [*argv, "--json"]
        self.ops.append(Op(f"cli.{kind}", lambda: self.run_cli(argv), check, argv=argv))


def _cli_tree_file(cr):
    rng = cr.rng
    tree = gen.TreeSystem(rng, 3, depth=2, with_atoms=rng.random() < 0.5)
    space = CellSpace(tree.preds, tree.cells)
    facts = [gen.mformula(rng, tree.preds, tree.cells, None, 1) for _ in range(2)]
    sentences = [conj(facts), gen.rewrite(rng, conj(facts)), facts[0], facts[1]]
    rng.shuffle(sentences)
    path = cr.write("tree.pdl", tree.source(sentences))
    xspace = CellSpace(tree.preds, tree.cells, "x")

    expected_edges = [(f"A{i}", f"A{i-1}", tree.diffs[i]) for i in range(1, tree.depth + 1)]
    expected_edges.insert(1, ("B1", "A0", tree.defs["B1"][1][2]))

    def check_tree(code, p):
        got = [(e["species"], e["genus"], read_formula(e["difference"])) for e in p["edges"]]
        expect(got == expected_edges, "tree edges differ")

    cr.add("tree", ["tree", path], "tree", {0}, check_tree)

    label = rng.choice(["difference", "property", "accident", "unrelated"])
    rho = tree.rho(rng, label)
    defs = tree.defs
    want = _lazy(
        lambda: expected_label(
            lambda f, g: xspace.entails(f, g, defs), rho, tree.diffs[-1], pred(tree.leaf, "x")
        ).lower()
    )
    sides = {"rho": rho, "delta": tree.diffs[-1], "psi": pred(tree.leaf, "x")}

    def check_classify_cli(code, p):
        expect(p["verdict"] == want(), f"classified {p['verdict']}, expected {want()}")
        for key, v in p["evidence"].items():
            if v["kind"] == "countermodel":
                lhs, _, rhs = key.partition("_entails_")
                _cli_countermodel(v, [sides[lhs]], sides[rhs], defs)

    cr.add("classify", ["classify", path, "--species", tree.leaf, "--formula", text(rho)], "classify", {0}, check_classify_cli)

    flags = _lazy(lambda: generator_flags(sentences, space.entails))

    def check_gen(code, p):
        expect(tuple(s["generator"] for s in p["sentences"]) == flags(), "generator flags differ")

    cr.add("generators", ["generators", path], "generators", {0}, check_gen)

    candidates = ["A0", "A1", "B1", tree.preds[0]]
    rng.shuffle(candidates)
    prox = _lazy(lambda: expected_proximate(tree, candidates))

    def check_prox(code, p):
        chosen, diff, _ = prox()
        expect(p["chosen"] == chosen, f"proximate genus {p['chosen']}, expected {chosen}")
        expect(canon(read_formula(p["difference"])) == diff, "residual difference differs")

    cr.add("proximate", ["proximate", path, "--species", tree.leaf, "--candidates", ",".join(candidates)], "proximate", {0}, check_prox)


def _cli_chain_files(cr):
    rng = cr.rng
    # Three base predicates keep the check command's redundancy scan
    # (every model up to size 3) small.
    preds = CHAIN_PREDS[:3]
    defs = gen.chain_defs(rng, rng.randint(6, 10), preds)
    m = gen.random_model(rng, [(p, 1) for p in preds], (), rng.randint(8, 20))
    path = cr.write("chain.pdl", gen.defs_source(preds, defs, [("m", m)]))
    unary = tuple((p, 1) for p in preds)
    want = _lazy(lambda: redundant_conjuncts(defs, every_model(unary, (), 3)))

    def check_check(code, p):
        expect(p["valid"] and not p["violations"], "valid system reported invalid")
        got = {(w["entry"], w["conjunct"]) for w in p["warnings"]}
        expect(got == want(), f"warnings {sorted(got)}, expected {sorted(want())}")

    cr.add("check", ["check", path], "check", {0}, check_check)

    bad = list(defs)
    i = rng.randrange(1, len(bad) - 1)
    name, params, body = bad[i]
    bad[i] = (name, params, ("and", body, pred(bad[-1][0], "x")))
    bad_path = cr.write("bad.pdl", gen.defs_source(preds, bad))

    def check_bad(code, p):
        got = {(v["entry"], v["kind"], v["symbol"]) for v in p["violations"]}
        expect(not p["valid"] and got == {(i, "forward-reference", bad[-1][0])}, f"violations {sorted(got)}")

    cr.add("check", ["check", bad_path], "check", {1}, check_bad)

    ext = _lazy(lambda: gen.class_extents(defs, m))

    def check_ext(code, p):
        got = {s["name"]: frozenset(s["elements"]) for s in p["sets"]}
        expect(got == ext(), "class extents differ")

    cr.add("extensions", ["extensions", path, "--model", "m"], "extensions", {0}, check_ext)

    family = dict(gen.laminar_family(rng, m, preds))
    fam_text = "; ".join(f"{n}={{{', '.join(map(str, sorted(s)))}}}" for n, s in family.items())

    def check_rec(code, p):
        expect(p["result"] == "system", f"reconstruct gave {p['result']}")
        rebuilt = read_defs(p["defsys"])
        got = gen.class_extents([(n, ps, b) for n, (ps, b) in rebuilt.items()], m)
        for name, elems in family.items():
            expect(got[p["names"][name]] == elems, f"rebuilt {name} has another extent")

    cr.add("reconstruct", ["reconstruct", path, "--model", "m", "--family", fam_text], "reconstruct", {0}, check_rec)


def _cli_formulas(cr):
    rng = cr.rng
    preds = gen.unary_preds(3)
    cells = gen.relevant_cells(rng, 3)
    sig = " ".join(f"pred {p}/1;" for p in preds)
    space = CellSpace(preds, cells)
    f = gen.mformula(rng, preds, cells, None, 2)
    g = gen.mformula(rng, preds, cells, None, 2)
    if rng.random() < 0.5:
        g = ("or", gen.rewrite(rng, f), g)
    holds_exp = _lazy(lambda: space.entails(f, g))

    def check_entail(code, p):
        v = p["verdict"]
        expect(p["engine"] == "exact-monadic", "monadic entailment not decided exactly")
        expect((v["kind"] == "holds") == holds_exp() and code == (0 if holds_exp() else 1), f"verdict {v['kind']}")
        if v["kind"] == "countermodel":
            _cli_countermodel(v, [f], g)

    cr.add("entail", ["entail", "--lhs", text(f), "--rhs", text(g), "--sig", sig], "entail", {0, 1}, check_entail)

    h = gen.mformula(rng, preds, cells, None, 2)
    if rng.random() < 0.4:
        h = ("and", h, neg(gen.rewrite(rng, h)))
    sat_exp = _lazy(lambda: space.satisfiable(h))

    def check_sat_cli(code, p):
        expect(p["satisfiable"] == sat_exp() and code == (0 if sat_exp() else 1), "satisfiability differs")
        if p["satisfiable"]:
            m = read_model(p["witness"]["model"])
            expect(holds(h, m, p["witness"]["assignment"]), "witness does not satisfy the formula")

    cr.add("sat", ["sat", "--formula", text(h), "--sig", sig], "sat", {0, 1}, check_sat_cli)

    p2 = preds[:2]
    c2 = gen.relevant_cells(rng, 2)
    nf_in = gen.mformula(rng, p2, c2, "x", 2)
    xspace = CellSpace(p2, c2, "x")

    def check_nf(code, p):
        expect(xspace.equivalent(nf_in, read_formula(p["formula"])), "normal form not equivalent")
        expect(p["pure"] == all(d["residue"] == "true" for d in p["disjuncts"]), "pure flag wrong")

    cr.add("normalize", ["normalize", "--formula", text(nf_in), "--sig", "pred P0/1; pred P1/1;", "--var", "x"], "normalize", {0}, check_nf)

    rs = gen.REL_SIGS[0]
    size = rng.choice([None, 1, 2])
    if size is None:
        prem, concl = gen.valid_query(rng, rs, rng.randrange(len(gen.VALID[rs.name])))
    else:
        prem, concl = gen.refuted_query(rng, rs, size)
    lhs = conj(prem)
    frees = sorted(gen.free_of(lhs) | gen.free_of(concl))
    first = _lazy(lambda: first_countermodel_size(rs.preds, (), [lhs], concl, frees, 2))

    def check_bounded(code, p):
        v = p["verdict"]
        expect(p["engine"] == "bounded" and p["bound"] == 2, "relational entailment not bounded at 2")
        if first() is None:
            expect(v["kind"] == "holds-up-to" and code == 3, f"verdict {v['kind']}, expected holds-up-to")
        else:
            expect(v["kind"] == "countermodel" and code == 1, f"verdict {v['kind']}, expected countermodel")
            m = _cli_countermodel(v, [lhs], concl)
            expect(m.size == first(), f"countermodel of size {m.size}, smallest is {first()}")

    cr.add("entail_bounded", ["entail", "--lhs", text(lhs), "--rhs", text(concl), "--sig", "pred R/2;", "--bound", "2"], "entail", {1, 3}, check_bounded)


def _check_demo(code, p):
    m = read_model(p["source"])
    axioms, n = _DEMO2()
    expect(m.size == n, "demo universe size differs")
    for name, idx in axioms.items():
        expect({e for (e,) in m.preds.get(name, ())} == idx, f"demo extent of {name} differs")


_DEMO2 = _lazy(lambda: magma_axioms(2))


def build_cli(seed, rounds, workdir, run):
    """`run(argv)` executes one command: a child process, or cli.main in
    this process for the traced phase."""
    rng = random.Random(seed)
    out = []
    for r in range(rounds):
        cr = CliRound(rng, r, workdir, run)
        _cli_tree_file(cr)
        _cli_chain_files(cr)
        _cli_formulas(cr)
        cr.add("demo", ["demo", "magma", "--max-size", "2"], "demo", {0}, _check_demo)
        rng.shuffle(cr.ops)
        out.append(cr.ops)
    return out
