"""Text format for signatures, definition systems, finite models, and claims.

Grammar sketch (comments run from `#` to end of line):

    file     := (sig | defsys | model | assert)*
    sig      := "sig" "{" ("pred" NAME "/" INT ";" | "const" NAME ";"
                           | "equality" ";")* "}"
    defsys   := "defsys" "{" (predicate-def | constant-def)* "}"
    pred-def := "def" NAME "(" [NAME ("," NAME)*] ")" ":=" formula ";"
    const-def:= "defconst" NAME ":=" NAME ";"
    model    := "model" NAME "{" "universe" INT ";" (NAME "=" extent ";")* "}"
    assert   := "assert" formula ";"

Formula connectives, loosest first: `<->`, `->`, `|`, `&`, `!`; the two
arrows associate to the right.  The binary connectives are read by
precedence climbing over `syntax.CONNECTIVES`, and the keywords `forall`,
`exists`, `true` and `false` come from `syntax.KEYWORD_OF`, the tables that
`render` reads too.  `forall x.` / `exists y.` bind as far right
as possible, so `!` and `&` written before a quantifier apply to its whole
body.  Atoms: `true`, `false`, `P(t, ...)`, bare `P` for a 0-ary predicate,
and `t = u` when the signature declares equality.  Parentheses, quantifier
bodies, `!` and the right operand of an arrow each open one nesting level;
a formula nested deeper than MAX_NESTING levels is a ParseError.  So is a
formula whose syntax tree is more than MAX_DEPTH connectives and quantifiers
deep, such as a chain of thousands of `&`: every later walk over a formula
recurses once per level of its tree.

One compiled pattern reads the text as a list of words, one per token,
with `findall`: blanks and comments before a token are a non-capturing
prefix of the same match, and the end of the text is the empty word.  A
keyword or a punctuation mark is the word itself; a NAME is a word that
starts with a letter or `_` (then letters, digits and `_`) and is not a
keyword; an INT is a run of Unicode decimal digits.  Blanks are space,
tab, `\\r` and `\\n` only; any other character outside a comment is a
ParseError, raised before any grammar error.  The parser keeps only the
index of each word: a ParseError scans the text again to find the
offset of its word, and from it the line and column (from 1, a tab
counting as one column).

Equal terms, formulas and definitions are one object, within a text and
across texts.  Every node the parser builds, down to each Var and Const and
up to each PredicateDef and ConstantDef, goes through one table for the
whole process, which hands back the node already built for an equal key
while that node lives.  So a parsed file holds one node per distinct
subtree, and two parses of one text, or of texts that define the same
things, share every equal node: `==` between them meets the same objects
and answers at once.  Nodes are frozen and compare structurally, so only
the number of objects changes.  The sharing saves work and memory only
where equal text is parsed again while an earlier parse of it lives; every
live node pays for the table with a weak reference, its key and a slot in
the table, about four times the size of the node itself, and a node that
dies calls `_drop`.

A key is a tuple of the node's class name, its names and the ids of its
children.  The table holds each node by a weak reference that carries its
key, so it keeps no node alive: a live node keeps its children alive, so
the ids in every live key name the children it was built from, and a node
that dies drops its key (a reference found dead before that is a miss).
A key holds no class object: a class is tracked by the garbage collector,
and so is every tuple that holds one, while a tuple of strings and ints is
untracked at the first collection that sees it.  So the keys of a long
parse are not traversed again, nor promoted to the old generation for
every full collection to walk.  Two threads that miss on one key at once
may each build a node for it, so a race of two builds at most two equal
nodes: the table keeps the one entered last, and the other is equal, only
not shared.

Names resolve through the system's symbol table (`DefinitionSystem.symbols`),
which a defsys block extends entry by entry.  Definition bodies may mention
symbols that are not declared (yet); ordering and arity discipline is the
validator's job, so broken systems still parse and can be reported on.
Standalone formulas (assert, the formula-parsing API) are checked against
the signature at parse time.

Model blocks interpret base symbols only.  Unassigned predicates default to
the empty extent; every declared constant must be assigned.  A unary extent
lists bare elements (`M1 = {0, 2};`), higher arities list tuples, a 0-ary
predicate is true iff its extent is `{()}`, and a constant takes `c = 3;`
or `c = {3};`.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .defsys import ConstantDef, Definition, DefinitionSystem, PredicateDef, _define
from .semantics import FiniteModel
from .syntax import (
    CONNECTIVES,
    KEYWORD_OF,
    QUANTIFIERS,
    Const,
    Eq,
    Formula,
    Not,
    Pred,
    Signature,
    Term,
    Var,
    fresh_name,
    rename_apart,
)

# Each level costs the parser at most two stack frames (for a parenthesis
# or a quantifier, one for the atom and one for the formula inside it): a
# formula at the limit parses in about 210, inside Python's default 1000.
MAX_NESTING = 100
# The walkers over a parsed formula (rename_apart, evaluate, nnf, the tensor
# evaluator, ...) take about one stack frame per level of its tree.
MAX_DEPTH = 500


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# The formula syntax comes from the tables in `syntax`: the node class of
# each keyword, and the binding power, node class and associativity of each
# binary connective by its symbol.
_KEYWORD_NODES = {word: cls for cls, word in KEYWORD_OF.items()}
_BINARY = {s: (power, cls, right) for cls, (s, power, right) in CONNECTIVES.items()}
_TIGHTEST = max(power for power, _, _ in _BINARY.values())
KEYWORDS = frozenset(
    "sig defsys model assert def defconst pred const equality universe".split()
).union(_KEYWORD_NODES)
_PUNCT = frozenset(":= ( ) { } , ; . = ! /".split()).union(_BINARY)
# The words that are neither a name, an integer nor a stray character.
_MARKS = KEYWORDS | _PUNCT | {""}
# One match per token: the blanks and comments before it, then the token,
# the only group, so findall gives the words alone; the empty word is the
# end of the text.  The marks of _PUNCT come first, longer before shorter,
# so no mark is read as its prefix.  \d is the Unicode decimal digits,
# which int() reads, and comes before \w, so `1²` is 1 and then `²`; \w is
# any character where str.isalnum() holds, or `_`.  The `.` branch takes
# every other character (a newline is always a blank).  It and a `\w+`
# word that starts with neither a letter, `_` nor a decimal digit are
# stray.
_WORD = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*("
    + "|".join(re.escape(m) for m in sorted(_PUNCT, key=lambda m: (-len(m), m)))
    + r"|\d+|\w+|.|\Z)"
)


class _Ref(weakref.ref):
    """A weak reference to a node of `_NODES` that carries the node's key."""

    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    """Drop a dead node's key, unless the key has since been given to
    another node."""
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


# Every node the parser has built that is still alive, under its key (see
# `_build` and the module docstring).  It outlives every parse.
_NODES: dict[tuple, _Ref] = {}


def _build(key: tuple, cls: type, *fields: object) -> Formula | Term | Definition:
    """The live node of the process under `key`, else cls(*fields), entered
    under `key`.  A key is the class's name, then each name by value and
    each child node by id.  The table holds its nodes weakly and a live node
    keeps its children alive, so a live key's ids name live children, and
    equal keys are equal nodes.  A node lives as long as its callers hold
    it, and its key goes with it.  Two threads that miss on one key at once
    build two equal nodes, and the table keeps the one entered last.  No key
    holds a class object, so the garbage collector untracks every key (see
    the module docstring)."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = cls(*fields)
    ref = _Ref(node, _drop)
    ref.key = key
    _NODES[key] = ref
    return node


def _error(message: str, text: str, at: int) -> ParseError:
    """A ParseError at word `at` of `text`: lines and columns count from 1,
    and a tab is one column."""
    pos = next(islice(_WORD.finditer(text), at, None)).start(1)
    return ParseError(
        message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    )


def _words(text: str) -> tuple[list[str], set[str]]:
    """The words of `text`, the last one empty, and the set of those that
    are names.  A stray character is a ParseError here, at the first word
    that holds one."""
    words = _WORD.findall(text)
    names: set[str] = set()
    stray: list[str] = []
    for w in set(words).difference(_MARKS):
        c = w[0]
        if c.isalpha() or c == "_":
            names.add(w)
        elif not c.isdecimal():
            stray.append(w)
    if stray:
        at = min(map(words.index, stray))
        raise _error(f"unexpected character {words[at][0]!r}", text, at)
    return words, names


@dataclass(frozen=True)
class ParsedFile:
    signature: Signature
    system: DefinitionSystem
    models: dict[str, FiniteModel]
    asserts: tuple[Formula, ...]


class _Parser:
    """Recursive descent over the words of one text.

    `i` is the index of the next word.  A ParseError ends the parse, so the
    nesting depth and a scope's bound names are not restored when one is
    raised.
    """

    __slots__ = ("text", "words", "names", "i", "depth", "height")

    def __init__(self, text: str):
        self.text = text
        self.words, self.names = _words(text)
        self.i = 0
        self.depth = 0
        # Tree depth of the formula parsed last: 0 for an atom.
        self.height = 0

    # ------------------------------------------------------ word plumbing

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at word `at`, by default the next word."""
        return _error(message, self.text, self.i if at is None else at)

    def expected(self, what: str) -> ParseError:
        got = self.words[self.i] or "end of input"
        return self.fail(f"expected {what}, got {got!r}")

    def eat(self, word: str) -> bool:
        if self.words[self.i] == word:
            self.i += 1
            return True
        return False

    def expect(self, word: str, what: str = "") -> None:
        if self.words[self.i] != word:
            raise self.expected(what or repr(word))
        self.i += 1

    def name(self) -> str:
        w = self.words[self.i]
        if w not in self.names:
            raise self.expected("a name")
        self.i += 1
        return w

    def integer(self) -> int:
        w = self.words[self.i]
        if not w[:1].isdecimal():
            raise self.expected("an integer")
        self.i += 1
        try:
            return int(w)
        except ValueError:  # past the interpreter's integer digit limit
            message = f"integer of {len(w)} digits is too long"
            raise self.fail(message, self.i - 1) from None

    # -------------------------------------------------------- file level

    def parse_file(self) -> ParsedFile:
        sig: Signature | None = None
        entries: list[Definition] = []
        models: dict[str, FiniteModel] = {}
        asserts: list[Formula] = []
        # One symbol table for the file, extended by each defsys entry, and
        # two scopes over it: a lax one for definition bodies and a strict
        # one for asserts.  The names an assert's binders avoid are worked
        # out once per change to the table.
        lax, strict = _Scope.pair(DefinitionSystem(self.current_sig(sig), ()))
        reserved: frozenset[str] | None = None
        while True:
            at = self.i
            w = self.words[at]
            if w == "":
                break
            self.i += 1
            if w == "sig":
                if sig is not None:
                    raise self.fail("signature already declared", at)
                sig = self.parse_sig_body()
                lax, strict = _Scope.pair(DefinitionSystem(sig, tuple(entries)))
                reserved = None
            elif w == "defsys":
                self.parse_defsys_body(self.current_sig(sig), lax, entries)
                reserved = None
            elif w == "model":
                name, m = self.parse_model(self.current_sig(sig))
                if name in models:
                    raise self.fail(f"model {name} already declared", at)
                models[name] = m
            elif w == "assert":
                f = self.formula(strict)
                self.expect(";")
                if reserved is None:
                    reserved = frozenset(strict.symbols)
                asserts.append(rename_apart(f, reserved))
            else:
                raise self.fail(
                    "expected 'sig', 'defsys', 'model', or 'assert'", at
                )
        base = self.current_sig(sig)
        return ParsedFile(
            signature=base,
            system=DefinitionSystem(base, tuple(entries)),
            models=models,
            asserts=tuple(asserts),
        )

    @staticmethod
    def current_sig(sig: Signature | None) -> Signature:
        return sig if sig is not None else Signature((), (), False)

    def parse_sig_body(self) -> Signature:
        self.expect("{")
        preds: list[tuple[str, int]] = []
        consts: list[str] = []
        equality = False
        seen: set[str] = set()
        while not self.eat("}"):
            if self.eat("pred"):
                at = self.i
                name = self.name()
                self.expect("/")
                arity = self.integer()
                if name in seen:
                    raise self.fail(f"symbol {name} already declared", at)
                seen.add(name)
                preds.append((name, arity))
            elif self.eat("const"):
                at = self.i
                name = self.name()
                if name in seen:
                    raise self.fail(f"symbol {name} already declared", at)
                seen.add(name)
                consts.append(name)
            else:
                self.expect("equality", "'pred', 'const', or 'equality'")
                equality = True
            self.expect(";")
        return Signature(tuple(preds), tuple(consts), equality)

    def parse_defsys_body(
        self, sig: Signature, scope: "_Scope", entries: list[Definition]
    ) -> None:
        """Append the block's entries to `entries`, entering each into the
        scope's symbol table as it is read."""
        self.expect("{")
        words = self.words
        while True:
            w = words[self.i]
            if w == "}":
                self.i += 1
                return
            entry: Definition
            if w == "def":
                self.i += 1
                name = self.name()
                self.expect("(")
                params: list[str] = []
                if words[self.i] != ")":
                    while True:
                        at = self.i
                        p = self.name()
                        if p in params:
                            raise self.fail(f"duplicate parameter {p}", at)
                        if p in scope.symbols:
                            raise self.fail(f"{p} shadows a declared symbol", at)
                        params.append(p)
                        if words[self.i] != ",":
                            break
                        self.i += 1
                self.expect(")")
                self.expect(":=")
                scope.bound = set(params)
                body = self.formula(scope)
                self.expect(";")
                entry = _build(
                    ("PredicateDef", name, id(body), *params),
                    PredicateDef,
                    name,
                    tuple(params),
                    body,
                )
            elif w == "defconst":
                self.i += 1
                name = self.name()
                self.expect(":=")
                at = self.i
                rhs = self.name()
                scope.check_constant(rhs, at, self)
                self.expect(";")
                var = fresh_name("y", sig.names() | {name, rhs})
                left = _build(("Var", var), Var, var)
                right = _build(("Const", rhs), Const, rhs)
                body = _build(("Eq", id(left), id(right)), Eq, left, right)
                entry = _build(
                    ("ConstantDef", name, var, id(body)), ConstantDef, name, var, body
                )
            else:
                raise self.fail("expected 'def' or 'defconst'")
            entries.append(entry)
            _define(scope.symbols, len(entries) - 1, entry)

    # ------------------------------------------------------------ models

    def parse_model(self, sig: Signature) -> tuple[str, FiniteModel]:
        name_at = self.i
        name = self.name()
        self.expect("{")
        at = self.i
        if not self.eat("universe"):
            raise self.fail("model must open with 'universe'")
        size = self.integer()
        if size < 1:
            raise self.fail("universe must have at least 1 element", at)
        self.expect(";")
        preds: dict[str, frozenset[tuple[int, ...]]] = {}
        consts: dict[str, int] = {}
        while not self.eat("}"):
            at = self.i
            sym = self.name()
            arity = sig.arity(sym)
            is_const = sig.is_constant(sym)
            if arity is None and not is_const:
                raise self.fail(f"{sym} is not a base signature symbol", at)
            if sym in preds or sym in consts:
                raise self.fail(f"{sym} assigned twice", at)
            self.expect("=")
            if is_const:
                consts[sym] = self.parse_const_value(size)
            else:
                preds[sym] = self.parse_extent(size, arity)
            self.expect(";")
        for pname, arity in sig.predicates:
            preds.setdefault(pname, frozenset())
        for cname in sig.constants:
            if cname not in consts:
                raise self.fail(
                    f"constant {cname} not interpreted in model {name}", name_at
                )
        return name, FiniteModel(size, consts, preds)

    def parse_element(self, size: int) -> int:
        at = self.i
        v = self.integer()
        if not 0 <= v < size:
            raise self.fail(f"element {v} outside universe of size {size}", at)
        return v

    def parse_const_value(self, size: int) -> int:
        if self.eat("{"):
            v = self.parse_element(size)
            self.expect("}")
            return v
        return self.parse_element(size)

    def parse_extent(self, size: int, arity: int) -> frozenset[tuple[int, ...]]:
        self.expect("{")
        tuples: set[tuple[int, ...]] = set()
        if self.eat("}"):
            return frozenset()
        while True:
            at = self.i
            if self.eat("("):
                elems: list[int] = []
                if self.words[self.i] != ")":
                    while True:
                        elems.append(self.parse_element(size))
                        if not self.eat(","):
                            break
                self.expect(")")
                tup = tuple(elems)
            else:
                tup = (self.parse_element(size),)
            if len(tup) != arity:
                raise self.fail(
                    f"tuple of length {len(tup)} for a /{arity} predicate", at
                )
            tuples.add(tup)
            if not self.eat(","):
                break
        self.expect("}")
        return frozenset(tuples)

    # ---------------------------------------------------------- formulas

    def too_deep(self) -> ParseError:
        return self.fail(f"formula deeper than {MAX_DEPTH} levels")

    def too_nested(self) -> ParseError:
        return self.fail(f"formula nested deeper than {MAX_NESTING} levels")

    def formula(self, scope: "_Scope", floor: int = 1) -> Formula:
        """A formula whose binary connectives bind at least at `floor`, by
        precedence climbing over _BINARY."""
        words = self.words
        left = self.unary(scope)
        op = _BINARY.get(words[self.i])
        while op is not None and op[0] >= floor:
            power, cls, right_assoc = op
            self.i += 1
            height = self.height
            if right_assoc:
                # The right operand of an arrow is one nesting level deeper.
                if self.depth >= MAX_NESTING:
                    raise self.too_nested()
                self.depth += 1
                right = self.formula(scope, power)
                self.depth -= 1
            elif power == _TIGHTEST:
                right = self.unary(scope)
            else:
                right = self.formula(scope, power + 1)
            if height < self.height:
                height = self.height
            if height >= MAX_DEPTH:
                raise self.too_deep()
            self.height = height + 1
            left = _build((cls.__name__, id(left), id(right)), cls, left, right)
            op = _BINARY.get(words[self.i])
        return left

    def unary(self, scope: "_Scope") -> Formula:
        words = self.words
        at = self.i
        w = words[at]
        self.i = at + 1
        if w in self.names:
            self.height = 0
            w2 = words[at + 1]
            if w2 == "(":
                i = at + 2
                args: list[Term] = []
                key: list[str | int] = ["Pred", w]
                if words[i] != ")":
                    names = self.names
                    while True:
                        t = words[i]
                        if t not in names:
                            self.i = i
                            raise self.expected("a name")
                        arg = scope.resolve_term(t, i, self)
                        args.append(arg)
                        key.append(id(arg))
                        i += 1
                        if words[i] != ",":
                            break
                        i += 1
                    if words[i] != ")":
                        self.i = i
                        raise self.expected("')'")
                self.i = i + 1
                scope.check_application(w, at, len(args), self)
                return _build(tuple(key), Pred, w, tuple(args))
            if w2 == "=":
                left = scope.resolve_term(w, at, self)
                self.i = at + 2
                t = words[self.i]
                if t not in self.names:
                    raise self.expected("a name")
                right = scope.resolve_term(t, self.i, self)
                self.i += 1
                scope.check_equality(at, self)
                return _build(("Eq", id(left), id(right)), Eq, left, right)
            return scope.bare_name(w, at, self)
        if w == "(" or w == "!":
            if self.depth >= MAX_NESTING:
                raise self.too_nested()
            self.depth += 1
            if w == "(":
                inner = self.formula(scope)
                self.depth -= 1
                self.expect(")")
                return inner
            body = self.unary(scope)
            self.depth -= 1
            if self.height >= MAX_DEPTH:
                raise self.too_deep()
            self.height += 1
            return _build(("Not", id(body)), Not, body)
        cls = _KEYWORD_NODES.get(w)
        if cls in QUANTIFIERS:
            var_at = self.i
            var = self.name()
            if var in scope.bound:
                raise self.fail(f"{var} is already bound here", var_at)
            if var in scope.symbols:
                raise self.fail(f"{var} shadows a declared symbol", var_at)
            self.expect(".")
            if self.depth >= MAX_NESTING:
                raise self.too_nested()
            self.depth += 1
            scope.bound.add(var)
            body = self.formula(scope)
            scope.bound.discard(var)
            self.depth -= 1
            if self.height >= MAX_DEPTH:
                raise self.too_deep()
            self.height += 1
            return _build((cls.__name__, var, id(body)), cls, var, body)
        if cls is not None:
            self.height = 0
            return _build((cls.__name__,), cls)
        self.i = at
        raise self.expected("a formula")


class _Scope:
    """Name resolution for formulas over one symbol table.

    strict: applications must match a declared predicate and bare names a
    0-ary one.  Non-strict (definition bodies) builds atoms as written and
    leaves discipline to the system validator.  Each method that checks a
    name takes the index of its word, where a ParseError points.
    """

    def __init__(self, symbols: dict, base: Signature, strict: bool):
        self.strict = strict
        self.bound: set[str] = set()
        # The system's symbol table: every declared or defined name, which
        # no binder may shadow, read by the first definition of it, so files
        # with clashing names still parse and the validator gets to report
        # them.
        self.symbols = symbols
        self.equality_ok = base.equality

    @classmethod
    def pair(cls, system: DefinitionSystem) -> tuple["_Scope", "_Scope"]:
        """A lax and a strict scope sharing the system's symbol table."""
        table = system.symbols()
        return cls(table, system.base, False), cls(table, system.base, True)

    def arity(self, name: str) -> int | None:
        """The arity of a predicate, None for a constant or an unknown."""
        return self.symbols[name][1] if name in self.symbols else None

    def check_constant(self, name: str, at: int, p: _Parser) -> None:
        """A defconst names a constant of the table; a predicate there is
        a term misused, as in a body."""
        reading = self.symbols.get(name)
        if reading is None:
            raise p.fail(f"{name} is not a declared constant", at)
        if reading[1] is not None:
            raise p.fail(f"predicate {name} used as a term", at)

    def resolve_term(self, name: str, at: int, p: _Parser) -> Term:
        if name in self.bound or name not in self.symbols:
            return _build(("Var", name), Var, name)
        if self.symbols[name][1] is not None:
            raise p.fail(f"predicate {name} used as a term", at)
        return _build(("Const", name), Const, name)

    def check_application(self, name: str, at: int, arity: int, p: _Parser) -> None:
        if not self.strict:
            return
        declared = self.arity(name)
        if declared is None:
            raise p.fail(f"unknown predicate {name}", at)
        if declared != arity:
            raise p.fail(
                f"{name} is declared /{declared}, applied to {arity} arguments",
                at,
            )

    def check_equality(self, at: int, p: _Parser) -> None:
        if not self.equality_ok:
            raise p.fail("equality used but not declared in the signature", at)

    def bare_name(self, name: str, at: int, p: _Parser) -> Formula:
        declared = self.arity(name)
        if declared == 0:
            return _build(("Pred", name), Pred, name, ())
        if self.strict:
            if declared is not None:
                raise p.fail(
                    f"{name} is declared /{declared} and needs arguments", at
                )
            raise p.fail(f"unknown predicate {name}", at)
        if name in self.bound or (declared is None and name in self.symbols):
            raise p.fail(f"{name} is a term, not a formula", at)
        return _build(("Pred", name), Pred, name, ())


def parse(text: str) -> ParsedFile:
    return _Parser(text).parse_file()


def parse_path(path: str) -> ParsedFile:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _whole_formula(p: _Parser, scope: _Scope) -> Formula:
    f = p.formula(scope)
    if p.words[p.i]:
        raise p.fail(f"trailing input {p.words[p.i]!r}")
    return f


def parse_formula(
    text: str,
    sig: Signature,
    system: DefinitionSystem | None = None,
) -> Formula:
    """Parse one standalone formula against a signature.

    Defined symbols of `system` are usable.  Names in term position that are
    neither bound nor declared constants become free variables.  Bound names
    are renamed apart from each other and from every declared name.
    """
    if system is None:
        system = DefinitionSystem(sig, ())
    p = _Parser(text)
    scope = _Scope(system.symbols(), system.base, True)
    f = _whole_formula(p, scope)
    return rename_apart(f, frozenset(scope.symbols))


def parse_formulas_infer(
    texts: Sequence[str],
) -> tuple[Signature, tuple[Formula, ...]]:
    """Parse formulas with no declared signature, inferring one jointly.

    Applied names become predicates (consistent arity required), names in
    term position that are never bound become constants, and `=` switches
    equality on.  Declaration order follows first appearance across texts.
    """
    preds: dict[str, int] = {}
    consts: dict[str, None] = {}
    equality = False

    class _InferScope(_Scope):
        def __init__(self) -> None:
            super().__init__({}, Signature((), (), False), strict=False)

        def resolve_term(self, name: str, at: int, p: _Parser) -> Term:
            if name in self.bound:
                return _build(("Var", name), Var, name)
            if name in preds:
                raise p.fail(f"{name} used both as predicate and term", at)
            consts.setdefault(name, None)
            return _build(("Const", name), Const, name)

        def check_application(
            self, name: str, at: int, arity: int, p: _Parser
        ) -> None:
            if name in consts:
                raise p.fail(f"{name} used both as predicate and term", at)
            seen = preds.setdefault(name, arity)
            if seen != arity:
                raise p.fail(f"{name} applied with arities {seen} and {arity}", at)

        def check_equality(self, at: int, p: _Parser) -> None:
            nonlocal equality
            equality = True

        def bare_name(self, name: str, at: int, p: _Parser) -> Formula:
            if name in self.bound:
                raise p.fail(f"{name} is a term, not a formula", at)
            if name in consts:
                raise p.fail(f"{name} used both as predicate and term", at)
            self.check_application(name, at, 0, p)
            return _build(("Pred", name), Pred, name, ())

    raw = [_whole_formula(_Parser(text), _InferScope()) for text in texts]
    sig = Signature(
        tuple(preds.items()), tuple(consts), equality
    )
    out = tuple(rename_apart(f, sig.names()) for f in raw)
    return sig, out
