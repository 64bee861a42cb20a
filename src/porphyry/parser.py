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
arrows associate to the right.  `forall x.` / `exists y.` bind as far right
as possible, so `!` and `&` written before a quantifier apply to its whole
body.  Atoms: `true`, `false`, `P(t, ...)`, bare `P` for a 0-ary predicate,
and `t = u` when the signature declares equality.  Parentheses, quantifier
bodies, `!` and the right operand of an arrow each open one nesting level;
a formula nested deeper than MAX_NESTING levels is a ParseError.  So is a
formula whose syntax tree is more than MAX_DEPTH connectives and quantifiers
deep, such as a chain of thousands of `&`: every later walk over a formula
recurses once per level of its tree.

One compiled regex splits the text into tokens.  A keyword or a punctuation
mark is its own kind; anything else is a NAME (a letter or `_`, then
letters, digits and `_`), an INT (a run of Unicode decimal digits) or the
EOF, at the end of the text.  Blanks are space, tab, `\\r` and `\\n`
only; any other character outside a comment is a ParseError.  A token
keeps only its character offset: the line and column of a ParseError
(from 1, a tab counting as one column) are worked out from it when the
error is raised.

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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .defsys import ConstantDef, Definition, DefinitionSystem, PredicateDef, _define
from .semantics import FiniteModel
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
    fresh_name,
    rename_apart,
)

# Each level costs the recursive-descent parser up to eight stack frames: a
# formula at the limit parses in about 820, inside Python's default 1000.
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


def _error(message: str, text: str, pos: int) -> ParseError:
    """A ParseError at character offset `pos` of `text`: lines and columns
    count from 1, and a tab is one column."""
    return ParseError(
        message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    )


class Token(NamedTuple):
    # The text itself for a keyword or a punctuation mark; otherwise
    # "NAME", "INT", or "EOF" (whose text is empty).
    kind: str
    text: str
    # Character offset into the parsed text.
    pos: int


KEYWORDS = frozenset(
    "sig defsys model assert def defconst pred const equality universe "
    "forall exists true false".split()
)
# Unnamed branches are skipped.  \d is the Unicode decimal digits, which
# int() reads; \w is any character where str.isalnum() holds, or `_`, and a
# name must also start with a letter or `_`.  The last branch catches every
# other character, which finditer would otherwise skip.
_TOKEN = re.compile(
    r"[ \t\r\n]+|#[^\n]*"
    r"|(?P<INT>\d+)|(?P<NAME>\w+)|(?P<PUNCT><->|->|:=|[(){},;.=!&|/])|(?P<BAD>.)"
)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m.group()
        if kind == "NAME" and (word[0].isalpha() or word[0] == "_"):
            if word in KEYWORDS:
                kind = word
        elif kind == "PUNCT":
            kind = word
        elif kind != "INT":
            raise _error(f"unexpected character {word[0]!r}", text, m.start())
        toks.append(Token(kind, word, m.start()))
    toks.append(Token("EOF", "", len(text)))
    return toks


@dataclass(frozen=True)
class ParsedFile:
    signature: Signature
    system: DefinitionSystem
    models: dict[str, FiniteModel]
    asserts: tuple[Formula, ...]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0
        # Tree depth of the formula parsed last: 0 for an atom.
        self.height = 0

    # ----------------------------------------------------- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def eat(self, kind: str) -> bool:
        if self.at(kind):
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            got = t.text or "end of input"
            raise self.fail(f"expected {what or repr(kind)}, got {got!r}")
        return self.advance()

    def expect_name(self) -> Token:
        return self.expect("NAME", "a name")

    def expect_int(self) -> int:
        t = self.expect("INT", "an integer")
        try:
            return int(t.text)
        except ValueError:  # past the interpreter's integer digit limit
            message = f"integer of {len(t.text)} digits is too long"
            raise self.fail(message, t) from None

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        """A ParseError at `tok`, by default the next token."""
        return _error(message, self.text, (tok or self.peek()).pos)

    # -------------------------------------------------------- file level

    def parse_file(self) -> ParsedFile:
        sig: Signature | None = None
        entries: list[Definition] = []
        models: dict[str, FiniteModel] = {}
        asserts: list[Formula] = []
        while not self.at("EOF"):
            t = self.peek()
            if t.kind == "sig":
                if sig is not None:
                    raise self.fail("signature already declared")
                self.advance()
                sig = self.parse_sig_body()
            elif t.kind == "defsys":
                self.advance()
                entries.extend(self.parse_defsys_body(self.current_sig(sig), entries))
            elif t.kind == "model":
                self.advance()
                name, m = self.parse_model(self.current_sig(sig))
                if name in models:
                    raise self.fail(f"model {name} already declared", t)
                models[name] = m
            elif t.kind == "assert":
                self.advance()
                system = DefinitionSystem(self.current_sig(sig), tuple(entries))
                scope = _Scope(system, strict=True)
                f = self.formula(scope)
                self.expect(";")
                asserts.append(rename_apart(f, frozenset(scope.symbols)))
            else:
                raise self.fail(
                    "expected 'sig', 'defsys', 'model', or 'assert'"
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
                name = self.expect_name()
                self.expect("/")
                arity = self.expect_int()
                if name.text in seen:
                    raise self.fail(f"symbol {name.text} already declared", name)
                seen.add(name.text)
                preds.append((name.text, arity))
            elif self.eat("const"):
                name = self.expect_name()
                if name.text in seen:
                    raise self.fail(f"symbol {name.text} already declared", name)
                seen.add(name.text)
                consts.append(name.text)
            else:
                self.expect("equality", "'pred', 'const', or 'equality'")
                equality = True
            self.expect(";")
        return Signature(tuple(preds), tuple(consts), equality)

    def parse_defsys_body(
        self, sig: Signature, earlier: list[Definition]
    ) -> list[Definition]:
        self.expect("{")
        out: list[Definition] = []
        scope = _Scope(DefinitionSystem(sig, tuple(earlier)), strict=False)
        while not self.eat("}"):
            if self.eat("def"):
                name = self.expect_name()
                self.expect("(")
                params: list[str] = []
                if not self.at(")"):
                    while True:
                        p = self.expect_name()
                        if p.text in params:
                            raise self.fail(f"duplicate parameter {p.text}", p)
                        self.check_binder(p, scope)
                        params.append(p.text)
                        if not self.eat(","):
                            break
                self.expect(")")
                self.expect(":=")
                scope.bound = set(params)
                body = self.formula(scope)
                self.expect(";")
                out.append(PredicateDef(name.text, tuple(params), body))
            elif self.eat("defconst"):
                name = self.expect_name()
                self.expect(":=")
                rhs = self.expect_name()
                scope.check_constant(rhs, self)
                self.expect(";")
                var = fresh_name("y", sig.names() | {name.text, rhs.text})
                out.append(
                    ConstantDef(name.text, var, Eq(Var(var), Const(rhs.text)))
                )
            else:
                raise self.fail("expected 'def' or 'defconst'")
            _define(scope.symbols, len(earlier) + len(out) - 1, out[-1])
        return out

    def check_binder(self, tok: Token, scope: "_Scope") -> None:
        if tok.text in scope.symbols:
            raise self.fail(f"{tok.text} shadows a declared symbol", tok)

    # ------------------------------------------------------------ models

    def parse_model(self, sig: Signature) -> tuple[str, FiniteModel]:
        name = self.expect_name()
        self.expect("{")
        kw = self.peek()
        if not self.eat("universe"):
            raise self.fail("model must open with 'universe'")
        size = self.expect_int()
        if size < 1:
            raise self.fail("universe must have at least 1 element", kw)
        self.expect(";")
        preds: dict[str, frozenset[tuple[int, ...]]] = {}
        consts: dict[str, int] = {}
        while not self.eat("}"):
            sym = self.expect_name()
            arity = sig.arity(sym.text)
            is_const = sig.is_constant(sym.text)
            if arity is None and not is_const:
                raise self.fail(f"{sym.text} is not a base signature symbol", sym)
            if sym.text in preds or sym.text in consts:
                raise self.fail(f"{sym.text} assigned twice", sym)
            self.expect("=")
            if is_const:
                consts[sym.text] = self.parse_const_value(size)
            else:
                preds[sym.text] = self.parse_extent(size, arity)
            self.expect(";")
        for pname, arity in sig.predicates:
            preds.setdefault(pname, frozenset())
        for cname in sig.constants:
            if cname not in consts:
                raise self.fail(
                    f"constant {cname} not interpreted in model {name.text}", name
                )
        return name.text, FiniteModel(size, consts, preds)

    def parse_element(self, size: int) -> int:
        t = self.peek()
        v = self.expect_int()
        if not 0 <= v < size:
            raise self.fail(f"element {v} outside universe of size {size}", t)
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
            t = self.peek()
            if self.eat("("):
                elems: list[int] = []
                if not self.at(")"):
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
                    f"tuple of length {len(tup)} for a /{arity} predicate", t
                )
            tuples.add(tup)
            if not self.eat(","):
                break
        self.expect("}")
        return frozenset(tuples)

    # ---------------------------------------------------------- formulas

    def nested(self, parse, scope: "_Scope") -> Formula:
        """Run a sub-parser one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise self.fail(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse(scope)
        finally:
            self.depth -= 1

    def grown(self, node: Formula, left: int = 0) -> Formula:
        """node, built over the formula parsed last and, for a binary node,
        a left operand of height `left`."""
        self.height = max(self.height, left) + 1
        if self.height > MAX_DEPTH:
            raise self.fail(f"formula deeper than {MAX_DEPTH} levels")
        return node

    def formula(self, scope: "_Scope") -> Formula:
        return self.iff(scope)

    def iff(self, scope: "_Scope") -> Formula:
        left = self.implies(scope)
        if self.eat("<->"):
            height = self.height
            return self.grown(Iff(left, self.nested(self.iff, scope)), height)
        return left

    def implies(self, scope: "_Scope") -> Formula:
        left = self.disj(scope)
        if self.eat("->"):
            height = self.height
            return self.grown(Implies(left, self.nested(self.implies, scope)), height)
        return left

    def disj(self, scope: "_Scope") -> Formula:
        left = self.conj(scope)
        while self.eat("|"):
            height = self.height
            left = self.grown(Or(left, self.conj(scope)), height)
        return left

    def conj(self, scope: "_Scope") -> Formula:
        left = self.unary(scope)
        while self.eat("&"):
            height = self.height
            left = self.grown(And(left, self.unary(scope)), height)
        return left

    def unary(self, scope: "_Scope") -> Formula:
        if self.eat("!"):
            return self.grown(Not(self.nested(self.unary, scope)))
        t = self.peek()
        if t.kind in ("forall", "exists"):
            self.advance()
            var = self.expect_name()
            if var.text in scope.bound:
                raise self.fail(f"{var.text} is already bound here", var)
            self.check_binder(var, scope)
            self.expect(".")
            scope.bound.add(var.text)
            try:
                body = self.nested(self.formula, scope)
            finally:
                scope.bound.discard(var.text)
            cls = Forall if t.kind == "forall" else Exists
            return self.grown(cls(var.text, body))
        return self.atom(scope)

    def atom(self, scope: "_Scope") -> Formula:
        self.height = 0
        if self.eat("("):
            inner = self.nested(self.formula, scope)
            self.expect(")")
            return inner
        if self.eat("true"):
            return Verum()
        if self.eat("false"):
            return Falsum()
        name = self.expect("NAME", "a formula")
        if self.eat("("):
            args: list[Term] = []
            if not self.at(")"):
                while True:
                    args.append(self.term(scope))
                    if not self.eat(","):
                        break
            self.expect(")")
            scope.check_application(name, len(args), self)
            return Pred(name.text, tuple(args))
        if self.at("="):
            left = scope.resolve_term(name, self)
            self.advance()
            right = self.term(scope)
            scope.check_equality(name, self)
            return Eq(left, right)
        return scope.bare_name(name, self)

    def term(self, scope: "_Scope") -> Term:
        name = self.expect_name()
        return scope.resolve_term(name, self)


class _Scope:
    """Name resolution for one formula.

    strict: applications must match a declared predicate and bare names a
    0-ary one.  Non-strict (definition bodies) builds atoms as written and
    leaves discipline to the system validator.
    """

    def __init__(self, system: DefinitionSystem, strict: bool):
        self.strict = strict
        self.bound: set[str] = set()
        # The system's symbol table: every declared or defined name, which
        # no binder may shadow, read by the first definition of it, so files
        # with clashing names still parse and the validator gets to report
        # them.
        self.symbols = system.symbols()
        self.equality_ok = system.base.equality

    def arity(self, name: str) -> int | None:
        """The arity of a predicate, None for a constant or an unknown."""
        return self.symbols[name][1] if name in self.symbols else None

    def check_constant(self, tok: Token, p: _Parser) -> None:
        """A defconst names a constant of the table; a predicate there is
        a term misused, as in a body."""
        reading = self.symbols.get(tok.text)
        if reading is None:
            raise p.fail(f"{tok.text} is not a declared constant", tok)
        if reading[1] is not None:
            raise p.fail(f"predicate {tok.text} used as a term", tok)

    def resolve_term(self, tok: Token, p: _Parser) -> Term:
        if tok.text in self.bound or tok.text not in self.symbols:
            return Var(tok.text)
        if self.arity(tok.text) is not None:
            raise p.fail(f"predicate {tok.text} used as a term", tok)
        return Const(tok.text)

    def check_application(self, tok: Token, arity: int, p: _Parser) -> None:
        if not self.strict:
            return
        declared = self.arity(tok.text)
        if declared is None:
            raise p.fail(f"unknown predicate {tok.text}", tok)
        if declared != arity:
            raise p.fail(
                f"{tok.text} is declared /{declared}, applied to {arity} arguments",
                tok,
            )

    def check_equality(self, tok: Token, p: _Parser) -> None:
        if not self.equality_ok:
            raise p.fail("equality used but not declared in the signature", tok)

    def bare_name(self, tok: Token, p: _Parser) -> Formula:
        declared = self.arity(tok.text)
        if declared == 0:
            return Pred(tok.text, ())
        if self.strict:
            if declared is not None:
                raise p.fail(
                    f"{tok.text} is declared /{declared} and needs arguments", tok
                )
            raise p.fail(f"unknown predicate {tok.text}", tok)
        if tok.text in self.bound or (
            declared is None and tok.text in self.symbols
        ):
            raise p.fail(f"{tok.text} is a term, not a formula", tok)
        return Pred(tok.text, ())


def parse(text: str) -> ParsedFile:
    return _Parser(text).parse_file()


def parse_path(path: str) -> ParsedFile:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


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
    scope = _Scope(system, strict=True)
    f = p.formula(scope)
    if not p.at("EOF"):
        raise p.fail(f"trailing input {p.peek().text!r}")
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
            super().__init__(
                DefinitionSystem(Signature((), (), False), ()), strict=False
            )

        def resolve_term(self, tok: Token, p: _Parser) -> Term:
            if tok.text in self.bound:
                return Var(tok.text)
            if tok.text in preds:
                raise p.fail(f"{tok.text} used both as predicate and term", tok)
            consts.setdefault(tok.text, None)
            return Const(tok.text)

        def check_application(self, tok: Token, arity: int, p: _Parser) -> None:
            if tok.text in consts:
                raise p.fail(f"{tok.text} used both as predicate and term", tok)
            seen = preds.setdefault(tok.text, arity)
            if seen != arity:
                raise p.fail(f"{tok.text} applied with arities {seen} and {arity}", tok)

        def check_equality(self, tok: Token, p: _Parser) -> None:
            nonlocal equality
            equality = True

        def bare_name(self, tok: Token, p: _Parser) -> Formula:
            if tok.text in self.bound:
                raise p.fail(f"{tok.text} is a term, not a formula", tok)
            if tok.text in consts:
                raise p.fail(f"{tok.text} used both as predicate and term", tok)
            self.check_application(tok, 0, p)
            return Pred(tok.text, ())

    raw: list[Formula] = []
    for text in texts:
        p = _Parser(text)
        f = p.formula(_InferScope())
        if not p.at("EOF"):
            raise p.fail(f"trailing input {p.peek().text!r}")
        raw.append(f)
    sig = Signature(
        tuple(preds.items()), tuple(consts), equality
    )
    out = tuple(rename_apart(f, sig.names()) for f in raw)
    return sig, out
