"""Command-line surface: file loading, subcommands, report emission.

Each subcommand is declared once, by `_command` on its handler: help
text, arguments and the properties of its JSON payload.  The argument
parser (`build_parser`), the dispatch in `main` and the published
schemas (`SCHEMAS`) are all derived from that one table, and the
schemas are built from the shared pieces below.  Enumerations come
from the modules that own them: violation kinds from `defsys`, verdict
names from the `ClassificationVerdict` subclasses, the demo size limit
from `magma`.

Exit codes: 0 success / valid / holds; 1 a sought negative was found
(violation, countermodel, UNSAT, not laminar, undefinable); 2 usage,
parse, or resource errors, and input too deep for the evaluators; 3
inconclusive (bound exhausted on a query outside the unary fragment).

Every report states which entailment engine ran: `exact-monadic` answers
are conclusive, `bounded` answers hold only up to the stated model size.
The engine is chosen by `semantics._engine_bound` for every command, and
every entailment is asked of `semantics._verdicts`.
JSON output (--json) follows the schemas in SCHEMAS; emitted models and
definition blocks are re-parseable source text.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

from .defsys import VIOLATION_KINDS, expand_model, irreducibility_warnings, validate
from .extensional import (
    ExtensionFamily,
    NotLaminar,
    ReconstructedSystem,
    extensions,
    reconstruct,
)
from .magma import MAX_DEMO_SIZE, demo_dsl
from .monadic import Sat, decide_sat, monadic_normal_form
from .parser import ParseError, parse, parse_formula, parse_formulas_infer, parse_path
from .predicabilia import (
    ClassificationVerdict,
    classify_formula,
    generators,
    porphyry_tree,
    proximate_genus,
)
from .semantics import Holds, HoldsUpTo, ResourceCeilingError, _engine_bound, _verdicts
from .syntax import Signature, render

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3

CEILING_ENV = "PORPHYRY_CEILING"


def _resolve_ceiling(args: argparse.Namespace) -> int | None:
    if args.ceiling is not None:
        return args.ceiling
    raw = os.environ.get(CEILING_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{CEILING_ENV} must be an integer, got {raw!r}")


def _parse_inline_sig(text: str) -> Signature:
    return parse("sig {" + text + "}").signature


# ------------------------------------------------------- schema pieces

_STR = {"type": "string"}
_BOOL = {"type": "boolean"}
_INT = {"type": "integer"}
_MAYBE_INT = {"type": ["integer", "null"]}
_MAYBE_STR = {"type": ["string", "null"]}
_MAYBE_OBJECT = {"type": ["object", "null"]}


def _array(items: dict | None = None) -> dict:
    return {"type": "array"} if items is None else {"type": "array", "items": items}


def _object(properties: dict, required: str | None = None) -> dict:
    """An object schema; `required` lists keys separated by spaces, and
    every property is required when it is None."""
    keys = list(properties) if required is None else required.split()
    return {"type": "object", "properties": properties, "required": keys}


_STRINGS = _array(_STR)
_NAMED_SET = _object({"name": _STR, "elements": _array(_INT)})

_VERDICT = _object(
    {
        "kind": {"enum": ["holds", "holds-up-to", "countermodel"]},
        "bound": _INT,
        "model": _STR,
        "assignment": {"type": "object", "additionalProperties": _INT},
    },
    "kind",
)

_ENGINE_NAMES = {True: "exact-monadic", False: "bounded"}
_ENGINE_FIELDS = {"engine": {"enum": list(_ENGINE_NAMES.values())}, "bound": _MAYBE_INT}


# ------------------------------------------------------ report pieces


def _engine(exact: bool, bound: int | None) -> tuple[dict, str]:
    """The payload fields and the text line naming the engine that ran."""
    name = _ENGINE_NAMES[exact]
    line = f"engine: {name}" + (f" (bound {bound})" if bound else "")
    return {"engine": name, "bound": bound}, line


def _witness(v, name: str, sig: Signature) -> tuple[dict, list[str]]:
    """A countermodel or satisfying model with its assignment."""
    model = v.model.to_dsl(name, sig)
    lines = [model]
    if v.assignment:
        pairs = ", ".join(f"{k} = {e}" for k, e in sorted(v.assignment.items()))
        lines.append(f"assignment: {pairs}")
    return {"model": model, "assignment": dict(v.assignment)}, lines


def _verdict(v, sig: Signature) -> tuple[dict, list[str]]:
    if isinstance(v, Holds):
        return {"kind": "holds"}, ["verdict: holds"]
    if isinstance(v, HoldsUpTo):
        text = f"verdict: holds up to bound {v.bound} (not a proof)"
        return {"kind": "holds-up-to", "bound": v.bound}, [text]
    witness, lines = _witness(v, "countermodel", sig)
    return {"kind": "countermodel", **witness}, ["verdict: countermodel", *lines]


def _named_set(name: str, elements) -> dict:
    return {"name": name, "elements": sorted(elements)}


# ------------------------------------------------------- command table

_Handler = Callable[[argparse.Namespace, int | None], tuple[int, dict, list[str]]]


@dataclass(frozen=True)
class _Command:
    help: str
    run: _Handler
    args: tuple[tuple[tuple[str, ...], dict], ...]
    properties: dict
    required: str | None


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help: str, args, properties: dict, required=None):
    """Declare a subcommand: its help, its arguments as (flags, keywords)
    pairs for `add_argument`, and its payload properties besides
    `command` (`required` as in `_object`)."""

    def register(run: _Handler) -> _Handler:
        _COMMANDS[name] = _Command(help, run, tuple(args), properties, required)
        return run

    return register


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_FILE = _arg("file")
_SPECIES = _arg("--species", required=True)
_FORMULA = _arg("--formula", required=True)
_SIG = _arg("--sig", required=True)
_MODEL = _arg("--model", required=True)
# Only the commands that ask entailments take a bound.
_BOUND = _arg("--bound", type=int, help="model-size bound for bounded entailment")


# ------------------------------------------------------------- handlers


@_command(
    "check",
    "validate a definition system",
    [_FILE],
    {
        "valid": _BOOL,
        "violations": _array(
            _object(
                {
                    "entry": _INT,
                    "kind": {"enum": list(VIOLATION_KINDS)},
                    "symbol": _STR,
                    "detail": _STR,
                },
                "entry kind symbol",
            )
        ),
        "warnings": _array(),
        "warnings_complete": _BOOL,
        "constants": _array(),
    },
    "valid violations",
)
def _cmd_check(args, ceiling):
    pf = parse_path(args.file)
    report = validate(pf.system)
    violations = [
        {
            "entry": v.entry,
            "kind": v.kind,
            "symbol": v.symbol,
            "detail": v.detail,
        }
        for v in report.violations
    ]
    warnings = []
    warnings_complete = True
    constants = []
    if report.valid:
        try:
            warnings = [
                {"entry": w.entry, "conjunct": w.conjunct, "formula": w.rendered}
                for w in irreducibility_warnings(pf.system, ceiling=ceiling)
            ]
        except ResourceCeilingError:
            warnings_complete = False
        for mname, model in pf.models.items():
            _, checks = expand_model(pf.system, model)
            for c in checks:
                constants.append(
                    {
                        "model": mname,
                        "name": c.name,
                        "extent": sorted(c.extent),
                        "unique": c.unique,
                    }
                )
    payload = {
        "valid": report.valid,
        "violations": violations,
        "warnings": warnings,
        "warnings_complete": warnings_complete,
        "constants": constants,
    }
    text = [f"valid: {'yes' if report.valid else 'no'}"]
    for v in violations:
        text.append(
            f"entry {v['entry']}: {v['kind']} ({v['symbol']}) {v['detail']}"
        )
    for w in warnings:
        text.append(
            f"warning: entry {w['entry']} conjunct {w['conjunct']} is removable "
            f"on all small models: {w['formula']}"
        )
    if not warnings_complete:
        text.append("warning check skipped: resource ceiling")
    for c in constants:
        status = "unique" if c["unique"] else f"extent {c['extent']}"
        text.append(f"model {c['model']}: constant {c['name']} -> {status}")
    return (EXIT_OK if report.valid else EXIT_FOUND), payload, text


@_command(
    "tree",
    "genus-species forest",
    [_FILE, _arg("--dot", action="store_true", help="emit DOT")],
    {
        "nodes": _STRINGS,
        "edges": _array(
            _object({"species": _STR, "genus": _STR, "difference": _STR})
        ),
        "roots": _STRINGS,
        "unguarded": _STRINGS,
        "dot": _STR,
    },
)
def _cmd_tree(args, ceiling):
    pf = parse_path(args.file)
    tree, unguarded = porphyry_tree(pf.system)
    dot = tree.to_dot()
    payload = {
        "nodes": list(tree.nodes),
        "edges": [
            {
                "species": e.species,
                "genus": e.genus,
                "difference": render(e.difference),
            }
            for e in tree.edges
        ],
        "roots": list(tree.roots),
        "unguarded": list(unguarded),
        "dot": dot,
    }
    if args.dot:
        text = [dot]
    else:
        text = []
        for e in tree.edges:
            text.append(
                f"{e.species} -> {e.genus}  [difference: {render(e.difference)}]"
            )
        text.append("roots: " + (", ".join(tree.roots) or "(none)"))
        if unguarded:
            text.append("unguarded: " + ", ".join(unguarded))
    return EXIT_OK, payload, text


@_command(
    "classify",
    "predication verdict",
    [_FILE, _SPECIES, _FORMULA, _BOUND],
    {
        "species": _STR,
        "formula": _STR,
        "verdict": {
            "enum": [
                cls.__name__.lower() for cls in ClassificationVerdict.__subclasses__()
            ]
        },
        **_ENGINE_FIELDS,
        "evidence": {"type": "object", "additionalProperties": _VERDICT},
    },
    "species verdict engine evidence",
)
def _cmd_classify(args, ceiling):
    pf = parse_path(args.file)
    rho = parse_formula(args.formula, pf.signature, pf.system)
    verdict = classify_formula(
        rho, args.species, pf.system, bound=args.bound, ceiling=ceiling
    )
    kind = type(verdict).__name__.lower()
    engine, engine_line = _engine(verdict.exact, verdict.bound)
    evidence = {
        name: _verdict(v, pf.signature) for name, v in verdict.evidence.items()
    }
    payload = {
        "species": args.species,
        "formula": render(rho),
        "verdict": kind,
        **engine,
        "evidence": {name: report for name, (report, _) in evidence.items()},
    }
    text = [f"{args.formula} is classified for {args.species} as: {kind}", engine_line]
    for name, (_, lines) in evidence.items():
        text.append(f"evidence {name}:")
        text.extend("  " + line for line in lines)
    return EXIT_OK, payload, text


@_command(
    "entail",
    "entailment query",
    [
        _arg("--lhs", required=True),
        _arg("--rhs", required=True),
        _arg("--sig", help="inline signature declarations"),
        _BOUND,
    ],
    {**_ENGINE_FIELDS, "verdict": _VERDICT},
    "engine verdict",
)
def _cmd_entail(args, ceiling):
    if args.sig is not None:
        sig = _parse_inline_sig(args.sig)
        lhs = parse_formula(args.lhs, sig)
        rhs = parse_formula(args.rhs, sig)
    else:
        sig, (lhs, rhs) = parse_formulas_infer([args.lhs, args.rhs])
    b = _engine_bound(sig, (lhs, rhs), args.bound)
    verdict = _verdicts(sig, [lhs, rhs], [((0,), 1)], b, ceiling)[0]
    engine, engine_line = _engine(b is None, b)
    report, lines = _verdict(verdict, sig)
    if isinstance(verdict, Holds):
        code = EXIT_OK
    elif isinstance(verdict, HoldsUpTo):
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_FOUND
    return code, {**engine, "verdict": report}, [engine_line, *lines]


@_command(
    "sat",
    "unary-fragment satisfiability",
    [_FORMULA, _SIG],
    {
        "satisfiable": _BOOL,
        "witness": {
            "type": ["object", "null"],
            "properties": {"model": _STR, "assignment": {"type": "object"}},
        },
    },
)
def _cmd_sat(args, ceiling):
    sig = _parse_inline_sig(args.sig)
    f = parse_formula(args.formula, sig)
    verdict = decide_sat(f, sig, ceiling)
    if not isinstance(verdict, Sat):
        payload = {"satisfiable": False, "witness": None}
        return EXIT_FOUND, payload, ["satisfiable: no"]
    witness, lines = _witness(verdict, "witness", sig)
    payload = {"satisfiable": True, "witness": witness}
    return EXIT_OK, payload, ["satisfiable: yes", *lines]


@_command(
    "normalize",
    "cell normal form",
    [_FORMULA, _SIG, _arg("--var", default="x")],
    {
        "var": _STR,
        "pure": _BOOL,
        "formula": _STR,
        "disjuncts": _array(
            _object(
                {
                    "cell": _array(_object({"predicate": _STR, "positive": _BOOL})),
                    "residue": _STR,
                }
            )
        ),
    },
)
def _cmd_normalize(args, ceiling):
    sig = _parse_inline_sig(args.sig)
    f = parse_formula(args.formula, sig)
    form = monadic_normal_form(f, args.var, sig, ceiling)
    payload = {
        "var": form.var,
        "pure": form.pure,
        "formula": render(form.to_formula()),
        "disjuncts": [
            {
                "cell": [
                    {"predicate": p, "positive": positive}
                    for p, positive in d.cell.literals
                ],
                "residue": render(d.residue),
            }
            for d in form.disjuncts
        ],
    }
    text = [render(form.to_formula()), f"pure: {'yes' if form.pure else 'no'}"]
    return EXIT_OK, payload, text


def _pick_model(pf, name):
    if name not in pf.models:
        known = ", ".join(pf.models) or "(none)"
        raise ValueError(f"no model named {name} in file; available: {known}")
    return pf.models[name]


@_command(
    "extensions",
    "class extents over a model",
    [_FILE, _MODEL],
    {"model": _STR, "sets": _array(_NAMED_SET)},
)
def _cmd_extensions(args, ceiling):
    pf = parse_path(args.file)
    model = _pick_model(pf, args.model)
    family = extensions(pf.system, model)
    payload = {
        "model": args.model,
        "sets": [_named_set(name, elems) for name, elems in family.sets],
    }
    text = [
        f"{name} = {{{', '.join(str(e) for e in sorted(elems))}}}"
        for name, elems in family.sets
    ]
    return EXIT_OK, payload, text or ["(no unary classes defined)"]


_FAMILY_ENTRY = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\{([^{}]*)\}$")


def _parse_family(text: str, sig: Signature, model) -> ExtensionFamily:
    sets = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        m = _FAMILY_ENTRY.match(part)
        if m is None:
            raise ValueError(f"bad family entry {part!r}; expected NAME={{0, 1}}")
        raw = m.group(2).replace(",", " ").split()
        try:
            elems = frozenset(int(x) for x in raw)
        except ValueError:
            raise ValueError(f"bad family entry {part!r}: elements must be integers")
        sets.append((m.group(1), elems))
    return ExtensionFamily(sig, model, tuple(sets))


# Every reconstruct payload carries all of these; a result fills its own.
_RECONSTRUCT = {
    "result": {"enum": ["system", "not-laminar", "undefinable"]},
    "defsys": _MAYBE_STR,
    "names": _MAYBE_OBJECT,
    "witness": _MAYBE_OBJECT,
    "set": _MAYBE_STR,
    "reason": _MAYBE_STR,
}


@_command(
    "reconstruct",
    "definitions from a laminar family",
    [
        _FILE,
        _MODEL,
        _arg("--family", required=True, help='inline family, e.g. "A={0,1}; B={0}"'),
    ],
    _RECONSTRUCT,
    "result defsys names witness",
)
def _cmd_reconstruct(args, ceiling):
    pf = parse_path(args.file)
    model = _pick_model(pf, args.model)
    family = _parse_family(args.family, pf.signature, model)
    result = reconstruct(family)
    payload = dict.fromkeys(_RECONSTRUCT)
    if isinstance(result, ReconstructedSystem):
        block = "defsys {\n" + "\n".join(
            "  " + e.to_dsl() for e in result.system.entries
        ) + "\n}"
        payload.update(result="system", defsys=block, names=dict(result.names))
        text = [block]
        renamed = {k: v for k, v in result.names.items() if k != v}
        if renamed:
            text.append(
                "renamed: "
                + ", ".join(f"{k} -> {v}" for k, v in sorted(renamed.items()))
            )
        return EXIT_OK, payload, text
    if isinstance(result, NotLaminar):
        witness = {
            "first": _named_set(*result.first),
            "second": _named_set(*result.second),
        }
        payload.update(result="not-laminar", witness=witness)
        text = [
            "not laminar: "
            f"{result.first[0]} = {sorted(result.first[1])} overlaps "
            f"{result.second[0]} = {sorted(result.second[1])} without nesting"
        ]
        return EXIT_FOUND, payload, text
    payload.update(result="undefinable", set=result.name, reason=result.reason)
    return EXIT_FOUND, payload, [f"undefinable: {result.name}: {result.reason}"]


@_command(
    "generators",
    "generator flags for asserted sentences",
    [_FILE, _BOUND],
    {
        **_ENGINE_FIELDS,
        "sentences": _array(_object({"formula": _STR, "generator": _BOOL})),
    },
    "engine sentences",
)
def _cmd_generators(args, ceiling):
    pf = parse_path(args.file)
    if not pf.asserts:
        raise ValueError("no assert statements in file")
    result = generators(
        list(pf.asserts), pf.system, bound=args.bound, ceiling=ceiling
    )
    engine, engine_line = _engine(result.exact, result.bound)
    payload = {
        **engine,
        "sentences": [
            {"formula": render(s), "generator": flag}
            for s, flag in zip(result.sentences, result.generator_flags)
        ],
    }
    text = [engine_line]
    for s, flag in zip(result.sentences, result.generator_flags):
        mark = "generator" if flag else "non-generator"
        text.append(f"{mark}: {render(s)}")
    return EXIT_OK, payload, text


@_command(
    "demo",
    "built-in demo data",
    [
        _arg("topic", choices=["magma"]),
        _arg("--max-size", type=int, default=2, dest="max_size"),
    ],
    {
        "topic": {"const": "magma"},
        "max_size": {"type": "integer", "minimum": 1, "maximum": MAX_DEMO_SIZE},
        "source": _STR,
    },
)
def _cmd_demo(args, ceiling):
    source = demo_dsl(args.max_size)
    payload = {"topic": "magma", "max_size": args.max_size, "source": source}
    return EXIT_OK, payload, [source.rstrip("\n")]


@_command(
    "proximate",
    "closest containing genus",
    [
        _FILE,
        _SPECIES,
        _arg("--candidates", required=True, help="comma-separated class names"),
        _BOUND,
    ],
    {
        "species": _STR,
        "chosen": _STR,
        "difference": _STR,
        **_ENGINE_FIELDS,
        "scores": _array(
            _object(
                {
                    "name": _STR,
                    "contains": _BOOL,
                    "difference": _MAYBE_STR,
                    "score": _MAYBE_INT,
                }
            )
        ),
    },
    "species chosen difference scores",
)
def _cmd_proximate(args, ceiling):
    pf = parse_path(args.file)
    candidates = [c.strip() for c in args.candidates.split(",") if c.strip()]
    result = proximate_genus(
        args.species, candidates, pf.system, bound=args.bound, ceiling=ceiling
    )
    engine, engine_line = _engine(result.exact, result.bound)
    payload = {
        "species": args.species,
        "chosen": result.chosen,
        "difference": render(result.difference),
        **engine,
        "scores": [
            {
                "name": s.name,
                "contains": s.contains,
                "difference": None if s.difference is None else render(s.difference),
                "score": s.score,
            }
            for s in result.scores
        ],
    }
    text = [
        f"proximate genus of {args.species}: {result.chosen}",
        f"difference: {render(result.difference)}",
        engine_line,
    ]
    for s in result.scores:
        if s.contains:
            text.append(f"  {s.name}: score {s.score}, difference {render(s.difference)}")
        else:
            text.append(f"  {s.name}: does not contain {args.species}")
    return EXIT_OK, payload, text


# ------------------------------------------------------------ entrypoint

SCHEMAS: dict[str, dict] = {
    name: _object(
        {"command": {"const": name}, **c.properties},
        None if c.required is None else "command " + c.required,
    )
    for name, c in _COMMANDS.items()
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )
    common.add_argument(
        "--ceiling",
        type=int,
        help="enumeration guard: max interpretations per model search "
        f"(or ${CEILING_ENV})",
    )

    p = argparse.ArgumentParser(
        prog="porphyry",
        description="Definition systems, finite-model reasoning, and "
        "class hierarchies for first-order logic.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, c in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=c.help)
        for flags, kwargs in c.args:
            sp.add_argument(*flags, **kwargs)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        ceiling = _resolve_ceiling(args)
        if getattr(args, "bound", None) is not None and args.bound < 1:
            raise ValueError("--bound must be at least 1")
        code, payload, text = _COMMANDS[args.command].run(args, ceiling)
    except (ParseError, ResourceCeilingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # The parser bounds each formula it reads, but unfolding stacks
        # the depths of a definition chain, and the walkers recurse.
        print("error: input too deep for the evaluators", file=sys.stderr)
        return EXIT_ERROR
    try:
        if args.json:
            print(json.dumps({"command": args.command, **payload}, indent=2))
        else:
            print("\n".join(text))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point the
        # descriptor at the null device, so that the interpreter's own
        # flush at exit does not fail on the same pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    return code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
