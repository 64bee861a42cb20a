"""Command-line surface: file loading, subcommands, report emission.

Exit codes: 0 success / valid / holds; 1 a sought negative was found
(violation, countermodel, UNSAT, not laminar, undefinable); 2 usage,
parse, or resource errors; 3 inconclusive (bound exhausted on a query
outside the unary fragment).

Every report states which entailment engine ran: `exact-monadic` answers
are conclusive, `bounded` answers hold only up to the stated model size.
JSON output (--json) follows the schemas in SCHEMAS; emitted models and
definition blocks are re-parseable source text.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .defsys import expand_model, irreducibility_warnings, validate
from .extensional import (
    ExtensionFamily,
    NotLaminar,
    ReconstructedSystem,
    extensions,
    reconstruct,
)
from .magma import demo_dsl
from .monadic import (
    Sat,
    decide_entails,
    decide_sat,
    is_monadic,
    monadic_normal_form,
)
from .parser import ParseError, parse, parse_formula, parse_formulas_infer, parse_path
from .predicabilia import (
    classify_formula,
    generators,
    porphyry_tree,
    proximate_genus,
)
from .semantics import (
    Holds,
    HoldsUpTo,
    ResourceCeilingError,
    bounded_entails,
    default_bound,
)
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


def _verdict_json(v, sig: Signature) -> dict:
    if isinstance(v, Holds):
        return {"kind": "holds"}
    if isinstance(v, HoldsUpTo):
        return {"kind": "holds-up-to", "bound": v.bound}
    return {
        "kind": "countermodel",
        "model": v.model.to_dsl("countermodel", sig),
        "assignment": dict(v.assignment),
    }


def _verdict_text(v, sig: Signature) -> list[str]:
    if isinstance(v, Holds):
        return ["verdict: holds"]
    if isinstance(v, HoldsUpTo):
        return [f"verdict: holds up to bound {v.bound} (not a proof)"]
    lines = ["verdict: countermodel", v.model.to_dsl("countermodel", sig)]
    if v.assignment:
        pairs = ", ".join(f"{k} = {e}" for k, e in sorted(v.assignment.items()))
        lines.append(f"assignment: {pairs}")
    return lines


# ------------------------------------------------------------- handlers


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
        "command": "check",
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


def _cmd_tree(args, ceiling):
    pf = parse_path(args.file)
    tree, unguarded = porphyry_tree(pf.system)
    dot = tree.to_dot()
    payload = {
        "command": "tree",
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


def _cmd_classify(args, ceiling):
    pf = parse_path(args.file)
    rho = parse_formula(args.formula, pf.signature, pf.system)
    verdict = classify_formula(
        rho, args.species, pf.system, bound=args.bound, ceiling=ceiling
    )
    kind = type(verdict).__name__.lower()
    payload = {
        "command": "classify",
        "species": args.species,
        "formula": render(rho),
        "verdict": kind,
        "engine": "exact-monadic" if verdict.exact else "bounded",
        "bound": verdict.bound,
        "evidence": {
            name: _verdict_json(v, pf.signature)
            for name, v in verdict.evidence.items()
        },
    }
    text = [
        f"{args.formula} is classified for {args.species} as: {kind}",
        f"engine: {payload['engine']}"
        + (f" (bound {verdict.bound})" if verdict.bound else ""),
    ]
    for name, v in verdict.evidence.items():
        text.append(f"evidence {name}:")
        text.extend("  " + line for line in _verdict_text(v, pf.signature))
    return EXIT_OK, payload, text


def _cmd_entail(args, ceiling):
    if args.sig is not None:
        sig = _parse_inline_sig(args.sig)
        lhs = parse_formula(args.lhs, sig)
        rhs = parse_formula(args.rhs, sig)
    else:
        sig, (lhs, rhs) = parse_formulas_infer([args.lhs, args.rhs])
    if is_monadic(lhs) and is_monadic(rhs):
        verdict = decide_entails(lhs, rhs, sig, ceiling)
        engine, bound = "exact-monadic", None
    else:
        bound = args.bound if args.bound is not None else default_bound(sig)
        verdict = bounded_entails(sig, [lhs], rhs, bound, ceiling)
        engine = "bounded"
    payload = {
        "command": "entail",
        "engine": engine,
        "bound": bound,
        "verdict": _verdict_json(verdict, sig),
    }
    text = [f"engine: {engine}" + (f" (bound {bound})" if bound else "")]
    text.extend(_verdict_text(verdict, sig))
    if isinstance(verdict, Holds):
        code = EXIT_OK
    elif isinstance(verdict, HoldsUpTo):
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_FOUND
    return code, payload, text


def _cmd_sat(args, ceiling):
    sig = _parse_inline_sig(args.sig)
    f = parse_formula(args.formula, sig)
    verdict = decide_sat(f, sig, ceiling)
    if isinstance(verdict, Sat):
        payload = {
            "command": "sat",
            "satisfiable": True,
            "witness": {
                "model": verdict.model.to_dsl("witness", sig),
                "assignment": dict(verdict.assignment),
            },
        }
        text = ["satisfiable: yes", verdict.model.to_dsl("witness", sig)]
        if verdict.assignment:
            pairs = ", ".join(
                f"{k} = {e}" for k, e in sorted(verdict.assignment.items())
            )
            text.append(f"assignment: {pairs}")
        return EXIT_OK, payload, text
    payload = {"command": "sat", "satisfiable": False, "witness": None}
    return EXIT_FOUND, payload, ["satisfiable: no"]


def _cmd_normalize(args, ceiling):
    sig = _parse_inline_sig(args.sig)
    f = parse_formula(args.formula, sig)
    form = monadic_normal_form(f, args.var, sig, ceiling)
    payload = {
        "command": "normalize",
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


def _cmd_extensions(args, ceiling):
    pf = parse_path(args.file)
    model = _pick_model(pf, args.model)
    family = extensions(pf.system, model)
    payload = {
        "command": "extensions",
        "model": args.model,
        "sets": [
            {"name": name, "elements": sorted(elems)}
            for name, elems in family.sets
        ],
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


def _cmd_reconstruct(args, ceiling):
    pf = parse_path(args.file)
    model = _pick_model(pf, args.model)
    family = _parse_family(args.family, pf.signature, model)
    result = reconstruct(family)
    if isinstance(result, ReconstructedSystem):
        block = "defsys {\n" + "\n".join(
            "  " + e.to_dsl() for e in result.system.entries
        ) + "\n}"
        payload = {
            "command": "reconstruct",
            "result": "system",
            "defsys": block,
            "names": dict(result.names),
            "witness": None,
            "set": None,
            "reason": None,
        }
        text = [block]
        renamed = {k: v for k, v in result.names.items() if k != v}
        if renamed:
            text.append(
                "renamed: "
                + ", ".join(f"{k} -> {v}" for k, v in sorted(renamed.items()))
            )
        return EXIT_OK, payload, text
    if isinstance(result, NotLaminar):
        payload = {
            "command": "reconstruct",
            "result": "not-laminar",
            "defsys": None,
            "names": None,
            "witness": {
                "first": {
                    "name": result.first[0],
                    "elements": sorted(result.first[1]),
                },
                "second": {
                    "name": result.second[0],
                    "elements": sorted(result.second[1]),
                },
            },
            "set": None,
            "reason": None,
        }
        text = [
            "not laminar: "
            f"{result.first[0]} = {sorted(result.first[1])} overlaps "
            f"{result.second[0]} = {sorted(result.second[1])} without nesting"
        ]
        return EXIT_FOUND, payload, text
    payload = {
        "command": "reconstruct",
        "result": "undefinable",
        "defsys": None,
        "names": None,
        "witness": None,
        "set": result.name,
        "reason": result.reason,
    }
    return EXIT_FOUND, payload, [f"undefinable: {result.name}: {result.reason}"]


def _cmd_generators(args, ceiling):
    pf = parse_path(args.file)
    if not pf.asserts:
        raise ValueError("no assert statements in file")
    result = generators(
        list(pf.asserts), pf.system, bound=args.bound, ceiling=ceiling
    )
    engine = "exact-monadic" if result.exact else "bounded"
    payload = {
        "command": "generators",
        "engine": engine,
        "bound": result.bound,
        "sentences": [
            {"formula": render(s), "generator": flag}
            for s, flag in zip(result.sentences, result.generator_flags)
        ],
    }
    text = [f"engine: {engine}" + (f" (bound {result.bound})" if result.bound else "")]
    for s, flag in zip(result.sentences, result.generator_flags):
        mark = "generator" if flag else "non-generator"
        text.append(f"{mark}: {render(s)}")
    return EXIT_OK, payload, text


def _cmd_demo(args, ceiling):
    source = demo_dsl(args.max_size)
    payload = {
        "command": "demo",
        "topic": "magma",
        "max_size": args.max_size,
        "source": source,
    }
    return EXIT_OK, payload, [source.rstrip("\n")]


def _cmd_proximate(args, ceiling):
    pf = parse_path(args.file)
    candidates = [c.strip() for c in args.candidates.split(",") if c.strip()]
    result = proximate_genus(
        args.species, candidates, pf.system, bound=args.bound, ceiling=ceiling
    )
    engine = "exact-monadic" if result.exact else "bounded"
    payload = {
        "command": "proximate",
        "species": args.species,
        "chosen": result.chosen,
        "difference": render(result.difference),
        "engine": engine,
        "bound": result.bound,
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
        f"engine: {engine}" + (f" (bound {result.bound})" if result.bound else ""),
    ]
    for s in result.scores:
        if s.contains:
            text.append(f"  {s.name}: score {s.score}, difference {render(s.difference)}")
        else:
            text.append(f"  {s.name}: does not contain {args.species}")
    return EXIT_OK, payload, text


# --------------------------------------------------------------- schemas

_VERDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["holds", "holds-up-to", "countermodel"]},
        "bound": {"type": "integer"},
        "model": {"type": "string"},
        "assignment": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
    },
    "required": ["kind"],
}

_ENGINE = {"enum": ["exact-monadic", "bounded"]}
_MAYBE_INT = {"type": ["integer", "null"]}

SCHEMAS: dict[str, dict] = {
    "check": {
        "type": "object",
        "properties": {
            "command": {"const": "check"},
            "valid": {"type": "boolean"},
            "violations": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "entry": {"type": "integer"},
                        "kind": {
                            "enum": [
                                "forward-reference",
                                "self-reference",
                                "arity-mismatch",
                                "name-clash",
                                "free-variable-mismatch",
                            ]
                        },
                        "symbol": {"type": "string"},
                        "detail": {"type": "string"},
                    },
                    "required": ["entry", "kind", "symbol"],
                },
            },
            "warnings": {"type": "array"},
            "warnings_complete": {"type": "boolean"},
            "constants": {"type": "array"},
        },
        "required": ["command", "valid", "violations"],
    },
    "tree": {
        "type": "object",
        "properties": {
            "command": {"const": "tree"},
            "nodes": {"type": "array", "items": {"type": "string"}},
            "edges": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "species": {"type": "string"},
                        "genus": {"type": "string"},
                        "difference": {"type": "string"},
                    },
                    "required": ["species", "genus", "difference"],
                },
            },
            "roots": {"type": "array", "items": {"type": "string"}},
            "unguarded": {"type": "array", "items": {"type": "string"}},
            "dot": {"type": "string"},
        },
        "required": ["command", "nodes", "edges", "roots", "unguarded", "dot"],
    },
    "classify": {
        "type": "object",
        "properties": {
            "command": {"const": "classify"},
            "species": {"type": "string"},
            "formula": {"type": "string"},
            "verdict": {
                "enum": ["difference", "property", "accident", "unrelated"]
            },
            "engine": _ENGINE,
            "bound": _MAYBE_INT,
            "evidence": {
                "type": "object",
                "additionalProperties": _VERDICT_SCHEMA,
            },
        },
        "required": ["command", "species", "verdict", "engine", "evidence"],
    },
    "entail": {
        "type": "object",
        "properties": {
            "command": {"const": "entail"},
            "engine": _ENGINE,
            "bound": _MAYBE_INT,
            "verdict": _VERDICT_SCHEMA,
        },
        "required": ["command", "engine", "verdict"],
    },
    "sat": {
        "type": "object",
        "properties": {
            "command": {"const": "sat"},
            "satisfiable": {"type": "boolean"},
            "witness": {
                "type": ["object", "null"],
                "properties": {
                    "model": {"type": "string"},
                    "assignment": {"type": "object"},
                },
            },
        },
        "required": ["command", "satisfiable", "witness"],
    },
    "normalize": {
        "type": "object",
        "properties": {
            "command": {"const": "normalize"},
            "var": {"type": "string"},
            "pure": {"type": "boolean"},
            "formula": {"type": "string"},
            "disjuncts": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "cell": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "properties": {
                                    "predicate": {"type": "string"},
                                    "positive": {"type": "boolean"},
                                },
                                "required": ["predicate", "positive"],
                            },
                        },
                        "residue": {"type": "string"},
                    },
                    "required": ["cell", "residue"],
                },
            },
        },
        "required": ["command", "var", "pure", "formula", "disjuncts"],
    },
    "extensions": {
        "type": "object",
        "properties": {
            "command": {"const": "extensions"},
            "model": {"type": "string"},
            "sets": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "name": {"type": "string"},
                        "elements": {
                            "type": "array",
                            "items": {"type": "integer"},
                        },
                    },
                    "required": ["name", "elements"],
                },
            },
        },
        "required": ["command", "model", "sets"],
    },
    "reconstruct": {
        "type": "object",
        "properties": {
            "command": {"const": "reconstruct"},
            "result": {"enum": ["system", "not-laminar", "undefinable"]},
            "defsys": {"type": ["string", "null"]},
            "names": {"type": ["object", "null"]},
            "witness": {"type": ["object", "null"]},
            "set": {"type": ["string", "null"]},
            "reason": {"type": ["string", "null"]},
        },
        "required": ["command", "result", "defsys", "names", "witness"],
    },
    "generators": {
        "type": "object",
        "properties": {
            "command": {"const": "generators"},
            "engine": _ENGINE,
            "bound": _MAYBE_INT,
            "sentences": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "formula": {"type": "string"},
                        "generator": {"type": "boolean"},
                    },
                    "required": ["formula", "generator"],
                },
            },
        },
        "required": ["command", "engine", "sentences"],
    },
    "demo": {
        "type": "object",
        "properties": {
            "command": {"const": "demo"},
            "topic": {"const": "magma"},
            "max_size": {"type": "integer", "minimum": 1, "maximum": 3},
            "source": {"type": "string"},
        },
        "required": ["command", "topic", "max_size", "source"],
    },
    "proximate": {
        "type": "object",
        "properties": {
            "command": {"const": "proximate"},
            "species": {"type": "string"},
            "chosen": {"type": "string"},
            "difference": {"type": "string"},
            "engine": _ENGINE,
            "bound": _MAYBE_INT,
            "scores": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "name": {"type": "string"},
                        "contains": {"type": "boolean"},
                        "difference": {"type": ["string", "null"]},
                        "score": {"type": ["integer", "null"]},
                    },
                    "required": ["name", "contains", "difference", "score"],
                },
            },
        },
        "required": ["command", "species", "chosen", "difference", "scores"],
    },
}


# ------------------------------------------------------------ entrypoint


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
    common.add_argument(
        "--bound", type=int, help="model-size bound for bounded entailment"
    )

    p = argparse.ArgumentParser(
        prog="porphyry",
        description="Definition systems, finite-model reasoning, and "
        "class hierarchies for first-order logic.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", parents=[common], help="validate a definition system")
    sp.add_argument("file")

    sp = sub.add_parser("tree", parents=[common], help="genus-species forest")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true", help="emit DOT")

    sp = sub.add_parser("classify", parents=[common], help="predication verdict")
    sp.add_argument("file")
    sp.add_argument("--species", required=True)
    sp.add_argument("--formula", required=True)

    sp = sub.add_parser("entail", parents=[common], help="entailment query")
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.add_argument("--sig", help="inline signature declarations")

    sp = sub.add_parser("sat", parents=[common], help="unary-fragment satisfiability")
    sp.add_argument("--formula", required=True)
    sp.add_argument("--sig", required=True)

    sp = sub.add_parser("normalize", parents=[common], help="cell normal form")
    sp.add_argument("--formula", required=True)
    sp.add_argument("--sig", required=True)
    sp.add_argument("--var", default="x")

    sp = sub.add_parser("extensions", parents=[common], help="class extents over a model")
    sp.add_argument("file")
    sp.add_argument("--model", required=True)

    sp = sub.add_parser(
        "reconstruct", parents=[common], help="definitions from a laminar family"
    )
    sp.add_argument("file")
    sp.add_argument("--model", required=True)
    sp.add_argument(
        "--family",
        required=True,
        help='inline family, e.g. "A={0,1}; B={0}"',
    )

    sp = sub.add_parser(
        "generators", parents=[common], help="generator flags for asserted sentences"
    )
    sp.add_argument("file")

    sp = sub.add_parser("demo", parents=[common], help="built-in demo data")
    sp.add_argument("topic", choices=["magma"])
    sp.add_argument("--max-size", type=int, default=2, dest="max_size")

    sp = sub.add_parser("proximate", parents=[common], help="closest containing genus")
    sp.add_argument("file")
    sp.add_argument("--species", required=True)
    sp.add_argument("--candidates", required=True, help="comma-separated class names")
    return p


_HANDLERS = {
    "check": _cmd_check,
    "tree": _cmd_tree,
    "classify": _cmd_classify,
    "entail": _cmd_entail,
    "sat": _cmd_sat,
    "normalize": _cmd_normalize,
    "extensions": _cmd_extensions,
    "reconstruct": _cmd_reconstruct,
    "generators": _cmd_generators,
    "demo": _cmd_demo,
    "proximate": _cmd_proximate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        ceiling = _resolve_ceiling(args)
        if args.bound is not None and args.bound < 1:
            raise ValueError("--bound must be at least 1")
        code, payload, text = _HANDLERS[args.command](args, ceiling)
    except (ParseError, ResourceCeilingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text))
    return code


def main_entry() -> None:
    raise SystemExit(main())
