"""Command-line surface: tables, cone systems, audits, builds, verification.

Every artifact is a JSON document {"manifest": ..., "payload": ...} written
in canonical form; LaTeX output carries the manifest as a leading comment.
Reruns with identical inputs produce identical bytes.

Exit codes: 0 success, 1 verification failure (first counterexample
reported), 2 usage or malformed input, 3 budget exhausted.  Every command
counts the size of its request and refuses one above DIHEDRALCALC_BUDGET
(default 64) before any field is built or other work starts; the README
lists the size each command counts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .algebra import AlgebraContext
from .building import ChamberGraph, WeightedConfiguration, bar_step, \
    find_antipodal_tuple, graph_metrics, json_int, min_slope_scan, slope_at
from .cones import DominantWeight, a1_product_system, audit_to_json, \
    cone_equal, equality_to_json, gen_km, gen_sti, gen_wti, is_member, \
    redundancy_audit, system_to_json, system_to_latex, theta_system
from .errors import BudgetExceededError, DomainError, InvalidParameterError, \
    UnsupportedModeError, VerificationError
from .field import field_init
from .filtration import ConcaveWeighting, gr_table_json, limit_table_json, \
    subalgebra_table_json
from .manifest import canonical_bytes, wrap

BUDGET_ENV = "DIHEDRALCALC_BUDGET"
# every command refuses a request whose size, a count times n, exceeds this
# (or DIHEDRALCALC_BUDGET).  build counts n*(stages+1)*max(cap, BUILD_CAP)/32:
# each stage joins up to cap pairs of each kind and costs more than the
# last.  The slowest build measured within the limit, n = 4 with 7 stages,
# takes about 4 s on a 2-CPU host
SIZE_BUDGET = 64
BUILD_CAP = 64
# weights of more bits than this in all are malformed: exact values past
# 4300 digits cannot be printed
WEIGHT_BITS = 4096

SYSTEM_CHOICES = ("wti", "sti", "km", "bk", "a1")


def _refuse(what: str, size: int) -> None:
    """Raise BudgetExceededError when a request's size exceeds the budget."""
    value = os.environ.get(BUDGET_ENV)
    try:
        budget = SIZE_BUDGET if value is None else int(value)
    except ValueError:
        raise InvalidParameterError(
            f"{BUDGET_ENV} must be an integer, got {value!r}")
    if size > budget:
        bits = size.bit_length()  # str refuses integers past 4300 digits
        shown = size if bits <= 14000 else f"2**{bits - 1} or more"
        raise BudgetExceededError(f"{what} = {shown} exceeds budget {budget}")


def system_from_spec(spec: str, n: int, m: int):
    """Resolve a system name (optionally theta:-twisted) to m slots."""
    name, twist = spec, False
    if name.startswith("theta:"):
        twist, name = True, name[len("theta:"):]
    if name not in SYSTEM_CHOICES:
        raise InvalidParameterError(
            f"unknown system {spec!r}; choose from "
            f"{', '.join(SYSTEM_CHOICES)} with optional theta: prefix")
    if name in ("sti", "km", "bk") and m < 2:
        raise InvalidParameterError(f"{name} systems need m >= 2")
    # KM and BK systems enumerate m - 1 factors
    _refuse("m*n", (m - 1 if name in ("km", "bk") else m) * n)
    if name == "wti":
        built = gen_wti(n, m)
    elif name == "sti":
        built = gen_sti(n, m)
    elif name == "a1":
        if n != 2:
            raise InvalidParameterError("the a1 product oracle fixes n = 2")
        built = a1_product_system(m)
    else:
        built = gen_km(n, m - 1, "at" if name == "km" else "gr-b")
    return theta_system(built) if twist else built


# -- input/output helpers --------------------------------------------------------

def _finite(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _read_json(path: str) -> tuple[dict, str]:
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data)
    except RecursionError:
        raise InvalidParameterError(f"{path}: JSON nested too deeply")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path}: not UTF-8 text: {exc.reason}")
    except ValueError as exc:  # malformed, or an integer past 4300 digits
        raise InvalidParameterError(f"{path}: not JSON: {exc}")
    return doc, hashlib.sha256(data).hexdigest()


def _rational(value: Any) -> Fraction:
    """A weight coordinate; a long exponent is refused before Fraction expands it."""
    text = str(value)
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > WEIGHT_BITS:
        raise ValueError(f"exponent out of range in {text[:40]!r}")
    return Fraction(text)


def _parse_weights(doc: dict) -> list[DominantWeight]:
    try:
        weights = [DominantWeight(_rational(a), _rational(b))
                   for a, b in doc["weights"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"malformed weights: {exc}")
    bits = sum(x.numerator.bit_length() + x.denominator.bit_length()
               for w in weights for x in (w.a, w.b))
    if bits > WEIGHT_BITS:
        raise InvalidParameterError(
            f"malformed weights: {bits} bits, more than {WEIGHT_BITS}")
    return weights


def _write(dest: str | None, data: bytes) -> None:
    if dest is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        Path(dest).write_bytes(data)


def _document_bytes(command: str, parameters: dict, payload: Any, *,
                    seed: int | None = None,
                    field: dict | None = None) -> bytes:
    """``canonical_bytes(wrap(...))`` with the payload encoded once: its
    bytes give the digest (``make_manifest`` reads a bytes payload as its
    own encoding) and are spliced into the envelope after the manifest's
    ("manifest" sorts before "payload")."""
    body = canonical_bytes(payload)
    head = canonical_bytes(wrap(command, parameters, body, seed=seed,
                                field=field)["manifest"])
    return b'{"manifest":' + head[:-1] + b',"payload":' + body[:-1] + b"}\n"


def _emit_json(args, command: str, parameters: dict, payload: Any, *,
               seed: int | None = None, field: dict | None = None,
               dest: str | None = None) -> None:
    _write(dest if dest is not None else args.dest,
           _document_bytes(command, parameters, payload, seed=seed,
                           field=field))


# -- subcommands -------------------------------------------------------------------

def _cmd_mult_table(args) -> int:
    _refuse("2n", 2 * args.n)
    descr = field_init(args.n)
    alg = AlgebraContext(descr)
    if args.algebra == "at":
        payload = alg.table_json()
    elif args.algebra == "gr":
        payload = gr_table_json(ConcaveWeighting.full(alg))
    elif args.algebra == "limit":
        payload = limit_table_json(ConcaveWeighting.full(alg))
    else:
        payload = subalgebra_table_json(alg, args.side)
    parameters = {"n": args.n, "algebra": args.algebra}
    if args.algebra == "bi":
        parameters["side"] = args.side
    _emit_json(args, "mult-table", parameters, payload, field=descr.to_json())
    return 0


def _cmd_cone(args) -> int:
    built = system_from_spec(args.system, args.n, args.m)
    parameters = {"system": args.system, "n": args.n, "m": args.m,
                  "format": args.out}
    payload = system_to_json(built)
    dest = args.dest
    if dest is None:
        stem = args.system.replace(":", "-")
        ext = "json" if args.out == "json" else "tex"
        dest = f"{stem}-n{args.n}-m{args.m}.{ext}"
    if args.out == "json":
        _emit_json(args, "cone", parameters, payload,
                   field=field_init(args.n).to_json(), dest=dest)
    else:
        manifest = wrap("cone", parameters, canonical_bytes(payload),
                        field=field_init(args.n).to_json())["manifest"]
        text = "% manifest: " \
            + canonical_bytes(manifest).decode("ascii").strip() \
            + "\n" + system_to_latex(built) + "\n"
        _write(dest, text.encode("ascii"))
    print(dest, file=sys.stderr)
    return 0


def _cmd_member(args) -> int:
    built = system_from_spec(args.system, args.n, args.m)
    doc, sha = _read_json(args.point)
    weights = _parse_weights(doc)
    verdict = is_member(built, weights)
    payload: dict[str, Any] = {"member": verdict.member}
    if not verdict.member:
        payload["violated"] = verdict.violated.tag.to_json()
        payload["violated_key"] = list(verdict.violated.key)
        payload["value"] = verdict.value.to_json()
    parameters = {"system": args.system, "n": args.n, "m": args.m,
                  "point_sha256": sha}
    _emit_json(args, "member", parameters, payload,
               field=field_init(args.n).to_json())
    if args.dest is not None:
        print("member" if verdict.member else "not-member")
    return 0


def _cmd_audit(args) -> int:
    built = system_from_spec(args.system, args.n, args.m)
    report = redundancy_audit(built)
    payload = audit_to_json(built, report)
    parameters = {"system": args.system, "n": args.n, "m": args.m}
    _emit_json(args, "audit", parameters, payload,
               field=field_init(args.n).to_json())
    return 0


def _cmd_equal(args) -> int:
    sys_a = system_from_spec(args.a, args.n, args.m)
    sys_b = system_from_spec(args.b, args.n, args.m)
    cert = cone_equal(sys_a, sys_b)
    payload = equality_to_json(sys_a, sys_b, cert)
    parameters = {"a": args.a, "b": args.b, "n": args.n, "m": args.m}
    _emit_json(args, "equal", parameters, payload,
               field=field_init(args.n).to_json())
    if not cert.equal:
        entry = cert.counterexample
        print(f"cones differ: inequality {entry.inequality.key} of one "
              "system is not implied by the other", file=sys.stderr)
        return 1
    return 0


def _cmd_build(args) -> int:
    for name in ("stages", "cap"):
        if getattr(args, name) < 0:
            raise InvalidParameterError(f"--{name} must be nonnegative")
    size = args.n * (args.stages + 1) * max(args.cap, BUILD_CAP)
    _refuse(f"n*(stages+1)*max(cap,{BUILD_CAP})/32", -(-size // 32))
    _refuse("m*n", args.m * args.n)
    graph = ChamberGraph.apartment(args.n, seed=args.seed)
    tup = find_antipodal_tuple(graph, args.m)
    graph = tup.graph
    stages = [_finite(graph_metrics(graph))]
    for _ in range(args.stages):
        graph = bar_step(graph, cap=args.cap)
        stages.append(_finite(graph_metrics(graph)))
    payload = {"n": args.n, "chambers": [list(c) for c in tup.chambers],
               "metrics": stages, "graph": graph.to_json()}
    parameters = {"n": args.n, "stages": args.stages, "m": args.m,
                  "cap": args.cap}
    _emit_json(args, "build", parameters, payload, seed=args.seed,
               field=field_init(args.n).to_json())
    return 0


def _load_graph(doc: dict) -> ChamberGraph:
    if isinstance(doc, dict) and isinstance(doc.get("payload"), dict):
        doc = doc["payload"]
    if isinstance(doc, dict) and "graph" in doc:
        doc = doc["graph"]
    return ChamberGraph.from_json(doc)


def _cmd_slope(args) -> int:
    if args.within is not None and args.within < 0:
        raise InvalidParameterError("--within must be nonnegative")
    graph_doc, graph_sha = _read_json(args.graph)
    graph = _load_graph(graph_doc)
    config_doc, config_sha = _read_json(args.config)
    try:
        chambers = [(json_int(u, "chamber endpoint"),
                     json_int(v, "chamber endpoint"))
                    for u, v in config_doc["chambers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed config: {exc}")
    weights = _parse_weights(config_doc)
    n = graph.n
    # an empty configuration still builds the degree ~n field
    _refuse("n*chambers", n * max(len(chambers), 1))
    config = WeightedConfiguration(graph, chambers, weights)
    within = args.within if args.within is not None else n
    if args.eta is not None:
        payload: dict[str, Any] = {
            "eta": args.eta, "slope": slope_at(config, args.eta).to_json()}
    else:
        payload = {"within": within}
        for l, scan in min_slope_scan(config, within=within).items():
            payload[f"grassmannian_{l}"] = None if scan is None else {
                "vertex": scan.vertex, "value": scan.value.to_json()}
    parameters = {"graph_sha256": graph_sha, "config_sha256": config_sha,
                  "eta": args.eta, "within": within}
    _emit_json(args, "slope", parameters, payload,
               field=field_init(n).to_json())
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import SUITES, run_all, run_suite

    if args.suite == "all":
        results = run_all()
    else:
        results = [run_suite(args.suite)]
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    payload = [r.to_json() for r in results]
    if args.dest is not None:
        _emit_json(args, "verify", {"suite": args.suite}, payload)
    if failed:
        print(f"{len(failed)} of {len(results)} suites failed",
              file=sys.stderr)
        return 1
    return 0


# -- parser ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; handlers look their
    callees up at call time, so later patches of module names still apply."""
    parser = argparse.ArgumentParser(
        prog="dihedralcalc",
        description="Exact dihedral intersection calculus: multiplication "
                    "tables, stability-cone systems, building constructions, "
                    "and verification suites.",
        epilog=f"Set {BUDGET_ENV} to override the work budget.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system: bool = False):
        if system:
            p.add_argument("--system", required=True,
                           help="wti|sti|km|bk|a1, optional theta: prefix")
        p.add_argument("--n", type=int, required=True,
                       help="dihedral parameter (angle pi/n)")
        p.add_argument("--m", type=int, required=True,
                       help="number of weight slots of the system")
        p.add_argument("--dest", help="output file (default: stdout)")

    p = sub.add_parser("mult-table", help="multiplication table export")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--algebra", required=True,
                   choices=("at", "gr", "limit", "bi"))
    p.add_argument("--side", type=int, default=1, choices=(1, 2),
                   help="one-sided basis for --algebra bi")
    p.add_argument("--dest", help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_mult_table)

    p = sub.add_parser("cone", help="generate a deduplicated system file")
    common(p, system=True)
    p.add_argument("--out", choices=("json", "latex"), default="json",
                   help="output format")
    p.set_defaults(handler=_cmd_cone)

    p = sub.add_parser("member", help="membership test for a weight tuple")
    common(p, system=True)
    p.add_argument("--point", required=True,
                   help='JSON file {"weights": [[a, b], ...]}')
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("audit", help="facet/redundancy certificates")
    common(p, system=True)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("equal", help="mutual-implication cone equality")
    p.add_argument("--a", required=True, help="first system spec")
    p.add_argument("--b", required=True, help="second system spec")
    common(p)
    p.set_defaults(handler=_cmd_equal)

    p = sub.add_parser("build", help="grow a seeded chamber graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stages", type=int, required=True,
                   help="number of growth rounds")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, default=3,
                   help="size of the antipodal chamber tuple")
    p.add_argument("--cap", type=int, default=BUILD_CAP,
                   help="per-round join cap")
    p.add_argument("--dest", help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("slope", help="slope scan of a weighted configuration")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--config", required=True,
                   help='JSON file {"chambers": ..., "weights": ...}')
    p.add_argument("--eta", type=int, help="evaluate at one vertex")
    p.add_argument("--within", type=int,
                   help="scan radius around the chambers (default n)")
    p.add_argument("--dest", help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_slope)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--dest", help="also write a results artifact")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (InvalidParameterError, UnsupportedModeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
