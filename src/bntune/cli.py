"""Command-line interface.

Subcommands: ``infer`` (conditional probability at the original values),
``compile`` (chain statistics, closed form, DOT export), ``verify`` (one
sound check of the declared box), ``partition`` (split the declared box into
accepting/rejecting/unknown boxes), and ``tune`` (search for a satisfying
instantiation of minimal distance).  Every subcommand prints a single JSON
object with a fixed key order; apart from the trailing ``timings_ms`` the
output is byte-for-byte deterministic.

Exit codes: 0 when the result is positive (ok / satisfied / tuned /
accepting), 2 for a definite negative (infeasible / rejecting), 3 for an
undecided outcome, and 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .bn import BayesNet, Constraint, ParamBN
from .errors import CoverageUnreachable, Error, TooLarge
from .formats import float17, parse_constraint, parse_network, parse_param_spec
from .lifting import RegionVerifier, Verdict
from .pmc import compile_chain, compile_tailored, reach_prob, sensitivity_function, to_dot
from .poly import as_fraction
from .refine import DEFAULT_ETA, boxes_csv, partition
from .tune import Hyper, Status, TuneResult, tune

# -- JSON rendering (17-significant-digit floats, fixed key order) -------------


def _render(value, indent: int = 0) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return float17(float(value))
    if isinstance(value, float):
        return float17(value)
    pad, inner_pad = "  " * indent, "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{inner_pad}{json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(f"{inner_pad}{_render(v, indent + 1)}" for v in value)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(payload: dict) -> str:
    return _render(payload) + "\n"


# -- input loading --------------------------------------------------------------


def _load_net(args) -> BayesNet:
    return parse_network(Path(args.network).read_text())


def _load_pbn(args, net: BayesNet) -> ParamBN | None:
    if getattr(args, "params", None) is None:
        return None
    return parse_param_spec(
        Path(args.params).read_text(), net, delta=as_fraction(args.delta)
    )


def _load_constraint(args, net) -> Constraint | None:
    if getattr(args, "constraint", None) is None:
        return None
    return parse_constraint(args.constraint, net)


def _require(value, flag: str):
    if value is None:
        raise Error(f"this subcommand requires {flag}")
    return value


def _order(args) -> tuple[str, ...] | None:
    if getattr(args, "order", None) is None:
        return None
    return tuple(name.strip() for name in args.order.split(",") if name.strip())


# -- subcommands ------------------------------------------------------------------


def _cmd_infer(args) -> tuple[dict, int]:
    net = _load_net(args)
    constraint = _require(_load_constraint(args, net), "-c/--constraint")
    chain, spec = compile_tailored(net, constraint, order=_order(args))
    probability = reach_prob(chain, {}, spec.targets)
    payload = {
        "status": "ok",
        "probability": probability,
        "direction": constraint.direction,
        "threshold": float(constraint.threshold),
        "satisfied": bool(spec.satisfied_by(probability)),
    }
    return payload, 0


def _cmd_compile(args) -> tuple[dict, int]:
    net = _load_net(args)
    pbn = _load_pbn(args, net)
    constraint = _load_constraint(args, pbn if pbn is not None else net)
    model = pbn if pbn is not None else net
    targets: tuple[int, ...] = ()
    if constraint is not None:
        chain, spec = compile_tailored(model, constraint, order=_order(args))
        targets = tuple(sorted(spec.targets))
    else:
        chain = compile_chain(model, order=_order(args))
    sensitivity = None
    if targets:
        try:
            form = sensitivity_function(chain, targets)
            sensitivity = {"numerator": str(form.numerator), "denominator": str(form.denominator)}
        except TooLarge:
            sensitivity = None
    if args.emit_dot:
        Path(args.emit_dot).write_text(to_dot(chain, targets))
    payload = {
        "status": "ok",
        "states": chain.n_states,
        "transitions": chain.transition_count,
        "initial": chain.initial,
        "targets": list(targets),
        "parameters": list(chain.parameter_names),
        "sensitivity": sensitivity,
    }
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    net = _load_net(args)
    pbn = _require(_load_pbn(args, net), "-p/--params")
    constraint = _require(_load_constraint(args, pbn), "-c/--constraint")
    chain, spec = compile_tailored(pbn, constraint, order=_order(args))
    verifier = RegionVerifier(chain, spec)
    region = pbn.space()
    verdict = verifier.verify(region)
    low, high = verifier.bounds(region)
    payload = {
        "status": "ok",
        "verdict": verdict.value,
        "bounds": {"low": low, "high": high},
        "direction": constraint.direction,
        "threshold": float(constraint.threshold),
    }
    code = {Verdict.ACCEPTING: 0, Verdict.REJECTING: 2, Verdict.INCONCLUSIVE: 3}[verdict]
    return payload, code


def _cmd_partition(args) -> tuple[dict, int]:
    net = _load_net(args)
    pbn = _require(_load_pbn(args, net), "-p/--params")
    constraint = _require(_load_constraint(args, pbn), "-c/--constraint")
    chain, spec = compile_tailored(pbn, constraint, order=_order(args))
    status, code = "ok", 0
    try:
        result = partition(chain, spec, pbn.space(), args.eta)
    except CoverageUnreachable as exc:
        result = exc.partial
        status, code = "coverage_unreachable", 3
    if args.emit_boxes:
        Path(args.emit_boxes).write_text(boxes_csv(result))
    accepting, rejecting, unknown = result.counts
    payload = {
        "status": status,
        "coverage": result.coverage,
        "verifications": result.verifications,
        "boxes": {"accepting": accepting, "rejecting": rejecting, "unknown": unknown},
    }
    return payload, code


_EXIT_BY_STATUS = {
    Status.SATISFIED: 0,
    Status.TUNED: 0,
    Status.INFEASIBLE: 2,
    Status.UNKNOWN: 3,
}


def _tune_payload(result: TuneResult) -> dict:
    instantiation = None
    if result.instantiation is not None:
        instantiation = {name: float(value) for name, value in result.instantiation.items()}
    distance = None
    if result.distance is not None:
        distance = {
            "measure": result.measure,
            "value": result.distance,
            "squared": result.distance_squared,
        }
    iterations = [
        {
            "epsilon": it.epsilon,
            "verifications": it.verifications,
            "accepting": it.accepting,
            "rejecting": it.rejecting,
            "unknown": it.unknown,
            "coverage": it.coverage,
        }
        for it in result.iterations
    ]
    last = result.iterations[-1] if result.iterations else None
    return {
        "status": result.status.value,
        "instantiation": instantiation,
        "distance": distance,
        "probability": result.probability,
        "epsilon_final": result.epsilon_final,
        "d0": result.d0,
        "iterations": iterations,
        "coverage": None if last is None else last.coverage,
        "boxes": None
        if last is None
        else {"accepting": last.accepting, "rejecting": last.rejecting, "unknown": last.unknown},
    }


def _cmd_tune(args) -> tuple[dict, int]:
    net = _load_net(args)
    pbn = _require(_load_pbn(args, net), "-p/--params")
    constraint = _require(_load_constraint(args, pbn), "-c/--constraint")
    result = tune(pbn, constraint, measure=args.distance, hyper=Hyper(eta=args.eta), order=_order(args))
    return _tune_payload(result), _EXIT_BY_STATUS[result.status]


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bntune",
        description="Tune Bayesian network parameters against a conditional-probability "
        "constraint via chain compilation and sound box verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("network", help="network file (var/cpt blocks)")
    common.add_argument("--order", help="comma-separated topological variable order")
    common.add_argument(
        "--delta",
        default="1e-6",
        help="default interval [delta, 1 - delta] of any parameter without an "
        "'interval:' clause (default 1e-6)",
    )
    common.add_argument("-o", "--output", help="write the JSON result to this file")

    with_params = argparse.ArgumentParser(add_help=False)
    with_params.add_argument("-p", "--params", help="parameter selection file")
    with_constraint = argparse.ArgumentParser(add_help=False)
    with_constraint.add_argument(
        "-c", "--constraint", help="constraint, e.g. 'P(A=yes | B=no) <= 0.01'"
    )
    with_eta = argparse.ArgumentParser(add_help=False)
    with_eta.add_argument(
        "--eta",
        default=DEFAULT_ETA,
        help="coverage factor: share that must be conclusively classified "
        f"(default {float(DEFAULT_ETA):g})",
    )

    p_infer = sub.add_parser(
        "infer", parents=[common, with_constraint], help="conditional probability at the original values"
    )
    p_infer.set_defaults(handler=_cmd_infer)

    p_compile = sub.add_parser(
        "compile",
        parents=[common, with_params, with_constraint],
        help="compile the chain; report size, closed form, and optionally DOT",
    )
    p_compile.add_argument("--emit-dot", help="write a GraphViz rendering to this file")
    p_compile.set_defaults(handler=_cmd_compile)

    p_verify = sub.add_parser(
        "verify",
        parents=[common, with_params, with_constraint],
        help="soundly check the constraint over the whole declared parameter box",
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_partition = sub.add_parser(
        "partition",
        parents=[common, with_params, with_constraint, with_eta],
        help="split the declared box into accepting/rejecting/unknown boxes",
    )
    p_partition.add_argument("--emit-boxes", help="write the box lists as CSV to this file")
    p_partition.set_defaults(handler=_cmd_partition)

    p_tune = sub.add_parser(
        "tune",
        parents=[common, with_params, with_constraint, with_eta],
        help="find a satisfying instantiation of small distance",
    )
    p_tune.add_argument(
        "--distance", choices=("ec", "cd"), default="ec", help="distance measure (default ec)"
    )
    p_tune.set_defaults(handler=_cmd_tune)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        payload, code = args.handler(args)
    except (Error, OSError, ValueError, ZeroDivisionError) as exc:
        payload, code = {"status": "error", "error": str(exc)}, 1
    payload["timings_ms"] = (time.perf_counter() - started) * 1000.0
    text = render_json(payload)
    output = getattr(args, "output", None)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
