"""Command-line front end tying the pipeline together.

Six subcommands: ``synth`` plants instances, ``detect`` mines records from
an MPS file, ``propagate`` tightens the root box with the model's rows and
those records (the root propagation of ``search``), ``verify`` runs the
gate ladder, ``search`` solves with the propagation plugin, and ``bench``
drives the paired baseline/plugin comparison over a directory.  The numeric
policy is fixed (see :mod:`structprop.model`), and so is the fixpoint round
cap, so no flag sets a tolerance or a round cap.

Every subcommand takes ``--quiet``.  Only ``synth`` and ``verify`` take a
seed (``--seed``, default 0), and only ``synth`` and ``bench`` take
``--json``, which prints their output paths as JSON.

Exit codes: 0 on success, 1 on a domain failure (a failed gate, a cutoff or
empty search where a feasible point was expected), 2 on bad usage.  Logs go
to stderr; machine-readable payloads go to stdout or the requested file.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .bench import run_benchmark, write_report
from .detect import DetectionReport, detect_all
from .model import DomainBox, MipModel
from .mps import MpsParseError, parse_mps
from .propagate import outcome_to_json
from .records import Family, records_from_json, records_to_json
from .search import SearchConfig, dfs_solve, propagate_node, stats_to_json
from .synth import ObfuscationConfig, obfuscate, reverse_sample, write_instance
from .verify import ladder_to_json, run_gate_ladder

log = logging.getLogger("structprop")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _family_arg(text: str) -> Family:
    try:
        return Family.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _family_or_all(text: str):
    if text == "all":
        return "all"
    return _family_arg(text)


def _family_list(text: str) -> list[Family]:
    return [_family_arg(part) for part in text.split(",") if part]


def _size_params(text: str) -> dict[str, int]:
    params: dict[str, int] = {}
    for part in text.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(
                f"size parameter {part!r} is not of the form key=value"
            )
        try:
            params[key.strip()] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"size parameter {key!r} needs an integer, got {value!r}"
            ) from None
    return params


def _positive(convert):
    """An argument type: ``convert(text)``, which must be above 0 (NaN is not)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not value > 0:
            raise argparse.ArgumentTypeError(
                f"expected a positive {convert.__name__}, got {text!r}"
            )
        return value

    return parse


def _load_model(path: str) -> MipModel:
    with open(path, "r", encoding="ascii") as handle:
        return parse_mps(handle.read())


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
        log.info("wrote %s", path)


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# subcommands


def cmd_detect(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    report = detect_all(model)
    if args.family != "all":
        report = DetectionReport(tuple(r for r in report.records if r.family is args.family))
    doc = records_to_json(list(report.records), model)
    doc["family_counts"] = report.family_counts
    _emit(doc, args.records_out)
    log.info("%d records in %s", len(report.records), args.file)
    return EXIT_OK


def cmd_propagate(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    if args.records is not None:
        with open(args.records, "r", encoding="ascii") as handle:
            records = records_from_json(json.load(handle), model)
    else:
        records = list(detect_all(model).records)
    box = DomainBox.from_model(model)
    before = box.copy()
    outcome, by_records = propagate_node(model, records, box)
    outcome.absorb(by_records)
    changes = []
    for v, variable in enumerate(model.variables):
        if box.lower[v] != before.lower[v] or box.upper[v] != before.upper[v]:
            changes.append(
                {
                    "variable": variable.name,
                    "before": [_finite(before.lower[v]), _finite(before.upper[v])],
                    "after": [_finite(box.lower[v]), _finite(box.upper[v])],
                }
            )
    doc = {
        "records_applied": len(records),
        "outcome": outcome_to_json(outcome),
        "changes": changes,
    }
    _emit(doc, None)
    # set_lower/set_upper report every crossing they make as a cutoff, so
    # only the declared box can be empty unnoticed, as at search's root
    if outcome.cutoff or before.is_empty():
        log.warning("the root box is infeasible")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    instance = reverse_sample(args.family, size_params=args.size, seed=args.seed)
    if args.obfuscate == "on":
        instance = obfuscate(instance, ObfuscationConfig(seed=args.seed))
    mps_path, json_path = write_instance(instance, args.out)
    if args.json:
        _emit({"mps": mps_path, "ground_truth": json_path}, None)
    else:
        sys.stdout.write(mps_path + "\n")
        sys.stdout.write(json_path + "\n")
    log.info(
        "planted %s instance with %d variables, %d rows",
        instance.ground_truth.family.value,
        len(instance.model.variables),
        len(instance.model.rows),
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.family == "all":
        families = list(Family)
    else:
        families = [args.family]
    ladders = []
    blocked = []
    for family in families:
        results = run_gate_ladder(family, suite_seed=args.seed)
        doc = ladder_to_json(family, results)
        ladders.append(doc)
        if not doc["benchmark_ready"]:
            blocked.append(family.value)
        log.info(
            "%s: %s",
            family.value,
            "benchmark ready" if doc["benchmark_ready"] else results[-1].detail,
        )
    _emit({"suite_seed": args.seed, "ladders": ladders}, args.report)
    if blocked:
        log.error("not benchmark ready: %s", ", ".join(blocked))
        return EXIT_FAILURE
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    records = list(detect_all(model).records)
    config = SearchConfig(node_limit=args.node_limit, time_limit=args.time_limit)
    incumbent, stats = dfs_solve(model, records, config)
    doc = stats_to_json(stats)
    if incumbent is None:
        doc["objective"] = None
        doc["incumbent"] = None
    else:
        stored = sum(c * incumbent[v] for v, c in model.objective)
        # the model keeps the minimization form; report the declared sense
        doc["objective"] = -stored if model.objective_sense == "max" else stored
        doc["incumbent"] = {
            model.variables[v].name: value for v, value in sorted(incumbent.items())
        }
    _emit(doc, None)
    return EXIT_OK if incumbent is not None else EXIT_FAILURE


def cmd_bench(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.dir):
        log.error("not a directory: %s", args.dir)
        return EXIT_USAGE
    config = None if args.time_limit is None else SearchConfig(time_limit=args.time_limit)
    report = run_benchmark(args.dir, families=args.families, config=config)
    paths = write_report(report, args.dir)
    if args.json:
        _emit({"reports": paths, "skipped": list(report.skipped)}, None)
    else:
        for path in paths:
            sys.stdout.write(path + "\n")
    if report.skipped:
        log.warning("skipped %d unusable instance(s)", len(report.skipped))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="suppress informational logging"
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    paths = argparse.ArgumentParser(add_help=False)
    paths.add_argument(
        "--json", action="store_true", help="print the output paths as JSON"
    )

    parser = argparse.ArgumentParser(
        prog="structprop",
        description="Mine global-constraint structure from MIP files and put it to work.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("detect", parents=[common], help="mine records from an MPS file")
    p.add_argument("file")
    p.add_argument("--family", type=_family_or_all, default="all")
    p.add_argument("--records-out", default=None, help="write records JSON here")
    p.set_defaults(handler=cmd_detect)

    p = sub.add_parser(
        "propagate",
        parents=[common],
        help="tighten the root box with the rows and mined records",
    )
    p.add_argument("file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--records", default=None, help="records JSON file")
    source.add_argument(
        "--detect", action="store_true", help="mine records from the model first"
    )
    p.set_defaults(handler=cmd_propagate)

    p = sub.add_parser(
        "synth", parents=[common, seeded, paths], help="plant a synthetic instance"
    )
    p.add_argument("--family", type=_family_arg, required=True)
    p.add_argument(
        "--size",
        type=_size_params,
        default=None,
        help="comma-separated key=value overrides, e.g. n=6,width=3",
    )
    p.add_argument("--obfuscate", choices=("on", "off"), default="off")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("verify", parents=[common, seeded], help="run the gate ladder")
    p.add_argument("--family", type=_family_or_all, default="all")
    p.add_argument("--report", default=None, help="write the ladder JSON here")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("search", parents=[common], help="solve with mined records")
    p.add_argument("file")
    p.add_argument("--node-limit", type=_positive(int), default=SearchConfig.node_limit)
    p.add_argument("--time-limit", type=_positive(float), default=SearchConfig.time_limit)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser(
        "bench", parents=[common, paths], help="paired baseline/plugin comparison"
    )
    p.add_argument("--dir", required=True, help="directory of .mps instances")
    p.add_argument(
        "--families", type=_family_list, default=None, help="comma-separated filter"
    )
    p.add_argument("--time-limit", type=_positive(float), default=None)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.handler(args)
    except (OSError, ValueError, MpsParseError) as exc:
        log.error("%s", exc)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
