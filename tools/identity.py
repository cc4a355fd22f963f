"""Print a sha256 line for every output a refactor must leave byte-identical.

Run from anywhere, on the tree the script sits in::

    python3 tools/identity.py 0 1 300 > identity.txt

and compare two trees' dumps with ``cmp``.  The lines, in order:

* ``planted``: ``write_mps`` text and ``records_to_json`` ground truth of
  every family at seeds 0-5, clean and obfuscated (the same 132 blocks
  whatever seeds are given);
* for each given seed and each perfbench workload, per corpus item:
  ``mps`` (the item's MPS text), ``detect`` (``records_to_json`` of what
  ``detect_all`` kept and dropped, plus its warnings) and ``op`` (the
  operation's ``counts`` and failures from one untraced pass).

Timings are never hashed, so two runs of one tree print the same lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from corpus import to_item  # noqa: E402
from spans import PLAIN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from structprop.mps import parse_mps, write_mps  # noqa: E402
from structprop.records import Family, records_to_json  # noqa: E402
from structprop.synth import ObfuscationConfig, obfuscate, reverse_sample  # noqa: E402

PLANTED_SEEDS = range(6)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def planted_lines():
    for family in Family:
        for seed in PLANTED_SEEDS:
            clean = reverse_sample(family, seed=seed)
            obfuscated = obfuscate(clean, ObfuscationConfig(seed=seed))
            for variant, inst in (("clean", clean), ("obfuscated", obfuscated)):
                tag = f"{family.value}-s{seed}-{variant}"
                truth = records_to_json([inst.ground_truth], inst.model)
                yield f"planted {tag} mps {sha(write_mps(inst.model))}"
                yield f"planted {tag} record {sha(dumps(truth))}"


def workload_lines(name: str, seed: int):
    workload = WORKLOADS[name]
    for item in [to_item(block) for block in workload.build(seed)]:
        tag = f"{name}-s{seed} {item.name}"
        yield f"mps {tag} {sha(item.mps)}"
        try:
            op = workload.run_op(item, PLAIN)
        except Exception as exc:  # a raise is an outcome to compare, too
            yield f"op {tag} {sha(dumps({'raised': f'{type(exc).__name__}: {exc}'}))}"
            continue
        model = parse_mps(item.mps)
        detection = {
            "kept": records_to_json(list(op.report.records), model),
            "dropped": records_to_json(list(op.report.dropped), model),
            "warnings": list(op.report.warnings),
        }
        yield f"detect {tag} {sha(dumps(detection))}"
        yield f"op {tag} {sha(dumps({'counts': op.counts, 'failures': op.failures}))}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="perfbench run seeds")
    args = parser.parse_args(argv)
    for line in planted_lines():
        print(line)
    for seed in args.seeds:
        for name in WORKLOADS:
            for line in workload_lines(name, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
