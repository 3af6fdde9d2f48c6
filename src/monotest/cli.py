"""Command-line surface: gen / test / bench / validate.

Exit codes: 0 on success, 2 on any hard-invariant violation (a rejection of
a known-monotone instance, or a certificate that fails re-verification),
1 on operational errors: an exhausted query budget, a usage error, or a
family that gen or bench cannot build (one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .generators import (
    FAMILY_KINDS,
    InstanceFamily,
    PLANTED_NEGATIVE_MASS,
    generate,
    grid_spec,
)
from .harness import (
    SuiteConfig,
    run_suite,
    write_outputs,
)
from .oracle import (
    LTFSpec,
    OracleHandle,
    QueryBudgetExceededError,
    truth_table,
)
from .rng import SplitRng
from .schedule import build_schedule
from .tester import mono_test_ltf
from .truth import (
    check_restriction_preserves_distance,
    dist_ltf_to_monotone_exact,
    dist_to_monotone_matching,
)


def _family_from_args(args) -> InstanceFamily:
    params = {}
    if args.family == "signed-majority":
        params["k"] = args.k
    elif args.family == PLANTED_NEGATIVE_MASS:
        params["lambda_target"] = args.lambda_target
    elif args.family == "heavy-coordinate":
        params["heavy"] = args.heavy
        params["sign"] = args.heavy_sign
    return InstanceFamily(args.family, args.n, params)


def _add_family_args(p):
    p.add_argument("--family", choices=FAMILY_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1,
                   help="negated coordinates for signed-majority")
    p.add_argument("--lambda-target", type=float, default=0.25)
    p.add_argument("--heavy", type=float, default=8.0)
    p.add_argument("--heavy-sign", type=float, default=-1.0)


def cmd_gen(args) -> int:
    family = _family_from_args(args)
    instances = [generate(family, SplitRng(args.seed, ("gen", idx)))
                 for idx in range(args.count)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, inst in enumerate(instances):
        stem = f"{family.kind}-n{family.n}-{idx:04d}"
        inst.spec.dump(out_dir / f"{stem}.json")
        meta = {
            "family": inst.kind,
            "distance": inst.distance.value,
            "distance_method": inst.distance.method,
            "distance_radius": inst.distance.radius,
            "neg_fraction": inst.profile.neg_fraction,
            "regularity": inst.profile.regularity,
            "seed": args.seed,
            "index": idx,
        }
        with open(out_dir / f"{stem}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
    print(f"wrote {args.count} instances to {out_dir}")
    return 0


def cmd_test(args) -> int:
    spec = LTFSpec.load(args.instance)
    sched = build_schedule(spec.n, args.epsilon)
    handle = OracleHandle.for_spec(spec, query_cap=args.max_queries)
    rng = SplitRng(args.seed, ("cli-test",))
    t0 = time.perf_counter()
    try:
        verdict = mono_test_ltf(handle, args.epsilon, sched, rng)
    except QueryBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "verdict": verdict.outcome,
        "diagnostic": verdict.diagnostic,
        "certificate": (None if verdict.certificate is None
                        else verdict.certificate.to_dict()),
        "queries": {"total": handle.query_count},
        "wall_ms": int(round((time.perf_counter() - t0) * 1000)),
        "schedule": sched.to_dict(),
    }
    text = json.dumps(result, indent=2, default=str)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def cmd_bench(args) -> int:
    family = _family_from_args(args)
    config = SuiteConfig(family=family, count=args.count, eps=args.epsilon,
                         master_seed=args.seed)
    records, summary = run_suite(config)
    write_outputs(records, summary, csv_path=args.out_csv,
                  json_path=args.out_json)
    print(json.dumps(summary, indent=2))
    return 2 if summary["hard_invariant_violation"] else 0


def cmd_validate(args) -> int:
    gen = np.random.default_rng(np.random.Philox(args.seed))
    report = {"seed": args.seed, "checks": []}
    failures = 0

    # distance oracles must agree exactly
    agree = 0
    for _ in range(args.count):
        n = int(gen.integers(2, 11))
        spec = grid_spec(gen, n)
        a = dist_ltf_to_monotone_exact(spec)
        b = dist_to_monotone_matching(truth_table(spec))
        agree += a.numerator == b.numerator
    report["checks"].append({"name": "distance-oracles-agree",
                             "instances": args.count, "pass": agree,
                             "fail": args.count - agree})
    failures += args.count - agree

    # restriction averaging is an exact identity
    ok = vac = 0
    for _ in range(args.count):
        n = int(gen.integers(2, 10))
        spec = grid_spec(gen, n)
        nonneg = np.flatnonzero(spec.weights >= 0)
        if nonneg.size == 0:
            vac += 1
            continue
        take = min(nonneg.size, int(gen.integers(1, 6)))
        s_vars = gen.choice(nonneg, size=take, replace=False)
        chk = check_restriction_preserves_distance(spec, s_vars)
        ok += chk.status == "pass"
    report["checks"].append({"name": "restriction-preserves-distance",
                             "instances": args.count, "pass": ok,
                             "vacuous": vac,
                             "fail": args.count - ok - vac})
    failures += args.count - ok - vac

    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a hard-invariant
    violation, so usage errors exit 1.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monotest",
        description="One-sided monotonicity testing for halfspaces, with "
                    "instance generators, exact oracles, and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit instance files")
    _add_family_args(p_gen)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", default="instances")
    p_gen.set_defaults(func=cmd_gen)

    p_test = sub.add_parser("test", help="run the tester on one instance")
    p_test.add_argument("--instance", required=True)
    p_test.add_argument("--epsilon", type=float, required=True)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--max-queries", type=int, default=None)
    p_test.add_argument("--out", default=None)
    p_test.set_defaults(func=cmd_test)

    p_bench = sub.add_parser("bench", help="run a seeded trial suite")
    _add_family_args(p_bench)
    p_bench.add_argument("--count", type=int, default=10)
    p_bench.add_argument("--epsilon", type=float, required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out-csv", default=None)
    p_bench.add_argument("--out-json", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_val = sub.add_parser("validate",
                           help="run the exact structural-identity suites")
    p_val.add_argument("--count", type=int, default=100)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # gen or bench: a family it cannot build
        if args.func not in (cmd_gen, cmd_bench):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
