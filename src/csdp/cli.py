"""Command-line front end.

    csdp run --config fig3a --out results/
    csdp run --config my_sweep.yaml --seed 7 --format json
    csdp acceptance --seed 0 --out results/

Exit codes: 0 success, 1 acceptance or invariant failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace

from .model import ModelError
from .sweeps import FIELD_KEYS, PRESETS, load_config, run

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdp",
        description="Leakage bounds and release experiments for correlated sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep from a preset or config file")
    run_p.add_argument("--config", required=True,
                       help=f"preset name ({', '.join(sorted(PRESETS))}) or YAML path")
    # each flag is a key of sweeps.FIELD_KEYS, checked as its YAML value is
    run_p.add_argument("--seed", help="root seed override")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--cap", help="enumeration cap on the product state space")
    run_p.add_argument("--format", help="csv or json")

    acc_p = sub.add_parser("acceptance", help="run the release-gate criteria")
    acc_p.add_argument("--seed", type=int, default=0)
    acc_p.add_argument("--out", default=None, help="directory for the report file")
    return parser


def _cmd_run(args) -> int:
    flags = vars(args)
    try:
        config = replace(load_config(args.config), **{
            name: flags[key] for key, name in FIELD_KEYS.items() if flags.get(key) is not None
        })
        code, paths, violations = run(config)
    except (ModelError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in paths:
        print(f"wrote {path}")
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return EXIT_VIOLATION if code else EXIT_OK


def _cmd_acceptance(args) -> int:
    from .acceptance import acceptance

    if args.out:
        # an unusable report directory is refused before the gate runs
        try:
            os.makedirs(args.out, exist_ok=True)
            tempfile.TemporaryFile(dir=args.out).close()
        except OSError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    results = acceptance(seed=args.seed)
    lines = [r.line() for r in results] + [r.timing_line() for r in results]
    body = "\n".join(lines) + "\n"
    print(body, end="")
    if args.out:
        path = os.path.join(args.out, "acceptance.txt")
        with open(path, "w") as fh:
            fh.write(body)
        print(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_acceptance(args)


if __name__ == "__main__":
    sys.exit(main())
