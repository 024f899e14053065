"""Command-line front end.

Usage: sim CONFIG [--out DIR] [--seed N] [--list]
Exit codes: 0 all checks passed, 1 at least one check failed,
2 usage or configuration error, including a config value outside the
model's domain.
"""

import argparse
import sys

from .config import load_config
from .errors import ConfigurationError, DomainError
from .experiments import list_experiments, run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sim", description="array temperature-regulation simulator")
    parser.add_argument("config", nargs="?", help="experiment config file")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--list", action="store_true",
                        help="list the experiment catalog and exit")
    args = parser.parse_args(argv)

    if args.list:
        sys.stdout.write(list_experiments())
        return 0
    if not args.config:
        parser.print_usage(sys.stderr)
        return 2

    try:
        settings = load_config(args.config, seed=args.seed)
        checks = run_experiment(settings, args.out if args.out else settings["output"]["dir"])
    except (ConfigurationError, DomainError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2

    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        sys.stdout.write(f"{status} {c.name}: {c.value!r} (bound {c.bound})\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
