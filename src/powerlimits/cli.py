"""Command-line front end.

    powerlimits run <config.json> [--seed N] [--samples S] [--out PATH]
                                  [--format csv|json]
    powerlimits list

``run`` executes one experiment described by a JSON config, prints the
report, and exits 0 when the summary passes, 1 when it fails, 2 on a
usage or config error (an unreadable file, bad JSON, a config that does
not validate, or an ``--out`` path that cannot be written), which is
always found before any sampling, and 3 when a program check aborts the
run (a power drifting off the group, a spectrum too degenerate for a
preimage, or a rejection sampler whose bound is broken or that cannot
fill its batch); an aborted run removes the ``--out`` file if it made it.
``--seed`` and ``--samples`` replace the file's fields before
the config is validated.  The README lists the fields each experiment
kind reads and the values they may take.  ``list`` enumerates the kinds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import groups, preimage, torus
from .experiments import EXPERIMENT_KINDS, ConfigError, ExperimentConfig, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="powerlimits",
                                     description="power-map limit experiments on compact matrix groups")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", type=Path, help="path to a JSON experiment config")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--samples", type=int, default=None, help="override the sample size")
    runp.add_argument("--out", type=Path, default=None, help="write the report here")
    runp.add_argument("--format", choices=("json", "csv"), default="json",
                      help="report format (default json)")
    sub.add_parser("list", help="list experiment kinds")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, (runner, _) in sorted(EXPERIMENT_KINDS.items()):
            print(f"{name:22s} {runner.__doc__.splitlines()[0]}")
        return 0
    created, report = False, None   # created: the --out check below made the file
    try:
        data = json.loads(args.config.read_text())
        for key in ("seed", "samples"):
            if getattr(args, key) is not None and isinstance(data, dict):
                data[key] = getattr(args, key)
        config = ExperimentConfig.from_json(data)
        if args.out is not None:
            created = not args.out.exists()
            args.out.open("a").close()  # an unwritable --out fails here, before sampling
        report = run_experiment(config)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (groups.UnitarityError, preimage.DegenerateSpectrumError, torus.RejectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if created and report is None:
            args.out.unlink(missing_ok=True)   # an aborted run leaves no empty report behind
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    print(f"summary: {'PASS' if report.summary_pass else 'FAIL'}", file=sys.stderr)
    return 0 if report.summary_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
