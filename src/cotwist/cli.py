"""Command-line front end: configure an instance, verify it, report spectra.

Subcommands
-----------
``verify``    run only the instance-level audits (twist axioms, triangularity,
              minimality, the Q-element antipode identity, square dimension).
``spectrum``  run the full three-route per-coset comparison report.

Exit codes: 0 all checks passed; 1 some check failed (the report is still
written); 2 malformed input or configuration, including a negative
``--seed`` and a config file key other than ``construction`` and ``out``.

The JSON report goes to ``--out`` ("-" = stdout); the human-readable table
always goes to stderr so stdout stays machine-parseable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .correspondence import (Config, SymplecticConstruction, TableConstruction,
                             full_report, render_json, render_table)
from .errors import CotwistError

class InputError(Exception):
    """Bad command line or config file (exit code 2)."""


def parse_gamma(text: str, n: int) -> list:
    """Parse ``;``-separated generators, each a row-major comma list.

    Each generator must have (2n)^2 integer entries.
    """
    dim = 2 * n
    gens = []
    for block in text.split(";"):
        block = block.strip()
        if not block:
            continue
        try:
            entries = [int(x.strip()) for x in block.split(",")]
        except ValueError as exc:
            raise InputError(f"non-integer entry in --gamma: {exc}") from None
        if len(entries) != dim * dim:
            raise InputError(
                f"generator needs {dim * dim} entries for n={n}, got {len(entries)}")
        gens.append([entries[i * dim:(i + 1) * dim] for i in range(dim)])
    return gens


def _construction_from_dict(raw: dict):
    kind = raw.get("type")
    if kind == "symplectic":
        return SymplecticConstruction(
            p=int(raw["p"]), n=int(raw.get("n", 1)),
            gamma_generators=list(raw.get("gamma_generators", [])))
    if kind == "table":
        return TableConstruction(
            group_file=str(raw["group_file"]),
            subgroup=[int(x) for x in raw["subgroup"]],
            twist_file=str(raw["twist_file"]))
    raise InputError(f"unknown construction type {kind!r}")


def load_config(path: str) -> Config:
    """The Config a JSON config file describes; any key but ``construction``
    and ``out`` is refused."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or "construction" not in raw:
        raise InputError("config file lacks a 'construction' object")
    unknown = sorted(set(raw) - {"construction", "out"})
    if unknown:
        raise InputError(f"config file has unknown key(s) {', '.join(map(repr, unknown))}; "
                         "it may hold only 'construction' and 'out'")
    try:
        construction = _construction_from_dict(raw["construction"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad construction in config file: {exc}") from None
    return Config(construction=construction, out=str(raw.get("out", "-")))


def build_config(args) -> Config:
    """Resolve flags and an optional config file into a Config; ``--out`` beats
    the file's ``out``."""
    if args.seed < 0:
        raise InputError(f"--seed must be a nonnegative integer, got {args.seed}")
    if args.config is not None:
        if args.p is not None or args.gamma is not None:
            raise InputError("--config cannot be combined with --p/--gamma")
        config = load_config(args.config)
    elif args.p is None:
        raise InputError("need --p (with --gamma) or --config FILE")
    else:
        gens = parse_gamma(args.gamma, args.n) if args.gamma else []
        config = Config(SymplecticConstruction(p=args.p, n=args.n, gamma_generators=gens))
    config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    return config


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=None, help="odd prime for the symplectic instance")
    sub.add_argument("--n", type=int, default=1, help="half-rank: H = (Z/p)^(2n)")
    sub.add_argument("--gamma", type=str, default=None,
                     help="generators, row-major comma lists separated by ';'")
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=0, help="recorded only; no check reads it")
    sub.add_argument("--jobs", type=int, default=1, help="parallel coset workers")
    sub.add_argument("--out", type=str, default=None, help="JSON report path ('-' = stdout)")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cotwist",
        description="Irreducible-spectrum cross-validation for duals of twisted group algebras")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (("verify", "run the instance-level audits only"),
                       ("spectrum", "full three-route per-coset report")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
    return parser


def emit(report, out: str) -> None:
    payload = render_json(report)
    if out == "-":
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)
    sys.stderr.write(render_table(report))


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        report = full_report(config, jobs=max(1, args.jobs),
                             global_only=(args.command == "verify"))
    except (InputError, OSError, CotwistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(report, config.out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
