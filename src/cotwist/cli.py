"""Command-line front end: configure an instance, verify it, report spectra.

Subcommands
-----------
``verify``    run only the instance-level audits (twist axioms, triangularity,
              minimality, the Q-element antipode identity, square dimension).
``spectrum``  run the full three-route per-coset comparison report.
``example``   shorthand for the canonical symplectic instance (p = 3,
              gamma = [[1,1],[0,1]] unless overridden).

Exit codes: 0 all checks passed; 1 some check failed (the report is still
written); 2 malformed input or configuration, including a seed that is not a
nonnegative integer or a tolerance that is not a finite positive number.

The JSON report goes to ``--out`` ("-" = stdout); the human-readable table
always goes to stderr so stdout stays machine-parseable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .correspondence import (Config, SymplecticConstruction, TableConstruction,
                             full_report, render_json, render_table)
from .errors import CotwistError

DEFAULT_SEED = 0
DEFAULT_TOL = 1e-8


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


def load_config(path: str, seed: int | None = None) -> Config:
    """The Config a JSON config file describes.

    ``seed``, when given (the ``--seed`` flag's), beats the file's ``seed``,
    which beats ``COTWIST_SEED``; the environment is read only when neither
    gives one.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from None
    if "construction" not in raw:
        raise InputError("config file lacks a 'construction' object")
    try:
        construction = _construction_from_dict(raw["construction"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad construction in config file: {exc}") from None
    if "seed" in raw:
        file_seed = _checked_seed(raw["seed"], "config file seed")
        seed = file_seed if seed is None else seed
    return Config(construction=construction,
                  seed=_default_seed() if seed is None else seed,
                  tol=_checked_tol(raw["tol"], "config file tol") if "tol" in raw
                  else DEFAULT_TOL,
                  out=str(raw.get("out", "-")))


def _checked_seed(value, source: str) -> int:
    """``value`` if it is a nonnegative integer; otherwise InputError naming ``source``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError(f"{source} must be a nonnegative integer, got {value!r}")
    return value


def _checked_tol(value, source: str) -> float:
    """``value`` as a float if it is a finite positive number; otherwise InputError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            math.isfinite(value) and value > 0):
        raise InputError(f"{source} must be a finite positive number, got {value!r}")
    return float(value)


def _default_seed() -> int:
    env = os.environ.get("COTWIST_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return _checked_seed(int(env), "COTWIST_SEED")
    except ValueError:
        raise InputError(f"COTWIST_SEED must be a nonnegative integer, got {env!r}") from None


def build_config(args) -> Config:
    """Resolve flags + optional config file into a Config.

    Explicit flags beat config-file values, which beat the COTWIST_SEED
    environment default, which beats the built-in defaults.
    """
    seed = None if args.seed is None else _checked_seed(args.seed, "--seed")
    if args.config is not None:
        if args.p is not None or args.gamma is not None:
            raise InputError("--config cannot be combined with --p/--gamma")
        config = load_config(args.config, seed)
    else:
        p = args.p
        gamma_text = args.gamma
        if args.command == "example":
            p = 3 if p is None else p
            gamma_text = "1,1,0,1" if gamma_text is None else gamma_text
        if p is None:
            raise InputError("need --p (with --gamma) or --config FILE")
        gens = parse_gamma(gamma_text, args.n) if gamma_text else []
        config = Config(SymplecticConstruction(p=p, n=args.n, gamma_generators=gens),
                        seed=_default_seed() if seed is None else seed,
                        tol=DEFAULT_TOL, out="-")
    if args.tol is not None:
        config.tol = _checked_tol(args.tol, "--tol")
    if args.out is not None:
        config.out = args.out
    return config


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=None, help="odd prime for the symplectic instance")
    sub.add_argument("--n", type=int, default=1, help="half-rank: H = (Z/p)^(2n)")
    sub.add_argument("--gamma", type=str, default=None,
                     help="generators, row-major comma lists separated by ';'")
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="second-representative seed")
    sub.add_argument("--tol", type=float, default=None, help="recorded only; no check reads it")
    sub.add_argument("--jobs", type=int, default=1, help="parallel coset workers")
    sub.add_argument("--out", type=str, default=None, help="JSON report path ('-' = stdout)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotwist",
        description="Irreducible-spectrum cross-validation for duals of twisted group algebras")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (("verify", "run the instance-level audits only"),
                       ("spectrum", "full three-route per-coset report"),
                       ("example", "canonical symplectic instance shorthand")):
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CotwistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(report, config.out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
