"""Command-line entry point.

Exit codes: 0 success, 1 a certificate or mathematical check failed,
2 bad input (malformed files, unknown flags, schema violations). All
output is deterministic for a fixed seed; the seed of ``genpos`` and
``embed`` defaults to the DIMLAB_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .covers import Cover, closed_shrinking, meet, order_of, star_of_member
from .dimension import map_oracle, reduce_order, separator_oracle
from .embedding import (
    RANK_TOL,
    general_position,
    nobeling_embed,
    result_from_json_dict,
    result_to_json_bytes,
)
from .errors import CertificateError, DimlabError, InputError
from .harness import verify_result
from .metric import SampledSpace, _json_array, _read_json, _write_json
from .nerve import export_complex, nerve_of


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("DIMLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"DIMLAB_SEED must be an integer, not {raw!r}") from None


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return _read_json(data, f"{path} is not valid JSON")


def _load_space(path: str) -> SampledSpace:
    return SampledSpace.from_json_dict(_load_json(path))


def _load_cover(path: str, space: SampledSpace) -> Cover:
    return Cover.from_json_dict(_load_json(path), space.size)


def _emit(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode("utf-8") + "\n")
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dimlab")
    parser.add_argument("--version", action="version", version=f"dimlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="cover calculus")
    cover_sub = cover.add_subparsers(dest="cover_command", required=True)

    p = cover_sub.add_parser("shrink", help="closed shrinking of a cover")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--out")

    p = cover_sub.add_parser("star", help="star of one member")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--member", type=int, required=True)

    p = cover_sub.add_parser("meet", help="common refinement of two covers")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--out")

    p = cover_sub.add_parser("order", help="order of a cover")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)

    p = cover_sub.add_parser("reduce-order", help="shrink to order at most n")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", default="separator",
                   help="witness supplier: separator, or map:G.json for a fixed boundary map")
    p.add_argument("--out")

    p = sub.add_parser("nerve", help="nerve complex of a cover")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--out")

    p = sub.add_parser("genpos", help="general-position perturbation")
    p.add_argument("--targets", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help="seed (default: DIMLAB_SEED or 0)")
    p.add_argument("--tolerance", type=float, default=RANK_TOL)
    p.add_argument("--out")

    p = sub.add_parser("embed", help="run the staged embedding")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="seed (default: DIMLAB_SEED or 0)")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="re-verify an embedding result")
    p.add_argument("--result", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def _resolve_oracle(name: str):
    if name == "separator":
        return separator_oracle
    if name.startswith("map:"):
        doc = _load_json(name[len("map:"):])
        if not isinstance(doc, dict) or "g" not in doc:
            raise InputError("map oracle file must contain a g matrix")
        return map_oracle(_json_array(doc["g"], "map oracle g"))
    raise InputError(f"unknown oracle {name!r}; use separator or map:G.json")


def _run(args: argparse.Namespace) -> int:
    if args.command == "cover":
        space = _load_space(args.space)
        cov = _load_cover(args.cover, space)
        if args.cover_command == "shrink":
            res = closed_shrinking(cov)
            doc = {
                "open_shrink": res.open_shrink.to_json_dict(),
                "closed_shrink": [sorted(s) for s in res.closed_shrink],
            }
            _emit(_write_json(doc), args.out)
        elif args.cover_command == "star":
            if not 0 <= args.member < cov.size:
                raise InputError(f"member {args.member} outside 0..{cov.size - 1}")
            _emit(_write_json(sorted(star_of_member(args.member, cov))), None)
        elif args.cover_command == "meet":
            other = _load_cover(args.other, space)
            _emit(_write_json(meet(cov, other).to_json_dict()), args.out)
        elif args.cover_command == "order":
            sys.stdout.write(f"{order_of(cov)}\n")
        elif args.cover_command == "reduce-order":
            out = reduce_order(space, cov, args.n, _resolve_oracle(args.oracle))
            _emit(_write_json(out.to_json_dict()), args.out)
        return 0
    if args.command == "nerve":
        space = _load_space(args.space)
        cov = _load_cover(args.cover, space)
        _emit(export_complex(nerve_of(cov)), args.out)
        return 0
    if args.command == "genpos":
        doc = _load_json(args.targets)
        if not isinstance(doc, dict) or "targets" not in doc:
            raise InputError("targets file must contain a targets list")
        targets = _json_array(doc["targets"], "targets")
        placed = general_position(targets, args.eps, seed=_seed(args), tol=args.tolerance)
        _emit(_write_json({"points": placed.tolist()}), args.out)
        return 0
    if args.command == "embed":
        space = _load_space(args.space)
        result = nobeling_embed(space, args.n, args.stages, seed=_seed(args))
        _emit(result_to_json_bytes(result), args.out)
        return 0
    if args.command == "verify":
        space = _load_space(args.space)
        report = verify_result(result_from_json_dict(_load_json(args.result)), space, args.n)
        _emit(_write_json(report.to_json_dict()), None)
        return 0 if report.overall else 1
    raise InputError(f"unknown command {args.command!r}")


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except CertificateError as exc:
        sys.stderr.write(f"certificate failure: {exc}\n")
        return 1
    except DimlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
