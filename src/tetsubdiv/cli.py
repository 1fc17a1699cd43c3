"""Command-line interface.

Subcommands::

    tetsubdiv gen       generate a subdivision and write VTK / JSON / OFF
    tetsubdiv validate  run the exact validation suite on a mesh
    tetsubdiv info      print counts for an order without writing anything
    tetsubdiv resample  gen --format vtk with a required --field

Exit codes: 0 success, 2 usage or invalid input, 3 I/O error,
4 validation failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Any, Callable

from . import __version__
from .connectivity import (
    CHUNK,
    FILL,
    ORIENTATION_POLICIES,
    POSITIVE,
    UPRIGHT,
    expected_counts,
    generate,
)
from .io import (
    _DECIMAL,
    _INTEGER,
    PhysicalEmbedding,
    _check_permutation,
    apply_ordering_permutation,
    load_permutation,
    read_field,
    read_json,
    write_json,
    write_off_boundary,
    write_vtk_legacy,
)
from .lattice import node_count
from .validation import validate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def _plain(token_type: tuple) -> Callable[[str], Any]:
    """An argparse type taking only the plain tokens that field and permutation
    files take; ``int()`` and ``float()`` alone also take '1_0', ' 2' and
    non-ASCII digits, and ``float()`` takes 'nan' and 'inf'."""
    pattern, convert, description = token_type

    def parse(text: str) -> Any:
        if pattern.fullmatch(text) is None:
            raise argparse.ArgumentTypeError(f"must be {description}, got {text!r:.40}")
        return convert(text)

    return parse


_plain_int = _plain(_INTEGER)
_plain_float = _plain(_DECIMAL)

# A '-'-led token that the decimal rule matches, such as -1e-3, is a value.
# argparse's own pattern takes only forms like -1 and -.5, and reads any
# other '-'-led token as an option.
_NEGATIVE_DECIMAL = re.compile(rf"(?=-)(?:{_DECIMAL[0].pattern})\Z")


def _add_order_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--order",
        "-n",
        type=_plain_int,
        required=True,
        help="polynomial order N of the element (N >= 1)",
    )


def _add_policy_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--orientation",
        choices=sorted(ORIENTATION_POLICIES),
        default=POSITIVE,
        help=f"node-ordering policy for generated tets (default: {POSITIVE})",
    )


def _add_export_arguments(parser: argparse.ArgumentParser) -> argparse.Action:
    """The options ``gen`` and ``resample`` share; returns the ``--field`` action."""
    parser._negative_number_matcher = _NEGATIVE_DECIMAL
    _add_order_argument(parser)
    _add_policy_argument(parser)
    parser.add_argument("--out", "-o", required=True, help="output path ('-' for stdout)")
    field = parser.add_argument(
        "--field",
        action="append",
        default=[],
        metavar="PATH",
        help="nodal field file (JSON array or whitespace-separated numbers); "
        "may be repeated",
    )
    parser.add_argument(
        "--embedding",
        nargs=12,
        type=_plain_float,
        metavar="F",
        help="physical corner positions, 12 plain decimals: apex xyz then the "
        "three base corners xyz",
    )
    parser.add_argument(
        "--permutation",
        metavar="PATH",
        help="node-ordering permutation table (table[old_id] = new_id) applied "
        "to the mesh and any fields before writing",
    )
    return field


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetsubdiv",
        description=(
            "Subdivide an order-N nodal tetrahedral element into N^3 linear "
            "sub-tets using only the existing nodes."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a subdivision and write it out")
    _add_export_arguments(gen)
    gen.add_argument(
        "--format",
        choices=("vtk", "json", "off"),
        default="vtk",
        help="output format (default: vtk)",
    )

    val = sub.add_parser("validate", help="run the exact validation suite")
    group = val.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", "-n", type=_plain_int, help="generate and validate order N")
    group.add_argument("--in", dest="infile", metavar="PATH", help="validate a JSON mesh")
    _add_policy_argument(val)
    val.add_argument(
        "--samples",
        type=_plain_int,
        default=10_000,
        help="containment sample count (default: 10000)",
    )
    val.add_argument("--seed", type=_plain_int, default=0, help="sampling seed (default: 0)")
    val.add_argument("--json", action="store_true", help="emit the report as JSON")

    info = sub.add_parser("info", help="print node/tet counts for an order")
    _add_order_argument(info)

    res = sub.add_parser(
        "resample",
        help="attach a nodal field to the subdivided mesh and write VTK "
        "(values transfer unchanged because subdivision adds no nodes)",
    )
    # runs _cmd_gen: gen --format vtk with at least one --field
    field = _add_export_arguments(res)
    field.required = True
    res.set_defaults(format="vtk")
    return parser


def _parse_embedding(values: list[float] | None) -> PhysicalEmbedding | None:
    if values is None:
        return None
    corners = tuple(tuple(values[3 * c : 3 * c + 3]) for c in range(4))
    return PhysicalEmbedding(corners)


def _check_order(n: int) -> None:
    """Refuse an order below 1 with ``generate``'s message, without building a mesh."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}: nothing to subdivide")


def _cmd_gen(args: argparse.Namespace) -> int:
    # every refusal that needs no mesh comes before the mesh is built
    _check_order(args.order)
    fields = [read_field(p, args.order) for p in args.field]
    embedding = _parse_embedding(args.embedding)
    table = None
    if args.permutation is not None:
        table = load_permutation(args.permutation)
        _check_permutation(table, node_count(args.order))
    if args.format == "json" and embedding is not None:
        raise ValueError("--embedding applies only to --format vtk")
    if args.format == "off" and (fields or embedding is not None):
        raise ValueError("--format off accepts neither fields nor an embedding")
    mesh = generate(args.order, args.orientation)
    if table is not None:
        mesh = apply_ordering_permutation(mesh, table)
        fields = [apply_ordering_permutation(f, table) for f in fields]
    out = sys.stdout.buffer if args.out == "-" else args.out
    if args.format == "vtk":
        write_vtk_legacy(mesh, out, fields=fields, embedding=embedding)
    elif args.format == "json":
        write_json(mesh, out, fields=fields)
    else:
        write_off_boundary(mesh, out)
    if args.out == "-":
        sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.infile is not None:
        mesh, _ = read_json(args.infile)
    else:
        mesh = generate(args.order, args.orientation)
    report = validate(mesh, samples=args.samples, seed=args.seed)
    print(report.to_json() if args.json else report.to_text())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_info(args: argparse.Namespace) -> int:
    n = args.order
    _check_order(n)
    levels, kinds = expected_counts(n)
    print(f"order:            {n}")
    print(f"nodes:            {node_count(n)}")
    print(f"tets:             {n ** 3}  (= {n}^3)")
    print(f"per-level counts: {' '.join(str(c) for c in levels.values())}")
    print(
        "per-kind counts:  "
        f"upright={kinds[UPRIGHT]} fill={kinds[FILL]} chunk={kinds[CHUNK]}"
    )
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "info": _cmd_info,
    "resample": _cmd_gen,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
