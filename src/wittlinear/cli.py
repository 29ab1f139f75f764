"""Command-line front end.

Subcommands map one-to-one onto the library surface: linlevel and range
report the tree invariants, cohomology and cokernel expose the explicit
cell computations, rccm prints the comparison-map ranges, stratify
rewrites stratifications as glue trees (or replays a realized one), and
venn decomposes a union of sets.

Exit codes by error class: 2 for unparseable or invalid input, 3 for a
missing capability (base field, smoothness, required shape), 4 for
queries outside the computed cases, 5 for internal consistency
failures; 1, with no message, when stdout is closed before the end.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii

from . import __version__
from .cells import (
    UnsupportedDifferentialError,
    check_twist,
    hc_proj_times_torus,
)
from .grammar import parse_expr, pretty
from .ranges import (
    CapabilityError,
    SmoothnessRequiredError,
    TShapeRequiredError,
    rccm_report,
    sheaf_range,
)
from .schemes import (
    FinitePosetRealization,
    InternalConsistencyError,
    ProjTimesTorus,
    Stratified,
    as_torus_cell,
    derivation,
    fold_rows,
    json_point_lists,
    replay,
    split_order,
    venn_stratification,
    SCHEMA_VERSION,
)
from .witt import FINITE_FIELD, REAL, TwistLabel

__all__ = ["main"]


class UnsupportedQueryError(RuntimeError):
    """Query outside the explicitly computed cases."""


_FIELDS = {"R": REAL, "Fq": FINITE_FIELD}

# cokernel and cohomology --j list every unit of multiplicity one by one,
# so their output grows with it (cokernel Gm^20 already prints 12 MB of
# JSON); above this total they refuse.  venn lists all 2^n - 1 candidate
# strata and refuses above the same count.
MAX_EXPANDED_MULTIPLICITY = 1 << 20

# Both also print 2-powers, at most 2^(j - lowest shift) for cohomology
# --j and 2^(highest shift - j0) for cokernel.  Python converts ints of
# up to 4300 digits to text by default, and 2^14284 is the largest
# 2-power within that; above it they refuse before building any.
MAX_PRINTED_EXPONENT = 14284

# The two bounds together would still admit 2^20 units of 4300 digits
# each, so both also refuse when the multiplicity times the digits of
# the largest 2-power passes what cokernel Gm^20 --j0 0 prints: 2^20
# units of at most 2^20, which has 7 digits.
MAX_PRINTED_DIGITS = MAX_EXPANDED_MULTIPLICITY * len(str(MAX_EXPANDED_MULTIPLICITY))


def _parse(text: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tree = parse_expr(text)
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)
    return tree


def _to_json(value) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True).

    Only the types a v1 payload holds are written: dict with str keys,
    list, tuple, str, int, bool and None, and _Columns, written as the
    list of dicts it stands for; anything else is a TypeError.  A list,
    or one column of a _Columns, is turned into the texts of its items
    by _column_texts; provenance records and venn strata come as
    _Columns and go to the output row by row, see _write_columns.
    """
    out: list[str] = []
    _write_json(value, "", out, {})
    return "".join(out)


class _Columns:
    """A list of dicts with one set of str keys, held as one list per
    key: _to_json writes it, and it compares equal, as that list."""

    def __init__(self, **columns: list) -> None:
        self.columns = columns

    def __eq__(self, other):
        return [dict(zip(self.columns, row)) for row in zip(*self.columns.values())] == other


# exact types written without a call of their own; bool, None and
# subclasses take the full path
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__}

# the bytes a str written by json.dumps keeps as they are: printable
# ASCII but '"' and '\'
_PLAIN = bytes(range(0x20, 0x7f)).translate(None, b'"\\')


def _write_columns(columns: dict, indent: str, out: list[str], escaped: dict) -> None:
    """Append the list of dicts that columns, equal-length lists under
    str keys, stands for, nested at indent.

    Each column is turned into texts by _column_texts, with escaped as
    its memo.  The texts then go to out by reference, row by row between
    the key heads, which are built once: no row is joined into a string
    of its own, so no text is copied again before the final join."""
    if not any(columns.values()):
        out.append("[]")
        return
    inner = indent + "  "
    field = inner + "  "
    texts = []
    for key in sorted(columns):
        texts += (repeat(",\n" + field + encode_basestring_ascii(key) + ": "),
                  _column_texts(columns[key], field, escaped))
    # the first key's head also opens its row, and from the second row
    # on closes the row before
    close = "\n" + inner + "}"
    head = "{" + next(texts[0])[1:]
    texts[0] = chain(("[\n" + inner + head,), repeat(close + ",\n" + inner + head))
    out.extend(chain.from_iterable(zip(*texts)))
    out.append(close + "\n" + indent + "]")


def _column_texts(column: list, indent: str, escaped: dict) -> list[str]:
    """The texts of the values in column, a list, or one column of a
    _Columns, each nested at indent.

    A column of one exact type is typed in one pass and written in one
    more: str as below, int by int.__repr__, and lists or tuples whose
    items are all str or all int by one join each.  Any other column is
    written value by value through _write_json.

    The strings of a str column are tested at once, over their join: if
    all are plain (see _PLAIN), each is written between quotes as it
    is, and otherwise each goes through the C escaper.  escaped maps
    id(c) to the texts of every str list c already written in this
    call, so a list held in two places (linlevel's two provenance
    lists share their labels) is written once.  The payload holds every
    list until _to_json returns, so no id is reused.  Only str lists
    are kept: the texts of a list of lists hold its indent."""
    texts = escaped.get(id(column))
    if texts is not None:
        return texts
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        joined = "".join(column)
        plain = joined.isascii() and not joined.encode().translate(None, _PLAIN)
        texts = escaped[id(column)] = list(
            map('"{}"'.format if plain else encode_basestring_ascii, column))
        return texts
    if kind is int:
        return list(map(int.__repr__, column))
    if kind is list or kind is tuple:
        # a column of only empty lists has no item to type
        kinds = set(map(type, chain.from_iterable(column))) or {int}
        write = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if write is not None:
            inner = indent + "  "
            head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
            return [head + sep.join(map(write, value)) + tail if value else "[]"
                    for value in column]
    texts = []
    for value in column:
        pieces: list[str] = []
        _write_json(value, indent, pieces, escaped)
        texts.append("".join(pieces))
    return texts


def _write_json(value, indent: str, out: list[str], escaped: dict) -> None:
    """Append the pieces of value, nested at this indent, to out;
    escaped is _column_texts' memo for this call."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        head = "{\n" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            head += encode_basestring_ascii(key) + ": "
            write = _SCALAR_TEXT.get(type(item))
            if write is None:
                out.append(head)
                _write_json(item, inner, out, escaped)
            else:
                out.append(head + write(item))
            head = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[\n" + inner + (",\n" + inner).join(_column_texts(value, inner, escaped))
                   + "\n" + indent + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif type(value) is _Columns:
        _write_columns(value.columns, indent, out, escaped)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _rules(provenance) -> _Columns:
    return _Columns(node=[r.node for r in provenance], rule=[r.rule for r in provenance],
                    inputs=[list(r.inputs) for r in provenance],
                    level=[r.level for r in provenance])


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("%s nests too deeply" % path) from None


def cmd_linlevel(args) -> tuple[dict, list[str]]:
    tree = _parse(args.expr)
    rows = derivation(tree)
    labels: list[str] = []
    fold_rows(rows, "label", labels)
    expr = fold_rows(rows, "text")
    j_names, j_inputs, j_levels = replay(rows, "j")
    r_names, r_inputs, r_levels = replay(rows, "range")
    jl, rl = j_levels[-1], r_levels[-1]
    payload = {
        "expr": expr,
        "dim": tree.dim,
        "j_linear_level": jl,
        "range_level": rl,
        "provenance": {
            "j_linear": _Columns(node=labels, rule=j_names, inputs=j_inputs, level=j_levels),
            "range": _Columns(node=labels, rule=r_names, inputs=r_inputs, level=r_levels),
        },
    }
    return payload, [
        "scheme: %s" % expr,
        "dim: %d" % tree.dim,
        "j-linear level: %d  [%s]" % (jl, ", ".join(j_names)),
        "range level: %d  [%s]" % (rl, ", ".join(r_names)),
    ]


def _range_query(args, report):
    """What range and rccm share, as (verdict, payload, text): the
    verdict is report(tree, field) on the parsed scheme."""
    tree = _parse(args.expr)
    if args.smooth:
        tree = tree.assume_smooth()
    field = _FIELDS[args.field]
    verdict = report(tree, field)
    expr = pretty(tree)
    smooth = "smooth (asserted)" if args.smooth else "smooth (derived)"
    payload = {
        "expr": expr,
        "assumptions": ["base field %s" % field.name, smooth],
        "degree_i": args.i,
        "dim": verdict.dim,
        "range_level": verdict.level,
        "provenance": _rules(verdict.provenance),
    }
    return verdict, payload, ["scheme: %s (dim %d, %s)" % (expr, verdict.dim, smooth)]


def cmd_range(args) -> tuple[dict, list[str]]:
    verdict, payload, text = _range_query(args, sheaf_range)
    i = args.i
    iso_from = verdict.iso_from(i)
    inj_at = iso_from - 1 if verdict.is_injective(i, iso_from - 1) else None
    result = "ISO for j >= %d" % iso_from
    if inj_at is not None:
        result += "; INJECTIVE at j = %d" % inj_at
    payload.update({
        "iso_for_j_at_least": iso_from,
        "injective_at_j": inj_at,
        "dimension_cap_j": verdict.dim + 1,
        "not_surjective": sorted(list(p) for p in verdict.not_surjective
                                 if p[0] == i),
        "result": result,
    })
    return payload, text + [
        "range level: %d  [%s]" % (verdict.level,
                                   ", ".join(r.rule for r in verdict.provenance)),
        result,
    ]


def _cell_query(args, check):
    """What cohomology and cokernel share, as (degree, sum, shift list,
    payload, text); the cohomology sum of a cell is never empty.  Its
    2^rank units sit at shifts degree to degree + rank, so check(expr,
    degree, rank) can refuse the query before the sum is built."""
    tree = _parse(args.expr)
    cell = as_torus_cell(tree)
    if cell is not None:
        degree, rank, twist, model = 0, cell[1], TwistLabel.trivial(), "torus-cell"
    elif isinstance(tree, ProjTimesTorus):
        degree, rank, twist, model = tree.c, tree.e, tree.twist, "proj-times-torus"
        check_twist(degree, twist)
    else:
        raise UnsupportedQueryError(
            "explicit cohomology is computed only for torus cells and "
            "projective-times-torus leaves"
        )
    expr = pretty(tree)
    check(expr, degree, rank)
    total = hc_proj_times_torus(degree, rank, twist)
    payload = {
        "expr": expr,
        "model": model,
        "summands": [list(p) for p in total.summands],
    }
    shifts = " ".join("%d^%d" % (s, m) if m > 1 else "%d" % s for s, m in total.summands)
    return degree, total, shifts, payload, ["scheme: %s" % expr]


def _check_expansion(expr: str, rank: int, exponent: int) -> None:
    # 2^rank > MAX_EXPANDED_MULTIPLICITY, printed as a power if too long
    if rank >= MAX_EXPANDED_MULTIPLICITY.bit_length():
        shown = "%d" % (1 << rank) if rank <= MAX_PRINTED_EXPONENT else "2^%d" % rank
        raise UnsupportedQueryError(
            "%s has total multiplicity %s; cokernel and cohomology --j "
            "expand at most %d" % (expr, shown, MAX_EXPANDED_MULTIPLICITY)
        )
    if exponent > MAX_PRINTED_EXPONENT:
        raise UnsupportedQueryError(
            "%s at these levels needs 2^%d; cokernel and cohomology --j "
            "print 2-powers up to 2^%d" % (expr, exponent, MAX_PRINTED_EXPONENT)
        )
    digits = _two_power_digits(max(exponent, 0))
    if (1 << rank) * digits > MAX_PRINTED_DIGITS:
        raise UnsupportedQueryError(
            "%s at these levels prints %d units with 2-powers of up to %d digits; "
            "cokernel and cohomology --j print at most %d digits in all"
            % (expr, 1 << rank, digits, MAX_PRINTED_DIGITS)
        )


def _two_power_digits(k: int) -> int:
    """The number of decimal digits of 2^k, for 0 <= k <= MAX_PRINTED_EXPONENT,
    without building 2^k: floor(k log10 2) + 1, with log10 2 to 20 places."""
    return k * 30102999566398119521 // 10**20 + 1


def cmd_cohomology(args) -> tuple[dict, list[str]]:
    j = args.j
    degree, total, shifts, payload, text = _cell_query(args, lambda expr, degree, rank: (
        j is None or _check_expansion(expr, rank, j - degree)))
    payload.update({"degree": degree, "rank": total.total_multiplicity})
    text.append("cohomology in degree %d: shifts %s (rank %d)" % (
        degree, shifts, total.total_multiplicity))
    if j is not None:
        verdict = total.step_verdict(j)
        group = total.describe_at(j)
        payload["at_j"] = {
            "j": j,
            "group": group,
            "step": verdict.kind.value,
            "step_cokernel": str(verdict.cokernel),
        }
        step = "step to level %d: %s" % (j + 1, verdict.kind.value)
        if not verdict.is_iso:
            step += ", cokernel %s" % verdict.cokernel
        text += ["at level j = %d: %s" % (j, group), step]
    return payload, text


def cmd_rccm(args) -> tuple[dict, list[str]]:
    i = args.i
    verdict, payload, text = _range_query(
        args, lambda tree, field: rccm_report(tree, i, field))
    iso_from = verdict.iso_from()
    # a negative degree in parentheses, not after a second hyphen
    grade = "grade-%d image" % i if i >= 0 else "grade-(%d) image" % i
    payload["assumptions"].append("valid for every line-bundle twist")
    text += [
        "comparison map in degree %d (any line-bundle twist):" % i,
        "ISO for j >= %d" % iso_from,
    ]
    entries = []
    for j in range(i - 2, max(iso_from, i) + 2):
        e = verdict.classify(j)
        entry = {"j": j, "case": e.case.value}
        line = "j = %d: %s" % (j, e.case.value)
        if e.image_contains_power is not None:
            entry["image_contains_power"] = e.image_contains_power
            line += "  image contains 2^%d * singular" % e.image_contains_power
        if e.image_equals_power is not None:
            entry["image_equals_power"] = e.image_equals_power
            line += "  image equals 2^%d * (%s)" % (e.image_equals_power, grade)
        entries.append(entry)
        text.append(line)
    payload.update({"iso_for_j_at_least": iso_from, "entries": entries})
    return payload, text


def cmd_cokernel(args) -> tuple[dict, list[str]]:
    j0 = args.j0

    def check(expr, degree, rank):
        if args.i != degree:
            raise UnsupportedQueryError(
                "cohomology of %s is computed in degree %d only, got --i %d"
                % (expr, degree, args.i)
            )
        _check_expansion(expr, rank, degree + rank - j0)
    degree, total, shifts, payload, text = _cell_query(args, check)
    j1 = args.j1 if args.j1 is not None else max(total.max_shift, j0)
    coker = total.composite_cokernel(j0, j1)
    stable_exponent = total.cokernel_exponent(j0)
    payload.update({
        "degree_i": degree,
        "j0": j0,
        "j1": j1,
        "cokernel": {
            "free_rank": coker.free_rank,
            "torsion_orders": list(coker.torsion_orders),
        },
        "cokernel_str": str(coker),
        "exponent": coker.exponent,
        "stable_exponent": stable_exponent,
    })
    return payload, text + [
        "degree-%d cohomology shifts: %s" % (degree, shifts),
        "cokernel of the composite from level %d to level %d: %s" % (j0, j1, coker),
        "exponent: %d" % coker.exponent,
        "stable exponent from level %d: %d" % (j0, stable_exponent),
    ]


def cmd_stratify(args) -> tuple[dict, list[str]]:
    if (args.expr is None) == (args.file is None):
        raise UnsupportedQueryError("provide exactly one of EXPR or --file")
    if args.expr is not None:
        tree = _parse(args.expr)
        if not isinstance(tree, Stratified):
            raise UnsupportedQueryError("stratify needs a strat(...) expression")
        order = split_order(tree.closure_order)
        rows = derivation(tree.to_glue_tree(order))
        expr, glue_expr = pretty(tree), fold_rows(rows, "text")
        jl, rl = fold_rows(rows, "j_level"), fold_rows(rows, "range_level")
        payload = {
            "expr": expr,
            "glue_tree": glue_expr,
            "j_linear_level": jl,
            "range_level": rl,
        }
        head = "stratification: %s" % expr
        tail = [
            "glue tree: %s" % glue_expr,
            "j-linear level: %d" % jl,
            "range level: %d" % rl,
        ]
    else:
        realization = FinitePosetRealization.from_json(_read_json(args.file))
        order = realization.replay_split()
        payload = {
            "file": args.file,
            "pieces": [sorted(str(p) for p in piece)
                       for piece in realization.pieces],
            "replay_check": "PASS",
        }
        head = "realization: %d pieces over %d points" % (
            realization.size, len(realization.ground))
        tail = ["replay check: PASS"]
    payload["split_order"] = list(order)
    return payload, [head, "split order: %s" % " ".join(str(i) for i in order), *tail]


def cmd_venn(args) -> tuple[dict, list[str]]:
    data = _read_json(args.file)
    if not isinstance(data, dict):
        raise ValueError("%s does not hold a JSON object" % args.file)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported schema_version in %s" % args.file)
    ground = data.get("ground")
    sets = json_point_lists(data["sets"], "sets", ground)
    if len(sets) != args.n:
        raise ValueError(
            "expected %d sets, file has %d" % (args.n, len(sets)))
    if (1 << args.n) - 1 > MAX_EXPANDED_MULTIPLICITY:
        raise UnsupportedQueryError(
            "venn %d has 2^%d - 1 candidate strata; venn lists at most %d"
            % (args.n, args.n, MAX_EXPANDED_MULTIPLICITY)
        )
    report = venn_stratification(sets, ground)
    partition = "PASS" if report.partition_ok else "FAIL"
    boundary = "PASS" if report.boundary_ok else "FAIL"
    # the strata come in venn_stratification's order, which combinations
    # gives for the 1-based set names
    names = [list(c) for r in range(args.n, 0, -1)
             for c in combinations(range(1, args.n + 1), r)]
    points = [sorted(map(str, s.points)) if s.points else [] for s in report.strata]
    text = ["venn decomposition of %d sets:" % args.n]
    text += ["  {%s}: %s" % (",".join("A%d" % i for i in sets), " ".join(p))
             for sets, p in zip(names, points) if p]
    nonempty = len(report.nonempty)
    payload = {
        "n": args.n,
        "strata": _Columns(sets=names, points=points),
        "nonempty_strata": nonempty,
        "candidate_strata": len(report.strata),
        "partition_check": partition,
        "boundary_check": boundary,
        "irreducibility": "declared",
    }
    return payload, text + [
        "nonempty strata: %d of %d candidates" % (nonempty, len(report.strata)),
        "partition check: %s" % partition,
        "boundary check: %s" % boundary,
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittlinear",
        description="Witt-theoretic invariants of linear schemes over the reals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    # every subcommand takes one positional argument, an expression by default
    def command(name, func, summary, positional="expr", **kwargs):
        p = sub.add_parser(name, help=summary)
        p.add_argument(positional, **kwargs)
        p.set_defaults(func=func)
        return p

    def add_range_options(p):
        p.add_argument("--i", type=int, required=True, help="cohomological degree")
        p.add_argument("--smooth", action="store_true",
                       help="assert the scheme is smooth")
        p.add_argument("--field", choices=sorted(_FIELDS), default="R")

    command("linlevel", cmd_linlevel, "construction levels of a scheme expression")

    p = command("range", cmd_range, "bijectivity range of the graded step")
    add_range_options(p)

    p = command("cohomology", cmd_cohomology, "explicit cell cohomology as shifted sums")
    p.add_argument("--j", type=int, default=None, help="evaluate at this level")

    p = command("rccm", cmd_rccm, "comparison map to singular cohomology")
    add_range_options(p)

    p = command("cokernel", cmd_cokernel, "cokernel of iterated steps on cell cohomology")
    p.add_argument("--i", type=int, required=True, help="cohomological degree")
    p.add_argument("--j0", type=int, required=True, help="source level")
    p.add_argument("--j1", type=int, default=None,
                   help="target level (default: stable)")

    p = command("stratify", cmd_stratify, "rewrite a stratification as a glue tree",
                nargs="?", default=None)
    p.add_argument("--file", default=None,
                   help="JSON realization to replay instead of an expression")

    p = command("venn", cmd_venn, "intersection strata of a union of sets",
                "n", type=int, help="number of sets")
    p.add_argument("--file", required=True, help="JSON file with ground and sets")

    # every subcommand takes --format, listed last in its help
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    # built on the first call and reused: setting up the seven subparsers
    # costs more than a typical warm query
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        payload, text = args.func(args)
        if args.format == "json":
            payload.update({"command": args.cmd, "schema_version": SCHEMA_VERSION})
            text = [_to_json(payload)]
        for line in text:
            print(line)
    except (UnsupportedDifferentialError, UnsupportedQueryError) as e:
        error, code = e, 4
    except (CapabilityError, SmoothnessRequiredError, TShapeRequiredError) as e:
        error, code = e, 3
    except InternalConsistencyError as e:
        error, code = e, 5
    except BrokenPipeError:
        # the reader closed stdout (as head does): no input was at fault
        return 1
    except (ValueError, KeyError, OSError) as e:
        error, code = e, 2
    else:
        return 0
    print("error: %s" % error, file=sys.stderr)
    return code
