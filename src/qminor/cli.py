"""Command-line interface: an exact expression parser and subcommands for
root data, PBW coordinates, the dual canonical basis, flag minors, quiver
combinatorics, the named check suites and the multiplicativity scan.

Exit codes: 0 success / no violations, 1 violations, 2 usage error,
3 internal error.
All numeric output is exact scalar text; JSON is emitted with sorted keys
so output is byte-deterministic for fixed flags.
"""

import argparse
import json
import sys

from .scalars import RatScalar
from .rootdata import CartanDatum, longest_word, reduced_word_for_w0
from .qea import WordExpr
from . import pbw, canonical, quiver, mult, checks


class ParseError(ValueError):
    """Expression syntax error, carrying the offending offset."""

    def __init__(self, message, pos):
        super().__init__("%s at offset %d" % (message, pos))
        self.pos = pos


# -- expression parser ---------------------------------------------------------

_PUNCT = "+-*^()"


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch == "E":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("generator needs an index", i)
            tokens.append(("gen", int(text[i + 1:j]), i))
            i = j
        elif ch == "q":
            tokens.append(("q", "q", i))
            i += 1
        else:
            raise ParseError("unknown character %r" % ch, i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Precedence climbing over + - (10), * (20), ^ (30)."""

    def __init__(self, datum, text):
        self.datum = datum
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.parse_expr(0)
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % kind, at)
        return value

    def parse_expr(self, min_prec):
        value = self.parse_primary()
        while True:
            kind, _, at = self.peek()
            if kind in ("+", "-") and min_prec <= 10:
                self.next()
                rhs = self.parse_expr(11)
                value = value + rhs if kind == "+" else value - rhs
            elif kind == "*" and min_prec <= 20:
                self.next()
                value = value * self.parse_expr(21)
            elif kind == "^" and min_prec <= 30:
                self.next()
                value = self.parse_power(value, at)
            else:
                return value

    def parse_primary(self):
        kind, val, at = self.next()
        if kind == "gen":
            if not 1 <= val <= self.datum.rank:
                raise ParseError("E%d out of range for %s"
                                 % (val, self.datum.label), at)
            return WordExpr.generator(self.datum, val)
        if kind == "q":
            return WordExpr.one(self.datum).scale(RatScalar.q_power(1))
        if kind == "int":
            return WordExpr.one(self.datum).scale(
                RatScalar.q_power(0, val))
        if kind == "-":
            return self.parse_expr(25).scale(RatScalar.q_power(0, -1))
        if kind == "(":
            value = self.parse_expr(0)
            kind, _, at = self.next()
            if kind != ")":
                raise ParseError("expected ')'", at)
            return value
        raise ParseError("unexpected %r" % kind, at)

    def parse_power(self, base, at):
        kind, val, pat = self.next()
        divided = False
        sign = 1
        if kind == "(":
            divided = True
            kind, val, pat = self.next()
        if kind == "-":
            sign = -1
            kind, val, pat = self.next()
        if kind != "int":
            raise ParseError("exponent must be an integer", pat)
        if divided:
            kind2, _, at2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", at2)
        exp = sign * val
        if divided:
            return _divided_power(base, exp, at)
        return _plain_power(base, exp, at)


def _scalar_of(value):
    """The RatScalar c when value = c * (empty word), else None."""
    terms = value.terms
    if not terms:
        return RatScalar.zero()
    if set(terms) == {()}:
        return terms[()]
    return None


def _plain_power(base, exp, at):
    c = _scalar_of(base)
    if c is not None:
        if exp < 0 and c.is_zero():
            raise ParseError("zero to a negative power", at)
        out = RatScalar.one()
        for _ in range(abs(exp)):
            out = out * c if exp > 0 else out / c
        return WordExpr.one(base.datum).scale(out)
    if exp < 0:
        raise ParseError("negative power of a non-scalar", at)
    return base ** exp


def _divided_power(base, exp, at):
    """E<i>^(k): the divided power of a single generator."""
    if exp < 0:
        raise ParseError("divided power needs a non-negative exponent", at)
    terms = base.terms
    if len(terms) == 1:
        (word, c), = terms.items()
        if len(word) == 1 and word[0][1] == 1 and c.is_one():
            i = word[0][0]
            if exp == 0:
                return WordExpr.one(base.datum)
            return WordExpr.generator(base.datum, i, exp, side=base.side)
    raise ParseError("divided power applies to a single generator", at)


def parse_expr(datum, text):
    """Parse the CLI expression grammar into a WordExpr."""
    return _Parser(datum, text).parse()


# -- output helpers ------------------------------------------------------------

def _emit(obj, args):
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        lines = _csv_lines(obj)
        out = "\n".join(lines) + "\n"
    else:
        out = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _csv_lines(obj, prefix=""):
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            lines.extend(_csv_lines(obj[k], prefix + str(k) + ","))
        return lines
    if isinstance(obj, list):
        return [prefix + ";".join(str(x) for x in obj)]
    return [prefix + str(obj)]


def _parse_word_arg(text):
    return tuple(int(t) for t in text.split(","))


def _height_arg(text):
    try:
        h = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("height must be an integer, got %r"
                                         % text) from None
    if h < 1:
        raise argparse.ArgumentTypeError("height must be >= 1, got %d" % h)
    return h


def _enumerable_height(h):
    """h, once rootdata.weights_up_to can walk range(h + 1): that range
    must fit a machine index."""
    if h >= sys.maxsize:
        raise ValueError("height %d is too large: it must be < %d"
                         % (h, sys.maxsize))
    return h


def _resolve(args):
    datum = CartanDatum(args.type)
    if getattr(args, "word", None):
        return datum, reduced_word_for_w0(datum, args.word)
    return datum, longest_word(datum)


# -- subcommands ---------------------------------------------------------------

def _cmd_rootdata(args):
    datum, w = _resolve(args)
    _emit({
        "schema": 1,
        "type": datum.label,
        "cartan": [list(r) for r in datum.cartan],
        "symmetrizers": list(datum.d),
        "word": list(w.word),
        "betas": [list(b) for b in w.betas],
    }, args)
    return 0


def _cmd_pbw(args):
    datum, w = _resolve(args)
    x = parse_expr(datum, args.expr)
    coords = pbw.pbw_coordinates(x, w)
    _emit({
        "schema": 1,
        "type": datum.label,
        "word": list(w.word),
        "expr": args.expr,
        "coords": {pbw.render_datum(m): c.render()
                   for m, c in coords.items()},
    }, args)
    return 0


def _cmd_basis(args):
    datum, w = _resolve(args)
    mu = _parse_word_arg(args.weight)
    if len(mu) != datum.rank:
        raise ValueError("weight %s needs %d entries for %s"
                         % (args.weight, datum.rank, datum.label))
    if any(c < 0 for c in mu):
        raise ValueError("weight %s has a negative entry" % args.weight)
    basis = canonical.dual_canonical_basis(mu, w)
    elements = [canonical.basis_element_json(w, n)
                for n in pbw.data_of_weight(w, mu)]
    _emit({
        "schema": 1,
        "type": datum.label,
        "word": list(w.word),
        "weight": list(mu),
        "dimension": len(basis),
        "elements": elements,
    }, args)
    return 0


def _cmd_flag_minors(args):
    datum, w = _resolve(args)
    minors = []
    for k in range(1, len(w.word) + 1):
        n, _ = canonical.flag_minor(w, k)
        minors.append({
            "prefix_length": k,
            "datum": list(n),
            "weight": list(pbw.weight_tuple(w, n)),
            "dual_pbw": canonical.basis_element_json(w, n)["dual_pbw"],
        })
    _emit({
        "schema": 1,
        "type": datum.label,
        "word": list(w.word),
        "minors": minors,
    }, args)
    return 0


def _cmd_quiver(args):
    datum = CartanDatum(args.type)
    o = quiver.parse_orientation(datum, args.orientation)
    w = quiver.adapted_word(o)
    table = []
    for k in range(1, len(w.word) + 1):
        t = quiver.tau(w, k)
        table.append({
            "index": k,
            "dimension_vector": list(w.betas[k - 1]),
            "tau": "projective" if t is None else t,
        })
    _emit({
        "schema": 1,
        "type": datum.label,
        "orientation": o.render(),
        "adapted_word": list(w.word),
        "ar_table": table,
    }, args)
    return 0


def _cmd_check(args):
    for flag, value, readers in (
            ("--word", args.word, checks.WORD_SUITES),
            ("--orientation", args.orientation, checks.ORIENTATION_SUITES),
            ("--height", args.height, checks.HEIGHT_SUITES)):
        if value is not None and args.suite not in readers:
            raise ValueError("check %s does not take %s" % (args.suite, flag))
    if args.height is None:
        args.height = 3
    _enumerable_height(args.height)
    suite = checks.SUITES[args.suite]
    report = suite(args)
    _emit(report, args)
    return 0 if report["ok"] else 1


def _cmd_mult_scan(args):
    datum = CartanDatum(args.type)
    o = quiver.parse_orientation(datum, args.orientation)
    report = mult.verify_theorem_51(o, _enumerable_height(args.height))
    _emit(report, args)
    return 0 if not report["violations"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="qminor",
        description="Exact computations in the dual canonical basis of "
                    "U_q(n) for small-rank types.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, word=True, fmt=True):
        sp.add_argument("--type", required=True,
                        help="Cartan type: A1..A4, B2, D4")
        if word:
            sp.add_argument("--word", type=_parse_word_arg, default=None,
                            help="reduced word for w_0, e.g. 1,2,1")
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"),
                            default="json")
            sp.add_argument("--output", default=None,
                            help="write to a file instead of stdout")

    sp = sub.add_parser("rootdata", help="Cartan matrix and root sequence")
    common(sp)
    sp.set_defaults(func=_cmd_rootdata)

    pbw_p = sub.add_parser("pbw", help="PBW operations")
    pbw_sub = pbw_p.add_subparsers(dest="pbw_command", required=True)
    sp = pbw_sub.add_parser("coords", help="PBW coordinates of an expression")
    common(sp)
    sp.add_argument("--expr", required=True)
    sp.set_defaults(func=_cmd_pbw)

    sp = sub.add_parser("basis", help="dual canonical basis of a weight")
    common(sp)
    sp.add_argument("--weight", required=True, help="e.g. 1,1")
    sp.set_defaults(func=_cmd_basis)

    sp = sub.add_parser("flag-minors", help="quantum flag minors of prefixes")
    common(sp)
    sp.set_defaults(func=_cmd_flag_minors)

    sp = sub.add_parser("quiver", help="adapted word and AR table")
    common(sp, word=False)
    sp.add_argument("--orientation", required=True, help='e.g. "2>1,2>3"')
    sp.set_defaults(func=_cmd_quiver)

    sp = sub.add_parser("check", help="run a named verification suite")
    sp.add_argument("suite", choices=sorted(checks.SUITES))
    common(sp)
    sp.add_argument("--orientation", default=None)
    sp.add_argument("--height", type=_height_arg, default=None,
                    help="height bound of the suites that read one "
                         "(default 3)")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("mult-scan", help="multiplicativity scan")
    common(sp, word=False)
    sp.add_argument("--orientation", required=True)
    sp.add_argument("--height", type=_height_arg, default=4)
    sp.set_defaults(func=_cmd_mult_scan)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # includes ParseError, NotReduced
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(exc).__name__, exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
