"""Command-line front end: a small expression language over the generator
algebra plus batch commands for Haar values, Gram matrices,
orthogonalization, system solving, and the identity suite.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := atom ('^' ('*' | '-'? int))?
    atom   := letter | 'x[' int ',' int ']' | 'det' | 'Det' | 'q'
            | '(' expr ')' | int ('/' int)?

The parser evaluates as it reads: `parse(text, n)` returns the
AlgebraElement of O(U_q(n)) that the text denotes.  A syntax-only pass
reads the whole text first, so a malformed expression fails before any of
it is computed.  'det' must carry a negative exponent (det_q^{-1} powers);
'Det' is D_q.  '^*' is the star of a single generator; a negative exponent
applies only to det, q or a number, and a zero literal takes none.
Letters i and j are reserved for indices, matching the rank-3 alias matrix
a..k.  Every ParseError names the position of the offending token.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .algebra import (GEN_TO_LETTER, LETTER_TO_GEN, AlgebraElement,
                      pseudo_word, quantum_determinant, star)
from .corep import (EmptyWeightSpaceError, gram_matrix, gram_schmidt,
                    quantum_dimension)
from .haar import haar_state
from .linsys import (FeasibilityError, VerificationError, build_system,
                     iter_Bnm, solve_system, source_matrix_solve)
from .scalars import ONE, QRational, qq
from .verify import check_S_sum, check_paper_computations, check_prop_5_3

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FEASIBILITY = 3
EXIT_EMPTY_WEIGHT = 4
EXIT_RESIDUAL = 5
EXIT_USAGE = 6


class ParseError(Exception):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# ---------------------------------------------------------------------
# expression parser


class _Unevaluated:
    """The value of every element in the syntax-only pass: arithmetic on it
    costs nothing and returns it."""

    def __add__(self, other):
        return self

    __sub__ = __mul__ = __pow__ = __add__

    def scale(self, c):
        return self


class _Parser:
    def __init__(self, text, n, evaluate):
        self.text = text
        self.pos = 0
        self.n = n
        self.evaluate = evaluate
        self.unit = self.build(AlgebraElement.unit, n)

    def build(self, f, *args):
        """f(*args), or a stand-in in the syntax-only pass."""
        return f(*args) if self.evaluate else _Unevaluated()

    def error(self, message, pos=None):
        raise ParseError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            # int() refuses literals longer than the interpreter's limit on
            # digits (sys.get_int_max_str_digits), a process-wide setting
            self.error("integer literal too long", start)

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):
            sign = self.peek()
            self.pos += 1
            out = out + self.term() if sign == "+" else out - self.term()
        return out

    def term(self):
        out = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                out = out * self.factor()
            elif ch and (ch.isalnum() or ch == "("):
                out = out * self.factor()
            else:
                return out

    def factor(self):
        self.skip_ws()
        start = self.pos
        kind, value = self.atom()
        if self.peek() != "^":
            if kind == "det":
                self.error("det takes a negative exponent; use Det for D_q",
                           start)
            return self.unit.scale(value) if kind == "scalar" else value
        self.pos += 1
        if self.peek() == "*":
            self.pos += 1
            if kind != "gen":
                self.error("^* applies only to single generators", start)
            return self.build(star, value)
        neg = False
        if self.peek() == "-":
            self.pos += 1
            neg = True
        e = self.integer()
        e = -e if neg else e
        if kind == "det":
            if e >= 0:
                self.error("det takes a negative exponent; use Det for D_q",
                           start)
            return self.build(AlgebraElement.det_inv, self.n, -e)
        if kind == "scalar":
            if e < 0 and value.is_zero():
                self.error("zero has no negative power", start)
            return self.unit.scale(self.build(pow, value, e))
        if e < 0:
            self.error("negative exponent only on det, q or a number", start)
        return value ** e

    def atom(self):
        """(kind, value): a generator, det, a scalar, or an element."""
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return "element", inner
        if ch.isdecimal():
            num, den = self.integer(), 1
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
            if den == 0:
                self.error("zero denominator", start)
            return "scalar", QRational.from_int(num) / den
        if self.text.startswith("det", self.pos):
            self.pos += 3
            return "det", None
        if self.text.startswith("Det", self.pos):
            self.pos += 3
            return "element", self.build(quantum_determinant, self.n)
        if ch == "x":
            self.pos += 1
            self.take("[")
            i = self.integer()
            self.take(",")
            j = self.integer()
            self.take("]")
        elif ch == "q":
            self.pos += 1
            return "scalar", qq(1)
        elif ch.isalpha():
            if ch in "ij":
                self.error("letters i and j are reserved for indices")
            if ch not in LETTER_TO_GEN:
                self.error("unknown generator %r" % ch)
            self.pos += 1
            i, j = LETTER_TO_GEN[ch]
        else:
            self.error("unexpected character %r" % ch)
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            self.error("generator x[%d,%d] out of range for rank %d"
                       % (i, j, self.n), start)
        return "gen", self.build(AlgebraElement.gen, self.n, i, j)


def parse(text, n=3):
    """The element of O(U_q(n)) that `text` denotes.  The first pass only
    checks the text, so every ParseError comes before any computation."""
    for evaluate in (False, True):
        p = _Parser(text, n, evaluate)
        try:
            x = p.expr()
        except RecursionError:
            p.error("expression nested too deeply")
        p.skip_ws()
        if p.pos != len(text):
            p.error("trailing input")
    return x


# ---------------------------------------------------------------------
# output helpers


def _scalar_text(x, at_q):
    """A scalar as text: exact, or its value at q = at_q."""
    return str(x) if at_q is None else str(x.evaluate_numeric(at_q))


def _render_value(x, fmt, at_q):
    if fmt == "json":
        if at_q is None:
            return json.dumps({"value": x.to_pairs()})
        v = x.evaluate_numeric(at_q)
        return json.dumps({"value": [v.numerator, v.denominator]})
    if fmt == "latex" and at_q is None:
        return "\\frac{%s}{%s}" % (x.num, x.den)
    return _scalar_text(x, at_q)


def _render_rows(header, rows, fmt):
    if fmt == "json":
        return json.dumps({"columns": header,
                           "rows": [list(r) for r in rows]})
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header] + rows)
        return buf.getvalue()[:-1]
    if fmt == "latex":
        body = " \\\\\n".join(" & ".join(str(c) for c in r) for r in rows)
        return ("\\begin{tabular}{%s}\n%s \\\\\n%s\n\\end{tabular}"
                % ("c" * len(header), " & ".join(header), body))
    width = [max(len(str(r[i])) for r in rows + [header])
             for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(r, width)).rstrip()
             for r in [header] + rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------
# commands


def _cmd_eval(args):
    x = parse(args.expression, args.n)
    return _render_value(haar_state(x), args.format, args.at_q)


def _cmd_table(args):
    # one matrix at a time, so a shape haar_state refuses fails at its
    # first value, before the order's matrices are listed
    rows = []
    for theta in iter_Bnm(args.n, args.m):
        word = pseudo_word(theta)
        value = haar_state(AlgebraElement(args.n, {(word, args.m): ONE},
                                          canonical=True))
        label = ("".join(GEN_TO_LETTER[g] for g in word) if args.n == 3
                 else json.dumps(theta))
        rows.append((label, _scalar_text(value, args.at_q)))
    return _render_rows(["monomial", "value"], rows, args.format)


def _closed_gram(args):
    side = ("right_comodule" if args.side == "R" else "left_comodule")
    return gram_matrix(args.lam, args.mu, args.form, side, method="closed")


def _cmd_gram(args):
    g = _closed_gram(args)
    try:
        direct = gram_matrix(g.lam, g.mu, g.form, g.side, method="direct")
        agree = direct.entries == g.entries
    except FeasibilityError:
        agree = None
    if args.format == "json":
        data = g.to_json_dict()
        data["methods_agree"] = agree
        if args.at_q is not None:
            data["entries"] = [[_scalar_text(e, args.at_q) for e in row]
                               for row in g.entries]
        return json.dumps(data), agree is False
    header = ["v%d" % i for i in range(g.dim())]
    rows = [tuple(_scalar_text(e, args.at_q) for e in row)
            for row in g.entries]
    out = _render_rows(header, rows, args.format)
    if agree is not None and args.format == "csv":
        # a CSV reader would take the line for a row of the table
        print("methods agree: %s" % agree, file=sys.stderr)
    elif agree is not None:
        out += "\nmethods agree: %s" % agree
    return out, agree is False


def _cmd_ortho(args):
    g = _closed_gram(args)
    transform, norms = gram_schmidt(g)
    if args.format == "json":
        def cell(x):
            return (x.to_pairs() if args.at_q is None
                    else _scalar_text(x, args.at_q))
        return json.dumps({
            "lambda": list(g.lam), "mu": list(g.mu),
            "transform": [[cell(c) for c in row] for row in transform],
            "norms_sq": [cell(s) for s in norms],
        })
    rows = [tuple(_scalar_text(c, args.at_q) for c in row)
            + (_scalar_text(s, args.at_q),)
            for row, s in zip(transform, norms)]
    header = ["t%d" % i for i in range(len(norms))]
    header.append("norm^2 (sqrt pending)" if args.at_q is not None
                  else "norm^2")
    return _render_rows(header, rows, args.format)


def _cmd_dim(args):
    return _render_value(quantum_dimension(args.lam), args.format, args.at_q)


def _cmd_solve(args):
    sysm = solve_system(build_system(args.n, args.m,
                                     args.override_feasibility))
    rows = [(json.dumps(theta), _scalar_text(value, args.at_q))
            for theta, value in sorted(sysm.items())]
    return _render_rows(["theta", "value"], rows, args.format)


def _cmd_source(args):
    value = source_matrix_solve(args.n, args.m, args.override_feasibility)
    return _render_value(value, args.format, args.at_q)


def _cmd_verify(args):
    if args.suite == "s-sum":
        reports = [check_S_sum(args.bound, args.bound)]
    elif args.suite == "double-sum":
        reports = [check_prop_5_3(args.bound, args.bound)]
    else:
        reports = check_paper_computations()
    failed = any(not r.ok() for r in reports)
    text = "\n".join(r.to_json() for r in reports)
    return text, failed


_COMMANDS = {
    "eval": _cmd_eval, "table": _cmd_table, "gram": _cmd_gram,
    "ortho": _cmd_ortho, "dim": _cmd_dim, "solve": _cmd_solve,
    "source": _cmd_source, "verify": _cmd_verify,
}


def _nonnegative_int(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "expected a nonnegative integer, got %r" % text)
    return int(text)


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return int(text)


def _triple(text):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "expected three comma-separated integers, got %r" % text)
    return parts


def _lambda(text):
    lam = _triple(text)
    if not lam[0] >= lam[1] >= lam[2]:
        raise argparse.ArgumentTypeError(
            "lambda must be weakly decreasing, got %r" % text)
    return lam


def _at_q(text):
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError):
        q0 = None
    if q0 is None or q0 <= 0:
        raise argparse.ArgumentTypeError(
            "expected an exact positive rational, got %r" % text)
    return q0


def _build_argparser():
    top = argparse.ArgumentParser(prog="qhaar")
    sub = top.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", default="text",
                       choices=["json", "csv", "latex", "text"])
        p.add_argument("--at-q", dest="at_q", type=_at_q, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("eval")
    p.add_argument("expression")
    p.add_argument("--n", type=_positive_int, default=3)
    output(p)
    for name in ("table", "solve", "source"):
        p = sub.add_parser(name)
        p.add_argument("--m", type=_nonnegative_int, required=True)
        p.add_argument("--n", type=_positive_int, default=3)
        if name != "table":
            p.add_argument("--override-feasibility", action="store_true",
                           dest="override_feasibility")
        output(p)
    for name in ("gram", "ortho"):
        p = sub.add_parser(name)
        p.add_argument("--lambda", dest="lam", type=_lambda, required=True)
        p.add_argument("--mu", type=_triple, required=True)
        p.add_argument("--side", default="R", choices=["L", "R"])
        p.add_argument("--form", default="L", choices=["L", "R"])
        output(p)
    p = sub.add_parser("dim")
    p.add_argument("--lambda", dest="lam", type=_lambda, required=True)
    output(p)
    p = sub.add_parser("verify")
    p.add_argument("--suite", required=True,
                   choices=["s-sum", "double-sum", "displays"])
    p.add_argument("--bound", type=_nonnegative_int, default=6)
    p.add_argument("--out", default=None)
    return top


def run_command(argv, stdout=None):
    """Run one CLI invocation; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    try:
        args = _build_argparser().parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code else EXIT_OK
    failed = False
    try:
        out = _COMMANDS[args.command](args)
        if isinstance(out, tuple):
            out, failed = out
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        if isinstance(e, FeasibilityError):
            return EXIT_FEASIBILITY
        if isinstance(e, EmptyWeightSpaceError):
            return EXIT_EMPTY_WEIGHT
        if isinstance(e, VerificationError):
            return EXIT_RESIDUAL
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out, file=stdout)
    return EXIT_RESIDUAL if failed else EXIT_OK


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
