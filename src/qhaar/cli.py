"""Command-line front end: a small expression language over the generator
algebra plus batch commands for Haar values, Gram matrices,
orthogonalization, system solving, and the identity suite.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := atom ('^' ('*' | '-'? int))?
    atom   := letter | 'x[' int ',' int ']' | 'det' | 'Det' | 'q'
            | '(' expr ')' | rational

'det' must carry a negative exponent (det_q^{-1} powers); 'Det' is D_q.
'^*' is the star of a single generator.  Letters i and j are reserved for
indices, matching the rank-3 alias matrix a..k.
"""

import argparse
import json
import sys
from fractions import Fraction

from .algebra import (GEN_TO_LETTER, LETTER_TO_GEN, AlgebraElement,
                      pseudo_word, quantum_determinant, star)
from .corep import (_SIZE_CAP, EmptyWeightSpaceError, gram_matrix,
                    gram_schmidt, quantum_dimension)
from .haar import _pseudo_index_from_theta, haar_pseudo, haar_state
from .linsys import (FeasibilityError, VerificationError, build_system,
                     enumerate_Bnm, solve_system, source_matrix_solve)
from .scalars import QRational, evaluate_numeric, qq
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


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def expr(self):
        parts = [("+", self.term())]
        while self.peek() in ("+", "-"):
            sign = self.peek()
            self.pos += 1
            parts.append((sign, self.term()))
        return ("sum", tuple(parts))

    def term(self):
        factors = [self.factor()]
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                factors.append(self.factor())
            elif ch and (ch.isalnum() or ch == "("):
                factors.append(self.factor())
            else:
                break
        return ("prod", tuple(factors))

    def factor(self):
        atom = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "*":
                self.pos += 1
                if atom[0] != "gen":
                    self.error("^* applies only to single generators")
                return ("star", atom)
            neg = False
            if self.peek() == "-":
                self.pos += 1
                neg = True
            e = self.integer()
            e = -e if neg else e
            if atom[0] == "det":
                if e >= 0:
                    self.error("det takes a negative exponent; "
                               "use Det for D_q")
                return ("detinv", -e)
            return ("pow", atom, e)
        if atom[0] == "det":
            self.error("det takes a negative exponent; use Det for D_q")
        return atom

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return inner
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                return ("scalar", num, self.integer())
            return ("scalar", num, 1)
        if self.text.startswith("det", self.pos):
            self.pos += 3
            return ("det",)
        if self.text.startswith("Det", self.pos):
            self.pos += 3
            return ("Det",)
        if ch == "x":
            self.pos += 1
            self.take("[")
            i = self.integer()
            self.take(",")
            j = self.integer()
            self.take("]")
            return ("gen", i, j)
        if ch == "q":
            self.pos += 1
            return ("q",)
        if ch.isalpha():
            if ch in "ij":
                self.error("letters i and j are reserved for indices")
            if ch not in LETTER_TO_GEN:
                self.error("unknown generator %r" % ch)
            self.pos += 1
            return ("gen",) + LETTER_TO_GEN[ch]
        self.error("unexpected character %r" % ch)


def parse(text):
    p = _Parser(text)
    tree = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return tree


def ast_to_str(node):
    kind = node[0]
    if kind == "sum":
        bits = []
        for sign, term in node[1]:
            if bits or sign == "-":
                bits.append(sign)
            bits.append(ast_to_str(term))
        return " ".join(bits)
    if kind == "prod":
        return " ".join("(%s)" % ast_to_str(f) if f[0] == "sum"
                        else ast_to_str(f) for f in node[1])
    if kind == "pow":
        base = ast_to_str(node[1])
        if node[1][0] == "sum":
            base = "(%s)" % base
        return "%s^%d" % (base, node[2])
    if kind == "star":
        return ast_to_str(node[1]) + "^*"
    if kind == "detinv":
        return "det^-%d" % node[1]
    if kind == "Det":
        return "Det"
    if kind == "q":
        return "q"
    if kind == "gen":
        return "x[%d,%d]" % node[1:]
    if kind == "scalar":
        return str(node[1]) if node[2] == 1 else "%d/%d" % node[1:]
    raise ValueError("bad node %r" % (node,))


def ast_to_element(node, n):
    kind = node[0]
    if kind == "sum":
        out = AlgebraElement.zero(n)
        for sign, term in node[1]:
            piece = ast_to_element(term, n)
            out = out + piece if sign == "+" else out - piece
        return out
    if kind == "prod":
        out = AlgebraElement.unit(n)
        for f in node[1]:
            out = out * ast_to_element(f, n)
        return out
    if kind == "pow":
        base, e = node[1], node[2]
        if base[0] == "q":
            return AlgebraElement.unit(n).scale(qq(e))
        if base[0] == "scalar":
            c = Fraction(base[1], base[2]) ** e
            return AlgebraElement.unit(n).scale(_fraction_scalar(c))
        if e < 0:
            raise ParseError("negative exponent only on det or q", 0)
        return ast_to_element(base, n) ** e
    if kind == "star":
        _, i, j = node[1]
        _check_gen(n, i, j)
        return star(AlgebraElement.gen(n, i, j))
    if kind == "detinv":
        return AlgebraElement.det_inv(n, node[1])
    if kind == "Det":
        return quantum_determinant(n)
    if kind == "q":
        return AlgebraElement.unit(n).scale(qq(1))
    if kind == "gen":
        _check_gen(n, node[1], node[2])
        return AlgebraElement.gen(n, node[1], node[2])
    if kind == "scalar":
        return AlgebraElement.unit(n).scale(
            _fraction_scalar(Fraction(node[1], node[2])))
    raise ValueError("bad node %r" % (node,))


def _fraction_scalar(frac):
    return (QRational.from_int(frac.numerator)
            / QRational.from_int(frac.denominator))


def _check_gen(n, i, j):
    if not (1 <= i <= n and 1 <= j <= n):
        raise ParseError("generator x[%d,%d] out of range for rank %d"
                         % (i, j, n), 0)


# ---------------------------------------------------------------------
# output helpers


def _render_value(x, fmt, at_q):
    if at_q is not None:
        v = evaluate_numeric(x, at_q)
        if fmt == "json":
            return json.dumps({"value": [v.numerator, v.denominator]})
        return str(v)
    if fmt == "json":
        return json.dumps({"value": x.to_pairs()})
    if fmt == "latex":
        return "\\frac{%s}{%s}" % (x.num, x.den)
    return str(x)


def _render_rows(header, rows, fmt):
    if fmt == "json":
        return json.dumps({"columns": header,
                           "rows": [list(r) for r in rows]})
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in r) for r in rows]
        return "\n".join(lines)
    if fmt == "latex":
        body = " \\\\\n".join(" & ".join(str(c) for c in r) for r in rows)
        return ("\\begin{tabular}{%s}\n%s \\\\\n%s\n\\end{tabular}"
                % ("c" * len(header), " & ".join(header), body))
    width = [max(len(str(r[i])) for r in rows + [header])
             for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(r, width)).rstrip()
             for r in [header] + rows]
    return "\n".join(lines)


def _scalar_cell(x, at_q):
    return str(evaluate_numeric(x, at_q)) if at_q is not None else str(x)


# ---------------------------------------------------------------------
# commands


def _cmd_eval(args):
    try:
        x = ast_to_element(parse(args.expression), args.n)
    except RecursionError:
        raise ParseError("expression nested too deeply", 0)
    return _render_value(haar_state(x), args.format, args.at_q)


def _system_rows(args):
    sysm = solve_system(build_system(args.n, args.m,
                                     args.override_feasibility))
    return [(json.dumps(theta), _scalar_cell(value, args.at_q))
            for theta, value in sorted(sysm.items())]


def _cmd_table(args):
    if args.n != 3:
        rows = _system_rows(args)
    else:
        rows = []
        for theta in enumerate_Bnm(3, args.m):
            m, s, r, l, t = _pseudo_index_from_theta(theta)
            word = "".join(GEN_TO_LETTER[g] for g in pseudo_word(theta))
            value = haar_pseudo(m, s, r, l, t)
            rows.append((word, _scalar_cell(value, args.at_q)))
    return _render_rows(["monomial", "value"], rows, args.format)


def _parse_triple(text, what):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError("bad %s %r" % (what, text), 0)
    if len(parts) != 3:
        raise ParseError("%s needs three comma-separated integers" % what, 0)
    return parts


def _parse_lambda(text):
    lam = _parse_triple(text, "lambda")
    if not lam[0] >= lam[1] >= lam[2]:
        raise ParseError("lambda must be weakly decreasing", 0)
    return lam


def _parse_at_q(text):
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("--at-q takes an exact rational", 0)
    if q0 <= 0:
        raise ParseError("--at-q must be positive", 0)
    return q0


def _closed_gram(args):
    side = ("right_comodule" if args.side == "R" else "left_comodule")
    return gram_matrix(_parse_lambda(args.lam), _parse_triple(args.mu, "mu"),
                       args.form, side, method="closed")


def _cmd_gram(args):
    g = _closed_gram(args)
    agree = None
    if all(v.shape()[0] <= _SIZE_CAP for v in g.vectors):
        direct = gram_matrix(g.lam, g.mu, g.form, g.side, method="direct")
        agree = direct.entries == g.entries
    if args.format == "json":
        data = g.to_json_dict()
        data["methods_agree"] = agree
        if args.at_q is not None:
            data["entries"] = [[str(evaluate_numeric(e, args.at_q))
                                for e in row] for row in g.entries]
        return json.dumps(data)
    header = ["v%d" % i for i in range(g.dim())]
    rows = [tuple(_scalar_cell(e, args.at_q) for e in row)
            for row in g.entries]
    out = _render_rows(header, rows, args.format)
    if agree is not None:
        out += "\nmethods agree: %s" % agree
    return out


def _cmd_ortho(args):
    g = _closed_gram(args)
    transform, norms = gram_schmidt(g)
    if args.format == "json":
        return json.dumps({
            "lambda": list(g.lam), "mu": list(g.mu),
            "transform": [[c.to_pairs() for c in row]
                          for row in transform],
            "norms_sq": [s.to_pairs() for s in norms],
        })
    rows = [tuple(_scalar_cell(c, args.at_q) for c in row)
            + (_scalar_cell(s, args.at_q),)
            for row, s in zip(transform, norms)]
    header = ["t%d" % i for i in range(len(norms))]
    header.append("norm^2 (sqrt pending)" if args.at_q is not None
                  else "norm^2")
    return _render_rows(header, rows, args.format)


def _cmd_dim(args):
    lam = _parse_lambda(args.lam)
    return _render_value(quantum_dimension(lam), args.format, args.at_q)


def _cmd_solve(args):
    return _render_rows(["theta", "value"], _system_rows(args), args.format)


def _cmd_source(args):
    value = source_matrix_solve(args.n, args.m, args.override_feasibility)
    return _render_value(value, args.format, args.at_q)


def _cmd_verify(args):
    if args.suite == "s-sum":
        reports = [check_S_sum(args.bound, args.bound)]
    elif args.suite == "double-sum":
        reports = [check_prop_5_3(args.bound, args.bound)]
    elif args.suite == "displays":
        reports = check_paper_computations()
    else:
        raise ParseError("unknown suite %r" % args.suite, 0)
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


def _build_argparser():
    top = argparse.ArgumentParser(prog="qhaar")
    sub = top.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", default="text",
                       choices=["json", "csv", "latex", "text"])
        p.add_argument("--at-q", dest="at_q", default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("eval")
    p.add_argument("expression")
    p.add_argument("--n", type=int, default=3)
    output(p)
    for name in ("table", "solve", "source"):
        p = sub.add_parser(name)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--override-feasibility", action="store_true",
                       dest="override_feasibility")
        output(p)
    for name in ("gram", "ortho"):
        p = sub.add_parser(name)
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--mu", required=True)
        p.add_argument("--side", default="R", choices=["L", "R"])
        p.add_argument("--form", default="L", choices=["L", "R"])
        output(p)
    p = sub.add_parser("dim")
    p.add_argument("--lambda", dest="lam", required=True)
    output(p)
    p = sub.add_parser("verify")
    p.add_argument("--suite", required=True)
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
        if getattr(args, "at_q", None) is not None:
            args.at_q = _parse_at_q(args.at_q)
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
