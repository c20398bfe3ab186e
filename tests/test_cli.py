import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qhaar.algebra import (LETTER_TO_GEN, AlgebraElement, quantum_determinant,
                           star)
from qhaar.rewriter import _insert
from qhaar import cli
from qhaar.cli import ParseError, parse, run_command
from qhaar.linsys import VerificationError, iter_Bnm
from qhaar.haar import haar_state
from qhaar.scalars import QRational, qq

E = AlgebraElement
a, b, c, d, e, g = (E.gen(3, *LETTER_TO_GEN[ch]) for ch in "abcdeg")
D1, D2 = E.det_inv(3, 1), E.det_inv(3, 2)

CORPUS = {
    "a": a,
    "a b": a * b,
    "a * b": a * b,
    "c e g det^-1": c * e * g * D1,
    "a^2 b^3 det^-2": a ** 2 * b ** 3 * D2,
    "(a e - q b d)": a * e - (b * d).scale(qq(1)),
    "a^* b": star(a) * b,
    "x[1,3] x[2,2] x[3,1] det^-1": c * e * g * D1,
    "q^2 a + q^-1 b": a.scale(qq(2)) + b.scale(qq(-1)),
    "2 a": 2 * a,
    "1/2 a b": (a * b).scale(QRational.from_int(1) / 2),
    "Det det^-1": quantum_determinant(3) * D1,
    "(a + b)(c + d)": (a + b) * (c + d),
    "a - b - c": a - b - c,
    "a^* a + b^* b + c^* c": star(a) * a + star(b) * b + star(c) * c,
    "q^-3 (a e - q b d)^2 det^-2":
        ((a * e - (b * d).scale(qq(1))) ** 2 * D2).scale(qq(-3)),
    "3/7": E.unit(3).scale(QRational.from_int(3) / 7),
    "x[2,2]^2 det^-1 a": e ** 2 * D1 * a,
}


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, stdout=buf)
    return code, buf.getvalue()


def test_parse_corpus():
    for text, want in CORPUS.items():
        assert parse(text) == want, text


# A random expression tree, drawn once and read two ways: as the text the
# parser reads and as the element built through the AlgebraElement API.
# Each node is (text, element, binding): 3 an atom, 2 a factor, 1 a term,
# 0 a sum; a child that binds more loosely than its slot is parenthesized.


def _wrap(node, binding):
    text, _, own = node
    return text if own >= binding else "(%s)" % text


def _scalar(num, den):
    return E.unit(3).scale(QRational.from_int(num) / den)


_leaves = st.one_of(
    st.sampled_from(sorted(LETTER_TO_GEN)).map(
        lambda ch: (ch, E.gen(3, *LETTER_TO_GEN[ch]), 3)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda ij: ("x[%d,%d]" % ij, E.gen(3, *ij), 3)),
    st.sampled_from(sorted(LETTER_TO_GEN)).map(
        lambda ch: (ch + "^*", star(E.gen(3, *LETTER_TO_GEN[ch])), 2)),
    st.just(("q", E.unit(3).scale(qq(1)), 3)),
    st.integers(-3, 3).map(lambda k: ("q^%d" % k, E.unit(3).scale(qq(k)), 2)),
    st.integers(0, 9).map(lambda k: ("%d" % k, _scalar(k, 1), 3)),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map(
        lambda r: ("%d/%d" % r, _scalar(*r), 3)),
    st.integers(1, 3).map(lambda k: ("det^-%d" % k, E.det_inv(3, k), 2)),
)


def _combine(children):
    def node(op, left, right):
        if op == "+":
            return ("%s + %s" % (_wrap(left, 0), _wrap(right, 1)),
                    left[1] + right[1], 0)
        if op == "-":
            return ("%s - %s" % (_wrap(left, 0), _wrap(right, 1)),
                    left[1] - right[1], 0)
        return ("%s%s%s" % (_wrap(left, 1), op, _wrap(right, 2)),
                left[1] * right[1], 1)

    def power(base, k):
        return ("%s^%d" % (_wrap(base, 3), k), base[1] ** k, 2)

    return st.one_of(
        st.builds(node, st.sampled_from(["+", "-", " ", " * "]),
                  children, children),
        st.builds(power, children, st.integers(0, 2)))


expressions = st.recursive(_leaves, _combine, max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_parse_matches_api(node):
    text, want, _ = node
    assert parse(text) == want, text


def test_parse_error_positions():
    # a check on a factor names the start of its atom
    for text, pos in [("a b x[4,1]", 4), ("a b^-2", 2), ("a + b^-2", 4),
                      ("1/0", 0), ("a 0^-1", 2), ("a (b)^*", 2),
                      ("a det", 2), ("a det^2", 2), ("a +", 3),
                      ("a + " + "1" * 5000, 4), ("a^" + "2" * 5000, 2)]:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.pos == pos, text


def test_parse_checks_syntax_before_computing():
    # the stray ')' fails the syntax-only pass, before D_q^4 is expanded
    _insert.cache_clear()
    before = _insert.cache_info()
    with pytest.raises(ParseError) as info:
        parse("Det^4 )")
    assert info.value.pos == 6
    assert _insert.cache_info() == before


def test_parse_alias_matches_matrix_entry():
    assert parse("c e g det^-1") == parse("x[1,3] x[2,2] x[3,1] det^-1")


def test_parse_minor_expression():
    got = parse("(a e - q b d)")
    want = (AlgebraElement.gen(3, 1, 1) * AlgebraElement.gen(3, 2, 2)
            - (AlgebraElement.gen(3, 1, 2)
               * AlgebraElement.gen(3, 2, 1)).scale(qq(1)))
    assert got == want


def test_parse_star_and_scalars():
    assert parse("a^*") == star(AlgebraElement.gen(3, 1, 1))
    assert parse("1/2 q^2") == \
        AlgebraElement.unit(3).scale(qq(2) / (qq(0) + qq(0)))


def test_parse_errors():
    for bad in ["", "a + + b", "det", "det^2", "(a", "a^* ^*", "(a+b)^*",
                "x[1]", "x[0,1]", "z", "i", "q^"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_eval_matches_haar_state():
    code, out = run(["eval", "c e g det^-1"])
    assert code == 0
    x = parse("c e g det^-1")
    assert out.strip() == str(haar_state(x))


def test_eval_json_and_at_q():
    code, out = run(["eval", "a a^*", "--format", "json", "--at-q", "1/4"])
    assert code == 0
    num, den = json.loads(out)["value"]
    x = parse("a a^*")
    from qhaar.scalars import evaluate_numeric
    from fractions import Fraction
    assert Fraction(num, den) == evaluate_numeric(haar_state(x),
                                                  Fraction(1, 4))


def test_table_m1_has_six_rows():
    code, out = run(["table", "--m", "1"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6
    assert rows[0].split()[0] == "ceg"


def test_table_rank2():
    code, out = run(["table", "--m", "1", "--n", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 2


def test_gram_agrees_and_json_schema():
    code, out = run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1",
                     "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["methods_agree"] is True
    assert data["lambda"] == [2, 1, 0]
    assert len(data["entries"]) == 2 and len(data["entries"][0]) == 2


def test_gram_csv_rows_read_back(capsys):
    # the methods-agree line goes to stderr, so a CSV reader sees the
    # header and dim rows of dim fields only
    code, out = run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1",
                     "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["v0", "v1"]
    assert len(rows) == 3 and all(len(row) == 2 for row in rows)
    assert capsys.readouterr().err == "methods agree: True\n"


def test_gram_disagreement_fails(monkeypatch):
    from qhaar import corep

    monkeypatch.setattr(corep, "gram_entry_direct", lambda *args: qq(1))
    code, out = run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1",
                     "--format", "json"])
    assert code == 5
    assert json.loads(out)["methods_agree"] is False
    code, out = run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1"])
    assert code == 5 and out.splitlines()[-1] == "methods agree: False"


def test_gram_past_the_direct_cap():
    # the direct route refuses with a FeasibilityError, and gram reports
    # the closed matrix alone
    code, out = run(["gram", "--lambda", "7,0,0", "--mu", "7,0,0",
                     "--format", "json"])
    assert code == 0 and json.loads(out)["methods_agree"] is None
    code, out = run(["gram", "--lambda", "7,0,0", "--mu", "7,0,0"])
    assert code == 0 and "methods agree" not in out


def test_gram_latex():
    code, out = run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1",
                     "--format", "latex"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "\\begin{tabular}{cc}"
    assert lines[1] == "v0 & v1 \\\\"
    assert lines[-2] == "\\end{tabular}"
    assert lines[-1] == "methods agree: True"


def test_text_rows_have_no_trailing_spaces():
    code, out = run(["table", "--n", "2", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line == line.rstrip() for line in lines)


def test_table_and_solve_share_rows():
    # table takes its values from haar_state (the q-Fischer formula at
    # rank 4), solve from the invariance system
    code_t, table = run(["table", "--n", "4", "--m", "2", "--format", "csv"])
    code_s, solve = run(["solve", "--n", "4", "--m", "2", "--format", "csv"])
    assert code_t == code_s == 0
    table, solve = table.splitlines(), solve.splitlines()
    assert table[0] == "monomial,value" and solve[0] == "theta,value"
    assert len(table) == 283 and table[1:] == solve[1:]


@pytest.mark.parametrize("command", ["table", "solve"])
def test_csv_rows_read_back(command):
    # the JSON counting matrix holds commas, so its field is quoted
    code, out = run([command, "--n", "2", "--m", "2", "--format", "csv"])
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header[1] == "value" and len(rows) == 3
    assert all(len(row) == 2 for row in rows)
    assert [json.loads(row[0]) for row in rows] == \
        [[[0, 2], [2, 0]], [[1, 1], [1, 1]], [[2, 0], [0, 2]]]


@pytest.mark.parametrize("n, count", [(2, 3), (4, 282)])
def test_table_solves_no_system(monkeypatch, n, count):
    def refuse(*args):
        raise AssertionError("table solved the invariance system")

    monkeypatch.setattr(cli, "build_system", refuse)
    monkeypatch.setattr(cli, "solve_system", refuse)
    code, out = run(["table", "--n", str(n), "--m", "2", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == count


def test_table_order1_past_the_bounds():
    # order 1 has its closed form at every rank, as in eval
    code, out = run(["table", "--n", "6", "--m", "1", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 720


def test_table_refused_shape_fails_at_its_first_value(monkeypatch):
    # past the guard, table stops at the first matrix rather than listing
    # the 202,410 of order 2 at rank 6 first
    drawn = []

    def counted(n, m):
        for theta in iter_Bnm(n, m):
            drawn.append(theta)
            yield theta

    monkeypatch.setattr(cli, "iter_Bnm", counted)
    assert run(["table", "--n", "6", "--m", "2"])[0] == 3
    assert len(drawn) == 1


def test_eval_rank1():
    assert run(["eval", "x[1,1]^2 det^-2", "--n", "1"]) == (0, "1\n")


def test_table_and_solve_rank1():
    # D_q = x11 at rank 1, so every value is 1 at any order, and the guard
    # of the larger ranks does not apply
    assert run(["table", "--n", "1", "--m", "3"]) == \
        (0, "monomial  value\n[[3]]     1\n")
    assert run(["solve", "--n", "1", "--m", "2", "--format", "csv"]) == \
        (0, "theta,value\n[[2]],1\n")


def test_table_order0_past_the_bounds():
    # order 0 is the normalization row alone at any rank, so the guard of
    # the larger orders does not apply
    code, out = run(["table", "--n", "7", "--m", "0", "--format", "csv"])
    assert code == 0
    assert out == 'monomial,value\n"%s",1\n' % json.dumps([[0] * 7] * 7)


def test_eval_rank4_order2():
    # a rank-4, order-2 word off the anti-diagonal: a value of the
    # q-Fischer formula
    code, out = run(["eval", "x[1,1]^2 x[2,2]^2 x[3,3]^2 x[4,4]^2 det^-2",
                     "--n", "4"])
    assert code == 0
    assert out.strip() not in ("", "0")


def test_eval_rank4_order3():
    # order 3 at rank 4 lies inside the feasibility guard
    text = "x[1,1]^3 x[2,2]^3 x[3,3]^3 x[4,4]^3 det^-3"
    code, out = run(["eval", text, "--n", "4"])
    assert code == 0
    assert out.strip() == str(haar_state(parse(text, 4)))


def test_ortho_at_q():
    code, out = run(["ortho", "--lambda", "1,0,0", "--mu", "1,0,0",
                     "--at-q", "1/2"])
    assert code == 0
    assert "norm^2" in out.splitlines()[0]


def test_ortho_json_at_q():
    # --at-q applies to the JSON output too, as in gram
    code, out = run(["ortho", "--lambda", "2,1,0", "--mu", "1,1,1",
                     "--format", "json", "--at-q", "1/4"])
    assert code == 0
    assert json.loads(out)["norms_sq"] == ["1/78897", "1/19088161"]


def test_ortho_builds_no_direct_gram(monkeypatch):
    import qhaar.corep

    def refuse(*args):
        raise AssertionError("ortho computed a direct Gram entry")

    monkeypatch.setattr(qhaar.corep, "gram_entry_direct", refuse)
    code, out = run(["ortho", "--lambda", "2,1,0", "--mu", "1,1,1",
                     "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["norms_sq"]) == 2


def test_dim_solve_source():
    code, out = run(["dim", "--lambda", "2,1,0"])
    assert code == 0 and out.strip() == "q^4 + 2*q^2 + 2 + 2*q^-2 + q^-4"
    code, out = run(["solve", "--n", "2", "--m", "1", "--format", "csv"])
    assert code == 0 and len(out.strip().splitlines()) == 3
    code, out = run(["source", "--n", "3", "--m", "1", "--at-q", "1/2"])
    assert code == 0


def test_verify_suites():
    code, out = run(["verify", "--suite", "s-sum", "--bound", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    code, out = run(["verify", "--suite", "double-sum", "--bound", "2"])
    assert code == 0


def test_exit_codes():
    assert run(["eval", "a + + b"])[0] == 2
    assert run(["eval", "x[4,1]"])[0] == 2
    # a zero denominator or a zero base under a negative power
    assert run(["eval", "1/0"])[0] == 2
    assert run(["eval", "0^-1"])[0] == 2
    # a digit that int() does not read
    assert run(["eval", "a\u00b2"])[0] == 2
    assert run(["eval", "x[\u00b9,1]"])[0] == 2
    # more digits than int() converts (4,300 by default)
    assert run(["eval", "1" * 5000])[0] == 2
    assert run(["eval", "a", "--at-q", "q"])[0] == 2
    assert run(["solve", "--n", "3", "--m", "9"])[0] == 3
    assert run(["eval", "x[1,1]^3 x[2,2]^3 x[3,3]^3 x[4,4]^3 x[5,5]^3 det^-3",
                "--n", "5"])[0] == 3
    assert run(["gram", "--lambda", "2,1,0", "--mu", "3,0,0"])[0] == 4
    assert run(["gram", "--lambda", "2,1,0", "--mu", "3,-1,1"])[0] == 4
    assert run(["nonsense"])[0] == 2
    assert run(["eval", "a", "--at-q", "0"])[0] == 2
    assert run(["gram", "--lambda", "1,2,0", "--mu", "1,1,1"])[0] == 2
    # a library ValueError that is no verification failure
    assert run(["source", "--n", "1", "--m", "1"])[0] == 6
    # negative orders and bounds
    assert run(["solve", "--n", "2", "--m", "-1"])[0] == 2
    assert run(["table", "--m", "-1"])[0] == 2
    assert run(["verify", "--suite", "s-sum", "--bound", "-3"])[0] == 2
    assert run(["verify", "--suite", "nope"])[0] == 2
    # a rank below 1
    assert run(["eval", "2", "--n", "0"])[0] == 2
    assert run(["eval", "2", "--n", "-1"])[0] == 2
    assert run(["solve", "--n", "0", "--m", "1",
                "--override-feasibility"])[0] == 2
    assert run(["table", "--n", "0", "--m", "1"])[0] == 2
    # table takes every value from haar_state, which has no override
    assert run(["table", "--m", "1", "--override-feasibility"])[0] == 2
    assert run(["table", "--n", "5", "--m", "3"])[0] == 3
    # gram reads no rank: rank 3 is fixed, so --n is not an option
    assert run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1", "--n", "4"])[0] \
        == 2


@pytest.mark.parametrize("error, code", [
    (VerificationError("rank deficient system: 1 unknowns undetermined"), 5),
    (ValueError("inconsistent system: nonzero residual on row 'x'"), 6),
])
def test_exit_code_follows_error_type(monkeypatch, error, code):
    # the exit code comes from the type; the message text plays no part
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "source_matrix_solve", fail)
    assert run(["source", "--n", "3", "--m", "1"])[0] == code


def test_deep_nesting():
    def nested(depth):
        return "(" * depth + "a a^*" + ")" * depth

    code, out = run(["eval", nested(100)])
    assert code == 0 and out == run(["eval", "a a^*"])[1]
    assert run(["eval", nested(400)])[0] == 2


def test_override_feasibility_rank2():
    code, out = run(["solve", "--n", "2", "--m", "4",
                     "--override-feasibility", "--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"]


def test_out_file(tmp_path):
    target = tmp_path / "dim.txt"
    code, out = run(["dim", "--lambda", "1,0,0", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().strip() == "q^2 + 1 + q^-2"


def test_determinism():
    first = run(["table", "--m", "2", "--format", "csv"])
    second = run(["table", "--m", "2", "--format", "csv"])
    assert first == second
