import io
import json

import pytest

from qhaar.algebra import AlgebraElement, star
from qhaar.cli import (ParseError, ast_to_element, ast_to_str, parse,
                       run_command)
from qhaar.haar import haar_state
from qhaar.scalars import qq

ROUND_TRIP = [
    "a", "a b", "a * b", "c e g det^-1", "a^2 b^3 det^-2",
    "(a e - q b d)", "a^* b", "x[1,3] x[2,2] x[3,1] det^-1",
    "q^2 a + q^-1 b", "2 a", "1/2 a b", "Det det^-1",
    "(a + b)(c + d)", "a - b - c", "a^* a + b^* b + c^* c",
    "q^-3 (a e - q b d)^2 det^-2", "3/7", "x[2,2]^2 det^-1 a",
]


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, stdout=buf)
    return code, buf.getvalue()


def test_parse_round_trip():
    for text in ROUND_TRIP:
        tree = parse(text)
        printed = ast_to_str(tree)
        assert parse(printed) == tree, text


def test_parse_alias_matches_matrix_entry():
    assert ast_to_element(parse("c e g det^-1"), 3) == \
        ast_to_element(parse("x[1,3] x[2,2] x[3,1] det^-1"), 3)


def test_parse_minor_expression():
    got = ast_to_element(parse("(a e - q b d)"), 3)
    want = (AlgebraElement.gen(3, 1, 1) * AlgebraElement.gen(3, 2, 2)
            - (AlgebraElement.gen(3, 1, 2)
               * AlgebraElement.gen(3, 2, 1)).scale(qq(1)))
    assert got == want


def test_parse_star_and_scalars():
    assert ast_to_element(parse("a^*"), 3) == star(AlgebraElement.gen(3, 1, 1))
    assert ast_to_element(parse("1/2 q^2"), 3) == \
        AlgebraElement.unit(3).scale(qq(2) / (qq(0) + qq(0)))


def test_parse_errors():
    for bad in ["", "a + + b", "det", "det^2", "(a", "a^* ^*", "(a+b)^*",
                "x[1]", "x[0,1]", "z", "i", "q^"]:
        with pytest.raises(ParseError):
            parse(bad) if bad not in ("x[0,1]",) else \
                ast_to_element(parse(bad), 3)


def test_eval_matches_haar_state():
    code, out = run(["eval", "c e g det^-1"])
    assert code == 0
    x = ast_to_element(parse("c e g det^-1"), 3)
    assert out.strip() == str(haar_state(x))


def test_eval_json_and_at_q():
    code, out = run(["eval", "a a^*", "--format", "json", "--at-q", "1/4"])
    assert code == 0
    num, den = json.loads(out)["value"]
    x = ast_to_element(parse("a a^*"), 3)
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


def test_gram_latex():
    code, out = run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1",
                     "--format", "latex"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "\\begin{tabular}{cc}"
    assert lines[1] == "v0 & v1 \\\\"
    assert lines[-2] == "\\end{tabular}"
    assert lines[-1] == "methods agree: True"


def test_table_and_solve_share_rows():
    code_t, table = run(["table", "--n", "2", "--m", "2", "--format", "csv"])
    code_s, solve = run(["solve", "--n", "2", "--m", "2", "--format", "csv"])
    assert code_t == code_s == 0
    table, solve = table.splitlines(), solve.splitlines()
    assert table[0] == "monomial,value" and solve[0] == "theta,value"
    assert len(table) == 4 and table[1:] == solve[1:]


def test_eval_rank1():
    assert run(["eval", "x[1,1]^2 det^-2", "--n", "1"]) == (0, "1\n")


def test_ortho_at_q():
    code, out = run(["ortho", "--lambda", "1,0,0", "--mu", "1,0,0",
                     "--at-q", "1/2"])
    assert code == 0
    assert "norm^2" in out.splitlines()[0]


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
    assert run(["eval", "a", "--at-q", "q"])[0] == 2
    assert run(["solve", "--n", "3", "--m", "9"])[0] == 3
    assert run(["eval", "x[1,1]^2 x[2,2]^2 x[3,3]^2 x[4,4]^2 x[5,5]^2 det^-2",
                "--n", "5"])[0] == 3
    assert run(["gram", "--lambda", "2,1,0", "--mu", "3,0,0"])[0] == 4
    assert run(["nonsense"])[0] == 2
    assert run(["eval", "a", "--at-q", "0"])[0] == 2
    assert run(["gram", "--lambda", "1,2,0", "--mu", "1,1,1"])[0] == 2
    # gram reads no rank: rank 3 is fixed, so --n is not an option
    assert run(["gram", "--lambda", "2,1,0", "--mu", "1,1,1", "--n", "4"])[0] \
        == 2


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
