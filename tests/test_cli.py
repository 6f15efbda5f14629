"""The command-line interface: expression parsing, subcommands, exit
codes, and byte-for-byte agreement with the golden files."""

import json
import os
import sys

import pytest

from qminor.rootdata import CartanDatum
from qminor.qea import WordExpr, expr_equal
from qminor.scalars import RatScalar
from qminor.cli import parse_expr, ParseError, main
from qminor.pbw import root_vector
from qminor.rootdata import longest_word

from straightening_faults import double_leading_coefficient

A2 = CartanDatum("A2")
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- the expression parser -----------------------------------------------------

def test_parse_root_vector_expression():
    # The braid-built a1+a2 vector is q * (E1E2 - q^{-1}E2E1).
    x = parse_expr(A2, "E1*E2 - q^-1*E2*E1")
    assert expr_equal(x.scale(RatScalar.q_power(1)),
                      root_vector(longest_word(A2), 2))


def test_parse_divided_power():
    x = parse_expr(A2, "E1^(2)*E2")
    assert x == WordExpr.generator(A2, 1, 2) * WordExpr.generator(A2, 2)
    assert parse_expr(A2, "E1^(0)") == WordExpr.one(A2)


def test_parse_plain_power_vs_divided():
    # E1^2 = E1*E1 = [2] E1^(2), not the divided power.
    assert parse_expr(A2, "E1^2") == parse_expr(A2, "E1*E1")
    assert parse_expr(A2, "E1^2") != parse_expr(A2, "E1^(2)")


def test_parse_precedence_and_parens():
    assert parse_expr(A2, "E1 + E2*E1") == \
        parse_expr(A2, "E1") + parse_expr(A2, "E2*E1")
    assert parse_expr(A2, "(E1 + E2)*E1") == \
        (parse_expr(A2, "E1") + parse_expr(A2, "E2")) * parse_expr(A2, "E1")


def test_parse_scalars():
    assert parse_expr(A2, "q^-3*E1") == \
        WordExpr.generator(A2, 1).scale(RatScalar.q_power(-3))
    assert parse_expr(A2, "2*E1 - E1") == WordExpr.generator(A2, 1)
    assert parse_expr(A2, "-E1 + E1").is_zero()


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr(A2, "E1 + + E2")
    assert err.value.pos == 5
    assert "offset 5" in str(err.value)


def test_parse_error_cases():
    for bad in ("E9*E1", "E1^x", "E1^(-1)", "(E1", "E", "E1 @ E2",
                "q^(2)*E1^-1"):
        with pytest.raises(ParseError):
            parse_expr(A2, bad)


# -- subcommands and exit codes ------------------------------------------------

def test_rootdata_matches_fixture(capsys):
    code, out, _ = run_cli(["rootdata", "--type", "A2"], capsys)
    assert code == 0
    with open(os.path.join(FIXTURES, "rootdata__A2__default.json")) as fh:
        assert out == fh.read()


def test_pbw_coords_matches_fixture(capsys):
    code, out, _ = run_cli(
        ["pbw", "coords", "--type", "A2", "--expr", "E1*E2 - q^-1*E2*E1"],
        capsys)
    assert code == 0
    with open(os.path.join(FIXTURES, "pbw-coords__A2__default.json")) as fh:
        assert out == fh.read()


def test_basis_matches_fixture(capsys):
    code, out, _ = run_cli(
        ["basis", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"],
        capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 2
    with open(os.path.join(FIXTURES, "basis__A2__121.json")) as fh:
        assert out == fh.read()


def test_flag_minors_matches_fixture(capsys):
    for label in ("A2", "B2"):
        code, out, _ = run_cli(["flag-minors", "--type", label], capsys)
        assert code == 0
        name = "flag-minors__%s__default.json" % label
        with open(os.path.join(FIXTURES, name)) as fh:
            assert out == fh.read()


def test_quiver_matches_fixture(capsys):
    code, out, _ = run_cli(
        ["quiver", "--type", "A3", "--orientation", "2>1,3>2"], capsys)
    assert code == 0
    with open(os.path.join(FIXTURES, "quiver__A3__left.json")) as fh:
        assert out == fh.read()


def test_check_suites_match_fixtures(capsys):
    cases = [
        (["check", "serre", "--type", "A2"], "check-serre__A2__default.json"),
        (["check", "serre", "--type", "B2"], "check-serre__B2__default.json"),
        (["check", "pairing", "--type", "A2"],
         "check-pairing__A2__default.json"),
        (["check", "prop21", "--type", "A2", "--word", "1,2,1"],
         "check-prop21__A2__121.json"),
        (["check", "prop31", "--type", "A2", "--height", "3"],
         "check-prop31__A2__default.json"),
        (["check", "prop41", "--type", "A2"],
         "check-prop41__A2__default.json"),
    ]
    for argv, name in cases:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, name
        with open(os.path.join(FIXTURES, name)) as fh:
            assert out == fh.read(), name


def test_rootdata_b2_word_fixture(capsys):
    code, out, _ = run_cli(
        ["rootdata", "--type", "B2", "--word", "2,1,2,1"], capsys)
    assert code == 0
    with open(os.path.join(FIXTURES, "rootdata__B2__2121.json")) as fh:
        assert out == fh.read()


def test_csv_output(capsys):
    code, out, _ = run_cli(
        ["rootdata", "--type", "A2", "--format", "csv"], capsys)
    assert code == 0
    assert "word,1;2;1" in out.splitlines()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["rootdata", "--type", "A2", "--output", str(target)], capsys)
    assert code == 0
    with open(os.path.join(FIXTURES, "rootdata__A2__default.json")) as fh:
        assert target.read_text() == fh.read()


def test_usage_errors(capsys):
    assert run_cli(["pbw", "coords", "--type", "A2",
                    "--expr", "E1 + + E2"], capsys)[0] == 2
    assert run_cli(["rootdata", "--type", "Z9"], capsys)[0] == 2
    assert run_cli(["rootdata", "--type", "A2", "--word", "1,1,2"],
                   capsys)[0] == 2
    assert run_cli(["rootdata", "--type", "A2", "--word", "1,2"],
                   capsys)[0] == 2       # reduced but not for w_0
    assert run_cli(["nonsense"], capsys)[0] == 2


def test_weight_of_wrong_length_is_a_usage_error(capsys):
    code, out, err = run_cli(["basis", "--type", "A2", "--weight", "1,1,1"],
                             capsys)
    assert code == 2 and out == ""
    assert err == "error: weight 1,1,1 needs 2 entries for A2\n"


@pytest.mark.parametrize("argv", [
    ["check", "thm51", "--type", "A2", "--height", "-1"],
    ["check", "prop31", "--type", "A2", "--height", "0"],
    ["mult-scan", "--type", "A2", "--orientation", "2>1", "--height", "0"],
])
def test_vacuous_height_is_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "height must be >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "prop21", "--type", "A2", "--word", "1,2"],
     "error: word [1, 2] is not a reduced word for w_0\n"),
    (["check", "cor22", "--type", "A2", "--word", "1", "--height", "2"],
     "error: word [1] is not a reduced word for w_0\n"),
    (["basis", "--type", "A2", "--weight=-1,2"],
     "error: weight -1,2 has a negative entry\n"),
    (["mult-scan", "--type", "A2", "--orientation", "1>2,1>2",
      "--height", "2"],
     "error: duplicate edge among arrows [(1, 2), (1, 2)]\n"),
    (["check", "remark43", "--type", "A1"],
     "error: remark43 is a D4 check, not A1\n"),
    (["check", "serre", "--type", "A1"],
     "error: A1 has no Serre relation\n"),
    (["check", "pairing", "--type", "A2", "--word", "1,1"],
     "error: check pairing does not take --word\n"),
    (["check", "prop31", "--type", "A2", "--height", "99999999999999999999"],
     "error: height 99999999999999999999 is too large: it must be < %d\n"
     % sys.maxsize),
    (["mult-scan", "--type", "A2", "--orientation", "2>1",
      "--height", str(sys.maxsize)],
     "error: height %d is too large: it must be < %d\n"
     % (sys.maxsize, sys.maxsize)),
] + [
    # every suite that would drop --word, --orientation or --height
    # rejects it
    (["check", suite, "--type", "A2", flag, value],
     "error: check %s does not take %s\n" % (suite, flag))
    for flag, value, suites in (
        ("--word", "1,2,1",
         ("serre", "prop41", "prop42", "thm51", "remark43")),
        ("--orientation", "2>1",
         ("serre", "pairing", "prop21", "cor22", "prop31", "prop32",
          "remark43")),
        ("--height", "7",
         ("serre", "pairing", "prop21", "prop41", "remark43")))
    for suite in suites])
def test_invalid_input_is_a_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == message


def test_check_height_defaults_to_3(capsys):
    code, out, _ = run_cli(["check", "thm51", "--type", "A2",
                            "--orientation", "2>1"], capsys)
    assert code == 0
    assert json.loads(out)["reports"][0]["height_bound"] == 3


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(["rootdata", "--type", "A2",
                              "--output", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_3(monkeypatch, capsys):
    import qminor.cli

    def boom(orientation):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(qminor.cli.quiver, "adapted_word", boom)
    code, out, err = run_cli(["quiver", "--type", "A3",
                              "--orientation", "2>1,2>3"], capsys)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: unexpected\n"


def test_straightening_error_exits_3(fresh_straightening, monkeypatch,
                                     capsys):
    # a wrong leading coefficient of a reversed root-vector product raises
    # StraighteningError, an ArithmeticError: an internal error, not bad
    # input
    double_leading_coefficient(monkeypatch)
    code, out, err = run_cli(["mult-scan", "--type", "A2",
                              "--orientation", "2>1", "--height", "2"],
                             capsys)
    assert code == 3 and out == ""
    assert err.startswith("internal error: StraighteningError: ")
    assert err.count("\n") == 1


def test_non_laurent_straightening_exits_3(non_laurent_commutator, capsys):
    # a non-Laurent S* is a convention bug, not bad input
    code, out, err = run_cli(["mult-scan", "--type", "A2",
                              "--orientation", "2>1", "--height", "2"],
                             capsys)
    assert code == 3 and out == ""
    assert err.startswith("internal error: NonLaurentStraightening: ")
    assert err.count("\n") == 1


def test_check_exit_zero_on_pass(capsys):
    code, out, _ = run_cli(["check", "serre", "--type", "A3"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True
