"""SELECT grammar: reference forms, joins, predicates, and rejections."""

import pytest

from covidstore.sql.ddl import DescribeTable, DropTable
from covidstore.sql.errors import SqlSyntaxError, UnsupportedClauseError
from covidstore.sql.lexer import Cursor, split_statements, unquote
from covidstore.sql.query import ColumnRef, Comparison, InList, KeyFieldRef, parse_query

from conftest import workload_text


def corpus_query(name: str):
    return parse_query(split_statements(workload_text(name))[0])


def test_syntax_nodes_compare_by_kind():
    # Nodes of two kinds with the same fields never compare equal.
    assert KeyFieldRef(None, "x") != ColumnRef(None, "x")
    assert DropTable("t") != DescribeTable("t")
    assert Comparison(ColumnRef(None, "x"), (1,)) != InList(ColumnRef(None, "x"), (1,))
    assert ColumnRef("c", "x") == ColumnRef("c", "x")
    assert hash(ColumnRef("c", "x")) == hash(ColumnRef("c", "x"))
    assert hash(DropTable("t")) == hash(DropTable("t"))
    assert len({KeyFieldRef(None, "x"), ColumnRef(None, "x"), ColumnRef(None, "x")}) == 2


def test_a_parsed_select_is_immutable():
    text = workload_text("query_join_morocco.sql")
    ast = parse_query(text)
    ref = ast.projections[0]
    for node, field in ((ast, "where"), (ref, "alias")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(node, field, None)
    assert ast == parse_query(text)


# ------------------------------------------------------------ corpus shapes


def test_single_table_star_query():
    ast = corpus_query("query_morocco_all.sql")
    assert ast.select_all
    assert ast.projections == ()
    assert ast.source.table == "confirmed_covid19_cases"
    assert ast.source.alias is None
    assert ast.join is None
    assert ast.where == (
        Comparison(KeyFieldRef(None, "Country_Region"), "Morocco"),
    )


def test_two_table_join_query():
    ast = corpus_query("query_join_morocco.sql")
    assert not ast.select_all
    assert ast.projections == (
        KeyFieldRef("d", "Country_Region"),
        ColumnRef("c", "03_31_2020"),
        ColumnRef("d", "03_31_2020"),
    )
    assert (ast.source.table, ast.source.alias) == ("confirmed_covid19_cases", "c")
    assert (ast.join.source.table, ast.join.source.alias) == (
        "deaths_covid19_cases",
        "d",
    )
    assert ast.join.conditions == (
        (KeyFieldRef("c", "Province_State"), KeyFieldRef("d", "Province_State")),
        (KeyFieldRef("c", "Country_Region"), KeyFieldRef("d", "Country_Region")),
    )
    assert ast.where == (
        Comparison(KeyFieldRef("c", "Country_Region"), "Morocco"),
    )


def test_join_query_with_in_list():
    ast = corpus_query("query_join_four_countries.sql")
    assert len(ast.projections) == 4
    assert ast.where == (
        InList(
            KeyFieldRef("c", "Country_Region"),
            ("Morocco", "France", "Spain", "Germany"),
        ),
    )


# ------------------------------------------------------------ forms


def test_reference_forms():
    ast = parse_query("SELECT key.P, t.key.Q, Lat, t.Long FROM t")
    assert ast.projections == (
        KeyFieldRef(None, "P"),
        KeyFieldRef("t", "Q"),
        ColumnRef(None, "Lat"),
        ColumnRef("t", "Long"),
    )


def test_keywords_are_case_insensitive():
    ast = parse_query("select * from t WHERE key.C = 'x' and Lat = 1")
    assert ast.select_all
    assert len(ast.where) == 2


def test_literals():
    ast = parse_query("SELECT a FROM t WHERE a = 5 AND b = 2.5 AND c = -3 AND d = 'x'")
    assert [p.value for p in ast.where] == [5, 2.5, -3, "x"]
    assert isinstance(ast.where[0].value, int)
    assert isinstance(ast.where[1].value, float)


def test_string_escapes_in_literals():
    ast = parse_query(r"SELECT a FROM t WHERE c = 'Cote d\'Ivoire'")
    assert ast.where[0].value == "Cote d'Ivoire"


def test_in_list_of_numbers():
    ast = parse_query("SELECT a FROM t WHERE a IN (1, 2.5, 'x')")
    assert ast.where[0].values == (1, 2.5, "x")


def test_trailing_semicolon_is_optional():
    assert parse_query("SELECT a FROM t") == parse_query("SELECT a FROM t ;")


def test_join_without_where():
    ast = parse_query("SELECT c.a FROM t c JOIN u d ON c.key.X = d.key.X")
    assert ast.join is not None
    assert ast.where == ()


def test_identifiers_may_start_with_digits():
    # 5 and key are both legal identifiers here; whether they resolve to a
    # real column is the engine's business, not the grammar's.
    ast = parse_query("SELECT key, 5 FROM t JOIN u ON a = 5")
    assert ast.projections == (ColumnRef(None, "key"), ColumnRef(None, "5"))
    assert ast.join.conditions == ((ColumnRef(None, "a"), ColumnRef(None, "5")),)


# ------------------------------------------------------------ rejections


@pytest.mark.parametrize(
    "query, clause",
    [
        ("SELECT * FROM t ORDER BY x", "ORDER BY"),
        ("SELECT * FROM t GROUP BY x", "GROUP BY"),
        ("SELECT * FROM t LIMIT 5", "LIMIT"),
        ("SELECT * FROM t HAVING x = 1", "HAVING"),
        ("SELECT DISTINCT a FROM t", "DISTINCT"),
        ("SELECT * FROM t LEFT JOIN u ON a = b", "LEFT JOIN"),
        ("SELECT * FROM t OUTER JOIN u ON a = b", "OUTER JOIN"),
        ("SELECT * FROM t WHERE a = 1 OR b = 2", "OR"),
        ("SELECT * FROM t UNION SELECT * FROM u", "UNION"),
    ],
)
def test_unsupported_clauses_named(query, clause):
    with pytest.raises(UnsupportedClauseError) as err:
        parse_query(query)
    assert clause in str(err.value)
    assert "unsupported clause" in str(err.value)


@pytest.mark.parametrize(
    "query",
    [
        "",
        "SELECT",
        "SELECT FROM t",
        "SELECT *, a FROM t",
        "SELECT a, * FROM t",
        "SELECT a",
        "SELECT a FROM",
        "SELECT a FROM t JOIN u",
        "SELECT a FROM t JOIN u ON",
        "SELECT a FROM t JOIN u ON a",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t WHERE a",
        "SELECT a FROM t WHERE a = ",
        "SELECT a FROM t WHERE a = b",
        "SELECT a FROM t WHERE a = ²",
        "SELECT a FROM t WHERE a = 1.²",
        "SELECT a FROM t WHERE a IN ()",
        "SELECT a FROM t WHERE a IN 'x'",
        "SELECT a FROM t WHERE 'x' = a",
        "SELECT a FROM t; SELECT b FROM u",
        "SELECT a FROM t u v",
        "UPDATE t SET a = 1",
    ],
)
def test_syntax_errors(query):
    with pytest.raises(SqlSyntaxError):
        parse_query(query)


def test_syntax_error_position_points_at_offender():
    with pytest.raises(SqlSyntaxError) as err:
        parse_query("SELECT a FROM t WHERE a = b")
    assert err.value.position == len("SELECT a FROM t WHERE a = ")


def lex(text):
    """Each token of text as (its text, unquote of it, where Cursor.at puts it)."""
    cursor = Cursor(text)
    assert cursor.toks[-1] == ""
    return [(tok, unquote(tok), cursor.at(k)) for k, tok in enumerate(cursor.toks[:-1])]


def test_string_token_position_is_its_opening_quote():
    assert [pos for _, _, pos in lex("x 'abc' \"d\" y")] == [0, 2, 8, 12]
    with pytest.raises(SqlSyntaxError) as err:
        parse_query("SELECT 'abc' FROM t")
    assert err.value.position == len("SELECT ")


def test_unterminated_string():
    with pytest.raises(SqlSyntaxError, match="unterminated"):
        parse_query("SELECT a FROM t WHERE a = 'oops")


@pytest.mark.parametrize(
    "scan, text, expected",
    [
        (lex, r"'a\nb\tc\rd\~e'", [(r"'a\nb\tc\rd\~e'", "a\nb\tc\rd~e", 0)]),
        (
            lex,
            r"""'it\'s' "say \"hi\"" """,
            [(r"'it\'s'", "it's", 0), (r'"say \"hi\""', 'say "hi"', 8)],
        ),
        (lex, 'x "p;q" y', [("x", "x", 0), ('"p;q"', "p;q", 2), ("y", "y", 8)]),
        (
            lex,
            "café 03_31_2020 ٣٤ x²",
            [("café", "café", 0), ("03_31_2020", "03_31_2020", 5), ("٣٤", "٣٤", 16), ("x²", "x²", 19)],
        ),
        (lex, "a　b", [("a", "a", 0), ("b", "b", 2)]),
        (lex, "x 'abc\\", "unterminated string literal (at position 2)"),
        (lex, 'x "abc', "unterminated string literal (at position 2)"),
        (lex, "SELECT a # b", "unexpected character '#' (at position 9)"),
        (split_statements, 'a; "x;y" ;b', ["a", '"x;y"', "b"]),
        (split_statements, r"x 'it\'s;' ; y", [r"x 'it\'s;'", "y"]),
        (split_statements, "DROP a; 'open; still open", ["DROP a", "'open; still open"]),
        (split_statements, "a; 'ab\\", ["a", "'ab\\"]),
        (split_statements, r"a\'; b", [r"a\'; b"]),
        (split_statements, ";; ;", []),
    ],
)
def test_scanners(scan, text, expected):
    if isinstance(expected, str):
        with pytest.raises(SqlSyntaxError) as err:
            scan(text)
        assert str(err.value) == expected
    else:
        assert scan(text) == expected
