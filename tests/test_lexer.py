"""Unit tests for the tolerant Solidity lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexer_golden
from repro.solidity.lexer import Token, TokenType, is_elementary_type, tokenize


def token_values(source, token_type=None):
    tokens = tokenize(source)
    if token_type is None:
        return [t.value for t in tokens if t.type is not TokenType.EOF]
    return [t.value for t in tokens if t.type is token_type]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifier(self):
        assert token_values("owner", TokenType.IDENTIFIER) == ["owner"]

    def test_keyword(self):
        assert token_values("contract", TokenType.KEYWORD) == ["contract"]

    def test_number(self):
        assert token_values("42", TokenType.NUMBER) == ["42"]

    def test_decimal_number(self):
        assert token_values("0.5", TokenType.NUMBER) == ["0.5"]

    def test_scientific_number(self):
        assert token_values("1e18", TokenType.NUMBER) == ["1e18"]

    def test_number_with_underscores(self):
        assert token_values("1_000_000", TokenType.NUMBER) == ["1_000_000"]

    def test_hex_literal(self):
        assert token_values("0xABCDEF", TokenType.HEX_LITERAL) == ["0xABCDEF"]

    def test_string_double_quotes(self):
        assert token_values('"hello"', TokenType.STRING) == ["hello"]

    def test_string_single_quotes(self):
        assert token_values("'hi'", TokenType.STRING) == ["hi"]

    def test_string_with_escape(self):
        values = token_values(r'"a\"b"', TokenType.STRING)
        assert len(values) == 1

    def test_unterminated_string_stops_at_newline(self):
        tokens = tokenize('"unterminated\nuint x;')
        assert any(t.type is TokenType.STRING for t in tokens)
        assert any(t.value == "x" for t in tokens)

    def test_punctuation(self):
        assert token_values("(){};,", TokenType.PUNCTUATION) == ["(", ")", "{", "}", ";", ","]

    def test_operators_maximal_munch(self):
        assert token_values("a >= b", TokenType.OPERATOR) == [">="]

    def test_compound_assignment_operator(self):
        assert token_values("x += 1", TokenType.OPERATOR) == ["+="]

    def test_arrow_operator_for_mappings(self):
        assert "=>" in token_values("mapping(address => uint)", TokenType.OPERATOR)

    def test_ellipsis_is_dedicated_token(self):
        assert token_values("...", TokenType.ELLIPSIS) == ["..."]

    def test_increment_operator(self):
        assert token_values("i++", TokenType.OPERATOR) == ["++"]

    def test_power_operator(self):
        assert token_values("2 ** 8", TokenType.OPERATOR) == ["**"]

    def test_logical_operators(self):
        assert token_values("a && b || c", TokenType.OPERATOR) == ["&&", "||"]


class TestCommentsAndNewlines:
    def test_line_comment_is_skipped(self):
        values = token_values("uint x; // the counter")
        assert "counter" not in values

    def test_block_comment_is_skipped(self):
        values = token_values("uint /* comment */ x;")
        assert "comment" not in values

    def test_multiline_block_comment(self):
        values = token_values("uint x;\n/* a\nb\nc */\nuint y;")
        assert "y" in values and "b" not in values

    def test_newline_flag_set_on_following_token(self):
        tokens = tokenize("a = 1\nb = 2")
        b_token = next(t for t in tokens if t.value == "b")
        assert b_token.preceded_by_newline is True

    def test_newline_flag_not_set_within_line(self):
        tokens = tokenize("a = 1; b = 2")
        b_token = next(t for t in tokens if t.value == "b")
        assert b_token.preceded_by_newline is False

    def test_comment_followed_by_newline_preserves_flag(self):
        tokens = tokenize("a = 1 // end\nb = 2")
        b_token = next(t for t in tokens if t.value == "b")
        assert b_token.preceded_by_newline is True


class TestLocations:
    def test_line_numbers(self):
        tokens = tokenize("uint x;\nuint y;")
        y_token = next(t for t in tokens if t.value == "y")
        assert y_token.line == 2

    def test_column_numbers(self):
        tokens = tokenize("uint x;")
        x_token = next(t for t in tokens if t.value == "x")
        assert x_token.column == 6

    def test_unknown_character_becomes_error_token(self):
        tokens = tokenize("uint x; §")
        assert any(t.type is TokenType.ERROR for t in tokens)


class TestTokenHelpers:
    def test_is_punct(self):
        token = Token(TokenType.PUNCTUATION, ";", 1, 1)
        assert token.is_punct(";") and not token.is_punct(",")

    def test_is_keyword(self):
        token = Token(TokenType.KEYWORD, "function", 1, 1)
        assert token.is_keyword("function")

    def test_is_identifier_with_and_without_value(self):
        token = Token(TokenType.IDENTIFIER, "owner", 1, 1)
        assert token.is_identifier() and token.is_identifier("owner") and not token.is_identifier("x")

    def test_repr_contains_value(self):
        token = Token(TokenType.IDENTIFIER, "owner", 3, 7)
        assert "owner" in repr(token)


class TestElementaryTypes:
    @pytest.mark.parametrize("name", ["uint", "uint256", "uint8", "int", "int128",
                                      "address", "bool", "bytes", "bytes32", "string", "var"])
    def test_elementary_type_names(self, name):
        assert is_elementary_type(name) is True

    @pytest.mark.parametrize("name", ["MyToken", "Owned", "balances", "uintx", "bytesY"])
    def test_non_elementary_names(self, name):
        assert is_elementary_type(name) is False

    def test_full_contract_token_count_is_reasonable(self):
        source = "contract C { function f(uint a) public returns (uint) { return a + 1; } }"
        tokens = tokenize(source)
        assert 20 <= len(tokens) <= 40


class TestQuirks:
    """Behaviour the parser and the function-digest keys depend on."""

    def test_a_comment_clears_the_pending_newline(self):
        tokens = tokenize("a\n/* c */ b")
        assert tokens[1].value == "b" and tokens[1].preceded_by_newline is False

    def test_a_newline_after_a_comment_sets_the_flag_again(self):
        tokens = tokenize("a\n// c\nb")
        assert tokens[1].value == "b" and tokens[1].preceded_by_newline is True

    def test_a_zero_at_end_of_input_is_a_hex_literal(self):
        assert [(t.type, t.value) for t in tokenize("x = 0")][-2] == (TokenType.HEX_LITERAL, "0")
        assert tokenize("0 ")[0].type is TokenType.NUMBER

    @pytest.mark.parametrize("text", ["1e", "1e+", "1e5.5", "1.5e-3", "1_000e2"])
    def test_exponent_forms_are_one_number(self, text):
        assert token_values(text) == [text]
        assert tokenize(text)[0].type is TokenType.NUMBER

    def test_a_second_dot_or_exponent_ends_the_number(self):
        assert token_values("1.5.5") == ["1.5", ".", "5"]
        assert token_values("1e5e5") == ["1e5", "e5"]

    def test_shift_operators_are_not_maximal(self):
        assert token_values("a >>> b") == ["a", ">>", ">", "b"]

    def test_an_escape_may_carry_a_newline_into_a_string(self):
        tokens = tokenize('x = "a\\\nb" + y')
        assert tokens[2].type is TokenType.STRING and tokens[2].value == "a\\\nb"
        assert (tokens[-2].value, tokens[-2].line, tokens[-2].column) == ("y", 2, 6)

    def test_an_unterminated_block_comment_runs_to_the_end(self):
        assert [t.type for t in tokenize("a /*/ b")] == [TokenType.IDENTIFIER, TokenType.EOF]

    @pytest.mark.parametrize("text, expected", [
        ("é1", [(TokenType.IDENTIFIER, "é1")]),
        ("٣5", [(TokenType.NUMBER, "٣5")]),
        ("²1", [(TokenType.NUMBER, "²1")]),
        ("1²", [(TokenType.NUMBER, "1²")]),
        ("1.²", [(TokenType.NUMBER, "1.²")]),
        ("½a", [(TokenType.ERROR, "½"), (TokenType.IDENTIFIER, "a")]),
        ("a½", [(TokenType.IDENTIFIER, "a½")]),
        ("Ⅳ1.5", [(TokenType.ERROR, "Ⅳ"), (TokenType.NUMBER, "1.5")]),
        ("一二", [(TokenType.IDENTIFIER, "一二")]),
        ("0x½", [(TokenType.HEX_LITERAL, "0x½")]),
    ])
    def test_non_ascii_digits_letters_and_numerics(self, text, expected):
        """A number starts on ``str.isdigit`` and a word on ``str.isalpha``."""
        assert [(t.type, t.value) for t in tokenize(text)][:-1] == expected


class TestOffsets:
    def test_offsets_index_the_source(self):
        source = "contract C {\r\n  uint x = 0x1; // c\n}"
        for token in tokenize(source):
            assert source.startswith(token.value, token.offset)
        assert tokenize(source)[-1].offset == len(source)

    def test_a_string_offset_is_its_opening_quote(self):
        token = tokenize("x = 'abc'")[2]
        assert token.type is TokenType.STRING and token.offset == 4

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_text_lexes_to_one_eof_with_consistent_positions(self, source):
        tokens = tokenize(source)
        assert [t.type for t in tokens].count(TokenType.EOF) == 1
        assert tokens[-1].type is TokenType.EOF
        offsets = [t.offset for t in tokens]
        assert offsets == sorted(offsets)
        for token in tokens:
            if token.type is TokenType.STRING:
                continue
            assert source.startswith(token.value, token.offset)
            line_start = source.rfind("\n", 0, token.offset) + 1
            assert token.line == source.count("\n", 0, token.offset) + 1
            assert token.column == token.offset - line_start + 1


def test_token_streams_match_the_golden_digests():
    """Type, value, line, column and newline flag of every token, pinned
    over the benchmark inputs, both labelled corpora and seeded random text."""
    golden = lexer_golden.load()
    assert golden["inputs"] == lexer_golden.INPUTS
    for name, sources in lexer_golden.input_sets().items():
        assert len(sources) == golden["sources"][name], name
        for index, (actual, expected) in enumerate(
                zip(lexer_golden.digests(sources), golden["digests"][name])):
            first = index * golden["chunk"]
            assert actual == expected, f"{name} sources {first}..{first + golden['chunk'] - 1}"
