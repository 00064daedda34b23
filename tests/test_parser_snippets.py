"""Tests for snippet mode: the grammar modifications of Section 4.1."""

import pytest

from repro.solidity import ast_nodes as ast
from repro.solidity.errors import SolidityParseError
from repro.solidity.parser import parse_snippet


class TestHierarchyUnnesting:
    def test_free_function(self):
        unit = parse_snippet("function f(uint a) public { return a; }")
        assert unit.shape == "function"
        assert unit.free_functions()[0].name == "f"

    def test_free_statements(self):
        unit = parse_snippet("msg.sender.transfer(amount);\nbalances[msg.sender] = 0;")
        assert unit.shape == "statements"
        assert len(unit.free_statements()) == 2

    def test_free_state_variable(self):
        unit = parse_snippet("mapping(address => uint) balances;")
        assert unit.items and isinstance(unit.items[0], ast.StateVariableDeclaration)

    def test_free_modifier(self):
        unit = parse_snippet("modifier onlyOwner() { require(msg.sender == owner); _; }")
        assert any(isinstance(item, ast.ModifierDefinition) for item in unit.items)

    def test_free_event(self):
        unit = parse_snippet("event Transfer(address from, address to, uint value);")
        assert any(isinstance(item, ast.EventDefinition) for item in unit.items)

    def test_contract_shape_takes_priority(self):
        unit = parse_snippet("contract C { uint x; }\nfunction g() public {}")
        assert unit.shape == "contract"

    def test_mixed_function_and_statements(self):
        unit = parse_snippet("owner = msg.sender;\nfunction f() public { return 1; }")
        assert unit.free_functions() and unit.free_statements()


class TestStatementTermination:
    def test_missing_semicolons_at_newlines(self):
        unit = parse_snippet("uint a = 1\nuint b = 2\na = a + b")
        assert len(unit.items) == 3

    def test_missing_semicolon_in_function_body(self):
        unit = parse_snippet("function f() {\n  owner = msg.sender\n  total += 1\n}")
        body = unit.free_functions()[0].body
        assert len(body.statements) == 2

    def test_missing_semicolon_before_closing_brace(self):
        unit = parse_snippet("function f() { owner = msg.sender }")
        assert unit.free_functions()[0].body.statements


class TestPlaceholders:
    def test_ellipsis_between_statements(self):
        unit = parse_snippet("uint a = 1;\n...\nuint b = 2;")
        assert len(unit.items) == 2
        assert not unit.warnings

    def test_ellipsis_inside_contract(self):
        unit = parse_snippet("contract C {\n  uint x;\n  ...\n  function f() public {}\n}")
        contract = unit.contracts()[0]
        assert contract.state_variables() and contract.functions()

    def test_ellipsis_inside_function_body(self):
        unit = parse_snippet("function f() {\n  require(msg.sender == owner);\n  ...\n}")
        assert unit.free_functions()[0].body is not None


class TestErrorRecoveryAndRejection:
    def test_prose_is_rejected(self, prose_snippet):
        with pytest.raises(SolidityParseError):
            parse_snippet(prose_snippet)

    def test_empty_input_is_rejected(self):
        with pytest.raises(SolidityParseError):
            parse_snippet("")

    def test_solidity_with_a_little_noise_is_accepted(self):
        unit = parse_snippet(
            "function withdraw(uint amount) public {\n"
            "    require(balances[msg.sender] >= amount);\n"
            "    msg.sender.transfer(amount);\n"
            "}\n"
            "Hope this helps!")
        assert unit.free_functions()
        assert unit.warnings  # the trailing prose produced a warning

    def test_unbalanced_braces_recovered(self):
        unit = parse_snippet("function f() {\n  owner = msg.sender;\n")
        assert unit.free_functions()[0].body is not None

    def test_snippet_mode_flag_recorded(self):
        assert parse_snippet("uint x = 1;").snippet_mode is True

    def test_warning_objects_have_location(self):
        unit = parse_snippet("function f() { owner = msg.sender; }\n???;")
        if unit.warnings:
            assert unit.warnings[0].line >= 1


class TestRealWorldShapedSnippets:
    def test_withdraw_snippet(self, reentrancy_snippet):
        unit = parse_snippet(reentrancy_snippet)
        function = unit.free_functions()[0]
        assert function.name == "withdraw"
        assert len(function.body.statements) == 3

    def test_statement_snippet(self, statement_snippet):
        unit = parse_snippet(statement_snippet)
        assert unit.shape == "statements"

    def test_interface_snippet(self):
        unit = parse_snippet(
            "interface IERC20 {\n"
            "    function totalSupply() external view returns (uint256);\n"
            "    function transfer(address to, uint256 amount) external returns (bool);\n"
            "}")
        assert unit.contracts()[0].kind == "interface"

    def test_snippet_with_pragma_only_line(self):
        unit = parse_snippet("pragma solidity ^0.8.0;\nuint x = 1;")
        assert any(isinstance(item, ast.PragmaDirective) for item in unit.items)

    def test_full_wallet_contract(self, vulnerable_wallet_source):
        unit = parse_snippet(vulnerable_wallet_source)
        contract = unit.contracts()[0]
        assert {f.name for f in contract.functions() if f.name} >= {"deposit", "withdraw", "kill"}
        assert contract.modifiers()


class TestNodeCode:
    """A node's ``code`` is cut at the lexer's lines: ``\\n`` only."""

    def test_a_trailing_newline_keeps_the_last_items_code(self):
        unit = parse_snippet("function f() public { x = 1; }\n")
        assert unit.items[0].code == "function f() public { x = 1; }"

    def test_a_crlf_function_keeps_its_closing_brace(self):
        unit = parse_snippet("function f() public {\r\n  x = 1;\r\n}\r\n")
        assert unit.items[0].code == "function f() public {\n  x = 1;\n}"

    @pytest.mark.parametrize("separator", ["\f", "\v", "\r", "\x1c", "\x1d", "\x1e",
                                           "\x85", "\u2028", "\u2029"])
    def test_other_line_breaks_do_not_shift_later_code(self, separator):
        unit = parse_snippet(f"// a{separator}b\nfunction g() public {{ y = 2; }}")
        assert unit.items[-1].code == "function g() public { y = 2; }"
