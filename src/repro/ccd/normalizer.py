"""Source normalization and tokenization for clone detection.

Reproduces Sections 5.1–5.3 of the paper:

* comments, whitespace and layout differences disappear because the token
  stream is produced from the parsed AST (Type-I clones),
* contract names become ``c``, library names ``l``, function names ``f``,
  modifier names ``m``; parameters and variables are renamed to their
  declared type (``uint`` when the type is unknown); string literals become
  ``stringLiteral``; visibility and mutability specifiers are removed
  (Type-II clones),
* state-variable and event declarations are ignored — only contract
  headers, function headers, and function-level statements are tokenized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.solidity import ast_nodes as ast
from repro.solidity.errors import SolidityParseError
from repro.solidity.parser import parse_snippet

_VISIBILITY_TOKENS = {"public", "private", "internal", "external", "view", "pure",
                      "constant", "payable", "virtual", "override"}


@dataclass
class NormalizedFunction:
    """The normalized token stream of one function (or free statement group)."""

    name: str = "f"
    tokens: list[str] = field(default_factory=list)

    def as_text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class NormalizedContract:
    """The normalized token streams of one contract."""

    name: str = "c"
    kind: str = "contract"
    functions: list[NormalizedFunction] = field(default_factory=list)

    def as_text(self) -> str:
        return " ".join(function.as_text() for function in self.functions)


@dataclass
class NormalizedUnit:
    """The normalization result of one snippet or contract file."""

    contracts: list[NormalizedContract] = field(default_factory=list)

    def as_text(self) -> str:
        return " ".join(contract.as_text() for contract in self.contracts)

    def all_tokens(self) -> list[str]:
        tokens: list[str] = []
        for contract in self.contracts:
            for function in contract.functions:
                tokens.extend(function.tokens)
        return tokens


class Normalizer:
    """Normalize Solidity source into per-contract, per-function token streams."""

    def normalize(self, source: str) -> NormalizedUnit:
        """Parse and normalize ``source``; raises ``SolidityParseError`` if unparsable."""
        unit = parse_snippet(source)
        return self.normalize_unit(unit)

    def normalize_unit(self, unit: ast.SourceUnit) -> NormalizedUnit:
        result = NormalizedUnit()
        free_functions: list[ast.FunctionDefinition] = []
        free_statements: list[ast.Statement] = []
        for item in unit.items:
            if isinstance(item, ast.ContractDefinition):
                result.contracts.append(self._normalize_contract(item))
            elif isinstance(item, ast.FunctionDefinition):
                free_functions.append(item)
            elif isinstance(item, ast.ModifierDefinition):
                free_functions.append(ast.FunctionDefinition(
                    name=item.name, parameters=item.parameters, body=item.body,
                    line=item.line, column=item.column, code=item.code,
                ))
            elif isinstance(item, ast.Statement):
                free_statements.append(item)
        if free_functions or free_statements:
            contract = NormalizedContract(name="c")
            for function in free_functions:
                contract.functions.append(self._normalize_function(function, {}))
            if free_statements:
                scope = self._collect_scope(free_statements)
                tokens: list[str] = []
                for statement in free_statements:
                    tokens.extend(self._statement_tokens(statement, scope))
                contract.functions.append(NormalizedFunction(name="f", tokens=tokens))
            result.contracts.append(contract)
        return result

    def normalize_text(self, source: str) -> str:
        """Convenience wrapper returning the normalized token text."""
        return self.normalize(source).as_text()

    # -- contracts ---------------------------------------------------------------
    def _normalize_contract(self, contract: ast.ContractDefinition) -> NormalizedContract:
        name = "l" if contract.kind == "library" else "c"
        normalized = NormalizedContract(name=name, kind=contract.kind)
        # the contract header participates in the first function's context
        scope = self._contract_scope(contract)
        header_tokens = ["contract" if contract.kind != "library" else "library", name]
        functions: list[NormalizedFunction] = []
        for part in contract.parts:
            if isinstance(part, ast.FunctionDefinition):
                functions.append(self._normalize_function(part, scope))
            elif isinstance(part, ast.ModifierDefinition):
                synthetic = ast.FunctionDefinition(name=part.name, parameters=part.parameters,
                                                   body=part.body, code=part.code)
                normalized_function = self._normalize_function(synthetic, scope, function_label="m")
                functions.append(normalized_function)
            elif isinstance(part, ast.ContractDefinition):
                nested = self._normalize_contract(part)
                functions.extend(nested.functions)
            elif isinstance(part, ast.Statement):
                functions.append(NormalizedFunction(
                    name="f", tokens=self._statement_tokens(part, scope)))
            # state variables, events, structs, enums, using-for: ignored (Section 5.3)
        # the contract header is kept as its own sub-fingerprint segment so
        # that function-level matching is independent of the header (the
        # leading short segment visible in Figure 5 of the paper)
        normalized.functions = [NormalizedFunction(name="header", tokens=header_tokens)] + functions
        return normalized

    def _contract_scope(self, contract: ast.ContractDefinition) -> dict[str, str]:
        """State variables are *not* renamed.

        Their declarations are ignored during tokenization (Section 5.3) and
        snippets usually do not include them, so renaming references to state
        variables inside full contracts would make snippet-vs-contract
        matching asymmetric.  References to state keep their original name on
        both sides instead.
        """
        del contract
        return {}

    def _collect_scope(self, statements: list[ast.Statement]) -> dict[str, str]:
        scope: dict[str, str] = {}
        for statement in statements:
            for node in statement.walk():
                if isinstance(node, ast.VariableDeclaration) and node.name:
                    scope[node.name] = self._type_token(node.type_name)
        return scope

    # -- functions -----------------------------------------------------------------
    def _normalize_function(
        self, function: ast.FunctionDefinition, outer_scope: dict[str, str],
        function_label: str = "f",
    ) -> NormalizedFunction:
        scope = dict(outer_scope)
        for parameter in function.parameters + function.return_parameters:
            if parameter.name:
                scope[parameter.name] = self._type_token(parameter.type_name)
            elif isinstance(parameter.type_name, ast.UserDefinedTypeName) and parameter.type_name.name \
                    and parameter.type_name.name[0].islower():
                # ``function f(amount)`` — an untyped parameter: the parsed
                # "type" is actually the name, and the type defaults to uint
                scope[parameter.type_name.name] = "uint"
        if function.body is not None:
            for node in function.body.walk():
                if isinstance(node, ast.VariableDeclaration) and node.name:
                    scope[node.name] = self._type_token(node.type_name)

        tokens: list[str] = []
        if function.kind == "constructor":
            tokens.append("constructor")
        else:
            tokens.extend(["function", function_label])
        tokens.append("(")
        for index, parameter in enumerate(function.parameters):
            if index:
                tokens.append(",")
            if not parameter.name and isinstance(parameter.type_name, ast.UserDefinedTypeName) \
                    and parameter.type_name.name and parameter.type_name.name[0].islower():
                tokens.append("uint")
            else:
                tokens.append(self._type_token(parameter.type_name))
        tokens.append(")")
        if function.return_parameters:
            tokens.extend(["returns", "("])
            for index, parameter in enumerate(function.return_parameters):
                if index:
                    tokens.append(",")
                tokens.append(self._type_token(parameter.type_name))
            tokens.append(")")
        for invocation in function.modifiers:
            tokens.append("m")
        if function.body is not None:
            tokens.extend(self._statement_tokens(function.body, scope))
        return NormalizedFunction(name=function_label, tokens=tokens)

    # -- statements ------------------------------------------------------------------
    def _statement_tokens(self, statement: ast.Statement, scope: dict[str, str]) -> list[str]:
        tokens: list[str] = []
        if isinstance(statement, ast.Block):
            tokens.append("{")
            for child in statement.statements:
                tokens.extend(self._statement_tokens(child, scope))
            tokens.append("}")
            return tokens
        if isinstance(statement, ast.ExpressionStatement):
            if statement.expression is not None:
                tokens.extend(self._expression_tokens(statement.expression, scope))
            tokens.append(";")
            return tokens
        if isinstance(statement, ast.VariableDeclarationStatement):
            for declaration in statement.declarations:
                tokens.append(self._type_token(declaration.type_name))
            if statement.initial_value is not None:
                tokens.append("=")
                tokens.extend(self._expression_tokens(statement.initial_value, scope))
            tokens.append(";")
            return tokens
        if isinstance(statement, ast.IfStatement):
            tokens.extend(["if", "("])
            if statement.condition is not None:
                tokens.extend(self._expression_tokens(statement.condition, scope))
            tokens.append(")")
            if statement.true_body is not None:
                tokens.extend(self._statement_tokens(statement.true_body, scope))
            if statement.false_body is not None:
                tokens.append("else")
                tokens.extend(self._statement_tokens(statement.false_body, scope))
            return tokens
        if isinstance(statement, ast.WhileStatement):
            tokens.extend(["while", "("])
            if statement.condition is not None:
                tokens.extend(self._expression_tokens(statement.condition, scope))
            tokens.append(")")
            if statement.body is not None:
                tokens.extend(self._statement_tokens(statement.body, scope))
            return tokens
        if isinstance(statement, ast.DoWhileStatement):
            tokens.append("do")
            if statement.body is not None:
                tokens.extend(self._statement_tokens(statement.body, scope))
            tokens.extend(["while", "("])
            if statement.condition is not None:
                tokens.extend(self._expression_tokens(statement.condition, scope))
            tokens.extend([")", ";"])
            return tokens
        if isinstance(statement, ast.ForStatement):
            tokens.extend(["for", "("])
            if statement.init is not None:
                tokens.extend(self._statement_tokens(statement.init, scope))
            else:
                tokens.append(";")
            if statement.condition is not None:
                tokens.extend(self._expression_tokens(statement.condition, scope))
            tokens.append(";")
            if statement.update is not None:
                tokens.extend(self._expression_tokens(statement.update, scope))
            tokens.append(")")
            if statement.body is not None:
                tokens.extend(self._statement_tokens(statement.body, scope))
            return tokens
        if isinstance(statement, ast.ReturnStatement):
            tokens.append("return")
            if statement.expression is not None:
                tokens.extend(self._expression_tokens(statement.expression, scope))
            tokens.append(";")
            return tokens
        if isinstance(statement, ast.EmitStatement):
            tokens.append("emit")
            if statement.call is not None:
                tokens.extend(self._expression_tokens(statement.call, scope))
            tokens.append(";")
            return tokens
        if isinstance(statement, ast.RevertStatement):
            tokens.append("revert")
            if statement.call is not None:
                for argument in statement.call.arguments:
                    tokens.extend(self._expression_tokens(argument, scope))
            tokens.append(";")
            return tokens
        if isinstance(statement, ast.ThrowStatement):
            tokens.extend(["throw", ";"])
            return tokens
        if isinstance(statement, ast.BreakStatement):
            tokens.extend(["break", ";"])
            return tokens
        if isinstance(statement, ast.ContinueStatement):
            tokens.extend(["continue", ";"])
            return tokens
        if isinstance(statement, ast.PlaceholderStatement):
            tokens.extend(["_", ";"])
            return tokens
        if isinstance(statement, ast.InlineAssemblyStatement):
            tokens.extend(["assembly", "{", "}"])
            return tokens
        if isinstance(statement, ast.TryStatement):
            tokens.append("try")
            if statement.expression is not None:
                tokens.extend(self._expression_tokens(statement.expression, scope))
            if statement.body is not None:
                tokens.extend(self._statement_tokens(statement.body, scope))
            for catch in statement.catch_bodies:
                tokens.append("catch")
                tokens.extend(self._statement_tokens(catch, scope))
            return tokens
        if isinstance(statement, ast.UnparsedStatement):
            return tokens
        return tokens

    # -- expressions ---------------------------------------------------------------------
    def _expression_tokens(self, expression: ast.Expression, scope: dict[str, str]) -> list[str]:
        tokens: list[str] = []
        if isinstance(expression, ast.Identifier):
            name = expression.name
            if name in _VISIBILITY_TOKENS:
                return tokens
            tokens.append(scope.get(name, name))
            return tokens
        if isinstance(expression, ast.MemberAccess):
            if expression.base is not None:
                tokens.extend(self._expression_tokens(expression.base, scope))
            tokens.extend([".", expression.member])
            return tokens
        if isinstance(expression, ast.IndexAccess):
            if expression.base is not None:
                tokens.extend(self._expression_tokens(expression.base, scope))
            tokens.append("[")
            if expression.index is not None:
                tokens.extend(self._expression_tokens(expression.index, scope))
            tokens.append("]")
            return tokens
        if isinstance(expression, ast.FunctionCall):
            if expression.callee is not None:
                tokens.extend(self._expression_tokens(expression.callee, scope))
            if expression.call_options:
                tokens.append("{")
                for key, value in expression.call_options.items():
                    tokens.extend([key, ":"])
                    tokens.extend(self._expression_tokens(value, scope))
                tokens.append("}")
            tokens.append("(")
            for index, argument in enumerate(expression.arguments):
                if index:
                    tokens.append(",")
                tokens.extend(self._expression_tokens(argument, scope))
            tokens.append(")")
            return tokens
        if isinstance(expression, ast.Assignment):
            if expression.left is not None:
                tokens.extend(self._expression_tokens(expression.left, scope))
            tokens.append(expression.operator)
            if expression.right is not None:
                tokens.extend(self._expression_tokens(expression.right, scope))
            return tokens
        if isinstance(expression, ast.BinaryOperation):
            if expression.left is not None:
                tokens.extend(self._expression_tokens(expression.left, scope))
            tokens.append(expression.operator)
            if expression.right is not None:
                tokens.extend(self._expression_tokens(expression.right, scope))
            return tokens
        if isinstance(expression, ast.UnaryOperation):
            if expression.prefix:
                tokens.append(expression.operator)
            if expression.operand is not None:
                tokens.extend(self._expression_tokens(expression.operand, scope))
            if not expression.prefix:
                tokens.append(expression.operator)
            return tokens
        if isinstance(expression, ast.Conditional):
            if expression.condition is not None:
                tokens.extend(self._expression_tokens(expression.condition, scope))
            tokens.append("?")
            if expression.true_expression is not None:
                tokens.extend(self._expression_tokens(expression.true_expression, scope))
            tokens.append(":")
            if expression.false_expression is not None:
                tokens.extend(self._expression_tokens(expression.false_expression, scope))
            return tokens
        if isinstance(expression, ast.TupleExpression):
            tokens.append("(")
            for index, component in enumerate(expression.components):
                if index:
                    tokens.append(",")
                if component is not None:
                    tokens.extend(self._expression_tokens(component, scope))
            tokens.append(")")
            return tokens
        if isinstance(expression, ast.NumberLiteral):
            # numeric constants are intentionally left untouched (Section 5.2)
            tokens.append(expression.value)
            if expression.unit:
                tokens.append(expression.unit)
            return tokens
        if isinstance(expression, ast.StringLiteral):
            tokens.append("stringLiteral")
            return tokens
        if isinstance(expression, ast.BoolLiteral):
            tokens.append("true" if expression.value else "false")
            return tokens
        if isinstance(expression, ast.NewExpression):
            tokens.append("new")
            if expression.type_name is not None:
                tokens.append(self._type_token(expression.type_name))
            return tokens
        if isinstance(expression, ast.ElementaryTypeNameExpression):
            if expression.type_name is not None:
                tokens.append(expression.type_name.name)
            return tokens
        return tokens

    # -- types -----------------------------------------------------------------------------
    @staticmethod
    def _type_token(type_name) -> str:
        """The single token used for a declared type (default ``uint``, Section 5.2)."""
        if type_name is None:
            return "uint"
        if isinstance(type_name, ast.MappingTypeName):
            return "mapping"
        if isinstance(type_name, ast.ArrayTypeName):
            return Normalizer._type_token(type_name.base_type) + "[]"
        name = type_name.name or "uint"
        # canonicalise sized integers so uint8/uint256 still match Type-II clones
        if name.startswith("uint"):
            return "uint"
        if name.startswith("int"):
            return "int"
        if name.startswith("bytes") and name != "bytes":
            return "bytes"
        return name


__all__ = [
    "NormalizedContract",
    "NormalizedFunction",
    "NormalizedUnit",
    "Normalizer",
    "SolidityParseError",
]
