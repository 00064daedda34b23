"""Tolerant Solidity parsing substrate.

This sub-package replaces the modified ANTLR grammar used by the paper
(Section 4.1) with a regex-driven tolerant lexer and a hand-written
recursive-descent parser.  The parser operates in two modes:

* *strict* mode rejects anything that is not a structurally valid Solidity
  source unit, and
* *snippet* mode implements the grammar modifications of the paper:
  hierarchy unnesting (functions and statements may appear at the top
  level), newline statement termination (missing ``;``), and tolerance of
  ``...`` placeholders.

The public entry points are :func:`parse` and :func:`parse_snippet` which
return a :class:`~repro.solidity.ast_nodes.SourceUnit`.
"""

from repro.solidity.ast_nodes import (
    ArrayTypeName,
    Assignment,
    BinaryOperation,
    Block,
    BoolLiteral,
    BreakStatement,
    ContinueStatement,
    ContractDefinition,
    DoWhileStatement,
    ElementaryTypeName,
    EmitStatement,
    EnumDefinition,
    EventDefinition,
    ExpressionStatement,
    ForStatement,
    FunctionCall,
    FunctionDefinition,
    Identifier,
    IfStatement,
    IndexAccess,
    MappingTypeName,
    MemberAccess,
    ModifierDefinition,
    ModifierInvocation,
    NewExpression,
    Node,
    NumberLiteral,
    Parameter,
    PlaceholderStatement,
    PragmaDirective,
    ReturnStatement,
    RevertStatement,
    SourceUnit,
    StateVariableDeclaration,
    StringLiteral,
    StructDefinition,
    ThrowStatement,
    TupleExpression,
    TypeName,
    UnaryOperation,
    UserDefinedTypeName,
    VariableDeclaration,
    VariableDeclarationStatement,
    WhileStatement,
)
from repro.solidity.errors import SolidityParseError, SoliditySyntaxWarning
from repro.solidity.keywords import (
    JAVASCRIPT_KEYWORDS,
    SOLIDITY_KEYWORDS,
    UNIQUE_SOLIDITY_KEYWORDS,
    looks_like_solidity,
)
from repro.solidity.lexer import Token, TokenType, tokenize
from repro.solidity.parser import Parser, parse, parse_snippet

__all__ = [
    "ArrayTypeName",
    "Assignment",
    "BinaryOperation",
    "Block",
    "BoolLiteral",
    "BreakStatement",
    "ContinueStatement",
    "ContractDefinition",
    "DoWhileStatement",
    "ElementaryTypeName",
    "EmitStatement",
    "EnumDefinition",
    "EventDefinition",
    "ExpressionStatement",
    "ForStatement",
    "FunctionCall",
    "FunctionDefinition",
    "Identifier",
    "IfStatement",
    "IndexAccess",
    "JAVASCRIPT_KEYWORDS",
    "MappingTypeName",
    "MemberAccess",
    "ModifierDefinition",
    "ModifierInvocation",
    "NewExpression",
    "Node",
    "NumberLiteral",
    "Parameter",
    "Parser",
    "PlaceholderStatement",
    "PragmaDirective",
    "ReturnStatement",
    "RevertStatement",
    "SOLIDITY_KEYWORDS",
    "SolidityParseError",
    "SoliditySyntaxWarning",
    "SourceUnit",
    "StateVariableDeclaration",
    "StringLiteral",
    "StructDefinition",
    "ThrowStatement",
    "Token",
    "TokenType",
    "TupleExpression",
    "TypeName",
    "UNIQUE_SOLIDITY_KEYWORDS",
    "UnaryOperation",
    "UserDefinedTypeName",
    "VariableDeclaration",
    "VariableDeclarationStatement",
    "WhileStatement",
    "looks_like_solidity",
    "parse",
    "parse_snippet",
    "tokenize",
]
