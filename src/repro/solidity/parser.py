"""Tolerant recursive-descent parser for Solidity source code and snippets.

The parser implements the grammar modifications described in Section 4.1 of
the paper:

* **Unnesting of hierarchy** — in snippet mode, contract parts (functions,
  modifiers, events, state variables) and plain statements may appear at the
  top level of the source unit.
* **Statement termination** — a missing ``;`` is accepted when the next
  token starts on a new line.
* **Placeholders** — ``...`` tokens are skipped wherever they appear.

In addition the parser performs panic-mode error recovery: a construct that
cannot be understood is skipped up to a synchronisation point and recorded
as a warning.  Only inputs that do not resemble Solidity at all (too many
unrecoverable errors relative to the amount of parsed content) raise
:class:`~repro.solidity.errors.SolidityParseError`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from repro.solidity.ast_nodes import (
    ArrayTypeName,
    Assignment,
    BinaryOperation,
    Block,
    BoolLiteral,
    BreakStatement,
    Conditional,
    ContinueStatement,
    ContractDefinition,
    DoWhileStatement,
    ElementaryTypeName,
    ElementaryTypeNameExpression,
    EmitStatement,
    EnumDefinition,
    ErrorDefinition,
    EventDefinition,
    Expression,
    ExpressionStatement,
    ForStatement,
    FunctionCall,
    FunctionDefinition,
    FunctionTypeName,
    Identifier,
    IfStatement,
    ImportDirective,
    IndexAccess,
    InlineAssemblyStatement,
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
    Statement,
    StringLiteral,
    StructDefinition,
    ThrowStatement,
    TryStatement,
    TupleExpression,
    TypeName,
    UnaryOperation,
    UnparsedStatement,
    UserDefinedTypeName,
    UsingForDirective,
    VariableDeclaration,
    VariableDeclarationStatement,
    WhileStatement,
)
from repro.solidity.errors import SolidityParseError, SoliditySyntaxWarning
from repro.solidity.lexer import Token, TokenType, is_elementary_type, tokenize

_VISIBILITIES = {"public", "private", "internal", "external"}
_MUTABILITIES = {"pure", "view", "payable", "constant"}
_UNITS = {"wei", "gwei", "szabo", "finney", "ether",
          "seconds", "minutes", "hours", "days", "weeks", "years"}
_STORAGE_LOCATIONS = {"storage", "memory", "calldata"}

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "|": 5,
    "^": 6,
    "&": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_ASSIGNMENT_OPERATORS = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="}


class Parser:
    """Recursive-descent parser producing :class:`SourceUnit` trees."""

    def __init__(self, source: str, snippet_mode: bool = False,
                 tokens: Optional[list[Token]] = None):
        self.source = source or ""
        self.snippet_mode = snippet_mode
        if tokens is None:
            tokens = tokenize(self.source)
        self.tokens = [t for t in tokens if t.type is not TokenType.ELLIPSIS]
        self.pos = 0
        self.warnings: list[SoliditySyntaxWarning] = []
        self._error_count = 0
        self._parsed_items = 0

    # -- token helpers -----------------------------------------------------
    def _current(self) -> Token:
        return self.tokens[self.pos]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _at_end(self) -> bool:
        return self._current().type is TokenType.EOF

    def _advance(self) -> Token:
        token = self._current()
        if not self._at_end():
            self.pos += 1
        return token

    def _check_punct(self, value: str) -> bool:
        return self._current().is_punct(value)

    def _check_op(self, value: str) -> bool:
        return self._current().is_op(value)

    def _check_keyword(self, value: str) -> bool:
        return self._current().is_keyword(value)

    def _match_punct(self, value: str) -> bool:
        if self._check_punct(value):
            self._advance()
            return True
        return False

    def _match_op(self, value: str) -> bool:
        if self._check_op(value):
            self._advance()
            return True
        return False

    def _match_keyword(self, value: str) -> bool:
        if self._check_keyword(value):
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        if self._check_punct(value):
            return self._advance()
        raise self._error(f"expected {value!r}")

    def _error(self, message: str) -> SolidityParseError:
        token = self._current()
        return SolidityParseError(
            f"{message}, found {token.type.name} {token.value!r}", token.line, token.column
        )

    def _warn(self, message: str) -> None:
        token = self._current()
        self.warnings.append(SoliditySyntaxWarning(message, token.line, token.column))

    def _expect_statement_end(self) -> None:
        """Consume a ``;`` or, in snippet mode, accept a newline boundary."""
        if self._match_punct(";"):
            return
        if self.snippet_mode and (
            self._at_end()
            or self._current().preceded_by_newline
            or self._check_punct("}")
        ):
            return
        raise self._error("expected ';'")

    def _source_span(self, start_token: Token, end_pos: Optional[int] = None) -> str:
        end_pos = self.pos if end_pos is None else end_pos
        if end_pos <= 0:
            return ""
        end_token = self.tokens[min(end_pos, len(self.tokens) - 1)]
        return self._extract_source(start_token, end_token)

    @cached_property
    def _lines(self) -> list[str]:
        # the lexer counts lines at "\n" only; a CRLF line keeps its
        # "\r" out of any node's code
        return [line.removesuffix("\r") for line in self.source.split("\n")]

    def _extract_source(self, start: Token, end: Token) -> str:
        lines = self._lines
        start_line = max(start.line - 1, 0)
        end_line = min(end.line - 1, len(lines) - 1)
        if start_line == end_line:
            return lines[start_line][start.column - 1:end.column - 1].strip()
        parts = [lines[start_line][start.column - 1:]]
        parts.extend(lines[start_line + 1:end_line])
        parts.append(lines[end_line][:end.column - 1])
        return "\n".join(parts).strip()

    def _locate(self, node: Node, start_token: Token) -> Node:
        node.line = start_token.line
        node.column = start_token.column
        if not node.code:
            node.code = self._source_span(start_token)
        return node

    # -- entry point --------------------------------------------------------
    def parse(self) -> SourceUnit:
        """Parse the input and return a :class:`SourceUnit`.

        Raises :class:`SolidityParseError` when the input does not look like
        Solidity (too many unrecoverable errors relative to parsed items).
        """
        unit = SourceUnit(snippet_mode=self.snippet_mode, code=self.source)
        while not self._at_end():
            start_pos = self.pos
            try:
                item = self._parse_top_level_item()
                if item is not None:
                    unit.items.append(item)
                    self._parsed_items += 1
            except SolidityParseError as exc:
                self._error_count += 1
                self.warnings.append(
                    SoliditySyntaxWarning(str(exc), self._current().line, self._current().column)
                )
                self._synchronize(start_pos)
        unit.warnings = self.warnings
        self._check_parsability(unit)
        return unit

    def _check_parsability(self, unit: SourceUnit) -> None:
        meaningful = [item for item in unit.items if not isinstance(item, UnparsedStatement)]
        if not meaningful:
            raise SolidityParseError("input contains no parsable Solidity constructs")
        if self._error_count > max(2, len(meaningful)):
            raise SolidityParseError(
                f"too many syntax errors ({self._error_count}) for "
                f"{len(meaningful)} parsed constructs"
            )

    def _synchronize(self, start_pos: int) -> None:
        """Panic-mode recovery: skip to the next likely construct boundary."""
        if self.pos == start_pos:
            self._advance()
        depth = 0
        while not self._at_end():
            token = self._current()
            if token.is_punct("{"):
                depth += 1
            elif token.is_punct("}"):
                if depth == 0:
                    self._advance()
                    return
                depth -= 1
            elif depth == 0 and token.is_punct(";"):
                self._advance()
                return
            elif depth == 0 and token.type is TokenType.KEYWORD and token.value in {
                "contract", "interface", "library", "function", "modifier", "event",
                "struct", "enum", "pragma", "import", "if", "for", "while", "return",
            } and self.pos != start_pos:
                return
            self._advance()

    # -- top level -----------------------------------------------------------
    def _parse_top_level_item(self) -> Optional[Node]:
        token = self._current()
        if token.type is TokenType.ERROR:
            self._advance()
            self._error_count += 1
            return None
        if token.is_keyword("pragma"):
            return self._parse_pragma()
        if token.is_keyword("import"):
            return self._parse_import()
        if token.is_keyword("abstract") or token.is_keyword("contract") \
                or token.is_keyword("interface") or token.is_keyword("library"):
            return self._parse_contract()
        if not self.snippet_mode:
            raise self._error("expected contract, interface or library definition")
        # snippet mode: contract parts and statements at top level
        return self._parse_contract_part_or_statement(top_level=True)

    def _parse_pragma(self) -> PragmaDirective:
        start = self._advance()  # pragma
        name = ""
        if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            name = self._advance().value
        value_tokens = []
        while not self._at_end() and not self._check_punct(";"):
            if self._current().preceded_by_newline and self.snippet_mode:
                break
            value_tokens.append(self._advance().value)
        self._match_punct(";")
        node = PragmaDirective(name=name or "solidity", value=" ".join(value_tokens))
        return self._locate(node, start)

    def _parse_import(self) -> ImportDirective:
        start = self._advance()  # import
        path = ""
        symbols: list[str] = []
        while not self._at_end() and not self._check_punct(";"):
            token = self._current()
            if token.preceded_by_newline and self.snippet_mode and path:
                break
            if token.type is TokenType.STRING:
                path = token.value
            elif token.type is TokenType.IDENTIFIER:
                symbols.append(token.value)
            self._advance()
        self._match_punct(";")
        node = ImportDirective(path=path, symbols=symbols)
        return self._locate(node, start)

    # -- contracts -----------------------------------------------------------
    def _parse_contract(self) -> ContractDefinition:
        start = self._current()
        is_abstract = self._match_keyword("abstract")
        kind_token = self._advance()
        kind = kind_token.value if kind_token.value in {"contract", "interface", "library"} else "contract"
        name = ""
        if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            name = self._advance().value
        bases: list[str] = []
        if self._match_keyword("is"):
            while True:
                if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    bases.append(self._advance().value)
                    # optional constructor arguments on the base
                    if self._check_punct("("):
                        self._skip_balanced("(", ")")
                if not self._match_punct(","):
                    break
        contract = ContractDefinition(name=name, kind=kind, base_contracts=bases, is_abstract=is_abstract)
        self._locate(contract, start)
        if not self._match_punct("{"):
            if not self.snippet_mode:
                raise self._error("expected '{' to open contract body")
            self._warn("contract body brace missing; parsing parts until EOF")
        while not self._at_end() and not self._check_punct("}"):
            part_start = self.pos
            try:
                part = self._parse_contract_part_or_statement(top_level=False)
                if part is not None:
                    contract.parts.append(part)
            except SolidityParseError as exc:
                self._error_count += 1
                self.warnings.append(
                    SoliditySyntaxWarning(str(exc), self._current().line, self._current().column)
                )
                self._synchronize(part_start)
        self._match_punct("}")
        contract.code = self._source_span(start)
        return contract

    def _parse_contract_part_or_statement(self, top_level: bool) -> Optional[Node]:
        token = self._current()
        if token.type is TokenType.ERROR:
            self._advance()
            self._error_count += 1
            return None
        if token.is_keyword("function") or token.is_keyword("constructor") \
                or token.is_keyword("fallback") or token.is_keyword("receive"):
            return self._parse_function()
        if token.is_keyword("modifier"):
            return self._parse_modifier()
        if token.is_keyword("event"):
            return self._parse_event()
        if token.is_keyword("error") and self._peek(1).type is TokenType.IDENTIFIER \
                and self._peek(2).is_punct("("):
            return self._parse_error_definition()
        if token.is_keyword("struct"):
            return self._parse_struct()
        if token.is_keyword("enum"):
            return self._parse_enum()
        if token.is_keyword("using"):
            return self._parse_using()
        if token.is_keyword("pragma"):
            return self._parse_pragma()
        if token.is_keyword("import"):
            return self._parse_import()
        if token.is_keyword("contract") or token.is_keyword("interface") or token.is_keyword("library"):
            return self._parse_contract()
        if not top_level and self._looks_like_state_variable():
            return self._parse_state_variable()
        if top_level:
            # snippet mode top level: could be a state variable or a statement
            if self._looks_like_state_variable() and self._is_simple_declaration_line():
                return self._parse_state_variable()
            return self._parse_statement()
        # inside a contract but not a recognised part: tolerate statements
        if self.snippet_mode:
            return self._parse_statement()
        raise self._error("unexpected token in contract body")

    def _is_simple_declaration_line(self) -> bool:
        """Heuristic used at snippet top level to prefer state variables over statements."""
        offset = 0
        depth = 0
        while True:
            token = self._peek(offset)
            if token.type is TokenType.EOF:
                return True
            if token.is_punct("(") or token.is_punct("["):
                depth += 1
            elif token.is_punct(")") or token.is_punct("]"):
                depth -= 1
            elif depth == 0 and token.is_punct(";"):
                return True
            elif depth == 0 and (token.is_punct("{") or token.is_punct("}")):
                return False
            elif token.type is TokenType.KEYWORD and token.value in {"if", "for", "while", "return", "require"}:
                return False
            offset += 1
            if offset > 80:
                return False

    def _looks_like_state_variable(self) -> bool:
        token = self._current()
        if token.is_keyword("mapping"):
            return True
        if token.type is TokenType.IDENTIFIER and is_elementary_type(token.value):
            return self._declaration_follows(1)
        if token.type is TokenType.IDENTIFIER:
            return self._declaration_follows(1)
        return False

    def _declaration_follows(self, offset: int) -> bool:
        """Check whether tokens after a type name look like ``name ... ;`` or ``name = ...``."""
        # skip array suffixes
        while self._peek(offset).is_punct("["):
            depth = 1
            offset += 1
            while depth and self._peek(offset).type is not TokenType.EOF:
                if self._peek(offset).is_punct("["):
                    depth += 1
                elif self._peek(offset).is_punct("]"):
                    depth -= 1
                offset += 1
        # skip visibility / constant keywords
        while self._peek(offset).type is TokenType.KEYWORD and self._peek(offset).value in (
            _VISIBILITIES | {"constant", "immutable", "payable"}
        ):
            offset += 1
        token = self._peek(offset)
        if token.type is not TokenType.IDENTIFIER:
            return False
        nxt = self._peek(offset + 1)
        return nxt.is_punct(";") or nxt.is_op("=") or nxt.type is TokenType.EOF or (
            self.snippet_mode and nxt.preceded_by_newline
        )

    def _parse_state_variable(self) -> StateVariableDeclaration:
        start = self._current()
        type_name = self._parse_type_name()
        visibility = "internal"
        is_constant = False
        is_immutable = False
        while self._current().type is TokenType.KEYWORD:
            word = self._current().value
            if word in _VISIBILITIES:
                visibility = word
                self._advance()
            elif word == "constant":
                is_constant = True
                self._advance()
            elif word == "immutable":
                is_immutable = True
                self._advance()
            elif word in {"override", "virtual", "payable"}:
                self._advance()
            else:
                break
        name = ""
        if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            name = self._advance().value
        initial_value = None
        if self._match_op("="):
            initial_value = self._parse_expression()
        self._expect_statement_end()
        node = StateVariableDeclaration(
            type_name=type_name, name=name, visibility=visibility,
            is_constant=is_constant, is_immutable=is_immutable, initial_value=initial_value,
        )
        return self._locate(node, start)

    def _parse_using(self) -> UsingForDirective:
        start = self._advance()  # using
        library = ""
        if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            library = self._advance().value
        type_name = None
        if self._current().is_identifier("for") or self._current().is_keyword("for"):
            self._advance()
            if self._check_op("*"):
                self._advance()
            else:
                type_name = self._parse_type_name()
        self._expect_statement_end()
        node = UsingForDirective(library_name=library, type_name=type_name)
        return self._locate(node, start)

    def _parse_struct(self) -> StructDefinition:
        start = self._advance()  # struct
        name = self._advance().value if not self._check_punct("{") else ""
        members: list[VariableDeclaration] = []
        if self._match_punct("{"):
            while not self._at_end() and not self._check_punct("}"):
                member_start = self._current()
                try:
                    type_name = self._parse_type_name()
                    member_name = ""
                    if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                        member_name = self._advance().value
                    self._expect_statement_end()
                    member = VariableDeclaration(type_name=type_name, name=member_name)
                    members.append(self._locate(member, member_start))
                except SolidityParseError:
                    self._advance()
            self._match_punct("}")
        node = StructDefinition(name=name, members=members)
        return self._locate(node, start)

    def _parse_enum(self) -> EnumDefinition:
        start = self._advance()  # enum
        name = self._advance().value if not self._check_punct("{") else ""
        members: list[str] = []
        if self._match_punct("{"):
            while not self._at_end() and not self._check_punct("}"):
                if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    members.append(self._advance().value)
                elif not self._match_punct(","):
                    self._advance()
            self._match_punct("}")
        node = EnumDefinition(name=name, members=members)
        return self._locate(node, start)

    def _parse_event(self) -> EventDefinition:
        start = self._advance()  # event
        name = ""
        if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            name = self._advance().value
        parameters = self._parse_parameter_list()
        anonymous = False
        if self._current().is_keyword("anonymous"):
            anonymous = True
            self._advance()
        self._expect_statement_end()
        node = EventDefinition(name=name, parameters=parameters, anonymous=anonymous)
        return self._locate(node, start)

    def _parse_error_definition(self) -> ErrorDefinition:
        start = self._advance()  # error
        name = self._advance().value
        parameters = self._parse_parameter_list()
        self._expect_statement_end()
        node = ErrorDefinition(name=name, parameters=parameters)
        return self._locate(node, start)

    # -- functions and modifiers ----------------------------------------------
    def _parse_function(self) -> FunctionDefinition:
        start = self._current()
        kind_token = self._advance()
        kind = "function"
        name = ""
        if kind_token.value == "constructor":
            kind = "constructor"
        elif kind_token.value == "fallback":
            kind = "fallback"
        elif kind_token.value == "receive":
            kind = "receive"
        else:
            if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD) \
                    and not self._check_punct("("):
                candidate = self._current().value
                if candidate not in _VISIBILITIES and candidate not in _MUTABILITIES:
                    name = self._advance().value
                    if name == "constructor":
                        kind = "constructor"
                        name = ""
        parameters = self._parse_parameter_list() if self._check_punct("(") else []

        visibility = ""
        mutability = ""
        modifiers: list[ModifierInvocation] = []
        return_parameters: list[Parameter] = []
        is_virtual = False
        overrides = False
        while not self._at_end():
            token = self._current()
            if token.type is TokenType.KEYWORD and token.value in _VISIBILITIES:
                visibility = token.value
                self._advance()
            elif token.type is TokenType.KEYWORD and token.value in _MUTABILITIES:
                mutability = token.value
                self._advance()
            elif token.is_keyword("virtual"):
                is_virtual = True
                self._advance()
            elif token.is_keyword("override"):
                overrides = True
                self._advance()
                if self._check_punct("("):
                    self._skip_balanced("(", ")")
            elif token.is_keyword("returns"):
                self._advance()
                return_parameters = self._parse_parameter_list() if self._check_punct("(") else []
            elif token.type is TokenType.IDENTIFIER:
                # a modifier invocation (possibly with arguments)
                mod_start = self._current()
                mod_name = self._advance().value
                arguments: list[Expression] = []
                if self._check_punct("("):
                    arguments = self._parse_call_arguments()[0]
                invocation = ModifierInvocation(name=mod_name, arguments=arguments)
                modifiers.append(self._locate(invocation, mod_start))
            elif token.is_punct("{") or token.is_punct(";"):
                break
            elif self.snippet_mode and (token.preceded_by_newline or token.is_punct("}")):
                break
            else:
                break
        body = None
        if self._check_punct("{"):
            body = self._parse_block()
        else:
            self._match_punct(";")
        node = FunctionDefinition(
            name=name, kind=kind, parameters=parameters,
            return_parameters=return_parameters, visibility=visibility,
            mutability=mutability, modifiers=modifiers, is_virtual=is_virtual,
            overrides=overrides, body=body,
        )
        return self._locate(node, start)

    def _parse_modifier(self) -> ModifierDefinition:
        start = self._advance()  # modifier
        name = ""
        if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            name = self._advance().value
        parameters = self._parse_parameter_list() if self._check_punct("(") else []
        # skip virtual/override
        while self._current().is_keyword("virtual") or self._current().is_keyword("override"):
            self._advance()
        body = None
        if self._check_punct("{"):
            body = self._parse_block()
        else:
            self._match_punct(";")
        node = ModifierDefinition(name=name, parameters=parameters, body=body)
        return self._locate(node, start)

    def _parse_parameter_list(self) -> list[Parameter]:
        parameters: list[Parameter] = []
        if not self._match_punct("("):
            return parameters
        while not self._at_end() and not self._check_punct(")"):
            param_start = self._current()
            try:
                type_name = self._parse_type_name()
            except SolidityParseError:
                self._advance()
                continue
            storage = ""
            indexed = False
            name = ""
            while self._current().type is TokenType.KEYWORD and self._current().value in (
                _STORAGE_LOCATIONS | {"indexed", "payable"}
            ):
                word = self._advance().value
                if word in _STORAGE_LOCATIONS:
                    storage = word
                elif word == "indexed":
                    indexed = True
            if self._current().type is TokenType.IDENTIFIER:
                name = self._advance().value
            parameter = Parameter(type_name=type_name, name=name, storage_location=storage, indexed=indexed)
            parameters.append(self._locate(parameter, param_start))
            if not self._match_punct(","):
                break
        self._match_punct(")")
        return parameters

    def _skip_balanced(self, open_char: str, close_char: str) -> None:
        if not self._match_punct(open_char):
            return
        depth = 1
        while depth and not self._at_end():
            if self._check_punct(open_char):
                depth += 1
            elif self._check_punct(close_char):
                depth -= 1
            self._advance()

    # -- types -----------------------------------------------------------------
    def _parse_type_name(self) -> TypeName:
        start = self._current()
        base: TypeName
        if self._check_keyword("mapping"):
            self._advance()
            self._expect_punct("(")
            key_type = self._parse_type_name()
            if not self._match_op("=>"):
                # tolerate '=>' written as '=' '>' or missing
                self._match_op("=")
                self._match_op(">")
            value_type = self._parse_type_name()
            self._match_punct(")")
            base = MappingTypeName(name="mapping", key_type=key_type, value_type=value_type)
        elif self._check_keyword("function"):
            self._advance()
            params = self._parse_parameter_list() if self._check_punct("(") else []
            returns: list[Parameter] = []
            while self._current().type is TokenType.KEYWORD and self._current().value in (
                _VISIBILITIES | _MUTABILITIES
            ):
                self._advance()
            if self._match_keyword("returns"):
                returns = self._parse_parameter_list()
            base = FunctionTypeName(name="function", parameters=params, return_parameters=returns)
        else:
            token = self._current()
            if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                raise self._error("expected a type name")
            name = self._advance().value
            # qualified names: Library.Struct
            while self._check_punct(".") and self._peek(1).type is TokenType.IDENTIFIER:
                self._advance()
                name += "." + self._advance().value
            if is_elementary_type(name):
                base = ElementaryTypeName(name=name)
            else:
                base = UserDefinedTypeName(name=name)
        self._locate(base, start)
        # array suffixes
        while self._check_punct("["):
            self._advance()
            length = None
            if not self._check_punct("]"):
                length = self._parse_expression()
            self._match_punct("]")
            base = ArrayTypeName(name=base.name + "[]", base_type=base, length=length)
            self._locate(base, start)
        return base

    # -- statements --------------------------------------------------------------
    def _parse_block(self, unchecked: bool = False) -> Block:
        start = self._current()
        self._expect_punct("{")
        block = Block(unchecked=unchecked)
        while not self._at_end() and not self._check_punct("}"):
            stmt_start = self.pos
            try:
                statement = self._parse_statement()
                if statement is not None:
                    block.statements.append(statement)
            except SolidityParseError as exc:
                self._error_count += 1
                self.warnings.append(
                    SoliditySyntaxWarning(str(exc), self._current().line, self._current().column)
                )
                self._synchronize_statement(stmt_start)
        self._match_punct("}")
        return self._locate(block, start)

    def _synchronize_statement(self, start_pos: int) -> None:
        if self.pos == start_pos:
            self._advance()
        depth = 0
        while not self._at_end():
            token = self._current()
            if token.is_punct("{"):
                depth += 1
            elif token.is_punct("}"):
                if depth == 0:
                    return
                depth -= 1
            elif token.is_punct(";") and depth == 0:
                self._advance()
                return
            self._advance()

    def _parse_statement(self) -> Optional[Statement]:
        token = self._current()
        if token.type is TokenType.ERROR:
            self._advance()
            self._error_count += 1
            return None
        if token.is_punct(";"):
            self._advance()
            return None
        if token.is_punct("{"):
            return self._parse_block()
        if token.is_keyword("unchecked"):
            self._advance()
            return self._parse_block(unchecked=True)
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            return self._parse_return()
        if token.is_keyword("emit"):
            return self._parse_emit()
        if token.is_keyword("throw"):
            start = self._advance()
            self._expect_statement_end()
            return self._locate(ThrowStatement(), start)
        if token.is_keyword("break"):
            start = self._advance()
            self._expect_statement_end()
            return self._locate(BreakStatement(), start)
        if token.is_keyword("continue"):
            start = self._advance()
            self._expect_statement_end()
            return self._locate(ContinueStatement(), start)
        if token.is_keyword("assembly"):
            return self._parse_assembly()
        if token.is_keyword("try"):
            return self._parse_try()
        if token.is_identifier("_") and (self._peek(1).is_punct(";") or self._peek(1).type is TokenType.EOF
                                         or self._peek(1).preceded_by_newline or self._peek(1).is_punct("}")):
            start = self._advance()
            self._expect_statement_end()
            return self._locate(PlaceholderStatement(), start)
        if token.is_identifier("revert") and self._peek(1).is_punct("("):
            return self._parse_revert()
        # nested declarations that can show up inside snippet bodies
        if token.is_keyword("function") or token.is_keyword("constructor") or token.is_keyword("modifier"):
            # snippets sometimes paste a function inside another body; tolerate
            if self.snippet_mode:
                nested = self._parse_contract_part_or_statement(top_level=False)
                wrapper = UnparsedStatement(text=getattr(nested, "code", ""))
                wrapper.line, wrapper.column = nested.line, nested.column
                wrapper.code = nested.code
                # carry the declaration through so the CPG can still see it
                wrapper.declaration = nested  # type: ignore[attr-defined]
                return wrapper
            raise self._error("nested function definitions are not allowed")
        if self._looks_like_local_declaration():
            return self._parse_variable_declaration_statement()
        return self._parse_expression_statement()

    def _looks_like_local_declaration(self) -> bool:
        token = self._current()
        if token.is_keyword("mapping") or token.is_keyword("var"):
            return True
        if token.is_punct("(") :
            return False
        if token.type is not TokenType.IDENTIFIER and token.type is not TokenType.KEYWORD:
            return False
        if token.type is TokenType.KEYWORD and token.value not in {"var"}:
            return False
        name = token.value
        offset = 1
        # skip array suffix
        while self._peek(offset).is_punct("["):
            depth = 1
            offset += 1
            while depth and self._peek(offset).type is not TokenType.EOF:
                if self._peek(offset).is_punct("["):
                    depth += 1
                elif self._peek(offset).is_punct("]"):
                    depth -= 1
                offset += 1
        nxt = self._peek(offset)
        if is_elementary_type(name):
            return nxt.type is TokenType.IDENTIFIER or (
                nxt.type is TokenType.KEYWORD and nxt.value in _STORAGE_LOCATIONS
            )
        # user defined type: require "Type name" or "Type storage name"
        if nxt.type is TokenType.KEYWORD and nxt.value in _STORAGE_LOCATIONS:
            return True
        if nxt.type is TokenType.IDENTIFIER:
            after = self._peek(offset + 1)
            return after.is_op("=") or after.is_punct(";") or after.type is TokenType.EOF or (
                self.snippet_mode and after.preceded_by_newline
            )
        return False

    def _parse_variable_declaration_statement(self) -> VariableDeclarationStatement:
        start = self._current()
        if self._check_keyword("var"):
            self._advance()
            type_name: Optional[TypeName] = ElementaryTypeName(name="var")
        else:
            type_name = self._parse_type_name()
        storage = ""
        while self._current().type is TokenType.KEYWORD and self._current().value in _STORAGE_LOCATIONS:
            storage = self._advance().value
        name = ""
        if self._current().type is TokenType.IDENTIFIER:
            name = self._advance().value
        declaration = VariableDeclaration(type_name=type_name, name=name, storage_location=storage)
        self._locate(declaration, start)
        initial_value = None
        if self._match_op("="):
            initial_value = self._parse_expression()
        self._expect_statement_end()
        node = VariableDeclarationStatement(declarations=[declaration], initial_value=initial_value)
        return self._locate(node, start)

    def _parse_if(self) -> IfStatement:
        start = self._advance()  # if
        self._match_punct("(")
        condition = self._parse_expression()
        self._match_punct(")")
        true_body = self._parse_statement()
        false_body = None
        if self._match_keyword("else"):
            false_body = self._parse_statement()
        node = IfStatement(condition=condition, true_body=true_body, false_body=false_body)
        return self._locate(node, start)

    def _parse_while(self) -> WhileStatement:
        start = self._advance()  # while
        self._match_punct("(")
        condition = self._parse_expression()
        self._match_punct(")")
        body = self._parse_statement()
        node = WhileStatement(condition=condition, body=body)
        return self._locate(node, start)

    def _parse_do_while(self) -> DoWhileStatement:
        start = self._advance()  # do
        body = self._parse_statement()
        condition = None
        if self._match_keyword("while"):
            self._match_punct("(")
            condition = self._parse_expression()
            self._match_punct(")")
        self._expect_statement_end()
        node = DoWhileStatement(condition=condition, body=body)
        return self._locate(node, start)

    def _parse_for(self) -> ForStatement:
        start = self._advance()  # for
        self._match_punct("(")
        init: Optional[Statement] = None
        if not self._check_punct(";"):
            if self._looks_like_local_declaration():
                init = self._parse_for_init_declaration()
            else:
                expr = self._parse_expression()
                init = ExpressionStatement(expression=expr, line=expr.line, column=expr.column, code=expr.code)
        self._match_punct(";")
        condition = None
        if not self._check_punct(";"):
            condition = self._parse_expression()
        self._match_punct(";")
        update = None
        if not self._check_punct(")"):
            update = self._parse_expression()
        self._match_punct(")")
        body = self._parse_statement()
        node = ForStatement(init=init, condition=condition, update=update, body=body)
        return self._locate(node, start)

    def _parse_for_init_declaration(self) -> VariableDeclarationStatement:
        """Like :meth:`_parse_variable_declaration_statement` but stops before ``;``."""
        start = self._current()
        if self._check_keyword("var"):
            self._advance()
            type_name: Optional[TypeName] = ElementaryTypeName(name="var")
        else:
            type_name = self._parse_type_name()
        storage = ""
        while self._current().type is TokenType.KEYWORD and self._current().value in _STORAGE_LOCATIONS:
            storage = self._advance().value
        name = ""
        if self._current().type is TokenType.IDENTIFIER:
            name = self._advance().value
        declaration = VariableDeclaration(type_name=type_name, name=name, storage_location=storage)
        self._locate(declaration, start)
        initial_value = None
        if self._match_op("="):
            initial_value = self._parse_expression()
        node = VariableDeclarationStatement(declarations=[declaration], initial_value=initial_value)
        return self._locate(node, start)

    def _parse_return(self) -> ReturnStatement:
        start = self._advance()  # return
        expression = None
        if not self._check_punct(";") and not self._check_punct("}") and not self._at_end() \
                and not (self.snippet_mode and self._current().preceded_by_newline):
            expression = self._parse_expression()
        self._expect_statement_end()
        node = ReturnStatement(expression=expression)
        return self._locate(node, start)

    def _parse_emit(self) -> EmitStatement:
        start = self._advance()  # emit
        expression = self._parse_expression()
        self._expect_statement_end()
        call = expression if isinstance(expression, FunctionCall) else FunctionCall(
            callee=expression, line=expression.line, column=expression.column, code=expression.code,
        )
        node = EmitStatement(call=call)
        return self._locate(node, start)

    def _parse_revert(self) -> RevertStatement:
        start = self._current()
        expression = self._parse_expression()
        self._expect_statement_end()
        call = expression if isinstance(expression, FunctionCall) else FunctionCall(
            callee=expression, line=expression.line, column=expression.column, code=expression.code,
        )
        node = RevertStatement(call=call)
        return self._locate(node, start)

    def _parse_assembly(self) -> InlineAssemblyStatement:
        start = self._advance()  # assembly
        if self._current().type is TokenType.STRING:
            self._advance()
        body_tokens: list[str] = []
        if self._check_punct("{"):
            depth = 0
            while not self._at_end():
                token = self._current()
                if token.is_punct("{"):
                    depth += 1
                elif token.is_punct("}"):
                    depth -= 1
                    if depth == 0:
                        self._advance()
                        break
                body_tokens.append(token.value)
                self._advance()
        node = InlineAssemblyStatement(body_text=" ".join(body_tokens))
        return self._locate(node, start)

    def _parse_try(self) -> TryStatement:
        start = self._advance()  # try
        expression = self._parse_expression()
        if self._match_keyword("returns"):
            self._parse_parameter_list()
        body = self._parse_block() if self._check_punct("{") else Block()
        catch_bodies: list[Block] = []
        while self._match_keyword("catch"):
            if self._current().type is TokenType.IDENTIFIER:
                self._advance()
            if self._check_punct("("):
                self._parse_parameter_list()
            if self._check_punct("{"):
                catch_bodies.append(self._parse_block())
        node = TryStatement(expression=expression, body=body, catch_bodies=catch_bodies)
        return self._locate(node, start)

    def _parse_expression_statement(self) -> ExpressionStatement:
        start = self._current()
        expression = self._parse_expression()
        self._expect_statement_end()
        node = ExpressionStatement(expression=expression)
        return self._locate(node, start)

    # -- expressions ----------------------------------------------------------------
    def _parse_expression(self) -> Expression:
        return self._parse_assignment_expression()

    def _parse_assignment_expression(self) -> Expression:
        left = self._parse_conditional()
        token = self._current()
        if token.type is TokenType.OPERATOR and token.value in _ASSIGNMENT_OPERATORS:
            start = self._advance()
            right = self._parse_assignment_expression()
            node = Assignment(operator=start.value, left=left, right=right)
            node.line, node.column = left.line, left.column
            node.code = f"{left.code} {start.value} {right.code}".strip()
            return node
        return left

    def _parse_conditional(self) -> Expression:
        condition = self._parse_binary(0)
        if self._check_op("?"):
            self._advance()
            true_expression = self._parse_expression()
            self._match_punct(":")
            false_expression = self._parse_expression()
            node = Conditional(
                condition=condition, true_expression=true_expression, false_expression=false_expression,
            )
            node.line, node.column, node.code = condition.line, condition.column, condition.code
            return node
        return condition

    def _parse_binary(self, min_precedence: int) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._current()
            if token.type is not TokenType.OPERATOR:
                break
            precedence = _BINARY_PRECEDENCE.get(token.value)
            if precedence is None or precedence < min_precedence:
                break
            operator = self._advance().value
            right = self._parse_binary(precedence + 1)
            node = BinaryOperation(operator=operator, left=left, right=right)
            node.line, node.column = left.line, left.column
            node.code = f"{left.code} {operator} {right.code}".strip()
            left = node
        return left

    def _parse_unary(self) -> Expression:
        token = self._current()
        if token.type is TokenType.OPERATOR and token.value in {"!", "-", "+", "~", "++", "--"}:
            start = self._advance()
            operand = self._parse_unary()
            node = UnaryOperation(operator=start.value, operand=operand, prefix=True)
            node.line, node.column = start.line, start.column
            node.code = f"{start.value}{operand.code}"
            return node
        if token.is_keyword("delete"):
            start = self._advance()
            operand = self._parse_unary()
            node = UnaryOperation(operator="delete", operand=operand, prefix=True)
            node.line, node.column = start.line, start.column
            node.code = f"delete {operand.code}"
            return node
        if token.is_keyword("new"):
            start = self._advance()
            type_name = self._parse_type_name()
            node = NewExpression(type_name=type_name)
            self._locate(node, start)
            node.code = f"new {type_name.name}"
            return self._parse_postfix(node)
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, expression: Expression) -> Expression:
        while True:
            token = self._current()
            if token.is_punct("."):
                self._advance()
                member = ""
                if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    member = self._advance().value
                node = MemberAccess(base=expression, member=member)
                node.line, node.column = expression.line, expression.column
                node.code = f"{expression.code}.{member}"
                expression = node
            elif token.is_punct("["):
                self._advance()
                index = None
                if not self._check_punct("]"):
                    index = self._parse_expression()
                self._match_punct("]")
                node = IndexAccess(base=expression, index=index)
                node.line, node.column = expression.line, expression.column
                index_code = index.code if index is not None else ""
                node.code = f"{expression.code}[{index_code}]"
                expression = node
            elif token.is_punct("{") and self._looks_like_call_options():
                options = self._parse_call_options()
                if self._check_punct("("):
                    arguments, names = self._parse_call_arguments()
                else:
                    arguments, names = [], []
                node = FunctionCall(
                    callee=expression, arguments=arguments, argument_names=names, call_options=options,
                )
                node.line, node.column = expression.line, expression.column
                node.code = f"{expression.code}{{...}}(...)"
                expression = node
            elif token.is_punct("("):
                arguments, names = self._parse_call_arguments()
                node = FunctionCall(callee=expression, arguments=arguments, argument_names=names)
                node.line, node.column = expression.line, expression.column
                argument_code = ", ".join(a.code for a in arguments)
                node.code = f"{expression.code}({argument_code})"
                expression = node
            elif token.type is TokenType.OPERATOR and token.value in {"++", "--"}:
                self._advance()
                node = UnaryOperation(operator=token.value, operand=expression, prefix=False)
                node.line, node.column = expression.line, expression.column
                node.code = f"{expression.code}{token.value}"
                expression = node
            else:
                break
        return expression

    def _looks_like_call_options(self) -> bool:
        """Distinguish ``call{value: x}(...)`` from a block statement."""
        if not self._check_punct("{"):
            return False
        offset = 1
        token = self._peek(offset)
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            return False
        if token.value not in {"value", "gas", "salt"}:
            return False
        return self._peek(offset + 1).is_punct(":")

    def _parse_call_options(self) -> dict[str, Expression]:
        options: dict[str, Expression] = {}
        self._expect_punct("{")
        while not self._at_end() and not self._check_punct("}"):
            if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                key = self._advance().value
                self._match_punct(":")
                options[key] = self._parse_expression()
            if not self._match_punct(","):
                break
        self._match_punct("}")
        return options

    def _parse_call_arguments(self) -> tuple[list[Expression], list[str]]:
        arguments: list[Expression] = []
        names: list[str] = []
        self._expect_punct("(")
        if self._check_punct("{"):
            # named arguments: f({a: 1, b: 2})
            self._advance()
            while not self._at_end() and not self._check_punct("}"):
                if self._current().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    names.append(self._advance().value)
                    self._match_punct(":")
                    arguments.append(self._parse_expression())
                if not self._match_punct(","):
                    break
            self._match_punct("}")
        else:
            while not self._at_end() and not self._check_punct(")"):
                arguments.append(self._parse_expression())
                names.append("")
                if not self._match_punct(","):
                    break
        self._match_punct(")")
        return arguments, names

    def _parse_primary(self) -> Expression:
        token = self._current()
        if token.type is TokenType.NUMBER or token.type is TokenType.HEX_LITERAL:
            self._advance()
            unit = ""
            nxt = self._current()
            if nxt.type is TokenType.IDENTIFIER and nxt.value in _UNITS:
                unit = self._advance().value
            node = NumberLiteral(value=token.value, unit=unit)
            node.line, node.column = token.line, token.column
            node.code = token.value + ((" " + unit) if unit else "")
            return node
        if token.type is TokenType.STRING:
            self._advance()
            node = StringLiteral(value=token.value)
            node.line, node.column = token.line, token.column
            node.code = f'"{token.value}"'
            return node
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            node = BoolLiteral(value=token.value == "true")
            node.line, node.column = token.line, token.column
            node.code = token.value
            return node
        if token.is_punct("("):
            start = self._advance()
            components: list[Optional[Expression]] = []
            while not self._at_end() and not self._check_punct(")"):
                if self._check_punct(","):
                    components.append(None)
                    self._advance()
                    continue
                # tuple destructuring declarations: ``(bool ok, ) = ...`` —
                # skip the type token and keep the declared name as reference
                current = self._current()
                nxt = self._peek(1)
                if current.type in (TokenType.IDENTIFIER, TokenType.KEYWORD) \
                        and is_elementary_type(current.value) \
                        and nxt.type is TokenType.IDENTIFIER:
                    self._advance()
                components.append(self._parse_expression())
                if not self._match_punct(","):
                    break
            self._match_punct(")")
            if len(components) == 1 and components[0] is not None:
                return components[0]
            node = TupleExpression(components=components)
            node.line, node.column = start.line, start.column
            node.code = "(" + ", ".join(c.code if c else "" for c in components) + ")"
            return node
        if token.is_punct("["):
            start = self._advance()
            elements: list[Optional[Expression]] = []
            while not self._at_end() and not self._check_punct("]"):
                elements.append(self._parse_expression())
                if not self._match_punct(","):
                    break
            self._match_punct("]")
            node = TupleExpression(components=elements)
            node.line, node.column = start.line, start.column
            node.code = "[" + ", ".join(e.code if e else "" for e in elements) + "]"
            return node
        if token.type is TokenType.IDENTIFIER and is_elementary_type(token.value) \
                and self._peek(1).is_punct("("):
            self._advance()
            type_expr = ElementaryTypeNameExpression(type_name=ElementaryTypeName(name=token.value))
            type_expr.line, type_expr.column, type_expr.code = token.line, token.column, token.value
            return type_expr
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            # keywords usable as expressions: this, payable(..), type(..), etc.
            self._advance()
            node = Identifier(name=token.value)
            node.line, node.column = token.line, token.column
            node.code = token.value
            return node
        raise self._error("expected an expression")


def parse(source: str, snippet_mode: bool = False) -> SourceUnit:
    """Parse a complete Solidity source file (or snippet when requested)."""
    return Parser(source, snippet_mode=snippet_mode).parse()


def parse_snippet(source: str, tokens: Optional[list[Token]] = None) -> SourceUnit:
    """Parse an incomplete Solidity snippet using the modified grammar rules.

    ``tokens`` is ``tokenize(source)`` when the caller has lexed it already.
    """
    return Parser(source, snippet_mode=True, tokens=tokens).parse()
