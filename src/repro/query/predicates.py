"""Reusable graph sub-patterns shared by the vulnerability queries.

These helpers correspond to the recurring fragments of the paper's Cypher
queries in Appendix B: identifying external calls and ether transfers,
finding the enclosing function of a node, recognising access-control
guards, rollback reachability, and attacker-controllability of values.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cpg.graph import EdgeLabel
from repro.cpg.nodes import CPGNode
from repro.query.engine import QueryContext

#: Built-in global objects whose members never resolve to declarations.
BUILTIN_BASES = {"msg", "tx", "block", "abi", "this", "super", "address", "payable", "type"}

#: Well-known pure/builtin call names that never call another contract.
BUILTIN_CALLS = {
    "require", "assert", "revert", "keccak256", "sha256", "sha3", "ripemd160",
    "ecrecover", "addmod", "mulmod", "gasleft", "blockhash", "selfdestruct",
    "suicide", "push", "pop", "address", "payable", "uint", "uint256", "int",
    "bytes", "bytes32", "string", "bool", "encode", "encodePacked",
    "encodeWithSelector", "encodeWithSignature", "decode", "balanceOf", "type",
}


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------


def enclosing_function(ctx: QueryContext, node: CPGNode) -> Optional[CPGNode]:
    """The FunctionDeclaration whose body contains ``node`` (via AST edges)."""
    current = node
    graph = ctx.graph
    seen = set()
    while current is not None and current.id not in seen:
        seen.add(current.id)
        if current.has_label("FunctionDeclaration"):
            return current
        current = graph.ast_parent(current)
    return None


def record_of(ctx: QueryContext, function: CPGNode) -> Optional[CPGNode]:
    """The RecordDeclaration (contract) a function belongs to."""
    records = ctx.graph.successors(function, EdgeLabel.RECORD_DECLARATION)
    if records:
        return records[0]
    return ctx.graph.ast_parent(function)


def functions(ctx: QueryContext, include_constructors: bool = False,
              include_internal: bool = True) -> list[CPGNode]:
    """All analysable function declarations in the graph."""
    result = []
    for function in ctx.graph.nodes_by_label("FunctionDeclaration"):
        if function.has_label("ModifierDeclaration"):
            continue
        if not include_constructors and function.has_label("ConstructorDeclaration"):
            continue
        if not include_internal and getattr(function, "visibility", "") in {"internal", "private"}:
            continue
        result.append(function)
    return result


def parameters_of(ctx: QueryContext, function: CPGNode) -> list[CPGNode]:
    params = ctx.graph.successors(function, EdgeLabel.PARAMETERS)
    return sorted(params, key=lambda parameter: getattr(parameter, "index", 0))


def body_nodes(ctx: QueryContext, function: CPGNode) -> list[CPGNode]:
    """All AST nodes inside the (modifier-expanded) body of ``function``."""
    result: list[CPGNode] = []
    for body in ctx.graph.successors(function, EdgeLabel.BODY):
        result.extend(ctx.graph.ast_descendants(body))
    return result


# ---------------------------------------------------------------------------
# Calls and ether transfers
# ---------------------------------------------------------------------------


def calls_in(ctx: QueryContext, function: CPGNode) -> list[CPGNode]:
    return [node for node in body_nodes(ctx, function)
            if node.has_label("CallExpression") and not node.has_label("Rollback")]


def call_base(ctx: QueryContext, call: CPGNode) -> Optional[CPGNode]:
    """The base expression the call is performed on (``x`` in ``x.call(...)``)."""
    for callee in ctx.graph.successors(call, EdgeLabel.CALLEE):
        bases = ctx.graph.successors(callee, EdgeLabel.BASE)
        if bases:
            return bases[0]
    bases = ctx.graph.successors(call, EdgeLabel.BASE)
    return bases[0] if bases else None


def base_chain_names(ctx: QueryContext, call: CPGNode) -> list[str]:
    """Local names along the BASE/CALLEE chain of a call (``a.b.c()`` -> [c, b, a])."""
    names: list[str] = []
    stack = [call]
    seen = set()
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        if node is not call and node.local_name:
            names.append(node.local_name)
        stack.extend(ctx.graph.successors(node, EdgeLabel.CALLEE))
        stack.extend(ctx.graph.successors(node, EdgeLabel.BASE))
    return names


def is_low_level_call(call: CPGNode) -> bool:
    return call.local_name.lower() in {"call", "callcode", "delegatecall", "send"}


def is_ether_transfer(ctx: QueryContext, call: CPGNode) -> bool:
    """A call that moves ether: ``transfer``/``send``/``call{value: ..}``/``call.value(..)``."""
    name = call.local_name
    if name in {"transfer", "send"}:
        return True
    if name == "value":
        return "call" in base_chain_names(ctx, call)
    if name == "call":
        if ctx.graph.successors(call, EdgeLabel.SPECIFIERS):
            return True
        # ``addr.call.value(x)()`` puts the value() call deeper in the chain
        return "value" in base_chain_names(ctx, call)
    return False


def is_external_call(ctx: QueryContext, call: CPGNode) -> bool:
    """A call that may hand over control to another contract."""
    name = call.local_name
    if name in {"transfer", "send", "call", "callcode", "delegatecall", "staticcall", "value", "gas"}:
        return True
    if name in BUILTIN_CALLS:
        return False
    # a member call on something that is not a built-in global is treated as
    # a potential external call when it does not resolve to a local function
    if ctx.graph.successors(call, EdgeLabel.INVOKES):
        return False
    base = call_base(ctx, call)
    if base is None:
        return False
    root = base
    while True:
        deeper = ctx.graph.successors(root, EdgeLabel.BASE)
        if not deeper:
            break
        root = deeper[0]
    if root.local_name in BUILTIN_BASES:
        return root.local_name in {"msg", "tx"} and call.local_name not in BUILTIN_CALLS
    return True


def call_value_expressions(ctx: QueryContext, call: CPGNode) -> list[CPGNode]:
    """Expressions providing the ether value of a transferring call."""
    name = call.local_name
    values: list[CPGNode] = []
    if name in {"transfer", "send", "value"}:
        values.extend(ctx.graph.successors(call, EdgeLabel.ARGUMENTS))
    if name in {"value", "call"} and not values:
        # old-style ``addr.call.value(x)()``: the amount sits on the inner
        # ``value(..)`` call in the callee chain
        stack = list(ctx.graph.successors(call, EdgeLabel.CALLEE))
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node.id in seen:
                continue
            seen.add(node.id)
            if node.has_label("CallExpression") and node.local_name == "value":
                values.extend(ctx.graph.successors(node, EdgeLabel.ARGUMENTS))
            stack.extend(ctx.graph.successors(node, EdgeLabel.CALLEE))
            stack.extend(ctx.graph.successors(node, EdgeLabel.BASE))
    for specifier in ctx.graph.successors(call, EdgeLabel.SPECIFIERS):
        for pair in ctx.graph.ast_children(specifier):
            if getattr(pair, "key", "") == "value":
                values.extend(ctx.graph.successors(pair, EdgeLabel.VALUE))
    return values


# ---------------------------------------------------------------------------
# Sources: msg.sender, msg.data, block values, parameters
# ---------------------------------------------------------------------------


def msg_sender_nodes(ctx: QueryContext) -> list[CPGNode]:
    return [node for node in ctx.graph.nodes_by_label("MemberExpression") if node.code == "msg.sender"]


def msg_data_nodes(ctx: QueryContext) -> list[CPGNode]:
    return [node for node in ctx.graph.nodes_by_label("MemberExpression")
            if node.code in {"msg.data", "msg.data.length"}]


def block_attribute_nodes(ctx: QueryContext) -> list[CPGNode]:
    """References to miner-controlled block attributes (Listing 7)."""
    interesting_codes = {"block.timestamp", "block.number", "block.difficulty",
                         "block.coinbase", "block.prevrandao", "now"}
    result = [node for node in ctx.graph.nodes
              if node.code in interesting_codes
              and (node.has_label("MemberExpression") or node.has_label("DeclaredReferenceExpression"))]
    result.extend(call for call in ctx.graph.nodes_by_label("CallExpression")
                  if call.local_name == "blockhash")
    return result


def timestamp_nodes(ctx: QueryContext) -> list[CPGNode]:
    """References to ``now``/``block.timestamp`` (Listing 18)."""
    return [node for node in ctx.graph.nodes
            if node.code in {"now", "block.timestamp"}
            and (node.has_label("MemberExpression") or node.has_label("DeclaredReferenceExpression"))]


def flows_from_any(ctx: QueryContext, sources: Iterable[CPGNode], target: CPGNode) -> bool:
    return any(ctx.flows_to(source, target, EdgeLabel.DFG) for source in sources)


def influenced_by_parameter(ctx: QueryContext, node: CPGNode, function: Optional[CPGNode] = None) -> bool:
    """Whether a value is (transitively) influenced by a function parameter."""
    for source in ctx.flow_sources(node, EdgeLabel.DFG, include_start=True):
        if source.has_label("ParamVariableDeclaration"):
            if function is None:
                return True
            if source in parameters_of(ctx, function):
                return True
            enclosing = enclosing_parameter_function(ctx, source)
            if enclosing is not None and not enclosing.has_label("ConstructorDeclaration"):
                return True
    return False


def enclosing_parameter_function(ctx: QueryContext, parameter: CPGNode) -> Optional[CPGNode]:
    for function in ctx.graph.predecessors(parameter, EdgeLabel.PARAMETERS):
        return function
    return ctx.graph.ast_parent(parameter)


# ---------------------------------------------------------------------------
# Rollback / guard patterns (the "mitigations" of Section 4.3)
# ---------------------------------------------------------------------------


def rollbacks_in(ctx: QueryContext, function: CPGNode) -> list[CPGNode]:
    return [node for node in body_nodes(ctx, function) if node.has_label("Rollback")]


def guard_nodes_in(ctx: QueryContext, function: CPGNode) -> list[CPGNode]:
    """Branching nodes that can prevent execution: require/assert calls and ifs
    with a reverting branch."""
    guards = []
    for node in body_nodes(ctx, function):
        if node.has_label("CallExpression") and node.properties.get("reverting"):
            guards.append(node)
        elif node.has_label("IfStatement"):
            guards.append(node)
    return guards


def guard_condition_sources(ctx: QueryContext, guard: CPGNode) -> list[CPGNode]:
    """The DFG sources feeding a guard's condition."""
    conditions: list[CPGNode] = []
    if guard.has_label("IfStatement"):
        conditions = ctx.graph.successors(guard, EdgeLabel.CONDITION)
    elif guard.has_label("CallExpression"):
        conditions = ctx.graph.successors(guard, EdgeLabel.ARGUMENTS)[:1]
    sources: list[CPGNode] = []
    for condition in conditions:
        sources.extend(ctx.flow_sources(condition, EdgeLabel.DFG, include_start=True))
    return sources


def guard_dominates(ctx: QueryContext, function: CPGNode, guard: CPGNode, target: CPGNode) -> bool:
    """Approximate dominance: the guard appears before ``target`` on the EOG."""
    return ctx.eog_reaches(function, guard) and ctx.eog_reaches(guard, target)


def is_access_controlled(ctx: QueryContext, function: CPGNode, target: CPGNode) -> bool:
    """Does an access-control check protect ``target`` inside ``function``?

    The check recognises the common patterns the paper lists as mitigations:
    an equality comparison between ``msg.sender``/``tx.origin`` and
    persisted state (``require(msg.sender == owner)``, directly or via an
    expanded modifier) appearing before the sensitive operation.  Mere
    balance checks such as ``require(balances[msg.sender] >= x)`` do not
    count as access control.
    """
    for guard in guard_nodes_in(ctx, function):
        if not guard_dominates(ctx, function, guard, target):
            continue
        for source in guard_condition_sources(ctx, guard):
            if not source.has_label("BinaryOperator"):
                continue
            if getattr(source, "operator_code", "") not in {"==", "!="}:
                continue
            sides = ctx.graph.successors(source, EdgeLabel.LHS) + ctx.graph.successors(source, EdgeLabel.RHS)
            has_sender = any(side.code in {"msg.sender", "tx.origin"} for side in sides)
            if not has_sender:
                continue
            for side in sides:
                if side.code in {"msg.sender", "tx.origin"}:
                    continue
                side_sources = ctx.flow_sources(side, EdgeLabel.DFG, include_start=True)
                if any(node.has_label("FieldDeclaration") or node.has_label("Literal")
                       or (node.has_label("CallExpression") and node.local_name in
                           {"ecrecover", "owner", "hasRole", "isOwner", "getOwner"})
                       for node in side_sources):
                    return True
    return False


def has_guard_depending_on(
    ctx: QueryContext, function: CPGNode, target: CPGNode, sources: Iterable[CPGNode]
) -> bool:
    """A guard before ``target`` whose condition depends on any of ``sources``."""
    source_list = list(sources)
    for guard in guard_nodes_in(ctx, function):
        if not guard_dominates(ctx, function, guard, target):
            continue
        condition_sources = {node.id for node in guard_condition_sources(ctx, guard)}
        if any(source.id in condition_sources for source in source_list):
            return True
    return False


def writes_to_field(ctx: QueryContext, node: CPGNode) -> list[CPGNode]:
    """Fields written (via DFG) by an assignment/unary node."""
    result = []
    for target in ctx.flow_targets(node, EdgeLabel.DFG):
        if target.has_label("FieldDeclaration"):
            result.append(target)
    return result


def state_writes_in(ctx: QueryContext, function: CPGNode) -> list[tuple[CPGNode, CPGNode]]:
    """(write-node, field) pairs for all state writes inside ``function``."""
    result = []
    for node in body_nodes(ctx, function):
        if node.has_label("BinaryOperator") and getattr(node, "operator_code", "") in {
            "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="
        }:
            for lhs in ctx.graph.successors(node, EdgeLabel.LHS):
                for field in field_targets_of_reference(ctx, lhs):
                    result.append((node, field))
        elif node.has_label("UnaryOperator") and getattr(node, "operator_code", "") in {"++", "--", "delete"}:
            for operand in ctx.graph.successors(node, EdgeLabel.INPUT):
                for field in field_targets_of_reference(ctx, operand):
                    result.append((node, field))
    return result


def field_targets_of_reference(ctx: QueryContext, reference: CPGNode) -> list[CPGNode]:
    """Fields a (possibly nested) assignment target refers to."""
    result = []
    stack = [reference]
    seen = set()
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        for declaration in ctx.graph.successors(node, EdgeLabel.REFERS_TO):
            if declaration.has_label("FieldDeclaration"):
                result.append(declaration)
        stack.extend(ctx.graph.successors(node, EdgeLabel.BASE))
    return result


def fields_compared_to_sender(ctx: QueryContext) -> list[CPGNode]:
    """Fields that are compared against ``msg.sender`` anywhere in the unit.

    Such fields are treated as access-control state (Listing 3).
    """
    result = []
    for operator in ctx.graph.nodes_by_label("BinaryOperator"):
        if getattr(operator, "operator_code", "") not in {"==", "!="}:
            continue
        sides = ctx.graph.successors(operator, EdgeLabel.LHS) + ctx.graph.successors(operator, EdgeLabel.RHS)
        has_sender = any(side.code in {"msg.sender", "tx.origin"} for side in sides)
        if not has_sender:
            continue
        for side in sides:
            if side.code in {"msg.sender", "tx.origin"}:
                continue
            for source in ctx.flow_sources(side, EdgeLabel.DFG, include_start=True):
                if source.has_label("FieldDeclaration"):
                    result.append(source)
    return result


def solidity_pragma_version(ctx: QueryContext) -> Optional[tuple[int, int]]:
    """The ``pragma solidity`` (major, minor) recorded on the translation unit."""
    for unit in ctx.graph.nodes_by_label("TranslationUnitDeclaration"):
        version = unit.properties.get("solidity_version")
        if version:
            return version
    return None
