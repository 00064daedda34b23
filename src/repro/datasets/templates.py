"""Parameterised Solidity templates for vulnerable and benign code.

Every template produces a :class:`TemplateInstance` containing

* a full contract embedding the vulnerability (used by the SmartBugs-style
  corpus and as deployed-contract material),
* the vulnerable function in isolation (the *Functions* dataset of
  Section 4.6.1 and function-shaped Q&A snippets),
* the vulnerable statements in isolation (the *Statements* dataset and
  statement-shaped Q&A snippets), and
* optionally a mitigated variant of the contract (used to model deployed
  contracts that adopted a snippet but fixed the issue).

Templates draw identifier names from pools so repeated instantiation
produces Type-II-style variety, which is exactly the situation the clone
detector must handle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ccc.dasp import DaspCategory

_OWNER_NAMES = ["owner", "admin", "creator", "manager", "deployer", "controller"]
_BALANCE_NAMES = ["balances", "credits", "deposits", "funds", "holdings", "userBalance"]
_AMOUNT_NAMES = ["amount", "value", "sum", "quantity", "wad", "tokens"]
_WITHDRAW_NAMES = ["withdraw", "getFunds", "collect", "redeem", "cashOut", "claimFunds"]
_TRANSFER_NAMES = ["transfer", "sendTokens", "moveTokens", "pay", "transferTo"]
_CONTRACT_NAMES = ["Wallet", "Vault", "Bank", "Token", "Crowdsale", "Lottery", "Game",
                   "Escrow", "Splitter", "Registry", "Auction", "Fund", "Pool", "Store"]
_RECIPIENT_NAMES = ["to", "recipient", "dest", "receiver", "target"]
_PRAGMAS_OLD = ["pragma solidity ^0.4.19;", "pragma solidity ^0.4.24;", "pragma solidity ^0.4.25;",
                "pragma solidity 0.4.26;", "pragma solidity ^0.5.0;"]
_PRAGMAS_NEW = ["pragma solidity ^0.8.0;", "pragma solidity ^0.8.17;", "pragma solidity 0.8.19;"]


@dataclass
class TemplateInstance:
    """One generated vulnerable (or benign) code artefact."""

    category: Optional[DaspCategory]
    contract_source: str
    function_snippet: str = ""
    statement_snippet: str = ""
    mitigated_source: str = ""
    label_count: int = 1
    needs_context: bool = False
    template_id: str = ""
    identifiers: dict = field(default_factory=dict)


def _pick(rng: random.Random, pool: list[str]) -> str:
    return rng.choice(pool)


def _contract_name(rng: random.Random) -> str:
    return f"{_pick(rng, _CONTRACT_NAMES)}{rng.randint(1, 9999)}"


# ---------------------------------------------------------------------------
# Reentrancy
# ---------------------------------------------------------------------------


def reentrancy_withdraw(rng: random.Random, index: int = 0) -> TemplateInstance:
    """Classic DAO-style withdraw: external call before the balance update."""
    contract = _contract_name(rng)
    balances = _pick(rng, _BALANCE_NAMES)
    amount = _pick(rng, _AMOUNT_NAMES)
    withdraw = _pick(rng, _WITHDRAW_NAMES)
    call_style = rng.choice(["oldvalue", "specifier", "plain"])
    if call_style == "oldvalue":
        call_line = f"        if (!msg.sender.call.value({amount})()) {{ throw; }}"
    elif call_style == "specifier":
        call_line = f"        (bool ok, ) = msg.sender.call{{value: {amount}}}(\"\");\n        require(ok);"
    else:
        call_line = f"        msg.sender.call.value({amount})();"
    function_snippet = (
        f"function {withdraw}(uint {amount}) public {{\n"
        f"    require({balances}[msg.sender] >= {amount});\n"
        f"{call_line.replace('        ', '    ')}\n"
        f"    {balances}[msg.sender] -= {amount};\n"
        f"}}"
    )
    statement_snippet = (
        f"require({balances}[msg.sender] >= {amount});\n"
        f"{call_line.strip()}\n"
        f"{balances}[msg.sender] -= {amount};"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    mapping(address => uint) public {balances};

    function deposit() public payable {{
        {balances}[msg.sender] += msg.value;
    }}

    function {withdraw}(uint {amount}) public {{
        require({balances}[msg.sender] >= {amount});
{call_line}
        {balances}[msg.sender] -= {amount};
    }}

    function balanceOf(address holder) public view returns (uint) {{
        return {balances}[holder];
    }}
}}
"""
    mitigated = contract_source.replace(
        f"{call_line}\n        {balances}[msg.sender] -= {amount};",
        f"        {balances}[msg.sender] -= {amount};\n        msg.sender.transfer({amount});",
    )
    return TemplateInstance(
        category=DaspCategory.REENTRANCY,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=statement_snippet,
        mitigated_source=mitigated,
        template_id="reentrancy-withdraw",
        identifiers={"contract": contract, "balances": balances, "amount": amount, "function": withdraw},
    )


# ---------------------------------------------------------------------------
# Access control
# ---------------------------------------------------------------------------


def access_control_owner_takeover(rng: random.Random, index: int = 0) -> TemplateInstance:
    """An initialisation function that lets anyone become the owner."""
    contract = _contract_name(rng)
    owner = _pick(rng, _OWNER_NAMES)
    setter = rng.choice(["initOwner", "initialize", "setup", "becomeOwner", "init"])
    function_snippet = (
        f"function {setter}(address newOwner) public {{\n"
        f"    {owner} = newOwner;\n"
        f"}}"
    )
    statement_snippet = f"{owner} = newOwner;"
    pragma = _pick(rng, _PRAGMAS_OLD + _PRAGMAS_NEW)
    contract_source = f"""{pragma}

contract {contract} {{
    address public {owner};
    uint public total;

    constructor() public {{
        {owner} = msg.sender;
    }}

    function {setter}(address newOwner) public {{
        {owner} = newOwner;
    }}

    function sweep() public {{
        require(msg.sender == {owner});
        msg.sender.transfer(address(this).balance);
    }}

    function deposit() public payable {{
        total += msg.value;
    }}
}}
"""
    mitigated = contract_source.replace(
        f"    function {setter}(address newOwner) public {{\n        {owner} = newOwner;\n    }}",
        f"    function {setter}(address newOwner) public {{\n        require(msg.sender == {owner});\n        {owner} = newOwner;\n    }}",
    )
    return TemplateInstance(
        category=DaspCategory.ACCESS_CONTROL,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=statement_snippet,
        mitigated_source=mitigated,
        template_id="access-control-owner-takeover",
        identifiers={"contract": contract, "owner": owner, "function": setter},
    )


def access_control_selfdestruct(rng: random.Random, index: int = 0) -> TemplateInstance:
    """An unprotected kill switch."""
    contract = _contract_name(rng)
    kill = rng.choice(["kill", "destroy", "shutdown", "close", "terminate"])
    function_snippet = (
        f"function {kill}() public {{\n"
        f"    selfdestruct(msg.sender);\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address owner;
    mapping(address => uint) stakes;

    constructor() public {{
        owner = msg.sender;
    }}

    function stake() public payable {{
        stakes[msg.sender] += msg.value;
    }}

    function {kill}() public {{
        selfdestruct(msg.sender);
    }}
}}
"""
    mitigated = contract_source.replace(
        f"    function {kill}() public {{\n        selfdestruct(msg.sender);",
        f"    function {kill}() public {{\n        require(msg.sender == owner);\n        selfdestruct(msg.sender);",
    )
    return TemplateInstance(
        category=DaspCategory.ACCESS_CONTROL,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet="selfdestruct(msg.sender);",
        mitigated_source=mitigated,
        template_id="access-control-selfdestruct",
        identifiers={"contract": contract, "function": kill},
    )


def access_control_delegatecall_proxy(rng: random.Random, index: int = 0) -> TemplateInstance:
    """The Parity-style default function forwarding msg.data via delegatecall."""
    contract = _contract_name(rng)
    library_field = rng.choice(["lib", "walletLibrary", "impl", "logic", "delegate"])
    function_snippet = (
        f"function () payable {{\n"
        f"    {library_field}.delegatecall(msg.data);\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address {library_field};
    address owner;

    function {contract}(address target) public {{
        {library_field} = target;
        owner = msg.sender;
    }}

    function () payable {{
        {library_field}.delegatecall(msg.data);
    }}
}}
"""
    mitigated = contract_source.replace(
        f"    function () payable {{\n        {library_field}.delegatecall(msg.data);\n    }}",
        f"    function () payable {{\n        require(msg.data.length == 0);\n        {library_field}.delegatecall(msg.data);\n    }}",
    )
    return TemplateInstance(
        category=DaspCategory.ACCESS_CONTROL,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=f"{library_field}.delegatecall(msg.data);",
        mitigated_source=mitigated,
        template_id="access-control-delegatecall",
        identifiers={"contract": contract, "library": library_field},
    )


def access_control_tx_origin(rng: random.Random, index: int = 0) -> TemplateInstance:
    """tx.origin used for authentication."""
    contract = _contract_name(rng)
    owner = _pick(rng, _OWNER_NAMES)
    pay = rng.choice(["sendTo", "payOut", "forward", "release"])
    function_snippet = (
        f"function {pay}(address to, uint amount) public {{\n"
        f"    require(tx.origin == {owner});\n"
        f"    to.call.value(amount)();\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address {owner};

    constructor() public {{
        {owner} = msg.sender;
    }}

    function {pay}(address to, uint amount) public {{
        require(tx.origin == {owner});
        to.call.value(amount)();
    }}

    function deposit() public payable {{}}
}}
"""
    mitigated = contract_source.replace("tx.origin", "msg.sender")
    return TemplateInstance(
        category=DaspCategory.ACCESS_CONTROL,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=f"require(tx.origin == {owner});\nto.call.value(amount)();",
        mitigated_source=mitigated,
        label_count=1,
        template_id="access-control-tx-origin",
        identifiers={"contract": contract, "owner": owner, "function": pay},
    )


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def arithmetic_token_transfer(rng: random.Random, index: int = 0) -> TemplateInstance:
    """Unchecked token arithmetic under a pre-0.8 compiler."""
    contract = _contract_name(rng)
    balances = _pick(rng, _BALANCE_NAMES)
    transfer = _pick(rng, _TRANSFER_NAMES)
    recipient = _pick(rng, _RECIPIENT_NAMES)
    amount = _pick(rng, _AMOUNT_NAMES)
    function_snippet = (
        f"function {transfer}(address {recipient}, uint {amount}) public {{\n"
        f"    {balances}[msg.sender] -= {amount};\n"
        f"    {balances}[{recipient}] += {amount};\n"
        f"}}"
    )
    statement_snippet = (
        f"{balances}[msg.sender] -= {amount};\n"
        f"{balances}[{recipient}] += {amount};"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    mapping(address => uint) {balances};
    uint public totalSupply;

    constructor(uint supply) public {{
        totalSupply = supply;
        {balances}[msg.sender] = supply;
    }}

    function {transfer}(address {recipient}, uint {amount}) public {{
        {balances}[msg.sender] -= {amount};
        {balances}[{recipient}] += {amount};
    }}

    function balanceOf(address holder) public view returns (uint) {{
        return {balances}[holder];
    }}
}}
"""
    mitigated = contract_source.replace(
        f"        {balances}[msg.sender] -= {amount};\n        {balances}[{recipient}] += {amount};",
        f"        require({balances}[msg.sender] >= {amount});\n"
        f"        require({balances}[{recipient}] + {amount} >= {balances}[{recipient}]);\n"
        f"        {balances}[msg.sender] -= {amount};\n        {balances}[{recipient}] += {amount};",
    )
    return TemplateInstance(
        category=DaspCategory.ARITHMETIC,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=statement_snippet,
        mitigated_source=mitigated,
        label_count=2,
        template_id="arithmetic-token-transfer",
        identifiers={"contract": contract, "balances": balances, "function": transfer},
    )


def arithmetic_timed_lock(rng: random.Random, index: int = 0) -> TemplateInstance:
    """Lock-time extension that can overflow."""
    contract = _contract_name(rng)
    locktime = rng.choice(["lockTime", "unlockAt", "releaseTime", "deadline"])
    function_snippet = (
        f"function increaseLockTime(uint extra) public {{\n"
        f"    {locktime}[msg.sender] += extra;\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    mapping(address => uint) balances;
    mapping(address => uint) {locktime};

    function deposit() public payable {{
        balances[msg.sender] += msg.value;
        {locktime}[msg.sender] = now + 1 weeks;
    }}

    function increaseLockTime(uint extra) public {{
        {locktime}[msg.sender] += extra;
    }}

    function withdraw() public {{
        require(now > {locktime}[msg.sender]);
        require(balances[msg.sender] > 0);
        uint amount = balances[msg.sender];
        balances[msg.sender] = 0;
        msg.sender.transfer(amount);
    }}
}}
"""
    return TemplateInstance(
        category=DaspCategory.ARITHMETIC,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=f"{locktime}[msg.sender] += extra;",
        label_count=1,
        template_id="arithmetic-timed-lock",
        identifiers={"contract": contract, "locktime": locktime},
    )


# ---------------------------------------------------------------------------
# Bad randomness
# ---------------------------------------------------------------------------


def bad_randomness_lottery(rng: random.Random, index: int = 0) -> TemplateInstance:
    """A lottery deciding the winner from block attributes."""
    contract = _contract_name(rng)
    attribute = rng.choice(["block.timestamp", "block.number", "block.difficulty", "now"])
    play = rng.choice(["play", "bet", "spin", "roll", "guess"])
    function_snippet = (
        f"function {play}() public payable {{\n"
        f"    uint random = uint(keccak256({attribute})) % 100;\n"
        f"    if (random > 50) {{\n"
        f"        msg.sender.transfer(msg.value * 2);\n"
        f"    }}\n"
        f"}}"
    )
    statement_snippet = (
        f"uint random = uint(keccak256({attribute})) % 100;\n"
        f"if (random > 50) {{\n"
        f"    msg.sender.transfer(msg.value * 2);\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address owner;
    uint public pot;

    constructor() public payable {{
        owner = msg.sender;
        pot = msg.value;
    }}

    function {play}() public payable {{
        require(msg.value >= 0.1 ether);
        pot += msg.value;
        uint random = uint(keccak256({attribute})) % 100;
        if (random > 50) {{
            msg.sender.transfer(msg.value * 2);
        }}
    }}
}}
"""
    return TemplateInstance(
        category=DaspCategory.BAD_RANDOMNESS,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=statement_snippet,
        template_id="bad-randomness-lottery",
        identifiers={"contract": contract, "attribute": attribute, "function": play},
    )


def bad_randomness_blockhash(rng: random.Random, index: int = 0) -> TemplateInstance:
    """Winner selection via blockhash of a user-chosen block."""
    contract = _contract_name(rng)
    function_snippet = (
        "function random(uint seed) internal view returns (uint) {\n"
        "    return uint(keccak256(blockhash(block.number - 1), seed));\n"
        "}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address[] players;
    uint jackpot;

    function join() public payable {{
        require(msg.value == 1 ether);
        players.push(msg.sender);
        jackpot += msg.value;
    }}

    function random(uint seed) internal view returns (uint) {{
        return uint(keccak256(blockhash(block.number - 1), seed));
    }}

    function draw() public {{
        uint index = random(players.length) % players.length;
        players[index].transfer(jackpot);
        jackpot = 0;
    }}
}}
"""
    return TemplateInstance(
        category=DaspCategory.BAD_RANDOMNESS,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet="return uint(keccak256(blockhash(block.number - 1), seed));",
        label_count=1,
        needs_context=True,
        template_id="bad-randomness-blockhash",
        identifiers={"contract": contract},
    )


# ---------------------------------------------------------------------------
# Denial of Service
# ---------------------------------------------------------------------------


def dos_payout_loop(rng: random.Random, index: int = 0) -> TemplateInstance:
    """Unbounded payout loop over a caller-growable array."""
    contract = _contract_name(rng)
    investors = rng.choice(["investors", "payees", "holders", "members", "participants"])
    function_snippet = (
        f"function distribute() public {{\n"
        f"    for (uint i = 0; i < {investors}.length; i++) {{\n"
        f"        {investors}[i].transfer(payouts[{investors}[i]]);\n"
        f"    }}\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address[] {investors};
    mapping(address => uint) payouts;

    function join() public payable {{
        {investors}.push(msg.sender);
        payouts[msg.sender] += msg.value;
    }}

    function distribute() public {{
        for (uint i = 0; i < {investors}.length; i++) {{
            {investors}[i].transfer(payouts[{investors}[i]]);
        }}
    }}
}}
"""
    return TemplateInstance(
        category=DaspCategory.DENIAL_OF_SERVICE,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=(
            f"for (uint i = 0; i < {investors}.length; i++) {{\n"
            f"    {investors}[i].transfer(payouts[{investors}[i]]);\n"
            f"}}"
        ),
        template_id="dos-payout-loop",
        identifiers={"contract": contract, "investors": investors},
    )


def dos_blocking_transfer(rng: random.Random, index: int = 0) -> TemplateInstance:
    """A refund to the previous leader that can block new bids (king-of-the-hill)."""
    contract = _contract_name(rng)
    leader = rng.choice(["king", "leader", "champion", "richest"])
    function_snippet = (
        f"function bid() public payable {{\n"
        f"    require(msg.value > highestBid);\n"
        f"    {leader}.transfer(highestBid);\n"
        f"    {leader} = msg.sender;\n"
        f"    highestBid = msg.value;\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address {leader};
    uint highestBid;

    function bid() public payable {{
        require(msg.value > highestBid);
        {leader}.transfer(highestBid);
        {leader} = msg.sender;
        highestBid = msg.value;
    }}
}}
"""
    mitigated = contract_source.replace(
        f"        {leader}.transfer(highestBid);\n        {leader} = msg.sender;",
        f"        pendingReturns[{leader}] += highestBid;\n        {leader} = msg.sender;",
    ).replace(
        f"    uint highestBid;",
        f"    uint highestBid;\n    mapping(address => uint) pendingReturns;",
    )
    return TemplateInstance(
        category=DaspCategory.DENIAL_OF_SERVICE,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=(
            f"require(msg.value > highestBid);\n"
            f"{leader}.transfer(highestBid);\n"
            f"{leader} = msg.sender;\n"
            f"highestBid = msg.value;"
        ),
        mitigated_source=mitigated,
        template_id="dos-blocking-transfer",
        identifiers={"contract": contract, "leader": leader},
    )


# ---------------------------------------------------------------------------
# Front running
# ---------------------------------------------------------------------------


def front_running_puzzle(rng: random.Random, index: int = 0) -> TemplateInstance:
    """A puzzle reward that a miner/observer can claim by copying the solution."""
    contract = _contract_name(rng)
    solve = rng.choice(["solve", "claim", "submitSolution", "answer"])
    function_snippet = (
        f"function {solve}(bytes32 solution) public {{\n"
        f"    if (keccak256(solution) == target) {{\n"
        f"        winner = msg.sender;\n"
        f"        msg.sender.transfer(reward);\n"
        f"    }}\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    bytes32 target;
    address winner;
    uint reward;

    constructor(bytes32 t) public payable {{
        target = t;
        reward = msg.value;
    }}

    function {solve}(bytes32 solution) public {{
        if (keccak256(solution) == target) {{
            winner = msg.sender;
            msg.sender.transfer(reward);
        }}
    }}
}}
"""
    return TemplateInstance(
        category=DaspCategory.FRONT_RUNNING,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=(
            "if (keccak256(solution) == target) {\n"
            "    winner = msg.sender;\n"
            "    msg.sender.transfer(reward);\n"
            "}"
        ),
        label_count=1,
        template_id="front-running-puzzle",
        identifiers={"contract": contract, "function": solve},
    )


# ---------------------------------------------------------------------------
# Short addresses
# ---------------------------------------------------------------------------


def short_address_token(rng: random.Random, index: int = 0) -> TemplateInstance:
    """An ERC20-style transfer without a calldata length check."""
    contract = _contract_name(rng)
    balances = _pick(rng, _BALANCE_NAMES)
    recipient = _pick(rng, _RECIPIENT_NAMES)
    function_snippet = (
        f"function transfer(address {recipient}, uint amount) public returns (bool) {{\n"
        f"    require({balances}[msg.sender] >= amount);\n"
        f"    {balances}[msg.sender] -= amount;\n"
        f"    {balances}[{recipient}] += amount;\n"
        f"    return true;\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    mapping(address => uint) {balances};

    constructor() public {{
        {balances}[msg.sender] = 1000000;
    }}

    function transfer(address {recipient}, uint amount) public returns (bool) {{
        require({balances}[msg.sender] >= amount);
        {balances}[msg.sender] -= amount;
        {balances}[{recipient}] += amount;
        return true;
    }}
}}
"""
    mitigated = contract_source.replace(
        f"    function transfer(address {recipient}, uint amount) public returns (bool) {{\n",
        f"    modifier onlyPayloadSize(uint size) {{\n"
        f"        require(msg.data.length >= size + 4);\n"
        f"        _;\n"
        f"    }}\n\n"
        f"    function transfer(address {recipient}, uint amount) public onlyPayloadSize(2 * 32) returns (bool) {{\n",
    )
    return TemplateInstance(
        category=DaspCategory.SHORT_ADDRESSES,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=(
            f"require({balances}[msg.sender] >= amount);\n"
            f"{balances}[msg.sender] -= amount;\n"
            f"{balances}[{recipient}] += amount;"
        ),
        mitigated_source=mitigated,
        template_id="short-address-token",
        identifiers={"contract": contract, "balances": balances},
    )


# ---------------------------------------------------------------------------
# Time manipulation
# ---------------------------------------------------------------------------


def time_manipulation_payout(rng: random.Random, index: int = 0) -> TemplateInstance:
    """A payout decided by the block timestamp."""
    contract = _contract_name(rng)
    attribute = rng.choice(["now", "block.timestamp"])
    function_snippet = (
        f"function finalize() public {{\n"
        f"    if ({attribute} % 15 == 0) {{\n"
        f"        msg.sender.transfer(address(this).balance);\n"
        f"    }}\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    function deposit() public payable {{}}

    function finalize() public {{
        if ({attribute} % 15 == 0) {{
            msg.sender.transfer(address(this).balance);
        }}
    }}
}}
"""
    return TemplateInstance(
        category=DaspCategory.TIME_MANIPULATION,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=(
            f"if ({attribute} % 15 == 0) {{\n"
            f"    msg.sender.transfer(address(this).balance);\n"
            f"}}"
        ),
        template_id="time-manipulation-payout",
        identifiers={"contract": contract, "attribute": attribute},
    )


# ---------------------------------------------------------------------------
# Unchecked low level calls
# ---------------------------------------------------------------------------


def unchecked_send(rng: random.Random, index: int = 0) -> TemplateInstance:
    """The return value of send/call is ignored."""
    contract = _contract_name(rng)
    call_kind = rng.choice(["send", "call"])
    pay = rng.choice(["payWinner", "refund", "sendPayment", "payout"])
    if call_kind == "send":
        call_line = "    to.send(amount);"
    else:
        call_line = "    to.call.value(amount)();"
    function_snippet = (
        f"function {pay}(address to, uint amount) public {{\n"
        f"    require(msg.sender == owner);\n"
        f"    require(owed[to] >= amount);\n"
        f"    owed[to] -= amount;\n"
        f"{call_line}\n"
        f"}}"
    )
    pragma = _pick(rng, _PRAGMAS_OLD)
    contract_source = f"""{pragma}

contract {contract} {{
    address owner;
    mapping(address => uint) owed;

    constructor() public {{
        owner = msg.sender;
    }}

    function {pay}(address to, uint amount) public {{
        require(msg.sender == owner);
        require(owed[to] >= amount);
        owed[to] -= amount;
    {call_line}
    }}

    function deposit() public payable {{
        owed[msg.sender] += msg.value;
    }}
}}
"""
    mitigated = contract_source.replace(
        call_line.strip(), f"require({call_line.strip().rstrip(';')});"
    )
    return TemplateInstance(
        category=DaspCategory.UNCHECKED_LOW_LEVEL_CALLS,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=call_line.strip(),
        mitigated_source=mitigated,
        template_id="unchecked-send",
        identifiers={"contract": contract, "function": pay, "call": call_kind},
    )


# ---------------------------------------------------------------------------
# Unknown unknowns
# ---------------------------------------------------------------------------


def uninitialized_storage_struct(rng: random.Random, index: int = 0) -> TemplateInstance:
    """Writes through an uninitialised storage struct pointer."""
    contract = _contract_name(rng)
    function_snippet = (
        "function register(string name) public {\n"
        "    Registration reg;\n"
        "    reg.name = name;\n"
        "    reg.account = msg.sender;\n"
        "}"
    )
    contract_source = f"""pragma solidity ^0.4.24;

contract {contract} {{
    address owner;
    bool unlocked;

    struct Registration {{
        string name;
        address account;
    }}

    constructor() public {{
        owner = msg.sender;
    }}

    function register(string name) public {{
        Registration reg;
        reg.name = name;
        reg.account = msg.sender;
    }}
}}
"""
    mitigated = contract_source.replace("Registration reg;", "Registration memory reg;")
    return TemplateInstance(
        category=DaspCategory.UNKNOWN_UNKNOWNS,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet="Registration reg;\nreg.name = name;\nreg.account = msg.sender;",
        mitigated_source=mitigated,
        template_id="uninitialized-storage-struct",
        identifiers={"contract": contract},
    )


# ---------------------------------------------------------------------------
# Benign templates
# ---------------------------------------------------------------------------


def benign_ownable_store(rng: random.Random, index: int = 0) -> TemplateInstance:
    contract = _contract_name(rng)
    owner = _pick(rng, _OWNER_NAMES)
    pragma = _pick(rng, _PRAGMAS_NEW)
    contract_source = f"""{pragma}

contract {contract} {{
    address public {owner};
    uint private stored;

    constructor() {{
        {owner} = msg.sender;
    }}

    modifier onlyOwner() {{
        require(msg.sender == {owner}, "not authorized");
        _;
    }}

    function set(uint newValue) public onlyOwner {{
        stored = newValue;
    }}

    function get() public view returns (uint) {{
        return stored;
    }}
}}
"""
    function_snippet = (
        f"function set(uint newValue) public onlyOwner {{\n"
        f"    stored = newValue;\n"
        f"}}"
    )
    return TemplateInstance(
        category=None,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet="stored = newValue;",
        template_id="benign-ownable-store",
        identifiers={"contract": contract, "owner": owner},
    )


def benign_safe_wallet(rng: random.Random, index: int = 0) -> TemplateInstance:
    contract = _contract_name(rng)
    balances = _pick(rng, _BALANCE_NAMES)
    pragma = _pick(rng, _PRAGMAS_NEW)
    contract_source = f"""{pragma}

contract {contract} {{
    mapping(address => uint) {balances};

    function deposit() public payable {{
        {balances}[msg.sender] += msg.value;
    }}

    function withdraw(uint amount) public {{
        require({balances}[msg.sender] >= amount, "insufficient balance");
        {balances}[msg.sender] -= amount;
        payable(msg.sender).transfer(amount);
    }}

    function balanceOf(address holder) public view returns (uint) {{
        return {balances}[holder];
    }}
}}
"""
    function_snippet = (
        f"function withdraw(uint amount) public {{\n"
        f"    require({balances}[msg.sender] >= amount, \"insufficient balance\");\n"
        f"    {balances}[msg.sender] -= amount;\n"
        f"    payable(msg.sender).transfer(amount);\n"
        f"}}"
    )
    return TemplateInstance(
        category=None,
        contract_source=contract_source,
        function_snippet=function_snippet,
        statement_snippet=(
            f"require({balances}[msg.sender] >= amount);\n"
            f"{balances}[msg.sender] -= amount;\n"
            f"payable(msg.sender).transfer(amount);"
        ),
        template_id="benign-safe-wallet",
        identifiers={"contract": contract, "balances": balances},
    )


def benign_event_emitter(rng: random.Random, index: int = 0) -> TemplateInstance:
    contract = _contract_name(rng)
    pragma = _pick(rng, _PRAGMAS_NEW)
    contract_source = f"""{pragma}

contract {contract} {{
    event ValueChanged(address indexed who, uint newValue);
    uint public value;

    function update(uint newValue) public {{
        value = newValue;
        emit ValueChanged(msg.sender, newValue);
    }}
}}
"""
    return TemplateInstance(
        category=None,
        contract_source=contract_source,
        function_snippet=(
            "function update(uint newValue) public {\n"
            "    value = newValue;\n"
            "    emit ValueChanged(msg.sender, newValue);\n"
            "}"
        ),
        statement_snippet="value = newValue;\nemit ValueChanged(msg.sender, newValue);",
        template_id="benign-event-emitter",
        identifiers={"contract": contract},
    )


#: Vulnerable templates grouped by DASP category.
VULNERABLE_TEMPLATES: dict[DaspCategory, list[Callable[[random.Random, int], TemplateInstance]]] = {
    DaspCategory.REENTRANCY: [reentrancy_withdraw],
    DaspCategory.ACCESS_CONTROL: [
        access_control_owner_takeover,
        access_control_selfdestruct,
        access_control_delegatecall_proxy,
        access_control_tx_origin,
    ],
    DaspCategory.ARITHMETIC: [arithmetic_token_transfer, arithmetic_timed_lock],
    DaspCategory.BAD_RANDOMNESS: [bad_randomness_lottery, bad_randomness_blockhash],
    DaspCategory.DENIAL_OF_SERVICE: [dos_payout_loop, dos_blocking_transfer],
    DaspCategory.FRONT_RUNNING: [front_running_puzzle],
    DaspCategory.SHORT_ADDRESSES: [short_address_token],
    DaspCategory.TIME_MANIPULATION: [time_manipulation_payout],
    DaspCategory.UNCHECKED_LOW_LEVEL_CALLS: [unchecked_send],
    DaspCategory.UNKNOWN_UNKNOWNS: [uninitialized_storage_struct],
}

#: Benign templates used for non-vulnerable snippets and filler contracts.
BENIGN_TEMPLATES: list[Callable[[random.Random, int], TemplateInstance]] = [
    benign_ownable_store,
    benign_safe_wallet,
    benign_event_emitter,
]


def generate_vulnerable(rng: random.Random, category: DaspCategory, index: int = 0) -> TemplateInstance:
    """Instantiate a random vulnerable template of ``category``."""
    template = rng.choice(VULNERABLE_TEMPLATES[category])
    return template(rng, index)


def generate_benign(rng: random.Random, index: int = 0) -> TemplateInstance:
    """Instantiate a random benign template."""
    template = rng.choice(BENIGN_TEMPLATES)
    return template(rng, index)
