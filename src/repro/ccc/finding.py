"""Finding data structures reported by CCC."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ccc.dasp import DaspCategory


@dataclass(frozen=True)
class Finding:
    """A single vulnerability finding.

    Attributes
    ----------
    query_id:
        Stable identifier of the query that produced the finding
        (e.g. ``"reentrancy-call-before-write"``).
    category:
        The DASP category the query belongs to.
    title:
        Human-readable description of the underlying issue.
    line / column:
        Source location of the reported node.
    code:
        Source excerpt of the reported node.
    function_name / contract_name:
        Enclosing function and contract (empty for inferred wrappers).
    """

    query_id: str
    category: DaspCategory
    title: str
    line: int = 0
    column: int = 0
    code: str = ""
    function_name: str = ""
    contract_name: str = ""

    def location(self) -> str:
        """``contract.function:line`` style location string."""
        scope = ".".join(part for part in (self.contract_name, self.function_name) if part)
        return f"{scope}:{self.line}" if scope else f"line {self.line}"
