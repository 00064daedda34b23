"""A SmartEmbed-style structural code-embedding clone detector baseline.

SmartEmbed detects clones via structural code embeddings learned from the
AST and compares contracts with a similarity threshold of 0.9.  This
baseline reproduces the *mechanism class* without learned weights: each
contract is embedded as a sparse bag of structural features (AST node-type
bigrams plus normalized token unigrams) and compared with cosine
similarity.

Two deliberate fidelity choices mirror the original tool's limitations:

* it requires complete, parsable contract code — snippet-shaped inputs
  (no contract definition) are rejected, and
* it compares whole contracts, so reordered or partially overlapping code
  scores lower than CCD's order-independent per-function matching.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.solidity import ast_nodes as ast
from repro.solidity.errors import SolidityParseError
from repro.solidity.parser import parse


@dataclass(frozen=True)
class EmbeddingMatch:
    """A clone relation reported by the baseline."""

    document_id: Hashable
    similarity: float


class SmartEmbedBaseline:
    """Bag-of-structural-features clone detector with cosine similarity."""

    name = "smartembed-baseline"

    def __init__(self, similarity_threshold: float = 0.9):
        self.similarity_threshold = similarity_threshold
        self.embeddings: dict[Hashable, Counter] = {}
        self.parse_failures: list[Hashable] = []

    # -- embedding ---------------------------------------------------------------
    def embed(self, source: str) -> Counter:
        """Embed a complete contract; raises on incomplete code."""
        unit = parse(source, snippet_mode=False)
        if not unit.contracts():
            raise SolidityParseError("SmartEmbed requires complete contract code")
        features: Counter = Counter()
        for contract in unit.contracts():
            self._collect(contract, None, features)
        return features

    def _collect(self, node: ast.Node, parent_type: Optional[str], features: Counter) -> None:
        node_type = node.node_type
        features[f"type:{node_type}"] += 1
        if parent_type is not None:
            features[f"edge:{parent_type}>{node_type}"] += 1
        if isinstance(node, ast.Identifier):
            features["ident"] += 1
        if isinstance(node, ast.MemberAccess):
            features[f"member:{node.member}"] += 1
        if isinstance(node, (ast.BinaryOperation, ast.Assignment)):
            features[f"op:{node.operator}"] += 1
        if isinstance(node, ast.FunctionDefinition):
            features[f"fn-params:{len(node.parameters)}"] += 1
            features[f"fn-shape:{len(node.parameters)}:{len(node.return_parameters)}:{len(node.modifiers)}"] += 1
        if isinstance(node, ast.Statement) and node.code:
            # a structural sketch of each statement: its own type plus the
            # types of its direct children, which is what tree-based code
            # embeddings predominantly capture
            child_types = ",".join(child.node_type for child in node.children())
            features[f"stmt:{node_type}({child_types})"] += 2
        if isinstance(node, ast.FunctionCall) and node.callee is not None:
            features[f"call:{node.callee.code[:40]}"] += 2
        for child in node.children():
            self._collect(child, node_type, features)

    # -- corpus -------------------------------------------------------------------
    def add_document(self, document_id: Hashable, source: str) -> bool:
        try:
            self.embeddings[document_id] = self.embed(source)
            return True
        except (SolidityParseError, RecursionError):
            self.parse_failures.append(document_id)
            return False

    def add_corpus(self, documents) -> int:
        return sum(1 for document_id, source in documents if self.add_document(document_id, source))

    # -- similarity ------------------------------------------------------------------
    @staticmethod
    def cosine(first: Counter, second: Counter) -> float:
        if not first or not second:
            return 0.0
        shared = set(first) & set(second)
        dot_product = sum(first[feature] * second[feature] for feature in shared)
        norm_first = math.sqrt(sum(value * value for value in first.values()))
        norm_second = math.sqrt(sum(value * value for value in second.values()))
        if norm_first == 0 or norm_second == 0:
            return 0.0
        return dot_product / (norm_first * norm_second)

    def similarity(self, first_id: Hashable, second_id: Hashable) -> float:
        return self.cosine(self.embeddings[first_id], self.embeddings[second_id])

    def find_clones(self, document_id: Hashable,
                    similarity_threshold: Optional[float] = None) -> list[EmbeddingMatch]:
        """Indexed documents whose embedding is close to ``document_id``'s."""
        threshold = self.similarity_threshold if similarity_threshold is None else similarity_threshold
        query = self.embeddings[document_id]
        matches = []
        for other_id, embedding in self.embeddings.items():
            if other_id == document_id:
                continue
            score = self.cosine(query, embedding)
            if score >= threshold:
                matches.append(EmbeddingMatch(document_id=other_id, similarity=score))
        matches.sort(key=lambda match: -match.similarity)
        return matches

    def pairwise_clones(self, similarity_threshold: Optional[float] = None) -> dict[Hashable, list[EmbeddingMatch]]:
        return {document_id: self.find_clones(document_id, similarity_threshold)
                for document_id in self.embeddings}
