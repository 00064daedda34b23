"""Golden token digests that pin the Solidity lexer's output.

``tests/data/lexer_golden.json`` holds sha256 digests of the token
streams :func:`repro.solidity.lexer.tokenize` yields for fixed inputs:
each token's type, value, line, column and ``preceded_by_newline``.
The inputs are regenerated from the seeds stored in the file:

* ``corpus``: every snippet and contract of the benchmark's corpus
  input set (``generate_qa_corpus(seed=3)`` with 60/150 posts, and its
  sanctuary, ``seed=11`` with 60 independent contracts);
* ``batch``: the distinct snippets of the benchmark's batch input set
  (``generate_qa_corpus(seed=5)`` with 1,200/3,000 posts);
* ``smartbugs`` and ``honeypots``: the two labelled corpora at their
  default seeds;
* ``random``: seeded ``random.Random`` strings that mix operators,
  quotes, backslashes, comment openers, every whitespace character the
  lexer treats specially, number syntax, and non-ASCII letters, digits
  and numerics.

Each input set is digested in chunks of 100 sources, so a mismatch names
the set and the range of sources to look at.  The random alphabet holds
only code points whose ``str`` predicates are the same in every Unicode
version the supported Pythons ship, so the file is valid on each.

Re-record, only when the token stream changes on purpose::

    PYTHONPATH=src python tests/lexer_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.datasets.honeypots import generate_honeypot_corpus
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.smartbugs import generate_smartbugs_corpus
from repro.datasets.snippets import generate_qa_corpus
from repro.solidity.lexer import tokenize

GOLDEN_PATH = Path(__file__).with_name("data") / "lexer_golden.json"

CHUNK = 100

INPUTS = {
    "corpus": {"qa_seed": 3, "posts_per_site": {"stackoverflow": 60,
                                                "ethereum.stackexchange": 150},
               "sanctuary_seed": 11, "independent_contracts": 60},
    "batch": {"qa_seed": 5, "posts_per_site": {"stackoverflow": 1200,
                                               "ethereum.stackexchange": 3000}},
    "random": {"seed": 1729, "count": 10000, "max_fragments": 24},
}

#: the fragments random strings are drawn from: every operator and
#: punctuation mark, quotes and escapes, comment openers and closers,
#: each whitespace character, number syntax, words, and non-ASCII text
#: (é a letter, ٣ a decimal digit, ² and ① digits that are not decimal,
#: ½ and Ⅳ numerics that are neither, 一 a letter that is numeric, and
#: § NBSP NEL LS separators and controls that are none of these)
FRAGMENTS = (
    ">>>=", "<<=", ">>=", "**=", "...", "==", "!=", "<=", ">=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<", ">>",
    "**", "=>", "->", "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|",
    "^", "~", "?", "(", ")", "{", "}", "[", "]", ";", ",", ":", ".",
    '"', "'", "\\", "\\\n", "/*", "*/", "//",
    "\n", "\r", "\t", "\f", "\v", "\r\n", " ", "  ",
    "0", "1", "7", "9", "0x", "x", "X", "e", "E", "_", "$", "1e", "2.5",
    "a", "b", "Z", "owner", "function", "contract", "uint256",
    "é", "٣", "²", "①", "½", "Ⅳ", "一", "§", "\xa0", "\x85", "\u2028",
    "\x1c", "\x00", "@", "#", "`",
)


def token_record(tokens) -> str:
    """One canonical encoding of a token stream (offsets excluded)."""
    return json.dumps([[token.type.name, token.value, token.line, token.column,
                        token.preceded_by_newline] for token in tokens])


def random_sources(seed: int, count: int, max_fragments: int) -> list:
    """``count`` seeded strings of up to ``max_fragments`` fragments each."""
    rng = random.Random(seed)
    return ["".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, max_fragments)))
            for _ in range(count)]


def input_sets(inputs: dict = INPUTS) -> dict:
    """Every input set the golden file covers, as ``{name: [source, ...]}``."""
    corpus = inputs["corpus"]
    qa = generate_qa_corpus(seed=corpus["qa_seed"], posts_per_site=corpus["posts_per_site"])
    sanctuary = generate_sanctuary(qa, seed=corpus["sanctuary_seed"],
                                   independent_contracts=corpus["independent_contracts"])
    batch = inputs["batch"]
    batch_qa = generate_qa_corpus(seed=batch["qa_seed"], posts_per_site=batch["posts_per_site"])
    return {
        "corpus": [snippet.text for snippet in qa.snippets]
        + [contract.source for contract in sanctuary.contracts],
        "batch": list(dict.fromkeys(snippet.text for snippet in batch_qa.snippets)),
        "smartbugs": [entry.source for entry in generate_smartbugs_corpus().entries],
        "honeypots": [contract.source for contract in generate_honeypot_corpus()],
        "random": random_sources(**inputs["random"]),
    }


def digests(sources: list) -> list:
    """The sha256 of each chunk of ``CHUNK`` consecutive token streams."""
    result = []
    for start in range(0, len(sources), CHUNK):
        hasher = hashlib.sha256()
        for source in sources[start:start + CHUNK]:
            hasher.update(token_record(tokenize(source)).encode("ascii"))
            hasher.update(b"\n")
        result.append(hasher.hexdigest())
    return result


def record() -> dict:
    """The golden file's content for the current lexer."""
    sets = input_sets()
    return {
        "inputs": INPUTS,
        "chunk": CHUNK,
        "sources": {name: len(sources) for name, sources in sets.items()},
        "digests": {name: digests(sources) for name, sources in sets.items()},
    }


def load() -> dict:
    """The committed golden file."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
