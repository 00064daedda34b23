"""Synthetic Q&A website corpus (Stack Overflow + Ethereum Stack Exchange).

The original study crawls posts tagged ``solidity`` up to June 30, 2023 and
collects 39,434 snippets (Table 4).  This generator reproduces the corpus
*structure* at a configurable scale: two sites, posts with view counts and
creation dates, and snippets of mixed content:

* vulnerable Solidity snippets (function- or statement-shaped, drawn from
  the vulnerability templates),
* benign Solidity snippets,
* JavaScript (web3.js / ethers.js) snippets mis-tagged as Solidity,
* pseudo-code / prose snippets that mention Solidity keywords but cannot be
  parsed, and
* exact duplicates of earlier snippets (to exercise the deduplication
  stage).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta

from repro.ccc.dasp import DaspCategory
from repro.datasets.corpus import QAPost, Snippet
from repro.datasets.templates import generate_benign, generate_vulnerable

SITE_STACK_OVERFLOW = "stackoverflow"
SITE_ETHEREUM_SE = "ethereum.stackexchange"

#: Content mix of generated snippets.  Roughly calibrated so the collection
#: funnel of Table 4 keeps its shape: ~65 % of snippets contain Solidity
#: keywords, ~77 % of those parse, and a few percent are duplicates.
_CONTENT_WEIGHTS = [
    ("vulnerable_contract", 0.10),
    ("vulnerable_function", 0.12),
    ("vulnerable_statements", 0.05),
    ("benign_contract", 0.14),
    ("benign_function", 0.12),
    ("benign_statements", 0.05),
    ("javascript", 0.22),
    ("pseudocode", 0.10),
    ("config_or_log", 0.05),
    ("duplicate", 0.05),
]

_JS_SNIPPETS = [
    """const Web3 = require('web3');
const web3 = new Web3('http://localhost:8545');
web3.eth.getBalance(account).then(console.log);""",
    """const contract = new web3.eth.Contract(abi, contractAddress);
contract.methods.balanceOf(account).call().then((result) => {
  console.log(result);
});""",
    """const tx = await signer.sendTransaction({
  to: recipient,
  value: ethers.utils.parseEther("1.0"),
});
await tx.wait();
console.log(tx.hash);""",
    """module.exports = {
  networks: {
    development: { host: "127.0.0.1", port: 8545, network_id: "*" },
  },
};""",
    """async function main() {
  const Token = await ethers.getContractFactory("Token");
  const token = await Token.deploy();
  console.log("deployed", token.address);
}
main();""",
]

_PSEUDOCODE_SNIPPETS = [
    """you could do something like this in your contract:
first check the balance mapping for the sender
then transfer the amount and afterwards update storage""",
    """Error: VM Exception while processing transaction: revert
    at Object.InvalidResponse (errors.js:38:16)
    at RequestManager.send (requestmanager.js:61:13)""",
    """contract pseudocode:
  if caller is owner then allow withdraw
  else revert the transaction with an error message""",
    """my contract has a function payable that should keep the ether
but when I call it from remix the balance does not change, any idea?""",
    """1. deploy the library first
2. link the library address into the bytecode
3. deploy the main contract passing the library address""",
]

_CONFIG_SNIPPETS = [
    """[profile.default]
src = 'src'
out = 'out'
libs = ['lib']""",
    """pragma: none
compiler: solc 0.8.19
optimizer: enabled 200 runs""",
    """$ npx hardhat compile
Compiled 12 Solidity files successfully""",
]

_TITLES = [
    "How to withdraw ether from my contract?",
    "Why does my transfer function revert?",
    "How do I generate a random number in Solidity?",
    "msg.sender vs tx.origin — which one should I use?",
    "How to send ether from contract to an address?",
    "Mapping balance not updating after transfer",
    "How to restrict a function to the contract owner?",
    "Parity wallet style proxy — is delegatecall safe?",
    "Loop over array of addresses to pay dividends",
    "ERC20 transfer function fails for some amounts",
    "How to schedule a payout after a deadline?",
    "Is block.timestamp safe to use for a lottery?",
]


@dataclass
class QACorpus:
    """The generated Q&A corpus."""

    posts: list[QAPost] = field(default_factory=list)

    @property
    def snippets(self) -> list[Snippet]:
        return [snippet for post in self.posts for snippet in post.snippets]

    def posts_by_site(self, site: str) -> list[QAPost]:
        return [post for post in self.posts if post.site == site]


def _weighted_choice(rng: random.Random, weights: list[tuple[str, float]]) -> str:
    total = sum(weight for _, weight in weights)
    pick = rng.random() * total
    cumulative = 0.0
    for name, weight in weights:
        cumulative += weight
        if pick <= cumulative:
            return name
    return weights[-1][0]


def _views(rng: random.Random) -> int:
    """Log-normal-ish view counts: most posts have few views, a few are huge."""
    base = rng.lognormvariate(5.5, 1.6)
    return max(5, int(base))


def _post_date(rng: random.Random) -> date:
    start = date(2016, 1, 1)
    end = date(2023, 6, 30)
    span = (end - start).days
    return start + timedelta(days=rng.randint(0, span))


def generate_qa_corpus(
    seed: int = 3,
    posts_per_site: dict[str, int] | None = None,
    max_snippets_per_post: int = 3,
) -> QACorpus:
    """Generate the Q&A snippet corpus.

    ``posts_per_site`` controls the scale; the default produces a corpus in
    the hundreds of posts which keeps the full pipeline fast while
    preserving the Stack Overflow : Ethereum Stack Exchange ratio of the
    paper (roughly 1 : 2.5).
    """
    rng = random.Random(seed)
    if posts_per_site is None:
        posts_per_site = {SITE_STACK_OVERFLOW: 120, SITE_ETHEREUM_SE: 300}
    corpus = QACorpus()
    previous_solidity_snippets: list[str] = []
    post_counter = 0
    snippet_counter = 0
    for site, post_count in posts_per_site.items():
        for _ in range(post_count):
            post_counter += 1
            post = QAPost(
                post_id=f"{site}-{post_counter}",
                site=site,
                title=rng.choice(_TITLES),
                created=_post_date(rng),
                views=_views(rng),
            )
            for _ in range(rng.randint(1, max_snippets_per_post)):
                snippet_counter += 1
                kind = _weighted_choice(rng, _CONTENT_WEIGHTS)
                text, vulnerable, category, language, contract_source, mitigated = _snippet_content(
                    rng, kind, previous_solidity_snippets,
                )
                snippet = Snippet(
                    snippet_id=f"s{snippet_counter}",
                    post_id=post.post_id,
                    site=site,
                    text=text,
                    created=post.created,
                    views=post.views,
                    ground_truth_vulnerable=vulnerable,
                    ground_truth_category=category,
                    ground_truth_language=language,
                    ground_truth_contract_source=contract_source,
                    ground_truth_mitigated_source=mitigated,
                )
                post.snippets.append(snippet)
                if language == "solidity":
                    previous_solidity_snippets.append(text)
            corpus.posts.append(post)
    return corpus


def _snippet_content(
    rng: random.Random,
    kind: str,
    previous_solidity_snippets: list[str],
) -> tuple[str, bool, DaspCategory | None, str, str, str]:
    """Produce the text and ground truth of one snippet.

    Returns ``(text, vulnerable, category, language, contract_source,
    mitigated_source)``.
    """
    if kind == "duplicate" and previous_solidity_snippets:
        return rng.choice(previous_solidity_snippets), False, None, "solidity", "", ""
    if kind == "javascript":
        return rng.choice(_JS_SNIPPETS), False, None, "javascript", "", ""
    if kind == "pseudocode":
        return rng.choice(_PSEUDOCODE_SNIPPETS), False, None, "pseudocode", "", ""
    if kind == "config_or_log":
        return rng.choice(_CONFIG_SNIPPETS), False, None, "other", "", ""
    if kind.startswith("vulnerable"):
        category = rng.choice(list(DaspCategory))
        if category is DaspCategory.UNKNOWN_UNKNOWNS:
            category = DaspCategory.REENTRANCY
        instance = generate_vulnerable(rng, category)
        if kind.endswith("contract"):
            text = instance.contract_source
        elif kind.endswith("function"):
            text = instance.function_snippet
        else:
            text = instance.statement_snippet
        return (text, True, category, "solidity",
                instance.contract_source, instance.mitigated_source)
    # benign solidity
    instance = generate_benign(rng)
    if kind.endswith("contract"):
        text = instance.contract_source
    elif kind.endswith("function"):
        text = instance.function_snippet
    else:
        text = instance.statement_snippet
    return text, False, None, "solidity", instance.contract_source, ""
