#!/usr/bin/env python3
"""Check that the docs match the actual public API (used by CI).

Four contracts are enforced, all both ways:

* every name in ``repro.api.__all__`` appears in the marked *surface*
  block of ``docs/api.md``, and the block documents no stale names,
* every CLI command path (``repro analyze``, ``repro cache stats``, …)
  derived from the real argument parser appears in the marked *cli*
  block, and the block documents no removed commands,
* every route of the worker daemon's route table
  (``repro.service.routes.WORKER_ROUTES``) appears in the marked
  *endpoints* block of ``docs/service.md`` or its *workload-endpoints*
  block, and the blocks document no removed endpoints,
* every route of the cluster coordinator's route table
  (``repro.service.routes.COORDINATOR_ROUTES``) appears in the marked
  *coordinator-endpoints* or *workload-endpoints* block, likewise both
  ways.

The *workload-endpoints* block lists the workload-engine routes both
roles serve, so each of them must be in both tables.

Exits non-zero listing each mismatch, so an API change that forgets the
docs — or docs that promise an API that does not exist — fails the docs
job instead of shipping.

Usage::

    python tools/check_api.py [repo-root]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: inline code spans inside a marker block
CODE_SPAN_RE = re.compile(r"`([^`]+)`")

#: an HTTP endpoint declaration: method + path (other spans in the
#: endpoints block — query parameters, JSON examples — are prose)
ENDPOINT_RE = re.compile(r"^(GET|POST|PUT|PATCH|DELETE) /\S+$")


def marker_block(text: str, name: str, path: Path) -> str:
    """The contents of a ``<!-- check_api:NAME -->`` block in ``text``."""
    match = re.search(
        rf"<!--\s*check_api:{name}\s*-->(.*?)<!--\s*/check_api:{name}\s*-->",
        text, re.DOTALL)
    if match is None:
        raise SystemExit(f"{path}: missing '<!-- check_api:{name} -->' block")
    return match.group(1)


def documented_surface(text: str, path: Path) -> set[str]:
    """The public names documented in the api.md surface block."""
    return set(CODE_SPAN_RE.findall(marker_block(text, "surface", path)))


def documented_commands(text: str, path: Path) -> set[str]:
    """The ``repro ...`` command paths documented in the api.md cli block.

    Spans carrying flags (``repro analyze --batch``) are example
    invocations, not command-path declarations, and are skipped.
    """
    commands = set()
    for span in CODE_SPAN_RE.findall(marker_block(text, "cli", path)):
        if not span.startswith("repro "):
            continue
        if any(part.startswith("-") for part in span.split()):
            continue
        commands.add(span.removeprefix("repro ").strip())
    return commands


def documented_endpoints(text: str, path: Path,
                         block: str = "endpoints") -> set[str]:
    """The ``METHOD /path`` endpoints documented in a service.md block."""
    return {span for span in CODE_SPAN_RE.findall(marker_block(text, block, path))
            if ENDPOINT_RE.match(span)}


def actual_endpoints(role: str) -> set[str]:
    """Every HTTP route in one role's route table (worker or coordinator)."""
    from repro.service import routes

    table = {"worker": routes.WORKER_ROUTES,
             "coordinator": routes.COORDINATOR_ROUTES}[role]
    return {f"{method} {route}" for method, route in table.endpoints}


def actual_surface() -> set[str]:
    """The names ``repro.api`` actually exports."""
    import repro.api

    return set(repro.api.__all__)


def _walk_commands(parser: argparse.ArgumentParser, prefix: str = "") -> set[str]:
    subparsers = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        return {prefix} if prefix else set()
    commands: set[str] = set()
    for action in subparsers:
        for name, child in action.choices.items():
            path = f"{prefix} {name}".strip()
            commands |= _walk_commands(child, path)
    return commands


def actual_commands() -> set[str]:
    """Every leaf command path of the real ``repro`` argument parser."""
    from repro.cli import build_parser

    return _walk_commands(build_parser())


def check(kind: str, documented: set[str], actual: set[str],
          where: str = "docs/api.md") -> list[str]:
    """Mismatch messages between the documented and the actual set."""
    problems = []
    for name in sorted(actual - documented):
        problems.append(f"{where}: {kind} {name!r} exists but is undocumented")
    for name in sorted(documented - actual):
        problems.append(f"{where}: {kind} {name!r} is documented but does not exist")
    return problems


def main(argv: list[str]) -> int:
    """Check both surfaces; returns a process exit code."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    sys.path.insert(0, str(root / "src"))
    path = root / "docs" / "api.md"
    text = path.read_text(encoding="utf-8")
    problems = check("public name", documented_surface(text, path), actual_surface())
    problems += check("CLI command", documented_commands(text, path), actual_commands())
    service_path = root / "docs" / "service.md"
    service_text = service_path.read_text(encoding="utf-8")
    # the workload block documents the routes both roles share, so the
    # per-role blocks only carry their role-specific endpoints
    workload_documented = documented_endpoints(service_text, service_path,
                                               "workload-endpoints")
    worker, coordinator = (actual_endpoints("worker"),
                           actual_endpoints("coordinator"))
    problems += check("workload endpoint", workload_documented,
                      workload_documented & worker & coordinator,
                      where="docs/service.md")
    problems += check("service endpoint",
                      documented_endpoints(service_text, service_path)
                      | workload_documented,
                      worker, where="docs/service.md")
    problems += check("coordinator endpoint",
                      documented_endpoints(service_text, service_path,
                                           "coordinator-endpoints")
                      | workload_documented,
                      coordinator, where="docs/service.md")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(actual_surface())} public names, "
          f"{len(actual_commands())} CLI commands, and "
          f"{len(worker) + len(coordinator)} "
          f"service endpoints against the docs: "
          f"{len(problems)} mismatch(es)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
