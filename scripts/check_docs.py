#!/usr/bin/env python
"""Doc-drift gate: the documentation must keep working as the code moves.

Five checks over README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md:

1. **Fenced ``python`` blocks are executed** (``PYTHONPATH=src``, each block
   its own interpreter).  Blocks that talk to a daemon via ``ServiceClient``
   get one: the checker boots ``svc-repro serve --scale small --port 0`` once
   and rewrites the documented port to the live one before running the block.
2. **Fenced ``bash`` blocks are linted against the real parsers**: every
   ``svc-repro``/``python -m repro.cli`` line is checked token by token —
   the subcommand must exist, every ``--flag`` must be a real option of the
   parser that would receive it, and choice-restricted values must be valid.
3. **Referenced paths must exist**: any ``examples/…``, ``benchmarks/…``,
   ``scripts/…`` or ``docs/…`` file named in a bash block or inline code span
   has to be present in the repo.
4. **Named metrics must exist**: every ``repro_*`` metric name anywhere in
   the text is a key of ``repro.obs.instruments.FAMILIES`` (a histogram's
   ``_bucket``/``_sum``/``_count`` series and prefixes ending in ``_`` are
   fine), so a runbook row cannot outlive its metric.
5. **Retired names stay retired**: a doc that still speaks of the second
   copy of committed core-link load the ledger used to keep
   (``commit_direct``, ``committed_totals``, ``event="mirror"``), of the
   front door's bridge pool (``--pool-size``, ``pool_size``, ``aio-bridge``),
   or of the allocators' second implementation and its benchmark
   (``fast=False``, ``svc-dp-seed``, ``svc-het-seed``,
   ``bench_admission_path``), fails.

Opt out per block by placing ``<!-- check-docs: skip -->`` on the line above
the opening fence (used for illustrative/pseudo-code fragments).

Run from the repo root (CI does, gating)::

    python scripts/check_docs.py
    python scripts/check_docs.py --no-exec README.md   # parser/path lint only
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SKIP_MARKER = "<!-- check-docs: skip -->"
BLOCK_TIMEOUT_S = 180
PATH_PATTERN = re.compile(
    r"\b((?:examples|benchmarks|scripts|docs|tests)/[\w][\w./-]*\.(?:py|md|json))\b"
)
METRIC_PATTERN = re.compile(r"\brepro_[a-z0-9_]+")
HISTOGRAM_SERIES = re.compile(r"_(?:bucket|sum|count)$")
#: Names the code no longer has, and what a doc should say instead.
RETIRED = {
    "commit_direct": "tenancies enter the replica through the coordinator's _install",
    "committed_totals": "committed core-link load is the replica's LinkState",
    'event="mirror"': "nothing emits it: the ledger holds no committed copy",
    "--pool-size": "the front door runs every command on the event-loop thread",
    "pool_size": "AsyncFrontDoor takes no pool: commands run on the loop thread",
    "aio-bridge": "no bridge threads exist; workers are admission-worker-N",
    "fast=False": "each allocator has one DP; the seed recursions are tests/reference",
    "svc-dp-seed": "the oracle is tests.reference.SeedTreeSearch, not an allocator name",
    "svc-het-seed": "the oracle is tests.reference.SeedSubstringHeuristic",
    "bench_admission_path": "the DP's cost is benchmarks/e2e paper-mixed; its decisions "
    "are gated by scripts/check_incremental_dp.py",
}

sys.path.insert(0, str(SRC))


class Block(NamedTuple):
    path: Path
    lang: str
    first_line: int  # line number of the opening fence, 1-based
    code: str
    skipped: bool


def iter_blocks(path: Path) -> Iterator[Block]:
    lines = path.read_text().splitlines()
    fence: Optional[Tuple[str, int]] = None
    body: List[str] = []
    previous_meaningful = ""
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if fence is None:
            if stripped.startswith("```") and stripped != "```":
                fence = (stripped[3:].strip(), number)
                body = []
            elif stripped.startswith("```"):
                fence = ("", number)
                body = []
            elif stripped:
                previous_meaningful = stripped
        else:
            if stripped == "```":
                lang, start = fence
                yield Block(
                    path=path,
                    lang=lang,
                    first_line=start,
                    code="\n".join(body),
                    skipped=previous_meaningful == SKIP_MARKER,
                )
                fence = None
                previous_meaningful = ""
            else:
                body.append(line)


class Failure(NamedTuple):
    where: str
    message: str


# ---------------------------------------------------------------------------
# Check 2: svc-repro command lines against the real argparse parsers.
# ---------------------------------------------------------------------------


def _parsers():
    from repro.cli import build_parser
    from repro.cluster.cluster_cli import build_cluster_parser
    from repro.faults.chaos_cli import build_chaos_parser
    from repro.obs.obs_cli import build_obs_parser
    from repro.service.server import build_serve_parser
    from repro.service.top import build_top_parser

    return {
        "serve": build_serve_parser(),
        "top": build_top_parser(),
        "chaos": build_chaos_parser(),
        "cluster": build_cluster_parser(),
        "obs": build_obs_parser(),
        None: build_parser(),  # the experiment front-end
    }


def _cli_tokens(line: str) -> Optional[List[str]]:
    """The argv a documented command line would hand to ``repro.cli.main``."""
    code = line.split("#", 1)[0].strip()
    if not code:
        return None
    try:
        tokens = shlex.split(code)
    except ValueError:
        return None
    tokens = [t for t in tokens if "=" not in t or not t.partition("=")[0].isupper()]
    if not tokens:
        return None
    if tokens[0] == "svc-repro":
        return tokens[1:]
    if tokens[0].endswith("python") and tokens[1:3] == ["-m", "repro.cli"]:
        return tokens[3:]
    return None


def lint_cli_line(parsers, line: str, where: str) -> List[Failure]:
    argv = _cli_tokens(line)
    if argv is None or not argv:
        return []
    failures: List[Failure] = []
    parser = parsers.get(argv[0])
    if parser is not None:
        argv = argv[1:]
    else:
        parser = parsers[None]
        experiment_action = next(
            a for a in parser._actions if a.dest == "experiment"
        )
        if argv[0].startswith("-") or argv[0] not in experiment_action.choices:
            failures.append(
                Failure(where, f"unknown subcommand/experiment {argv[0]!r}")
            )
            return failures
        argv = argv[1:]
    options = parser._option_string_actions
    index = 0
    while index < len(argv):
        token = argv[index]
        index += 1
        if not token.startswith("--"):
            continue
        flag, _, inline_value = token.partition("=")
        action = options.get(flag)
        if action is None:
            failures.append(
                Failure(where, f"{flag!r} is not a flag of this command")
            )
            continue
        if action.nargs == 0:
            continue
        value = inline_value
        if not value and index < len(argv) and not argv[index].startswith("-"):
            value = argv[index]
            index += 1
        if action.choices and value and value not in [str(c) for c in action.choices]:
            failures.append(
                Failure(where, f"{flag} {value!r} not in {sorted(map(str, action.choices))}")
            )
    return failures


# ---------------------------------------------------------------------------
# Check 1: execute python blocks (booting a daemon when a block needs one).
# ---------------------------------------------------------------------------


class DaemonHandle:
    """Lazily-started ``svc-repro serve`` a documented block can talk to."""

    def __init__(self) -> None:
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def ensure(self) -> int:
        if self.port is not None:
            return self.port
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--scale", "small", "--port", "0", "--log-level", "error",
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        assert self.process.stdout is not None
        ready = self.process.stdout.readline()
        self.port = int(json.loads(ready)["port"])
        return self.port

    def close(self) -> None:
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()


def run_python_block(block: Block, daemon: DaemonHandle, where: str) -> List[Failure]:
    code = block.code
    if "ServiceClient" in code:
        try:
            port = daemon.ensure()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
            return [Failure(where, f"could not boot a daemon for this block: {exc}")]
        code = re.sub(r"port=\d+", f"port={port}", code)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-"],
            input=code,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=BLOCK_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return [Failure(where, f"python block timed out after {BLOCK_TIMEOUT_S}s")]
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-4:])
        return [Failure(where, f"python block failed (exit {proc.returncode}):\n{tail}")]
    return []


# ---------------------------------------------------------------------------
# Check 3: referenced repo paths exist.
# ---------------------------------------------------------------------------


def lint_paths(text: str, where: str) -> List[Failure]:
    failures = []
    for match in PATH_PATTERN.finditer(text):
        if not (ROOT / match.group(1)).exists():
            failures.append(Failure(where, f"referenced path {match.group(1)!r} does not exist"))
    return failures


# ---------------------------------------------------------------------------
# Check 4: named metrics are families the code declares.
# ---------------------------------------------------------------------------


def lint_metric_names(doc: Path) -> List[Failure]:
    from repro.obs.instruments import FAMILIES

    failures = []
    for number, line in enumerate(doc.read_text().splitlines(), start=1):
        for name in METRIC_PATTERN.findall(line):
            known = (
                any(family.startswith(name) for family in FAMILIES)
                if name.endswith("_")
                else name in FAMILIES or HISTOGRAM_SERIES.sub("", name) in FAMILIES
            )
            if not known:
                failures.append(
                    Failure(
                        f"{doc.relative_to(ROOT)}:{number}",
                        f"{name!r} is not a metric family (repro.obs.instruments.FAMILIES)",
                    )
                )
    return failures


# ---------------------------------------------------------------------------
# Check 5: names the code retired do not live on in the docs.
# ---------------------------------------------------------------------------


def lint_retired_names(doc: Path) -> List[Failure]:
    failures = []
    for number, line in enumerate(doc.read_text().splitlines(), start=1):
        for name, instead in RETIRED.items():
            if name in line:
                failures.append(
                    Failure(
                        f"{doc.relative_to(ROOT)}:{number}",
                        f"{name!r} is retired ({instead})",
                    )
                )
    return failures


def default_docs() -> List[Path]:
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    docs.extend(sorted((ROOT / "docs").glob("*.md")))
    return [d for d in docs if d.exists()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="docs to check (default: all)")
    parser.add_argument(
        "--no-exec", action="store_true",
        help="skip executing python blocks (parser/path lint only)",
    )
    args = parser.parse_args(argv)

    docs = [Path(f).resolve() for f in args.files] if args.files else default_docs()
    parsers = _parsers()
    daemon = DaemonHandle()
    failures: List[Failure] = []
    checked_blocks = executed = 0
    try:
        for doc in docs:
            failures.extend(lint_metric_names(doc))
            failures.extend(lint_retired_names(doc))
            for block in iter_blocks(doc):
                where = f"{doc.relative_to(ROOT)}:{block.first_line}"
                if block.skipped:
                    continue
                checked_blocks += 1
                failures.extend(lint_paths(block.code, where))
                if block.lang in ("bash", "sh", "console"):
                    for offset, line in enumerate(block.code.splitlines()):
                        failures.extend(
                            lint_cli_line(parsers, line, f"{doc.relative_to(ROOT)}:{block.first_line + 1 + offset}")
                        )
                elif block.lang == "python" and not args.no_exec:
                    executed += 1
                    failures.extend(run_python_block(block, daemon, where))
    finally:
        daemon.close()

    for failure in failures:
        print(f"check_docs: {failure.where}: {failure.message}", file=sys.stderr)
    print(
        f"check_docs: {len(docs)} file(s), {checked_blocks} block(s) checked, "
        f"{executed} python block(s) executed, {len(failures)} problem(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
