"""CI gate: the registry's metric families must match METRICS_SCHEMA.json.

Boots the miniature fully-wired system (see ``repro.obs.schema``), collects
every metric family it registers, and diffs names and kinds against the
checked-in contract — and diffs the contract against the ``FAMILIES`` table
of ``repro.obs.instruments``, whose name/kind projection it is, so a row
nothing emits is caught too.  Dashboards and alerts key on these names, so
adding, renaming or re-typing a metric must be a reviewed change to the
schema file — run with ``--update`` to rewrite it deliberately.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_metrics_schema.py
    PYTHONPATH=src python scripts/check_metrics_schema.py --update
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.instruments import FAMILIES
from repro.obs.schema import (
    SCHEMA_FILENAME,
    bootstrap_registry,
    diff_schema,
    dump_schema,
    load_schema,
    registry_families,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--schema",
        default=None,
        help=f"path to the schema file (default: <repo root>/{SCHEMA_FILENAME})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the schema file from the current registry instead of checking",
    )
    args = parser.parse_args(argv)

    schema_path = (
        Path(args.schema)
        if args.schema
        else Path(__file__).resolve().parent.parent / SCHEMA_FILENAME
    )
    actual = registry_families(bootstrap_registry())

    if args.update:
        dump_schema(actual, schema_path)
        print(f"[check_metrics_schema] wrote {schema_path} ({len(actual)} families)")
        return 0

    if not schema_path.exists():
        print(
            f"[check_metrics_schema] {schema_path} does not exist; "
            "run with --update to create it",
            file=sys.stderr,
        )
        return 1
    expected = load_schema(schema_path)
    table = {name: family.kind for name, family in FAMILIES.items()}
    clean = True
    for source, verb, families in (
        ("registry", "emitted", actual),
        ("FAMILIES table", "declared", table),
    ):
        missing, unexpected, mismatched = diff_schema(expected, families)
        clean = clean and not (missing or unexpected or mismatched)
        for name in missing:
            print(f"[check_metrics_schema] MISSING  {name} (in schema, not {verb})",
                  file=sys.stderr)
        for name in unexpected:
            print(f"[check_metrics_schema] NEW      {name} ({verb}, not in schema)",
                  file=sys.stderr)
        for line in mismatched:
            print(f"[check_metrics_schema] KIND     {line} ({source})",
                  file=sys.stderr)
    if clean:
        print(
            f"[check_metrics_schema] OK: {len(actual)} families match "
            f"{schema_path.name} and the FAMILIES table"
        )
        return 0
    print(
        "[check_metrics_schema] metric names drifted from the checked-in schema; "
        "if intentional, rerun with --update and commit the result",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
