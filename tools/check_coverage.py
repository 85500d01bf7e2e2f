#!/usr/bin/env python3
"""Gate line coverage of the migration, datamodel and tenancy trees.

Reads a Cobertura ``coverage.xml`` (as written by ``pytest --cov
--cov-report=xml``) with nothing but the standard library, aggregates
line coverage per target source tree, and exits non-zero when any tree
falls below the threshold::

    python tools/check_coverage.py coverage.xml --min-percent 90

The data-safe abort recovery lives in ``src/repro/migration``, the
shadow memory in ``src/repro/datamodel``, and the tenant isolation /
reclamation layer in ``src/repro/tenancy``; all are correctness-critical
bookkeeping whose untested lines are exactly where a silent
data-corruption bug would hide, hence the dedicated gate.
"""

from __future__ import annotations

import argparse
import sys
import xml.etree.ElementTree as ET
from pathlib import PurePosixPath

DEFAULT_TARGETS = ("repro/migration", "repro/datamodel", "repro/tenancy")


def _normalize(filename: str) -> str:
    """Cobertura filenames vary by invocation dir; strip leading src/."""
    path = PurePosixPath(filename.replace("\\", "/"))
    parts = path.parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    return str(PurePosixPath(*parts)) if parts else ""


def collect_line_rates(xml_path: str) -> dict[str, tuple[int, int]]:
    """Per-file ``(covered, total)`` line counts from a Cobertura report."""
    try:
        root = ET.parse(xml_path).getroot()
    except (OSError, ET.ParseError) as exc:
        raise SystemExit(f"check_coverage: cannot read {xml_path}: {exc}")
    out: dict[str, tuple[int, int]] = {}
    for cls in root.iter("class"):
        filename = _normalize(cls.get("filename", ""))
        if not filename:
            continue
        covered, total = out.get(filename, (0, 0))
        for line in cls.iter("line"):
            total += 1
            if int(line.get("hits", "0")) > 0:
                covered += 1
        out[filename] = (covered, total)
    return out


def gate(
    per_file: dict[str, tuple[int, int]],
    targets: tuple[str, ...],
    min_percent: float,
) -> list[str]:
    """Human-readable failures (empty = every target meets the bar)."""
    failures = []
    for target in targets:
        prefix = target.rstrip("/") + "/"
        covered = total = 0
        for filename, (c, t) in per_file.items():
            if filename.startswith(prefix):
                covered += c
                total += t
        if total == 0:
            failures.append(f"{target}: no lines measured (wrong --cov set?)")
            continue
        pct = 100.0 * covered / total
        status = "ok" if pct >= min_percent else "FAIL"
        print(
            f"{target}: {covered}/{total} lines, {pct:.1f}% "
            f"(floor {min_percent:.0f}%) {status}"
        )
        if pct < min_percent:
            failures.append(
                f"{target}: {pct:.1f}% < {min_percent:.0f}% line coverage"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("xml", help="Cobertura coverage.xml from pytest --cov")
    parser.add_argument(
        "--min-percent", type=float, default=90.0,
        help="per-target line-coverage floor (default: %(default)s)",
    )
    parser.add_argument(
        "--target", action="append", metavar="TREE",
        help=f"source tree to gate, repeatable (default: {DEFAULT_TARGETS})",
    )
    args = parser.parse_args(argv)
    targets = tuple(args.target) if args.target else DEFAULT_TARGETS
    failures = gate(collect_line_rates(args.xml), targets, args.min_percent)
    for failure in failures:
        print(f"check_coverage: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
