#!/usr/bin/env python3
"""Lints DumpMetrics() Prometheus text exposition (CI release job).

Usage:
    dump_metrics | python3 tools/metrics_lint.py
    python3 tools/metrics_lint.py < metrics.txt

Checks, in the spirit of promtool's `check metrics`:
  * every line is a comment (# HELP / # TYPE) or a well-formed sample;
  * each metric's HELP and TYPE are declared before its first sample, at
    most once, with a known type (counter / gauge / summary);
  * sample names match the declared family (summaries may add _sum and
    _count suffixes), label sets are well-formed and values parse;
  * counter and summary values are non-negative and counters end in
    _total (summary _sum/_count excepted);
  * every declared family has at least one sample and vice versa;
  * the paper-specific gauges monkey_predicted_fpr / monkey_measured_fpr
    are present with level labels, plus the lookup-cost pair.

Exits non-zero with a message per violation.
"""

import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')
KNOWN_TYPES = {"counter", "gauge", "summary"}
REQUIRED = [
    "monkeydb_gets_total",
    "monkeydb_gets_not_found_total",
    "monkey_predicted_fpr",
    "monkey_measured_fpr",
    "monkey_predicted_lookup_cost",
    "monkey_measured_lookup_cost",
]


def family_of(name, types):
    """Maps a sample name to its declared family (summary suffixes fold)."""
    if name in types:
        return name
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def main():
    text = sys.stdin.read()
    errors = []
    helps = {}
    types = {}
    sampled = set()

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            errors.append(f"line {lineno}: blank line in exposition")
            continue

        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 4 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            _, kind, name, rest = parts
            if not NAME_RE.match(name):
                errors.append(f"line {lineno}: bad metric name {name!r}")
                continue
            table = helps if kind == "HELP" else types
            if name in table:
                errors.append(f"line {lineno}: duplicate {kind} for {name}")
            if name in sampled:
                errors.append(
                    f"line {lineno}: {kind} for {name} after its samples"
                )
            if kind == "TYPE" and rest not in KNOWN_TYPES:
                errors.append(
                    f"line {lineno}: unknown type {rest!r} for {name}"
                )
            table[name] = rest
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = m.group("name")
        family = family_of(name, types)
        if family is None:
            errors.append(f"line {lineno}: sample {name} has no TYPE")
            continue
        if family not in helps:
            errors.append(f"line {lineno}: sample {name} has no HELP")
        if name != family and types[family] != "summary":
            errors.append(
                f"line {lineno}: suffixed sample {name} on "
                f"non-summary {family}"
            )
        sampled.add(family)

        labels = m.group("labels")
        if labels is not None:
            for label in labels.split(","):
                if not LABEL_RE.match(label):
                    errors.append(
                        f"line {lineno}: malformed label {label!r}"
                    )
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(
                f"line {lineno}: bad value {m.group('value')!r}"
            )
            continue
        if types[family] in ("counter", "summary") and value < 0:
            errors.append(
                f"line {lineno}: negative {types[family]} {name}={value}"
            )
        if (
            types[family] == "counter"
            and not name.endswith("_total")
        ):
            errors.append(
                f"line {lineno}: counter {name} does not end in _total"
            )

    for name in types:
        if name not in sampled:
            errors.append(f"metric {name} declared but never sampled")
    for name in helps:
        if name not in types:
            errors.append(f"metric {name} has HELP but no TYPE")
    for name in types:
        if name not in helps:
            errors.append(f"metric {name} has TYPE but no HELP")
    for name in REQUIRED:
        if name not in sampled:
            errors.append(f"required metric {name} missing")
    for name in ("monkey_predicted_fpr", "monkey_measured_fpr"):
        # The level label may ride with others, so match within the
        # label set instead of requiring level to be the only label.
        if name in sampled and not re.search(
            rf'{name}\{{[^}}]*level="1"', text
        ):
            errors.append(f"{name} has no per-level sample")

    if errors:
        for e in errors:
            print(f"metrics_lint: {e}", file=sys.stderr)
        print(
            f"metrics_lint: FAILED ({len(errors)} problem(s), "
            f"{len(sampled)} metric families)",
            file=sys.stderr,
        )
        return 1
    print(f"metrics_lint: OK ({len(sampled)} metric families)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
