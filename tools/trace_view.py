#!/usr/bin/env python3
"""Pretty-print a MonkeyDB Chrome-trace JSON dump as a span tree.

Input is the output of DB::DumpTrace() / `TRACE JSON` / GET /trace —
Chrome trace-event JSON with 'B'/'E'/'I' phases (DESIGN.md §14). Output
is one indented line per span with its duration, grouped by (pid, tid)
track, parents before children.

    tools/trace_view.py trace.json
    monkey_cli TRACE JSON | tools/trace_view.py -
    tools/trace_view.py --check trace.json   # exit 1 on nesting violations

Nesting violations — an 'E' with no open 'B' on its track, or a 'B' left
unclosed at end of track — are reported to stderr; --check turns them
into a non-zero exit status (trace_test.cc round-trips a recorded trace
through this script and asserts zero violations).

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys


def load_events(path):
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    if isinstance(doc, list):  # Bare traceEvents array is also legal.
        return doc
    return doc.get("traceEvents", [])


def format_args(args):
    parts = [
        "%s=%s" % (k, v) for k, v in sorted(args.items()) if k != "request_id"
    ]
    req = args.get("request_id")
    if req is not None:
        parts.append("req=%s" % req)
    return (" (" + ", ".join(parts) + ")") if parts else ""


def render_track(track_key, events, out, violations):
    """Renders one (pid, tid) track; appends violation strings."""
    pid, tid = track_key
    out.append("thread %s/%s:" % (pid, tid))
    stack = []  # Open 'B' events: (line_index, event).
    lines = []  # (depth, text, duration_us or None)
    for ev in events:
        phase = ev.get("ph")
        name = ev.get("name", "?")
        ts = float(ev.get("ts", 0.0))
        if phase == "B":
            idx = len(lines)
            lines.append([len(stack), name + format_args(ev.get("args", {})),
                          None])
            stack.append((idx, name, ts))
        elif phase == "E":
            if not stack:
                violations.append(
                    "tid %s: unmatched end '%s' at ts=%.3f" % (tid, name, ts))
                lines.append([0, "!unmatched end: " + name, None])
                continue
            idx, open_name, open_ts = stack.pop()
            if open_name != name:
                violations.append(
                    "tid %s: end '%s' closes begin '%s'" % (tid, name,
                                                            open_name))
            # End events carry the final args; prefer them.
            lines[idx][1] = name + format_args(ev.get("args", {}))
            lines[idx][2] = ts - open_ts
        elif phase == "I":
            lines.append([len(stack),
                          name + format_args(ev.get("args", {})) +
                          " [instant]", None])
    for idx, open_name, _ in stack:
        violations.append("tid %s: unclosed begin '%s'" % (tid, open_name))
        lines[idx][1] = "!unclosed begin: " + lines[idx][1]
    for depth, text, duration in lines:
        suffix = "" if duration is None else " %.1fus" % duration
        out.append("  " * (depth + 1) + text + suffix)


def main():
    parser = argparse.ArgumentParser(
        description="Render a MonkeyDB Chrome trace as a span tree.")
    parser.add_argument("path", help="trace JSON file, or - for stdin")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the trace has nesting violations")
    opts = parser.parse_args()

    try:
        events = load_events(opts.path)
    except (OSError, ValueError) as e:
        print("trace_view: %s" % e, file=sys.stderr)
        return 2

    tracks = {}  # (pid, tid) -> [event], in file order (ts-sorted dumps).
    for ev in events:
        if ev.get("ph") not in ("B", "E", "I"):
            continue
        tracks.setdefault((ev.get("pid", 0), ev.get("tid", 0)),
                          []).append(ev)

    out = []
    violations = []
    for key in sorted(tracks):
        render_track(key, tracks[key], out, violations)
    print("\n".join(out))
    for v in violations:
        print("trace_view: violation: %s" % v, file=sys.stderr)
    if violations and opts.check:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
