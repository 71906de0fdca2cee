#!/usr/bin/env python3
"""Render an observability bundle (Cluster::WriteObsBundle output) as a
single self-contained HTML dashboard: every compressed metric series as an
inline-SVG chart with its Gorilla compression accounting, the per-node
counters from node_stats.json, and the tail of the flight-recorder journal
with safety violations highlighted.

Stdlib only — no pip installs, no external assets.

Usage: obs_report.py BUNDLE_DIR [--out report.html] [--journal-tail 200]
"""

import argparse
import html
import json
import os
import sys


def read_json(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def read_jsonl(path):
    if not os.path.exists(path):
        return []
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def fmt_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024.0
    return f"{n} B"


def svg_chart(points, width=640, height=120, pad=6):
    """One series as an inline SVG polyline over virtual-time ns."""
    if not points:
        return "<svg class='chart'></svg>"
    ts = [p[0] for p in points]
    vs = [p[1] for p in points]
    t0, t1 = min(ts), max(ts)
    v0, v1 = min(vs), max(vs)
    tspan = (t1 - t0) or 1
    vspan = (v1 - v0) or 1

    def x(t):
        return pad + (t - t0) / tspan * (width - 2 * pad)

    def y(v):
        return height - pad - (v - v0) / vspan * (height - 2 * pad)

    coords = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in points)
    return (
        f"<svg class='chart' viewBox='0 0 {width} {height}' "
        f"preserveAspectRatio='none'>"
        f"<polyline points='{coords}' fill='none' stroke='#2b6cb0' "
        f"stroke-width='1.5'/>"
        f"<text x='{pad}' y='{pad + 8}' class='lbl'>max {v1:g}</text>"
        f"<text x='{pad}' y='{height - pad}' class='lbl'>min {v0:g}</text>"
        f"</svg>"
    )


STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 72em;
       color: #1a202c; }
h1 { border-bottom: 2px solid #2b6cb0; padding-bottom: .2em; }
h2 { margin-top: 2em; color: #2b6cb0; }
table { border-collapse: collapse; font-size: .9em; }
td, th { border: 1px solid #cbd5e0; padding: .3em .7em; text-align: left; }
th { background: #edf2f7; }
.chart { width: 100%; max-width: 42em; height: 7.5em; background: #f7fafc;
         border: 1px solid #cbd5e0; display: block; }
.lbl { font-size: 9px; fill: #718096; }
.series { margin-bottom: 1.5em; }
.series .meta { color: #718096; font-size: .85em; }
.journal { font-family: ui-monospace, monospace; font-size: .8em;
           background: #f7fafc; border: 1px solid #cbd5e0; padding: .8em;
           overflow-x: auto; white-space: pre; }
.violation { color: #c53030; font-weight: bold; }
code { background: #edf2f7; padding: 0 .25em; }
"""


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("bundle", help="directory WriteObsBundle() produced")
    parser.add_argument("--out", help="output HTML path (default: "
                        "BUNDLE/report.html)")
    parser.add_argument("--journal-tail", type=int, default=200,
                        help="journal events to show (newest last)")
    args = parser.parse_args()

    metrics = read_json(os.path.join(args.bundle, "metrics.json"))
    node_stats = read_json(os.path.join(args.bundle, "node_stats.json"))
    journal = read_jsonl(os.path.join(args.bundle, "journal.jsonl"))
    if metrics is None and not journal:
        sys.exit(f"no metrics.json or journal.jsonl under {args.bundle}")

    out = []
    out.append(f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
               f"<title>nbraft observability report</title>"
               f"<style>{STYLE}</style></head><body>")
    out.append(f"<h1>nbraft observability report</h1>"
               f"<p>bundle: <code>{html.escape(args.bundle)}</code></p>")

    if metrics is not None:
        series = metrics.get("series", [])
        out.append("<h2>Sampled series (Gorilla-compressed)</h2>")
        if not series:
            out.append("<p>No sampled series (sampler was off).</p>")
        for s in series:
            points = s.get("points", [])
            enc = s.get("encoded_bytes", 0)
            raw = s.get("raw_bytes", 0)
            chunks = s.get("sealed_chunks", 0)
            ratio = f"{raw / enc:.1f}x" if enc else "n/a (open tail only)"
            out.append("<div class='series'>")
            out.append(f"<strong>{html.escape(s['name'])}</strong> "
                       f"<span class='meta'>{len(points)} points · "
                       f"{chunks} sealed chunks · {fmt_bytes(enc)} encoded "
                       f"of {fmt_bytes(raw)} raw · compression {ratio}"
                       f"</span>")
            out.append(svg_chart(points))
            out.append("</div>")

    if node_stats is not None:
        out.append("<h2>Per-node stats</h2><table>")
        nodes = sorted(node_stats.keys())
        keys = sorted(
            k for k, v in node_stats[nodes[0]].items()
            if isinstance(v, (int, float))
        ) if nodes else []
        out.append("<tr><th>stat</th>" +
                   "".join(f"<th>{html.escape(n)}</th>" for n in nodes) +
                   "</tr>")
        for k in keys:
            cells = "".join(
                f"<td>{node_stats[n].get(k, '')}</td>" for n in nodes)
            out.append(f"<tr><td>{html.escape(k)}</td>{cells}</tr>")
        out.append("</table>")

    if journal:
        meta = journal[0] if journal[0].get("type") == "meta" else {}
        events = [r for r in journal if r.get("type") == "event"]
        tail = events[-args.journal_tail:]
        out.append("<h2>Flight recorder</h2>")
        out.append(f"<p>{meta.get('events_recorded', '?')} events recorded, "
                   f"{meta.get('events_dropped', '?')} overwritten, "
                   f"{meta.get('events_emitted', len(events))} in dump; "
                   f"showing newest {len(tail)}.</p>")
        lines = []
        for e in tail:
            ms = e.get("at_ns", 0) / 1e6
            kind = e.get("kind", "?")
            who = f"node {e['node']}" if e.get("node", -1) >= 0 else "cluster"
            detail = (f"rpc={e['rpc']} bytes={e['bytes']}"
                      if "rpc" in e else f"a={e.get('a')} b={e.get('b')}")
            peer = f" peer={e['peer']}" if e.get("peer", -1) >= 0 else ""
            line = f"[{ms:14.6f} ms] {who}: {kind}{peer} {detail}"
            escaped = html.escape(line)
            if "invariant_violate" in kind:
                escaped = f"<span class='violation'>{escaped}</span>"
            lines.append(escaped)
        out.append(f"<div class='journal'>{chr(10).join(lines)}</div>")

    out.append("</body></html>")

    out_path = args.out or os.path.join(args.bundle, "report.html")
    with open(out_path, "w") as f:
        f.write("\n".join(out) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
