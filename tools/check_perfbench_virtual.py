#!/usr/bin/env python3
"""Gates perfbench's virtual-time outputs exactly against a golden file.

    python3 tools/check_perfbench_virtual.py GOLDEN REPORT...
    python3 tools/check_perfbench_virtual.py --write GOLDEN REPORT...

Each REPORT is the stdout of one `python3 perfbench/run.py --workload W
--seed 1 --seconds S --trace 0` run: its first line names the workload and
seed, its last line is the JSON verdict. kops, ack_p50_ms, ack_p99_ms and
commit_p50_ms are deterministic for a seed (the simulator runs in virtual
time, and --seconds only sets how long the host is measured), so every
value must equal the golden one bit for bit. Exits 1 on any difference,
on a missing workload, or on a run that is not "correct".

--write regenerates GOLDEN from the reports instead: only for an intended
behaviour change, in its own commit.
"""

import json
import sys

METRICS = ("kops", "ack_p50_ms", "ack_p99_ms", "commit_p50_ms")


def read_report(path):
    """Returns (workload, seed, verdict) from one run.py report."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("%s: empty report" % path)
    header = lines[0].split()
    if len(header) < 3 or header[0] != "perfbench" or not header[2].startswith("seed="):
        raise ValueError("%s: no 'perfbench <workload> seed=<n>' header" % path)
    return header[1], header[2][len("seed="):], json.loads(lines[-1])


def read_golden(path):
    """Returns {(workload, metric): value}, keeping the seed it pins."""
    values, seed = {}, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("# seed"):
                seed = line.split()[2]
            if not line or line.startswith("#"):
                continue
            workload, metric, value = line.split()
            values[(workload, metric)] = float(value)
    return seed, values


def main(argv):
    write = argv[:1] == ["--write"]
    args = argv[1:] if write else argv
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_path, reports = args[0], [read_report(p) for p in args[1:]]

    failures = [w for w, _, verdict in reports if verdict.get("correct") is not True]
    for w in failures:
        print("FAIL %s: run is not correct" % w)

    if write:
        seeds = {seed for _, seed, _ in reports}
        if len(seeds) != 1 or failures:
            print("refusing to write: mixed seeds or incorrect runs", file=sys.stderr)
            return 1
        with open(golden_path, "w") as f:
            f.write("# perfbench virtual-time outputs; regenerate with\n"
                    "# tools/check_perfbench_virtual.py --write (see its docstring).\n")
            f.write("# seed %s\n" % seeds.pop())
            for workload, _, verdict in reports:
                for m in METRICS:
                    f.write("%s %s %r\n" % (workload, m, verdict["metrics"][m]["value"]))
        return 0

    seed, golden = read_golden(golden_path)
    seen = set()
    for workload, run_seed, verdict in reports:
        if run_seed != seed:
            print("FAIL %s: seed %s, golden pins seed %s" % (workload, run_seed, seed))
            failures.append(workload)
            continue
        for m in METRICS:
            key = (workload, m)
            if key not in golden:
                print("FAIL %s %s: not in the golden" % key)
                failures.append(workload)
                continue
            seen.add(key)
            got = verdict["metrics"][m]["value"]
            if got != golden[key]:
                print("FAIL %s %s: %r, golden %r" % (workload, m, got, golden[key]))
                failures.append(workload)
            else:
                print("ok   %s %s %r" % (workload, m, got))
    for key in sorted(set(golden) - seen):
        print("FAIL %s %s: golden value with no report" % key)
        failures.append(key[0])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
