#!/usr/bin/env python3
"""Build hmcsim's benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gups-hmc --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench binary (see main.go). The
Go build cache, the binaries and the span dumps of traced runs live
in .bench_build/ (or $CARGO_TARGET_DIR when set), inside the checkout.

    python3 perfbench/run.py --compare A.log B.log

compares two files of captured runs (each the standard output of one
or more runs): it prints the median of every metric per workload and
trace mode, and refuses when the two sides were measured on hosts
with different fingerprints.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_KEYS = ("cpu", "nproc", "gomaxprocs", "go")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def go_env(out):
    env = dict(os.environ)
    tmp, home = os.path.join(out, "tmp"), os.path.join(out, "home")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(home, exist_ok=True)
    env.update({
        # The go command keeps its own state (telemetry counters) under
        # the user's config directory; keep that inside the checkout too.
        "HOME": home,
        "XDG_CONFIG_HOME": home,
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def source_state():
    """Commit, tree hash and dirty flag of the source being measured."""
    h = hashlib.sha256()
    skip = {".git", os.path.basename(build_dir())}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".sum")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    commit, dirty = "none", "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
                                    text=True, check=True).stdout
            dirty = "true" if status.strip() else "false"
        except (OSError, subprocess.CalledProcessError):
            pass
    return commit, h.hexdigest()[:16], dirty


def build(out, env):
    bins = os.path.join(out, "bin")
    for target, name in ((".", "perfbench"), ("hmcsim/cmd/hmcsimd", "hmcsimd")):
        cmd = ["go", "build", "-p", "2", "-o", os.path.join(bins, name), target]
        res = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr)
        if res.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bins


def load_runs(path):
    """(fingerprint, result) pairs from a file of captured runs."""
    runs, fp = [], None
    with open(path) as f:
        for line in f:
            if line.startswith("fingerprint "):
                fp = json.loads(line[len("fingerprint "):])
            elif line.startswith("{") and fp is not None:
                runs.append((fp, json.loads(line)))
                fp = None
    return runs


def compare(a_path, b_path):
    sides = [load_runs(a_path), load_runs(b_path)]
    hosts = [{tuple((k, fp[k]) for k in HOST_KEYS) for fp, _ in runs} for runs in sides]
    if any(len(h) != 1 for h in hosts) or hosts[0] != hosts[1]:
        sys.exit("perfbench: refusing to compare runs from different hosts: %s vs %s" % (hosts[0], hosts[1]))
    table = {}
    for side, runs in enumerate(sides):
        for fp, res in runs:
            for name, m in res["metrics"].items():
                key = (fp["workload"], fp["trace"], name, m["unit"])
                table.setdefault(key, ([], []))[side].append(m["value"])
    print("%-14s %-5s %-36s %14s %14s %9s" % ("workload", "trace", "metric", "A median", "B median", "B/A"))
    for (wl, tr, name, unit), (a, b) in sorted(table.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = "%9.3f" % (mb / ma) if ma else "%9s" % "-"
        print("%-14s %-5s %-36s %14.6g %14.6g %s %s" % (wl, tr, name, ma, mb, ratio, unit))


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare A.log B.log")
        compare(argv[1], argv[2])
        return 0
    out = build_dir()
    env = go_env(out)
    bins = build(out, env)
    commit, tree, dirty = source_state()
    cmd = [os.path.join(bins, "perfbench"), "--hmcsimd", os.path.join(bins, "hmcsimd"),
           "--trace-dir", os.path.join(out, "traces"), "--commit", commit, "--tree", tree,
           "--dirty", dirty] + argv
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
