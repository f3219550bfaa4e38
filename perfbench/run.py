#!/usr/bin/env python3
"""Run one workload of the reclamation benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package from source
(into `$CARGO_TARGET_DIR`, default `.bench_build`), runs it, and prints as the
last line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
run also records spans, and `spans.py` reduces them to the per-layer metrics.
Exits nonzero when the build fails or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

WORKLOADS = ("list-read", "skiplist-churn", "soak", "stall")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def revision(root):
    """The git revision, or a hash of the sources when not in a git checkout."""
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if out.returncode == 0:
            return "git-" + out.stdout.strip()
    digest = hashlib.sha256()
    files = [p for p in (root / "crates").rglob("*") if p.is_file()]
    files += [p for p in HERE.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += [root / "Cargo.toml", root / "Cargo.lock"]
    for path in sorted(p for p in files if p.exists()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("error: building perfbench failed", file=sys.stderr)
        return 1

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--rev", revision(root),
    ]
    trace_path = target / "perfbench-traces" / f"{args.workload}-{args.seed}.tsv"
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if not lines:
        print(f"error: perfbench exited {run.returncode} without a result", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if args.trace:
        with open(trace_path) as f:
            metrics, report = spans.reduce(*spans.parse(f))
        print("\n".join(report))
        result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps(result), flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
