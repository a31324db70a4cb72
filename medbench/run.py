#!/usr/bin/env python3
"""Build and run the medcrypt benchmark.

Run from the repository root:

    python3 medbench/run.py --workload mail_uniform --seed 1 --seconds 40 --trace 0
    python3 medbench/run.py --self-test

The library (../src) and the benchmark program are built with CMake into
$CARGO_TARGET_DIR/medbench-<id> (default .bench_build under the current
directory), where <id> is a hash of this checkout's path; the first run
builds, later runs reuse the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Result and span files
are written to <build dir>/medbench-out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LIB_SRC = HERE.parent / "src"


def build_dir() -> Path:
    """This checkout's own build tree: checkouts that share a target
    directory never build, or run, one another's sources."""
    tag = hashlib.sha256(str(HERE.parent).encode()).hexdigest()[:12]
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    return target / f"medbench-{tag}"


def build(target: str) -> Path:
    """Configures (once) and builds `target`; returns the build directory."""
    if not (LIB_SRC / "CMakeLists.txt").is_file():
        sys.exit(f"medbench: library sources not found at {LIB_SRC}")
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir)],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return bdir


def src_digest() -> str:
    """SHA-256 over the library sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(p for p in LIB_SRC.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(LIB_SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    """Short HEAD revision when the checkout itself is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
                             cwd=HERE, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != HERE.parent:
        return "none"
    return lines[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        if args.self_test:
            bdir = build("medbench_test")
            return subprocess.run([str(bdir / "medbench_test")]).returncode
        if not args.workload:
            ap.error("--workload is required")
        bdir = build("medbench")
    except subprocess.CalledProcessError as e:
        print(f"medbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = bdir / "medbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "medbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--git-rev", git_rev(),
           "--src-digest", src_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
