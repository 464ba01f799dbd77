#!/usr/bin/env python3
"""Build the benchmark program from the checkout's sources and run one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program's last stdout line is the result object. Build output goes to
stderr; the build tree is .bench_build/perfbench inside the checkout.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "perfbench_run"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on any failure."""
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_run",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_digest():
    """Hash of the program's sources and build file: identifies the code
    under test even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    if not (ROOT / "src" / "service" / "session.h").exists():
        log(f"no program sources under {ROOT}; run from a checkout")
        return 2
    if not build():
        log("build failed")
        return 3
    cmd = [str(PROGRAM)] + sys.argv[1:] + [
        "--commit", commit(), "--src-digest", source_digest()]
    return subprocess.run(cmd, cwd=str(ROOT)).returncode


if __name__ == "__main__":
    sys.exit(main())
