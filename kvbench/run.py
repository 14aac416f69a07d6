#!/usr/bin/env python3
"""Build and run the kvd / SMR-core end-to-end benchmark.

Run from the root of the repository:

    python3 kvbench/run.py --workload ds-churn --seed 1 --seconds 10 --trace 0
    python3 kvbench/run.py --selftest

Builds kvbench/main.exe with dune, runs it with the given arguments and
removes its scratch directory (sockets, FIFOs, arena files, WAL
directories) whatever way it ends.  The last line of standard output is
the benchmark's JSON result; the exit code is the benchmark's.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def tree_id(root):
    """Content hash of the sources the benchmark builds, for the run
    record when the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("lib", "kvbench", "dune-project"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if not x.startswith("_"))
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def commit_id(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree:" + tree_id(root)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("kvbench: no dune project with lib/ at %s; nothing to build" % root,
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", root, "./kvbench/main.exe"],
        stdout=sys.stderr, cwd=root)
    if build.returncode != 0:
        print("kvbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "kvbench", "main.exe")
    run_dir = os.path.join("kvbench", "_run", str(os.getpid()))
    args = [exe] + sys.argv[1:] + ["--run-dir", run_dir]
    if "--selftest" not in sys.argv[1:]:
        args += ["--commit", commit_id(root)]
    # A SIGTERM unwinds like an exception, so the child is killed and
    # the scratch directory removed below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(args, cwd=root)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("kvbench: run exceeded %d s, killed" % RUN_TIMEOUT_S, file=sys.stderr)
        proc.kill()
        proc.wait()
        rc = 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(os.path.join(root, run_dir), ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, "kvbench", "_run"))
        except OSError:
            pass
    return rc


if __name__ == "__main__":
    sys.exit(main())
