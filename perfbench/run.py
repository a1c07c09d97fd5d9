#!/usr/bin/env python3
"""Build the locsample benchmark and run one workload in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save DIR]

Run from the root of a locsample checkout.  The benchmark executable is
built from source with dune into .bench_build/ and started in its own
process group; the run is killed, with every process it started, if it
outlives its time limit.  The last line of stdout is the result object
(correct, attempted, failed, metrics); the line before it is the run's
provenance.  --save also writes both into DIR/<workload>-s<seed>-t<trace>.json
for compare.py.  The exit code is 0 only when the run finished and every
output check passed.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "locbench.exe")
WORKLOADS = ["exact-batch", "flood-faulty", "serve-cold"]
RUN_LIMIT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_env():
    env = dict(os.environ)
    # Keep every build artifact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from a locsample checkout" % ROOT)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/locbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=build_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=700)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def tool_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30).stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """SHA-256 over the library, CLI and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = []
    for pat in ("lib/**/*.ml", "lib/**/*.mli", "lib/**/dune", "perfbench/*"):
        files += glob.glob(os.path.join(ROOT, pat), recursive=True)
    for path in sorted(set(files)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(exe_prov):
    p = dict(exe_prov)
    rev = tool_output(["git", "rev-parse", "HEAD"])
    p["git_rev"] = rev if rev else "unknown"
    p["source_digest"] = source_digest()
    p["nproc"] = len(os.sched_getaffinity(0))
    config = tool_output(["ocamlfind", "ocamlopt", "-config"]) or tool_output(["ocamlopt", "-config"])
    flambda = [l.split(":", 1)[1].strip() for l in config.splitlines() if l.startswith("flambda:")]
    p["flambda"] = flambda[0] == "true" if flambda else None
    return p


def remove_run_dirs(pid):
    for d in glob.glob(os.path.join(ROOT, ".perfbench", "run-%d" % pid)):
        shutil.rmtree(d, ignore_errors=True)


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The workload and any daemon it forked share the process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        remove_run_dirs(proc.pid)
    if out is None:
        fail("workload %s timed out after %d s" % (args.workload, RUN_LIMIT_S))
    lines = out.decode(errors="replace").strip().splitlines()
    if len(lines) < 2:
        fail("workload %s exited %d without a result" % (args.workload, proc.returncode))
    try:
        prov = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        fail("unreadable result (%s)" % e)
    return proc.returncode, prov, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--save", metavar="DIR", help="also write the run to DIR for compare.py")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    code, prov, result = run(args)
    prov = provenance(prov)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = "%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(args.save, name), "w") as f:
            json.dump({"provenance": prov, "result": result}, f, indent=1)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if code == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
