#!/usr/bin/env python3
"""Run one LOVO benchmark workload from the root of a source checkout.

    python3 lovobench/run.py --workload query|ann --seed N --seconds S --trace 0|1

The first call compiles the program's sources together with the benchmark
code (sbt, offline) and caches the classpath; later calls start the JVM
directly. What a run writes in the checkout stays under lovobench/ (target/,
.work/); sbt also uses its usual caches in the home directory.
The last line of standard output is the JSON result of the run.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
CLASSPATH_FILE = HERE / "target" / "lovobench.classpath"
WORK = HERE / ".work"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "3g"

# JDK 17 strong encapsulation: Spark reflects into these packages.
ADD_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    )
]


def fail(msg, code=2):
    print(f"lovobench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_fingerprint():
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (PROGRAM_SRC, HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(fingerprint):
    """Compile with sbt and return the runtime classpath."""
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = pathlib.Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed", 1)
    lines = [l for l in out.stdout.splitlines() if l.startswith("/") and "classes" in l]
    if not lines:
        fail("build printed no classpath", 1)
    CLASSPATH_FILE.parent.mkdir(parents=True, exist_ok=True)
    CLASSPATH_FILE.write_text(fingerprint + "\n" + lines[-1] + "\n")
    return lines[-1]


def classpath():
    fingerprint = source_fingerprint()
    if CLASSPATH_FILE.is_file():
        cached = CLASSPATH_FILE.read_text().splitlines()
        if len(cached) == 2 and cached[0] == fingerprint:
            return cached[1]
    return build(fingerprint)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["query", "ann"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be positive")
    if not (PROGRAM_SRC / "repro" / "core" / "Lovo.scala").is_file():
        fail(f"no program sources under {PROGRAM_SRC.relative_to(ROOT)}; run from a full checkout")

    cp = classpath()
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={WORK / 'spark'}"] + ADD_OPENS +
           ["-cp", cp, "lovobench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace])
    proc = subprocess.Popen(cmd, cwd=WORK, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
