#!/usr/bin/env python3
"""Runs one benchmark workload of the MUST reproduction and prints its metrics.

    python3 perfbench/run.py --workload imagetext-6k --seed 47 --seconds 6 --trace 0

Run from the root of the repository. The first run compiles the program's
sources together with the benchmark's own code (perfbench/build.sbt) into
.bench_build/; later runs reuse the build while no source is newer than it.
Each run is one JVM with one local Spark session. The last line of standard
output is the result as one JSON object; see perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
CLASSPATH = WORK / "perfbench" / "classpath.txt"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
DEFAULT_SBT_OPTS = ("-Dsbt.override.build.repos=true -Dsbt.repository.config="
                    + str(Path.home() / ".sbt" / "repositories")
                    + " -Dsbt.offline=true -Xmx2g")

# Fixed JVM settings, recorded in README.md.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch"]
# Spark on JDK 17 needs the module system opened, as spark-submit does.
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def sources():
    yield BENCH / "build.sbt"
    for d in (ROOT / "src" / "main" / "scala", BENCH / "src"):
        yield from d.rglob("*")


def build():
    """Compiles into .bench_build unless the last build is newer than every source."""
    if CLASSPATH.exists():
        stamp = CLASSPATH.stat().st_mtime
        if all(p.stat().st_mtime <= stamp for p in sources()):
            return CLASSPATH.read_text().strip()
    env = dict(os.environ)
    env.setdefault("SBT_OPTS", DEFAULT_SBT_OPTS)
    env.setdefault("COURSIER_MODE", "offline")
    t0 = time.time()
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=BUILD_TIMEOUT_S)
    # `export` prints the classpath as a bare line; sbt's own lines start with "[".
    lines = [l for l in proc.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        raise SystemExit(f"perfbench: build failed (exit {proc.returncode})")
    classpath = lines[-1].strip()
    CLASSPATH.parent.mkdir(parents=True, exist_ok=True)
    CLASSPATH.write_text(classpath + "\n")
    print(f"[perfbench] built in {time.time() - t0:.1f} s", flush=True)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["imagetext-6k", "celebaplus-m2", "imagetext-12k", "celebaplus-m4"])
    ap.add_argument("--seed", type=int, help="workload seed (default: the dataset's own seed)")
    ap.add_argument("--seconds", type=int, default=6, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: per-layer metrics from spans and Spark counters")
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        raise SystemExit(f"perfbench: program sources not found under {ROOT / 'src'}")
    classpath = build()

    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={WORK / 'tmp'}", *JVM_OPENS,
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    signal.signal(signal.SIGTERM, lambda *_: proc.kill())
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line
            else:
                print(line, flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: run failed or exceeded {RUN_TIMEOUT_S} s (exit {proc.returncode})")
    if not last:
        raise SystemExit("perfbench: run printed no result")
    result = json.loads(last)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
