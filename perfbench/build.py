"""Build file of the benchmark package.

Compiles the program's sources (``src/main/scala`` of the checkout) together
with the benchmark harness (``perfbench/src``) using the Scala compiler that
ships with the Spark distribution, so no dependency resolution is needed.
The classes land in ``$CARGO_TARGET_DIR`` (default ``.bench_build``) under a
directory named after a hash of every input, so an unchanged tree is built
once and a changed one is rebuilt.

    python3 perfbench/build.py          # prints the runtime classpath
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class BuildError(Exception):
    pass


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return home


def spark_jars():
    jars = sorted(glob.glob(os.path.join(spark_home(), "jars", "*.jar")))
    if not jars:
        raise BuildError("Spark distribution has no jars")
    return jars


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"),
                               recursive=True))
    if not program:
        raise BuildError("program sources not found under src/main/scala")
    harness = sorted(glob.glob(os.path.join(BENCH_DIR, "src", "**", "*.scala"), recursive=True))
    if not harness:
        raise BuildError("benchmark sources not found under perfbench/src")
    return program + harness


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if needed; return (classes dir, runtime classpath, source hash)."""
    files = sources()
    jars = spark_jars()
    digest = source_hash(files + [os.path.abspath(__file__)])[:16]
    out = os.path.join(build_dir(), "perfbench", digest)
    classes = os.path.join(out, "classes")
    done = os.path.join(out, "BUILT")
    classpath = os.pathsep.join([classes] + jars)
    if os.path.exists(done):
        return classes, classpath, digest
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(classes)
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("Scala compiler jars missing from the Spark distribution")
    argfile = os.path.join(out, "scalac.args")
    with open(argfile, "w") as fh:
        fh.write("-classpath\n" + os.pathsep.join(jars) + "\n")
        fh.write("-d\n" + classes + "\n")
        for f in files:
            fh.write(f + "\n")
    cmd = ["java", "-Xss16m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "@" + argfile]
    print("perfbench: compiling %d sources" % len(files), file=sys.stderr)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError("scalac failed with exit code %d" % proc.returncode)
    open(done, "w").close()
    return classes, classpath, digest


if __name__ == "__main__":
    try:
        print(build()[1])
    except BuildError as e:
        print("perfbench build: %s" % e, file=sys.stderr)
        sys.exit(2)
