"""Build the program under test into the benchmark's own build directory.

    python3 perfbench/build.py ROOT

Copies ``ROOT/src/repro`` into ``ROOT/.bench_build/py-<hash of the
sources>/`` and compiles the ``repro._accel`` C extension next to it (never
into ``src/``), then prints that directory.  An existing complete build of
the same sources is reused.  A failed compile fails the build: the pure
tier is a 2-3x different program, and the benchmark does not measure it.
Compiler output goes to standard error.
"""

from __future__ import annotations

import compileall
import contextlib
import glob
import hashlib
import os
import shutil
import sys


def source_hash(package: str) -> str:
    digest = hashlib.sha256()
    for folder, directories, files in sorted(os.walk(package)):
        directories[:] = sorted(d for d in directories if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".c", ".h")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(root: str) -> str:
    package = os.path.join(root, "src", "repro")
    if not os.path.isfile(os.path.join(package, "_accel.c")):
        raise SystemExit(f"no program sources at {package}")
    target = os.path.join(root, ".bench_build", "py-" + source_hash(package))
    if glob.glob(os.path.join(target, "repro", "_accel*.so")):
        return target
    staging = target + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    shutil.copytree(package, os.path.join(staging, "repro"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    from setuptools import Distribution, Extension
    command = Distribution({"ext_modules": [Extension(
        "repro._accel", [os.path.join(staging, "repro", "_accel.c")])]}
    ).get_command_obj("build_ext")
    command.build_lib = staging
    command.build_temp = os.path.join(staging, "_objects")
    command.ensure_finalized()
    command.run()
    if not glob.glob(os.path.join(staging, "repro", "_accel*.so")):
        raise SystemExit("repro._accel did not build")
    shutil.rmtree(command.build_temp)
    compileall.compile_dir(os.path.join(staging, "repro"), quiet=1)
    os.replace(staging, target)
    return target


def main() -> int:
    with contextlib.redirect_stdout(sys.stderr):
        target = build(os.path.abspath(sys.argv[1]))
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
