"""Build the compiled CSR kernels from the checkout, outside ``src/``.

The repository's own ``setup.py build_ext`` compiles
``src/repro/linalg/_csr_kernels.c``; ``--build-lib``/``--build-temp``
send every output into this benchmark's ``.build`` directory, so the
source tree stays clean.  The module is then loaded into
``sys.modules["repro.linalg._csr_kernels"]`` before :mod:`repro` is
imported, which is where :mod:`repro.linalg.kernels` looks for it.

A build is reused while the C source, ``setup.py`` and the interpreter
are unchanged (a stamp file holds their hash).
"""

from __future__ import annotations

import hashlib
import importlib.util
import subprocess
import sys
import sysconfig
import time
from pathlib import Path
from types import ModuleType
from typing import Tuple

MODULE = "repro.linalg._csr_kernels"
SOURCE = Path("src/repro/linalg/_csr_kernels.c")


class BuildError(RuntimeError):
    """The extension did not build or did not load."""


def _fingerprint(repo_root: Path) -> str:
    digest = hashlib.sha256()
    for path in (repo_root / SOURCE, repo_root / "setup.py"):
        digest.update(path.read_bytes())
    digest.update(sys.version.encode())
    return digest.hexdigest()


def _built_module(lib_dir: Path) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    return lib_dir / "repro" / "linalg" / f"_csr_kernels{suffix}"


def build_extension(repo_root: Path, build_dir: Path) -> Tuple[Path, float, bool]:
    """Compile (or reuse) the extension; returns (path, seconds, reused)."""
    for required in (repo_root / SOURCE, repo_root / "setup.py"):
        if not required.is_file():
            raise BuildError(f"missing {required.relative_to(repo_root)}")
    lib_dir = build_dir / "lib"
    target = _built_module(lib_dir)
    stamp = build_dir / "stamp"
    fingerprint = _fingerprint(repo_root)
    if target.is_file() and stamp.is_file() and stamp.read_text() == fingerprint:
        return target, 0.0, True
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_ext",
            "--build-lib",
            str(lib_dir),
            "--build-temp",
            str(build_dir / "tmp"),
        ],
        cwd=repo_root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    seconds = time.perf_counter() - started
    # The extension is optional in setup.py, so a failed compile can
    # still exit 0: the built file is the real test.
    if proc.returncode != 0 or not target.is_file():
        raise BuildError(
            f"build_ext failed (exit {proc.returncode}):\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    stamp.write_text(fingerprint)
    return target, seconds, False


def load_extension(path: Path) -> ModuleType:
    """Import the built file as ``repro.linalg._csr_kernels``."""
    spec = importlib.util.spec_from_file_location(MODULE, path)
    if spec is None or spec.loader is None:
        raise BuildError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise BuildError(f"cannot load {path}: {exc}") from exc
    sys.modules[MODULE] = module
    return module
