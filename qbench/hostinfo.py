"""What the results were measured on: host, NumPy/BLAS build, and the size
of the code under test (a tracked metric)."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

# Thread-count getters of the OpenBLAS builds NumPy wheels ship.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def cache_bytes(level: int) -> int | None:
    """Size of CPU 0's unified cache at ``level``, from sysfs."""
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            if int(Path(index, "level").read_text()) != level:
                continue
            if Path(index, "type").read_text().strip() == "Instruction":
                continue
            text = Path(index, "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        return int(text.rstrip("KM")) * scale
    return None


def _blas_threads(numpy) -> int | None:
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def source_lines(package: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in package.glob("*.py"))


def describe_host(numpy, package: Path) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_qnearest_lines": source_lines(package),
    }
