"""The bytes of a small study, pinned.

`afsched run`, `aggregate` and `report` run on a small grid in a subprocess
whose kernels are fixed: OpenBLAS's Haswell kernels and numpy's x86-64-v3
dispatch. Both are chosen when the libraries load, so they are set in the
child's environment. Every file written is compared by sha256 with the
values below, keyed by the (numpy, scipy, orjson) versions that wrote them;
`constraints.txt` pins those versions for CI. Elsewhere the test skips and
says why. A change that moves any output bit fails here, and one that does
so on purpose replaces the hashes in the same change.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
import scipy

import afsched

_KERNELS = {"OPENBLAS_CORETYPE": "Haswell", "NPY_ENABLE_CPU_FEATURES": "X86_V3"}
_GRID = ["--dim", "2", "--functions", "f1,f16", "--schedules", "ei,pi,ee25", "--seeds", "0..3"]
_FAST = ["--doe", "4", "--evals", "8", "--gp-restarts", "2"]
_COMMANDS = (
    ["run", *_GRID, *_FAST, "--out", "run"],
    ["aggregate", "--in", "run", "--out", "agg"],
    ["report", "--agg", "agg", "--out", "report"],
)
_VERSIONS = (np.__version__, scipy.__version__, orjson.__version__)
_CONSTRAINTS = Path(__file__).resolve().parents[1] / "constraints.txt"

# sha256 of every file the commands write, by (numpy, scipy, orjson) version.
_HASHES = {
    ("2.4.6", "1.17.1", "3.8.3"): {
        "agg/curves.csv": "3fbf83ca3d141f375adccf5a6fffb161c62b55bfa3df3228b3c42b91c9dcd62c",
        "agg/finals.csv": "b761a91190e3c1b8231d8e8e961b65d1df7140625a92ece6949ba6f09dd71b5e",
        "agg/meta.json": "a201ed6c14d056d32e72dd1a2437f18f1de91026fd2d8e45d3d8a901cea34e99",
        "report/average_curve.csv": "52d823d9569f1bca593287b9f4cc677458b32fa9ae5f1d330afa5e5546c724d7",
        "report/curve_f1.csv": "921574ce091fe13ecdf3f0339da7d78a505171dbf2d5053a869d60a4d4089c57",
        "report/curve_f16.csv": "be412c25319d59ca2e8af5be0e19cc91263701b0550b070cfd99a72691c6afdd",
        "report/violin_f1.csv": "601cc765bb537a3922909b416f4f9055d815bfc926be94aaf3ec2e657c50d73d",
        "report/violin_f16.csv": "39ebedd12794c2a018464b833836d9de9f02fd28d585a6829b690b6e092b7f46",
        "run/trajectories.jsonl": "239c9e225157caf626a73f748c8d16c1758d1a9ca272145022ba12a66c9df155",
    },
}


def _x86_64_v3() -> bool:
    """Whether numpy finds the x86-64-v3 features (AVX2, FMA3, BMI2, ...) on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V3"))


def test_a_small_study_writes_the_pinned_bytes(tmp_path) -> None:
    if _VERSIONS not in _HASHES:
        pytest.skip(f"no pinned hashes for numpy, scipy, orjson {', '.join(_VERSIONS)}")
    if not _x86_64_v3():
        pytest.skip("the CPU lacks x86-64-v3, which the pinned kernels need")
    env = os.environ | _KERNELS
    env["PYTHONPATH"] = str(Path(afsched.__file__).parents[1])
    for argv in _COMMANDS:
        subprocess.run(
            [sys.executable, "-m", "afsched.cli", *argv], cwd=tmp_path, env=env, capture_output=True, check=True, timeout=600
        )
    found = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert found == _HASHES[_VERSIONS]


def test_ci_installs_the_versions_the_hashes_are_pinned_for() -> None:
    pins = dict(line.split("==") for line in _CONSTRAINTS.read_text().split() if "==" in line)
    assert (pins["numpy"], pins["scipy"], pins["orjson"]) in _HASHES
