"""The compiled libraries: the noise library's Philox words and its
agreement with the numpy path, the builds of the noise and kernel
libraries, and the numpy paths taking over without a compiler."""

import ctypes
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from chainsde import integrator, noise
from chainsde.cli import main
from chainsde.noise import _uniforms, generate_matrix, path_seed, refine

PACKAGE = Path(noise.__file__).parent
KEYS = [0, 2**64 - 1, *np.random.default_rng(7).integers(0, 2**64, 3, dtype=np.uint64).tolist()]


def compiler():
    """The C compiler Python was built with, if it is on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return bool(cc) and shutil.which(cc[0]) is not None


def philox_words(key, stream, count):
    """The first `count` words of numpy's Philox keyed (key, stream)."""
    return np.random.Philox(key=np.array([key, stream], dtype=np.uint64)).random_raw(count)


def needs_native():
    if noise._lib is None:
        pytest.skip("the native noise library is not built (see test_native_backend_loads)")


@pytest.mark.parametrize("stream", range(25))
def test_uniforms_are_philox_words_by_the_documented_rule(stream):
    needs_native()
    for offset in range(10):
        words = np.stack([philox_words(k, stream, offset + 1000) for k in KEYS])
        want = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        for n in (0, 1, 3, 4, 5, 1000):
            got = _uniforms(KEYS, stream, offset, n)
            assert got.shape == (len(KEYS), n)
            assert np.array_equal(got.view(np.uint64), want[:, offset : offset + n].view(np.uint64))


def draws(seeds):
    """Matrices, a refined path and a block stream, row-major."""
    out = [generate_matrix(seeds, 0.3, level) for level in (0, 1, 5, 11)]
    out.append(refine(noise.generate(seeds[0], 2.0, 7)).increments)
    # 20 rows: step-major blocks of whole and partial tiles of the split
    out.append(np.concatenate(list(noise._BlockStream(seeds, 0.3, 10)), axis=1))
    return out


def test_backends_agree_bitwise(monkeypatch):
    needs_native()
    seeds = [path_seed(17, i) for i in range(20)]
    monkeypatch.setattr(noise, "_BLOCK_CELLS", 20 * 128)
    native = draws(seeds)
    monkeypatch.setattr(noise, "_lib", None)
    for a, b in zip(native, draws(seeds), strict=True):
        assert a.tobytes() == b.tobytes()


def test_native_backend_loads():
    # with a compiler present, a broken build would silently fall back
    if not compiler():
        pytest.skip("no C compiler on PATH")
    assert noise._lib is not None


def test_concurrent_builds_leave_one_library(tmp_path):
    if not compiler():
        pytest.skip("no C compiler on PATH")
    cache = tmp_path / "cache"
    build = "import sys, pathlib; from chainsde import noise; noise._build_native(pathlib.Path(sys.argv[1]))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    procs = [subprocess.Popen([sys.executable, "-c", build, str(cache)], env=env) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    files = list(cache.iterdir())
    assert len(files) == 1 and files[0].name.startswith("_noise-") and files[0].suffix == ".so"
    lib = ctypes.CDLL(str(files[0]))
    assert lib.philox_uniforms and lib.split_increments


def test_new_build_removes_stale_libraries(tmp_path):
    if not compiler():
        pytest.skip("no C compiler on PATH")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "_noise-0000000000000000.so").write_bytes(b"stale")
    (cache / "other.so").write_bytes(b"kept")
    lib = noise._build_native(cache)
    assert sorted(f.name for f in cache.iterdir()) == sorted([lib.name, "other.so"])


def test_each_build_removes_only_its_own_stale_libraries(tmp_path):
    if not compiler():
        pytest.skip("no C compiler on PATH")
    cache = tmp_path / "cache"
    cache.mkdir()
    for stem in ("_noise", "_kernel"):
        (cache / f"{stem}-0000000000000000.so").write_bytes(b"stale")
    lib = noise._build_native(cache)
    assert sorted(f.name for f in cache.iterdir()) == sorted(
        [lib.name, "_kernel-0000000000000000.so"])
    assert integrator._load_kernel(cache) is not None
    kernel = [f.name for f in cache.glob("_kernel-*.so")]
    assert len(kernel) == 1 and kernel != ["_kernel-0000000000000000.so"]
    assert sorted(f.name for f in cache.iterdir()) == sorted([lib.name, *kernel])


def test_failed_kernel_build_keeps_noise_library(tmp_path):
    if not compiler():
        pytest.skip("no C compiler on PATH")
    pkg = tmp_path / "src" / "chainsde"
    shutil.copytree(PACKAGE, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    (pkg / "_kernel.c").write_text("this is not C\n")
    env = {**os.environ, "PYTHONPATH": str(pkg.parent)}
    probe = subprocess.run(
        [sys.executable, "-c",
         "from chainsde import integrator, noise; print(noise._lib is None, integrator._kernel)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.split() == ["False", "None"]
    assert [f.name.split("-")[0] for f in (pkg / "__pycache__").glob("*.so")] == ["_noise"]


def test_built_package_ships_both_libraries(tmp_path):
    # setuptools' build_py copies only the listed package data: a copy
    # built from it must compile and load both C sources
    if not compiler():
        pytest.skip("no C compiler on PATH")
    pytest.importorskip("setuptools")
    project = PACKAGE.parents[1]
    if not (project / "pyproject.toml").is_file():
        pytest.skip("not a source checkout")
    src = tmp_path / "project"
    shutil.copytree(PACKAGE, src / "src" / "chainsde",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(project / "pyproject.toml", src)
    lib = tmp_path / "lib"
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()", "build_py",
                    "--build-lib", str(lib)], cwd=src, check=True, capture_output=True)
    probe = subprocess.run(
        [sys.executable, "-c", "import chainsde; from chainsde import integrator, noise; "
         "print(chainsde.__file__, noise._lib is None, integrator._kernel is None)"],
        env={**os.environ, "PYTHONPATH": str(lib)}, cwd=tmp_path, capture_output=True,
        text=True, check=True,
    )
    assert probe.stdout.split() == [str(lib / "chainsde" / "__init__.py"), "False", "False"]


_CASES = {
    "simulate": ["simulate", "--level", "6", "--ensemble", "300", "--band-n", "6"],
    "couple": ["couple", "--perturbation", "resolution:6,9", "--level", "6", "--ensemble", "300",
               "--horizon", "0.5", "--band-n", "6"],
}


def test_without_compiler_numpy_path_writes_same_bytes(tmp_path, monkeypatch):
    # a copy of the package with an empty cache, and no compiler on PATH
    pkg = tmp_path / "src" / "chainsde"
    shutil.copytree(PACKAGE, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    env = {**os.environ, "PATH": str(empty_bin), "PYTHONPATH": str(pkg.parent),
           "CHAINSDE_WORKERS": "1"}
    probe = subprocess.run(
        [sys.executable, "-c", "from chainsde import noise; print(noise._lib is None, noise.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.split() == ["True", str(pkg / "noise.py")]
    assert not [f for f in (pkg / "__pycache__").iterdir() if f.suffix != ".pyc"]

    monkeypatch.setenv("CHAINSDE_WORKERS", "1")
    for name, args in _CASES.items():
        # both runs write to "out" in their own directory: summary.json echoes it
        fallback, native = tmp_path / f"{name}-numpy", tmp_path / f"{name}-native"
        fallback.mkdir()
        native.mkdir()
        subprocess.run([sys.executable, "-m", "chainsde", *args, "--seed", "11", "--out", "out"],
                       env=env, cwd=fallback, check=True, capture_output=True)
        monkeypatch.chdir(native)
        assert main([*args, "--seed", "11", "--out", "out"]) == 0
        for f in ("summary.json", "trace.csv"):
            assert (fallback / "out" / f).read_bytes() == (native / "out" / f).read_bytes()
