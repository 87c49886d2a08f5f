"""Shared fixtures for the serve tests.

Two session-scoped fig5 recordings (different seeds, so different
fingerprints) feed every test — the LRU tests two larger ones — and
``serve_daemon`` spawns a real ``python -m repro.serve start``
subprocess on a private Unix socket —
the tests exercise the daemon exactly the way production would, signal
delivery and all.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

_COUNTER = itertools.count()


def _record(root, reps: int):
    """Two fig5 recordings (seeds 0 and 1) of ``reps`` repetitions."""
    from repro.experiments import fig5_collectives
    from repro.replay import autorecord

    paths = []
    for seed in (0, 1):
        path = str(root / f"fig5-seed{seed}.trace")
        autorecord.enable_to(path, meta={
            "workload": "fig5", "op": "reduce", "n_nodes": 2,
            "sizes": [100_000], "reps": reps, "seed": seed,
        })
        try:
            fig5_collectives.run_cell("reduce", 2, sizes=(100_000,),
                                      reps=reps, seed=seed)
        finally:
            autorecord.disable()
        paths.append(path)
    return paths


@pytest.fixture(scope="session")
def serve_traces(tmp_path_factory):
    """Two small recorded fig5 traces with distinct fingerprints."""
    return _record(tmp_path_factory.mktemp("serve-traces"), reps=1)


@pytest.fixture(scope="session")
def lru_traces(tmp_path_factory):
    """Two recordings whose books (≈ 0.85 MB each) do not both fit the
    smallest store budget, ``--cache-mb 1``."""
    return _record(tmp_path_factory.mktemp("lru-traces"), reps=8)


@pytest.fixture()
def serve_daemon():
    """Factory: ``with serve_daemon(jobs=1, ...) as (sock, proc):``.

    Keyword args become ``--kebab-case`` daemon flags; ``env_extra``
    merges into the subprocess environment (chaos injection).  The
    daemon's stderr goes to ``daemon.log`` next to the socket and is
    echoed on teardown if the daemon died dirty.
    """
    tmps = []

    @contextlib.contextmanager
    def spawn(env_extra=None, wait_s: float = 30.0, **flags):
        # tempfile.mkdtemp keeps the socket path short (AF_UNIX limit).
        tmp = tempfile.mkdtemp(prefix="rs-")
        tmps.append(tmp)
        sock = os.path.join(tmp, f"s{next(_COUNTER)}.sock")
        log_path = os.path.join(tmp, "daemon.log")
        args = [sys.executable, "-m", "repro.serve", "start",
                "--socket", sock]
        for key, value in flags.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        env = dict(os.environ)
        env.update(env_extra or {})
        repro_src = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("repro").__file__)))
        env["PYTHONPATH"] = repro_src + os.pathsep + env.get("PYTHONPATH", "")
        log = open(log_path, "wb")
        proc = subprocess.Popen(args, stdout=log, stderr=log, env=env)
        try:
            _wait_ready(proc, sock, log_path, wait_s)
            yield sock, proc
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=15.0)
            log.close()

    yield spawn
    for tmp in tmps:
        shutil.rmtree(tmp, ignore_errors=True)


def _wait_ready(proc, sock: str, log_path: str, wait_s: float) -> None:
    from repro.serve.client import ServeClient

    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            with open(log_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                raise RuntimeError(
                    f"daemon exited rc={proc.returncode} during startup:\n"
                    + fh.read())
        if os.path.exists(sock):
            try:
                with ServeClient(path=sock, timeout_s=5.0) as client:
                    client.ping()
                return
            except OSError:
                pass
        time.sleep(0.05)
    raise RuntimeError(f"daemon not ready within {wait_s}s")
