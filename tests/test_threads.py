"""Importing qpolgrad pins numpy's BLAS to the calling thread.

So a run's bits do not depend on OPENBLAS_NUM_THREADS, and the BLAS workers
that OpenBLAS starts with numpy stay idle. Each check runs in a fresh
interpreter, because OpenBLAS reads that variable when numpy is imported.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpolgrad

SRC = str(Path(qpolgrad.__file__).resolve().parent.parent)

BATCH_GRADIENTS = """
import hashlib
import numpy as np
from qpolgrad import analysis, config as cfg, reinforce

def batch(preset, rows):
    config = cfg.preset_config(preset, {"seed": 0})
    policy = reinforce.prepare(config).policy
    rng = np.random.default_rng(7)
    observations = rng.normal(size=(rows, config.env_spec.n_features))
    if policy.normalizer is not None:
        policy.normalizer.observe(observations)
    actions = rng.integers(config.env_spec.n_actions, size=rows)
    return policy, observations, actions, rng.normal(size=rows)

policy, obs, actions, adv = batch("cartpole-classical", 2000)
print(hashlib.sha256(policy.weighted_grad_log(obs, actions, adv).tobytes()).hexdigest())
report = analysis.spectrum(analysis.fisher_matrix(policy, obs, actions))
print(hashlib.sha256(report.eigenvalues.tobytes()).hexdigest())
policy, obs, actions, adv = batch("acrobot-quantum", 5000)
print(hashlib.sha256(policy.weighted_grad_log(obs, actions, adv).tobytes()).hexdigest())
print(hashlib.sha256(analysis.fisher_matrix(policy, obs, actions).tobytes()).hexdigest())
"""


def run_python(code, **env_changes):
    env = {**os.environ, "PYTHONPATH": SRC}
    for name, value in env_changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_batch_gradients_do_not_depend_on_the_blas_thread_setting():
    # A cartpole-classical batch of 2,000 rows is above the size at which
    # OpenBLAS would thread the MLP's weight gradient, and eigvalsh of its
    # 768 x 768 Fisher matrix would thread too; a full acrobot-quantum batch
    # has 5,000 rows.
    one = run_python(BATCH_GRADIENTS, OPENBLAS_NUM_THREADS="1")
    default = run_python(BATCH_GRADIENTS, OPENBLAS_NUM_THREADS=None)
    names = ("cartpole-classical gradient", "cartpole-classical Fisher eigenvalues",
             "acrobot-quantum gradient", "acrobot-quantum Fisher matrix")
    assert len(one) == len(names)
    for name, a, b in zip(names, one, default):
        assert a == b, name


ONE_BATCH_EACH = """
import contextlib, io, os, sys, tempfile, time
from qpolgrad import cli

def worker_cpu_s():
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")

time.sleep(0.5)  # let the BLAS workers started at import go idle
before = worker_cpu_s()
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for preset, extra in (("cartpole-quantum", []), ("acrobot-quantum", []),
                          ("cartpole-classical", []), ("qcontrol-quantum", ["--fisher"]),
                          ("qcontrol-classical", ["--fisher"]),
                          ("cartpole-classical", ["--fisher"])):
        argv = ["run", "--preset", preset, "--seed", "0", "--episodes", "10",
                "--out", os.path.join(tmp, preset + "".join(extra)), *extra]
        assert cli.main(argv) == 0
    time.sleep(0.3)  # an idle worker spins for about 0.1 s after its last call
print(worker_cpu_s() - before)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc/self/task")
def test_one_batch_of_each_workload_leaves_blas_workers_idle():
    # One batch is the rollout, the gradient and the Adam step, plus the
    # Fisher spectra with --fisher. Without the pin, LAPACK's eigvalsh would
    # wake a BLAS worker from k = 65: the MLP spectra (k = 768 on cartpole),
    # not qcontrol-quantum's (k = 4).
    (worker_s,) = run_python(ONE_BATCH_EACH, OPENBLAS_NUM_THREADS=None)
    assert float(worker_s) <= 0.02
