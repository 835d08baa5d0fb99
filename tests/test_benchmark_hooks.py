"""The benchmark's layer hooks still reach the code they time.

`perfbench/child.py` times layers by wrapping named functions, and a hook
whose target is gone is only reported as absent: its metric then reads
nothing. Two short runs under those hooks show which hooks lost their
target, whether every counter still reads its call's result, and whether
every hook that resolves is called. This reads perfbench and changes
nothing in it.
"""
import sys
from pathlib import Path

from qpolgrad import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import child  # noqa: E402
from tracer import Tracer, install  # noqa: E402

# hooks whose targets are gone from `qpolgrad`; the benchmark reports them as
# absent
KNOWN_ABSENT = {"envs.step", "qsim.evolve_hamiltonian", "reinforce.rollout"}


def test_benchmark_hooks_reach_the_code_they_time(tmp_path, capsys):
    tracer = Tracer(child.PHASES)
    absent, restore = install(child.HOOKS, tracer)
    try:
        for name, episodes in (("qcontrol-quantum", "4"), ("cartpole-classical", "2")):
            assert cli.main(["run", "--preset", name, "--episodes", episodes, "--fisher",
                             "--seed", "0", "--out", str(tmp_path / name)]) == 0
    finally:
        restore()
    assert set(absent) <= KNOWN_ABSENT
    assert not tracer.count_errors
    called = {name for name, _ in tracer.stats}
    assert called == {hook.name for hook in child.HOOKS} - set(absent)
