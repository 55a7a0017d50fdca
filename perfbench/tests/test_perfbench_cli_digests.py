import json

import pytest

import worker
from workloads import DIGESTS, CliReports, command_key


@pytest.fixture
def repo_root(monkeypatch):
    monkeypatch.chdir(worker.ROOT)
    monkeypatch.delenv("VS_SEED", raising=False)


def test_recorded_digests_pass(repo_root):
    workload = CliReports(seed=3)
    commands = workload.make_input(0)
    _, failure, _ = worker.run_op(workload, 0, commands)
    assert failure is None


def test_a_tampered_digest_fails_the_op(repo_root):
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    workload = CliReports(seed=3, digests=digests)
    commands = workload.make_input(0)
    key = command_key(commands[1])
    digests[key] = "0" * 64
    _, failure, _ = worker.run_op(workload, 0, commands)
    assert failure is not None and key in failure


def test_a_command_without_a_digest_fails_the_op(repo_root):
    workload = CliReports(seed=3, digests={})
    _, failure, _ = worker.run_op(workload, 0, workload.make_input(0))
    assert failure is not None and "no recorded digest" in failure
