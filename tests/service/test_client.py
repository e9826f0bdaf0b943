"""``repro-service-client``: the request it builds from flags."""

import json

import pytest

from repro.service import client
from repro.service.schema import validate_request


def sent_request(monkeypatch, argv, response=None):
    """Run the client with ``post`` stubbed; returns (exit code, request)."""
    sent = []

    def post(host, port, req, timeout):
        sent.append(req)
        return response or {"v": 1, "status": "ok"}

    monkeypatch.setattr(client, "post", post)
    code = client.main(argv)
    return code, sent[0]


def test_workload_request_is_schema_valid(monkeypatch, capsys):
    code, req = sent_request(
        monkeypatch, ["--workload", "racy-counter", "--tool", "drd", "--seed", "3"]
    )
    assert code == 0
    assert req == {
        "v": 1, "tool": "drd", "kind": "workload", "workload": "racy-counter", "seed": 3,
    }
    sub = validate_request(req)
    assert (sub.kind, sub.tool, sub.seed) == ("workload", "drd", 3)
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_exit_code_follows_the_response_status(monkeypatch, capsys):
    code, _ = sent_request(
        monkeypatch,
        ["--workload", "racy-counter"],
        response={"v": 1, "status": "backpressure", "retry_after_s": 0.5},
    )
    assert code == 3


def test_there_is_no_tenant_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        client.main(["--tenant", "team-a", "--workload", "racy-counter"])
    assert exc.value.code == 2
