"""Strict schema-v1 validation: reject-never-coerce, golden fixtures.

The journal replays requests verbatim after a crash, so anything the
validator half-accepts becomes a request the daemon cannot faithfully
re-run — every rejection path here is a durability property, not
pedantry.
"""

import base64

import pytest

from repro.service.schema import (
    GOLDEN_REQUEST,
    GOLDEN_RESPONSE,
    RESPONSE_STATUSES,
    SCHEMA_VERSION,
    SchemaError,
    make_response,
    response_http_status,
    validate_request,
)

TRACE_B64 = base64.b64encode(b"RPRT\x00fake-but-framed").decode("ascii")


def valid(**overrides):
    req = {
        "v": 1,
        "kind": "workload",
        "workload": "racy-counter",
    }
    req.update(overrides)
    return req


class TestValidRequests:
    def test_golden_request_validates(self):
        sub = validate_request(GOLDEN_REQUEST)
        assert sub.kind == "workload"
        assert sub.workload == "racy-counter"
        assert sub.id == "req-1"
        assert sub.deadline_s == 30.0

    def test_minimal_request(self):
        sub = validate_request(valid())
        assert sub.tool == "helgrind-lib-spin7"  # the paper's default
        assert sub.seed is None and sub.max_steps is None

    def test_request_without_tenant_validates(self):
        assert "tenant" not in GOLDEN_REQUEST
        assert validate_request(valid()).kind == "workload"

    def test_tenant_label_validates_and_is_ignored(self):
        assert validate_request(valid(tenant="  team-a ")) == validate_request(valid())

    def test_source_kind(self):
        sub = validate_request(
            {"v": 1, "kind": "source", "source": "program x ..."}
        )
        assert sub.source == "program x ..."
        assert sub.workload is None

    def test_trace_kind_decodes_payload(self):
        sub = validate_request(
            {"v": 1, "kind": "trace", "trace_b64": TRACE_B64}
        )
        assert sub.trace_bytes.startswith(b"RPRT")

    def test_integer_deadline_becomes_float(self):
        assert validate_request(valid(deadline_s=5)).deadline_s == 5.0


class TestRejections:
    def expect(self, req, fragment):
        with pytest.raises(SchemaError, match=fragment):
            validate_request(req)

    def test_non_object(self):
        self.expect(["not", "a", "dict"], "JSON object")

    def test_unknown_field_named_in_error(self):
        self.expect(valid(surprise=1), "surprise")

    def test_missing_version(self):
        req = valid()
        del req["v"]
        self.expect(req, "'v'")

    def test_wrong_version(self):
        self.expect(valid(v=2), f"v={SCHEMA_VERSION}")

    def test_blank_tenant(self):
        self.expect(valid(tenant="   "), "tenant")

    def test_non_string_tenant(self):
        self.expect(valid(tenant=7), "tenant")

    def test_bad_kind(self):
        self.expect(valid(kind="program"), "kind")

    def test_missing_payload(self):
        req = valid()
        del req["workload"]
        self.expect(req, "workload")

    def test_two_payloads(self):
        self.expect(valid(source="..."), "exactly")

    def test_payload_kind_mismatch(self):
        req = valid(kind="source")
        self.expect(req, "source")

    def test_empty_payload(self):
        self.expect(valid(workload=""), "non-empty")

    def test_unknown_tool(self):
        self.expect(valid(tool="valgrind"), "valgrind")

    def test_non_string_id(self):
        self.expect(valid(id=7), "'id'")

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", True])
    def test_bad_seed(self, seed):
        self.expect(valid(seed=seed), "seed")

    @pytest.mark.parametrize("max_steps", [0, -5, 1.5, False])
    def test_bad_max_steps(self, max_steps):
        self.expect(valid(max_steps=max_steps), "max_steps")

    @pytest.mark.parametrize("deadline", [0, -1.0, "soon", True])
    def test_bad_deadline(self, deadline):
        self.expect(valid(deadline_s=deadline), "deadline_s")

    def test_trace_not_base64(self):
        self.expect(
            {"v": 1, "kind": "trace", "trace_b64": "!!!"},
            "base64",
        )

    def test_trace_not_rprt_framed(self):
        payload = base64.b64encode(b"GIFbytes").decode("ascii")
        self.expect(
            {"v": 1, "kind": "trace", "trace_b64": payload},
            "RPRT",
        )


class TestResponses:
    def test_golden_response_shape(self):
        resp = make_response(
            "ok",
            id="req-1",
            verdict=GOLDEN_RESPONSE["verdict"],
            duration_s=0.42,
        )
        assert set(resp) == set(GOLDEN_RESPONSE)
        assert resp["v"] == SCHEMA_VERSION

    def test_optional_fields_are_omitted(self):
        resp = make_response("backpressure", retry_after_s=0.5)
        assert "id" not in resp and "verdict" not in resp
        assert resp["retry_after_s"] == 0.5

    @pytest.mark.parametrize(
        "status,code",
        [
            ("ok", 200),
            ("degraded", 200),
            ("backpressure", 429),
            ("shed", 503),
            ("invalid", 400),
            ("error", 500),
        ],
    )
    def test_http_status_mapping(self, status, code):
        assert response_http_status(make_response(status))[0] == code

    def test_every_status_has_a_mapping(self):
        for status in RESPONSE_STATUSES:
            code, reason = response_http_status({"status": status})
            assert 200 <= code < 600 and reason
