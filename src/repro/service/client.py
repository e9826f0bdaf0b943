"""``repro-service-client`` — submit one analysis request from the shell.

Stdlib-only (``http.client``).  Builds a schema-v1 request from flags,
POSTs it to a running daemon, prints the response JSON, and exits with
a status-class code scripts can branch on::

    0  ok / degraded (a verdict was served)
    3  backpressure / shed (retry later; Retry-After honored by --retry)
    4  invalid (fix the request)
    5  error (analysis failed)
    6  transport failure (daemon unreachable)

Examples::

    repro-service-client --workload racy-counter --tool helgrind-lib-spin7
    repro-service-client --trace-file rec.trc --tool drd
    repro-service-client --source-file prog.asm --deadline 10 --retry 3
"""

from __future__ import annotations

import argparse
import base64
import http.client
import json
import sys
import time
from typing import Optional

from repro.service.schema import SCHEMA_VERSION

EXIT_BY_STATUS = {
    "ok": 0,
    "degraded": 0,
    "backpressure": 3,
    "shed": 3,
    "invalid": 4,
    "error": 5,
}


def build_request(args: argparse.Namespace) -> dict:
    req = {"v": SCHEMA_VERSION, "tool": args.tool}
    if args.id:
        req["id"] = args.id
    if args.workload:
        req.update(kind="workload", workload=args.workload)
    elif args.source_file:
        with open(args.source_file) as fh:
            req.update(kind="source", source=fh.read())
    else:
        with open(args.trace_file, "rb") as fh:
            req.update(
                kind="trace", trace_b64=base64.b64encode(fh.read()).decode("ascii")
            )
    if args.seed is not None:
        req["seed"] = args.seed
    if args.max_steps is not None:
        req["max_steps"] = args.max_steps
    if args.deadline is not None:
        req["deadline_s"] = args.deadline
    return req


def post(host: str, port: int, req: dict, timeout: float) -> dict:
    body = json.dumps(req).encode()
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST", "/v1/analyze", body=body,
            headers={"Content-Type": "application/json"},
        )
        raw = conn.getresponse().read()
    finally:
        conn.close()
    return json.loads(raw.decode("utf-8"))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service-client",
        description="Submit one analysis request to a repro service daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument("--tool", default="helgrind-lib-spin7")
    parser.add_argument("--id", default=None, help="client request id (echoed back)")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="registry workload name")
    what.add_argument("--source-file", help="assembly source file")
    what.add_argument("--trace-file", help="RPRT-framed recording file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument("--deadline", type=float, default=None, help="seconds")
    parser.add_argument("--timeout", type=float, default=120.0, help="HTTP timeout")
    parser.add_argument(
        "--retry", type=int, default=0,
        help="retries on backpressure/shed, honoring retry_after_s",
    )
    args = parser.parse_args(argv)

    req = build_request(args)
    attempts = 1 + max(0, args.retry)
    resp: dict = {}
    for attempt in range(attempts):
        try:
            resp = post(args.host, args.port, req, args.timeout)
        except (OSError, ValueError) as exc:
            print(json.dumps({"status": "error", "error": f"transport: {exc}"}))
            return 6
        if resp.get("status") not in ("backpressure", "shed") or attempt + 1 == attempts:
            break
        time.sleep(float(resp.get("retry_after_s", 0.25)))
    print(json.dumps(resp, indent=2, sort_keys=True))
    return EXIT_BY_STATUS.get(resp.get("status"), 5)


if __name__ == "__main__":
    sys.exit(main())
