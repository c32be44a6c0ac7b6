"""Open-loop load generator for parhde_serve.

One process, at most `connections` unix-socket connections. Requests are
sent on a fixed schedule (request i is due at start + i / rate) whether or
not earlier replies have arrived, spread round-robin over the connections;
the daemon reads pipelined requests per connection and answers each with
its id. Latency is measured from the due time, so a stalled daemon also
charges the wait it imposes on requests queued behind the stall, and the
generator records how late it actually sent each request.

Frames are a 4-byte little-endian length followed by that many bytes of
JSON (src/service/protocol.hpp)."""

import asyncio
import json


def _frame(doc):
    body = json.dumps(doc).encode()
    return len(body).to_bytes(4, "little") + body


async def _read_frame(reader):
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "little")
    return json.loads(await reader.readexactly(length))


async def _open(socket_path, attempts=100):
    for _ in range(attempts):
        try:
            return await asyncio.open_unix_connection(socket_path)
        except (FileNotFoundError, ConnectionRefusedError):
            await asyncio.sleep(0.05)
    return await asyncio.open_unix_connection(socket_path)


async def _run_schedule(socket_path, requests, rate, connections, timeout):
    loop = asyncio.get_running_loop()
    conns = [await _open(socket_path) for _ in range(connections)]
    records = [{"due": 0.0, "sent": None, "recv": None, "response": None}
               for _ in requests]
    by_id = {req["id"]: rec for req, rec in zip(requests, records)}
    expected = [0] * connections
    for i in range(len(requests)):
        expected[i % connections] += 1

    async def read_all(c):
        reader = conns[c][0]
        for _ in range(expected[c]):
            doc = await _read_frame(reader)
            rec = by_id.get(doc.get("id"))
            if rec is not None:
                rec["recv"] = loop.time()
                rec["response"] = doc

    readers = [asyncio.ensure_future(read_all(c)) for c in range(connections)]
    start = loop.time() + 0.02
    for i, req in enumerate(requests):
        due = start + i / rate
        records[i]["due"] = due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = conns[i % connections][1]
        writer.write(_frame(req))
        records[i]["sent"] = loop.time()
    try:
        await asyncio.wait_for(asyncio.gather(*readers), timeout)
    except (asyncio.TimeoutError, asyncio.IncompleteReadError, OSError):
        for task in readers:
            task.cancel()
    for _, writer in conns:
        writer.close()
    for rec in records:
        rec["latency"] = (rec["recv"] - rec["due"]) if rec["recv"] else None
        rec["late"] = rec["sent"] - rec["due"]
    return records


async def _query(socket_path, doc):
    reader, writer = await _open(socket_path)
    writer.write(_frame(doc))
    reply = await _read_frame(reader)
    writer.close()
    return reply


def run_schedule(socket_path, requests, rate, connections, timeout=60.0):
    """Sends `requests` (dicts with a unique "id") at `rate` per second.
    Returns one record per request, in due order: due, sent, recv, latency
    (recv - due, None if no reply), late (sent - due) and response."""
    return asyncio.run(
        _run_schedule(socket_path, requests, rate, connections, timeout))


def query(socket_path, doc):
    """One request/reply exchange on a fresh connection (ping, stats)."""
    return asyncio.run(_query(socket_path, doc))
