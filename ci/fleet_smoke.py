#!/usr/bin/env python3
"""CI smoke test for the hmdiv-fleet replicated serving tier.

Drives the whole failover story against three externally-started
`repro serve` replicas fronted by a `repro route` router:

1. (no flag)     — load the paper model through the router (a broadcast),
                   assert every replica admitted it under the same
                   content id with byte-identical manifests, and that
                   routed evaluations reproduce the paper's field
                   estimate exactly; then send a second `load` whose verb
                   is JSON-escaped and assert it too was broadcast (the
                   router reads the verb as the replicas' parser does);
                   record the baseline to STATE_OUT.
2. --degraded    — after CI killed one replica: routed evaluations keep
                   answering with exactly the baseline bits (requests
                   that race the ejection window may fail, but only with
                   the typed `backend_unavailable` code), and the
                   router's metrics verb reports the ejection.
3. --recovered   — after CI restarted the replica (empty registry): wait
                   for the sync-gated re-admission, then assert all
                   three replicas' manifests are byte-identical again
                   and the revived replica serves the exact baseline.
4. --shutdown    — one shutdown through the router drains the fleet.

--idle-cpu       — with one client connection held open and idle, the
                   router process (ROUTER_PID) may use at most 10% of one
                   CPU over a 2 s window, and its event loop may wake at
                   most four times per 2 ms idle timeout (the
                   `fleet.router.wakeups` counter; the router must run
                   with --metrics). An idle router that spins instead of
                   waiting on socket readiness fails both.
--idle-replica   — the same for a replica (REPLICA_PID, started with
                   --metrics): at most 10% of one CPU over 2 s with one
                   idle connection held open, and at most four
                   `serve.poll.wakeups` per poller per shard wait timeout
                   (20 ms). A poller shard that spins, say on a readable
                   EOF left in its wait, fails both.

Usage: fleet_smoke.py            HOST ROUTER_PORT STATE_OUT R1 R2 R3
       fleet_smoke.py --degraded HOST ROUTER_PORT STATE_OUT
       fleet_smoke.py --recovered HOST ROUTER_PORT STATE_OUT R1 R2 R3
       fleet_smoke.py --shutdown HOST ROUTER_PORT
       fleet_smoke.py --idle-cpu HOST ROUTER_PORT ROUTER_PID
       fleet_smoke.py --idle-replica HOST REPLICA_PORT REPLICA_PID

R1..R3 are the replica ports (for direct manifest comparison).
"""

import json
import os
import socket
import sys
import time

PAPER_CLASSES = {
    "easy": {"p_mf": 0.07, "p_hf_given_ms": 0.14, "p_hf_given_mf": 0.18},
    "difficult": {"p_mf": 0.41, "p_hf_given_ms": 0.40, "p_hf_given_mf": 0.90},
}
FIELD_PROFILE = {"easy": 0.9, "difficult": 0.1}
FIELD_FAILURE = 0.18902
# The timeout of a replica poller shard's readiness wait (`IDLE_WAIT` in
# crates/serve/src/poller.rs), in seconds.
SHARD_IDLE_WAIT = 0.020


class Session:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.next_id = 1

    def request_raw(self, verb, **fields):
        req = {"id": self.next_id, "verb": verb, **fields}
        self.next_id += 1
        self.sock.sendall(json.dumps(req).encode() + b"\n")
        return json.loads(self.read_line())

    def request_line(self, line):
        """Sends one hand-written request line; returns the parsed reply."""
        self.sock.sendall(line.encode() + b"\n")
        return json.loads(self.read_line())

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed mid-response")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def request(self, verb, **fields):
        response = self.request_raw(verb, **fields)
        if not response.get("ok"):
            raise RuntimeError(f"{verb} failed: {response.get('error')}")
        return response["result"]


def raw_manifest_line(host, port):
    """The byte-for-byte single-line manifest reply from one replica."""
    sock = socket.create_connection((host, port), timeout=30)
    sock.sendall(b'{"id":1,"verb":"manifest"}\n')
    buf = b""
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise RuntimeError("replica closed before replying")
        buf += chunk
    sock.close()
    return buf.split(b"\n", 1)[0]


def routed_evaluate(host, port, model_id):
    """One evaluate on a FRESH connection (fresh ring key), returning
    either ("ok", failure) or ("unavailable", None)."""
    s = Session(host, port)
    response = s.request_raw("evaluate", model=model_id, profile=FIELD_PROFILE)
    if response.get("ok"):
        return "ok", response["result"]["failure"]
    code = response["error"]["code"]
    assert code == "backend_unavailable", response
    return "unavailable", None


def fleet_members(host, port):
    s = Session(host, port)
    return s.request("metrics")["fleet"]["members"]


def baseline(host, port, state_out, replica_ports):
    s = Session(host, port)
    receipt = s.request("load", classes=PAPER_CLASSES)
    model_id = receipt["model_id"]
    assert model_id.startswith("m"), receipt

    manifests = [raw_manifest_line(host, p) for p in replica_ports]
    assert manifests[0] == manifests[1] == manifests[2], manifests
    assert model_id.encode() in manifests[0], manifests[0]
    print(f"broadcast load converged 3 replicas on {model_id}")

    # `lo\u0061d` is `load` to every JSON parser: the router must
    # broadcast it too, or one replica's registry diverges.
    escaped_classes = {"rare": PAPER_CLASSES["easy"]}
    reply = s.request_line(
        '{"id":0,"verb":"lo\\u0061d","classes":%s}' % json.dumps(escaped_classes)
    )
    assert reply.get("ok"), reply
    escaped_id = reply["result"]["model_id"]
    manifests = [raw_manifest_line(host, p) for p in replica_ports]
    assert manifests[0] == manifests[1] == manifests[2], manifests
    assert escaped_id.encode() in manifests[0], manifests[0]
    print(f"escaped-verb load broadcast to 3 replicas as {escaped_id}")

    failures = set()
    for _ in range(12):
        outcome, failure = routed_evaluate(host, port, model_id)
        assert outcome == "ok", "healthy fleet must serve every request"
        failures.add(failure)
    assert len(failures) == 1, failures
    failure = failures.pop()
    assert abs(failure - FIELD_FAILURE) < 1e-9, failure
    print(f"12 routed evaluations bit-identical: {failure}")

    with open(state_out, "w", encoding="utf-8") as f:
        json.dump({"model_id": model_id, "failure": failure}, f)
    print("fleet baseline OK")


def degraded(host, port, state_out):
    with open(state_out, encoding="utf-8") as f:
        state = json.load(f)
    served = unavailable = 0
    for _ in range(24):
        outcome, failure = routed_evaluate(host, port, state["model_id"])
        if outcome == "ok":
            assert failure == state["failure"], (failure, state)
            served += 1
        else:
            unavailable += 1
    assert served > 0, "survivors must keep serving"
    print(f"degraded fleet: {served} served bit-identically, "
          f"{unavailable} typed backend_unavailable during ejection window")

    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        members = fleet_members(host, port)
        down = [m for m in members if not m["healthy"]]
        if len(down) == 1:
            break
        time.sleep(0.2)
    else:
        raise RuntimeError(f"router never ejected the killed replica: {members}")
    assert down[0]["ejections"] >= 1, down
    print(f"router ejected {down[0]['addr']} (ejections={down[0]['ejections']})")

    # Post-ejection, every fresh connection re-hashes to the survivors.
    for _ in range(12):
        outcome, failure = routed_evaluate(host, port, state["model_id"])
        assert outcome == "ok" and failure == state["failure"], (outcome, failure)
    print("post-ejection requests re-hash to survivors, bits unchanged")


def recovered(host, port, state_out, replica_ports):
    with open(state_out, encoding="utf-8") as f:
        state = json.load(f)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        members = fleet_members(host, port)
        if all(m["healthy"] for m in members):
            break
        time.sleep(0.2)
    else:
        raise RuntimeError(f"revived replica was never re-admitted: {members}")
    print("revived replica re-admitted after registry sync")

    manifests = [raw_manifest_line(host, p) for p in replica_ports]
    assert manifests[0] == manifests[1] == manifests[2], manifests
    assert state["model_id"].encode() in manifests[0], manifests[0]
    print("all 3 manifests byte-identical after sync-back")

    for _ in range(12):
        outcome, failure = routed_evaluate(host, port, state["model_id"])
        assert outcome == "ok" and failure == state["failure"], (outcome, failure)
    print("recovered fleet serves bit-identically; fleet smoke OK")


def cpu_ticks(pid):
    """utime + stime of process PID, in clock ticks."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
        stat = f.read()
    # Fields after the parenthesised command name start at field 3
    # (state); utime and stime are fields 14 and 15.
    fields = stat[stat.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])


def counter(metrics, name):
    for line in metrics["prometheus"].splitlines():
        if line.startswith(name + " "):
            return int(line.split()[1])
    raise RuntimeError(f"metrics carry no {name} counter")


def check_idle(host, port, pid, label, wakeup_counter, wakeup_bound):
    """With one idle connection held open for 2 s, process PID may use at
    most 10% of one CPU and wake at most wakeup_bound(elapsed, metrics)
    times."""
    idle = Session(host, port)  # connected, never sends
    window = 2.0
    tick = os.sysconf("SC_CLK_TCK")
    before = Session(host, port).request("metrics")
    start, ticks_before = time.monotonic(), cpu_ticks(pid)
    time.sleep(window)
    ticks_after, elapsed = cpu_ticks(pid), time.monotonic() - start
    after = Session(host, port).request("metrics")
    wakeups = counter(after, wakeup_counter) - counter(before, wakeup_counter)
    share = (ticks_after - ticks_before) / tick / elapsed
    bound = wakeup_bound(elapsed, after)
    print(f"idle {label}: {share:.1%} of one CPU, {wakeups} wakeups "
          f"in {elapsed:.2f} s (bounds 10%, {bound})")
    assert share <= 0.10, f"idle {label} used {share:.1%} of one CPU"
    assert wakeups <= bound, f"idle {label} woke {wakeups} times in {elapsed:.2f} s"
    idle.sock.close()


def idle_cpu(host, port, pid):
    check_idle(host, port, pid, "router", "hmdiv_fleet_router_wakeups",
               lambda elapsed, _: 4 * (int(elapsed / 0.002) + 1))


def idle_replica(host, port, pid):
    check_idle(host, port, pid, "replica", "hmdiv_serve_poll_wakeups",
               lambda elapsed, metrics: 4 * int(metrics["pollers"])
               * (int(elapsed / SHARD_IDLE_WAIT) + 1))


def shutdown(host, port):
    s = Session(host, port)
    assert s.request("shutdown").get("draining") is True
    print("fleet drained through one router shutdown")


def main():
    if sys.argv[1] == "--degraded":
        degraded(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    elif sys.argv[1] == "--recovered":
        recovered(
            sys.argv[2],
            int(sys.argv[3]),
            sys.argv[4],
            [int(p) for p in sys.argv[5:8]],
        )
    elif sys.argv[1] == "--shutdown":
        shutdown(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "--idle-cpu":
        idle_cpu(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
    elif sys.argv[1] == "--idle-replica":
        idle_replica(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
    else:
        baseline(
            sys.argv[1],
            int(sys.argv[2]),
            sys.argv[3],
            [int(p) for p in sys.argv[4:7]],
        )


if __name__ == "__main__":
    main()
