"""The ``serve`` workload: ``repro serve`` under a paced and a saturated load.

The load generator is this process alone: a non-blocking socket loop over
at most ``nproc`` connections.

* **paced** — an open loop: request *k* is due at ``t0 + k / rate``
  whatever the server does, and its latency runs from that due time, so a
  stall also delays the requests queued behind it.  The rate sits well
  under the knee, where a batch holds one or two jobs and the service
  answers with its scalar index.
* **saturated** — a closed loop: every connection keeps a fixed window of
  requests in flight, so batches fill and the batch kernel does the work.

Every answer is checked against the offline ``RuleIndex.match_wire_batch``
answer for its job: a CRC of the ``fired`` bytes on the hot path, and a
parsed comparison whenever the bytes differ.
"""

from __future__ import annotations

import json
import math
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from harness import (
    Outcome,
    Tracer,
    child_env,
    cpu_seconds,
    median,
    metric,
    peak_rss_kb,
    quantile,
    say,
    summarize,
)

HOST = "127.0.0.1"
#: a server not answering healthz by then has failed to start
START_TIMEOUT_S = 30.0
#: answers still missing this long after a phase ends count as failed
DRAIN_TIMEOUT_S = 10.0
#: the generator fell behind if its median send lateness exceeds this
GEN_LATE_LIMIT_S = 1e-3
#: the backlog grew if more than this many requests are in flight when a
#: paced segment sends its last one
BACKLOG_LIMIT = 64


@dataclass(frozen=True)
class ServeScale:
    """Input size, rates and phase lengths of the serve workload."""

    supercloud_jobs: int = 12_000
    warmup_requests: int = 4_000
    #: length of one paced or saturated segment; the two alternate
    segment_s: float = 5.0
    paced_rate: float = 2_000.0
    #: requests each connection keeps in flight when saturated
    window: int = 32


SMOKE = ServeScale(supercloud_jobs=1_500, warmup_requests=200, segment_s=0.5,
                   paced_rate=500.0, window=8)


class Expected:
    """Request lines and offline answers for every job of the replayed trace."""

    def __init__(self, book_path: Path, transactions: list[list[str]]):
        from repro.serve import RuleBook, RuleIndex

        index = RuleIndex.from_rulebook(RuleBook.load(book_path))
        self.n_rules = len(index)
        self.requests: list[bytes] = []
        self.prefix: list[bytes] = []
        self.crc: list[int] = []
        self.fired_json: list[str] = []
        for start in range(0, len(transactions), 1024):
            chunk = transactions[start:start + 1024]
            for offset, wire in enumerate(index.match_wire_batch(chunk)):
                j = start + offset
                fired = ", ".join(fragment for _, fragment in wire)
                self.requests.append(
                    json.dumps({"type": "match", "id": j,
                                "transaction": chunk[offset]}).encode() + b"\n"
                )
                self.prefix.append(b'{"type": "match_result", "id": %d,' % j)
                self.crc.append(zlib.crc32(b'"fired": [' + fired.encode() + b"]}"))
                self.fired_json.append("[" + fired + "]")
        self.n_empty = sum(1 for f in self.fired_json if f == "[]")

    def __len__(self) -> int:
        return len(self.requests)

    def check(self, j: int, line: bytes) -> str | None:
        """None if *line* is the right answer to job *j*, else the reason."""
        at = line.find(b'"fired": [')
        if at >= 0 and line.startswith(self.prefix[j]) and (
            zlib.crc32(line[at:]) == self.crc[j]
        ):
            return None
        try:
            response = json.loads(line)
        except ValueError:
            return "unparseable answer"
        if response.get("type") == "error":
            return f"error {response.get('error')}"
        if response.get("type") != "match_result" or response.get("id") != j:
            return "answer to another request"
        if response.get("fired") != json.loads(self.fired_json[j]):
            return "wrong fired rules"
        return None


class _Conn:
    __slots__ = ("sock", "out", "buf", "pending")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out = bytearray()
        self.buf = b""
        self.pending: deque = deque()


class LoadGenerator:
    """Pipelined NDJSON connections driven from one selector loop."""

    def __init__(self, port: int, n_conn: int, expected: Expected, outcome: Outcome):
        self.expected = expected
        self.outcome = outcome
        # select(2) takes microsecond timeouts; epoll and poll round up to
        # whole milliseconds, which would add up to 1 ms to every paced send
        self.sel = selectors.SelectSelector()
        self.conns: list[_Conn] = []
        for _ in range(n_conn):
            sock = socket.create_connection((HOST, port), timeout=10)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)
        self.next_job = 0
        self.response_bytes = 0
        self.n_responses = 0

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    def send(self, conn: _Conn, tag) -> None:
        """Queue the next job of the replay on *conn*; *tag* comes back with it."""
        j = self.next_job
        self.next_job = (j + 1) % len(self.expected)
        conn.pending.append((j, tag))
        if not conn.out:
            self.sel.modify(conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)
        conn.out += self.expected.requests[j]

    def poll(self, timeout: float) -> list[tuple[_Conn, object, float]]:
        """Flush, read, and check answers; returns (conn, tag, time) per answer."""
        answered = []
        for key, mask in self.sel.select(timeout):
            conn: _Conn = key.data
            if mask & selectors.EVENT_WRITE and conn.out:
                sent = conn.sock.send(conn.out)
                del conn.out[:sent]
                if not conn.out:
                    self.sel.modify(conn.sock, selectors.EVENT_READ, conn)
            if mask & selectors.EVENT_READ:
                data = conn.sock.recv(1 << 20)
                now = time.monotonic()
                if not data:
                    raise ConnectionError("server closed a connection")
                lines = (conn.buf + data).split(b"\n")
                conn.buf = lines.pop()
                for line in lines:
                    j, tag = conn.pending.popleft()
                    self.response_bytes += len(line) + 1
                    self.n_responses += 1
                    reason = self.expected.check(j, line)
                    if reason is None:
                        self.outcome.ok()
                    else:
                        self.outcome.fail(reason)
                    answered.append((conn, tag, now))
        return answered

    def in_flight(self) -> int:
        return sum(len(conn.pending) for conn in self.conns)

    def abandon(self, why: str) -> None:
        """Count every unanswered request as failed."""
        missing = self.in_flight()
        if missing:
            self.outcome.fail(why, missing)
            for conn in self.conns:
                conn.pending.clear()

    # -- the two loops ---------------------------------------------------------------
    def closed_loop(self, window: int, *, seconds: float | None = None,
                    n_requests: int | None = None) -> dict:
        """Keep *window* requests in flight per connection until *seconds*
        have passed or *n_requests* were sent; rate counts answers in time."""
        started = time.monotonic()
        deadline = math.inf if seconds is None else started + seconds
        limit = math.inf if n_requests is None else n_requests
        issued = 0
        answers: list[float] = []  # arrival times of answers within *seconds*
        for conn in self.conns:
            for _ in range(window):
                if issued < limit:
                    self.send(conn, None)
                    issued += 1
        while self.in_flight():
            for conn, _tag, at in self.poll(0.05):
                if at <= deadline:
                    answers.append(at - started)
                    if issued < limit:
                        self.send(conn, None)
                        issued += 1
            if time.monotonic() > min(deadline, started + 60.0) + DRAIN_TIMEOUT_S:
                self.abandon("no answer (saturated)")
        return answers

    def open_loop(self, rate: float, seconds: float, spin: bool) -> dict:
        """Send request *k* at ``t0 + k / rate``; latency runs from that time.

        With *spin* the loop polls without sleeping, so neither a send nor
        the reading of an answer waits for this process to be woken up;
        only a generator with a core of its own may spin.
        """
        n = max(int(rate * seconds), 1)
        latency = [math.nan] * n
        late = [0.0] * n
        t0 = time.monotonic() + 0.01
        k = done = 0
        backlog = None  # requests in flight when the last one was sent
        while done < n:
            now = time.monotonic()
            while k < n and t0 + k / rate <= now:
                due = t0 + k / rate
                self.send(self.conns[k % len(self.conns)], (k, due))
                late[k] = now - due
                k += 1
            if k == n and backlog is None:
                backlog = k - done
            if spin:
                timeout = 0.0
            elif k < n:
                timeout = max(t0 + k / rate - time.monotonic(), 0.0)
            else:
                timeout = 0.05
            for _conn, (i, due), at in self.poll(timeout):
                latency[i] = at - due
                done += 1
            if k == n and time.monotonic() > t0 + seconds + DRAIN_TIMEOUT_S:
                self.abandon("no answer (paced)")
                break
        return {
            "latency_s": [x for x in latency if not math.isnan(x)],
            "late_s": late,
            "backlog": backlog,
        }


# -- the server ------------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def request(port: int, payload: dict) -> dict:
    """One request on a fresh blocking connection (healthz, metrics)."""
    with socket.create_connection((HOST, port), timeout=10) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        with sock.makefile("rb") as fh:
            return json.loads(fh.readline())


class Server:
    """``python -m repro serve`` as a child process, ready once healthz answers."""

    def __init__(self, book_path: Path, log_path: Path, cpus: set[int]):
        self.port = free_port()
        self.log = open(log_path, "ab")
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--rulebook", str(book_path),
             "--host", HOST, "--port", str(self.port)],
            env=child_env(), stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            os.sched_setaffinity(self.proc.pid, cpus)
            self.setup_s = self._await_healthz(launched)
        except BaseException:
            self.stop()
            raise

    def _await_healthz(self, launched: float) -> float:
        while time.monotonic() - launched < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                answer = request(self.port, {"type": "healthz"})
            except OSError:
                time.sleep(0.002)
                continue
            if answer.get("status") == "ok":
                return time.monotonic() - launched
        raise RuntimeError("repro serve did not answer healthz in time")

    def metrics(self) -> dict:
        return request(self.port, {"type": "metrics"})

    def stop(self) -> int:
        """SIGTERM (graceful drain), then kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            self.log.close()


class PhaseCounters:
    """Server-side counters summed over every segment of one phase kind.

    Each segment is bracketed by two ``metrics`` answers; their difference
    is that segment's share of the service's lifetime counters.
    """

    def __init__(self) -> None:
        self.matched = self.batches = self.kernel_jobs = self.rejected = 0
        self.kernel_s = self.wall_s = 0.0
        self.latency_state: dict | None = None

    def add(self, before: dict, after: dict, wall_s: float) -> None:
        self.wall_s += wall_s
        self.matched += after["requests"]["matched"] - before["requests"]["matched"]
        self.batches += after["requests"]["batches"] - before["requests"]["batches"]
        self.rejected += after["requests"]["rejected"] - before["requests"]["rejected"]
        self.kernel_jobs += after["kernel"]["jobs"] - before["kernel"]["jobs"]
        self.kernel_s += after["kernel"]["seconds"] - before["kernel"]["seconds"]
        old, new = before["latency_state"], after["latency_state"]
        if self.latency_state is None:
            self.latency_state = {**new, "counts": [0] * len(new["counts"]),
                                  "count": 0, "sum_s": 0.0}
        state = self.latency_state
        state["counts"] = [
            acc + a - b for acc, a, b in zip(state["counts"], new["counts"], old["counts"])
        ]
        state["count"] += new["count"] - old["count"]
        state["sum_s"] += new["sum_s"] - old["sum_s"]
        state["min_s"], state["max_s"] = new["min_s"], new["max_s"]

    def summary(self) -> dict:
        from repro.engine.stats import LatencyHistogram

        return {
            "jobs_per_batch": self.matched / max(self.batches, 1),
            "kernel_job_share": self.kernel_jobs / max(self.matched, 1),
            "kernel_busy_share": self.kernel_s / self.wall_s,
            "server_p50_ms": 1e3 * LatencyHistogram.from_state(
                self.latency_state).quantile(0.5),
            "rejected": self.rejected,
        }


def prepare(work: Path, seed: int, n_jobs: int) -> tuple[Path, list[list[str]]]:
    """The served book, and the replayed jobs drawn from *seed*.

    The book is mined from the SuperCloud trace at its default seed, as
    ``repro mine-rulebook --trace supercloud`` would mine it, and the
    replay draws that trace's jobs with replacement in an order set by
    *seed*.  A book mined from each seed would change the served work
    itself: its rule count, and with it the mean answer size, moves by up
    to a fifth between seeds.
    """
    from repro.analysis import InterpretableAnalysis
    from repro.traces import get_trace

    definition = get_trace("supercloud")
    table = definition.generate_scaled(n_jobs)
    result = InterpretableAnalysis(definition.make_preprocessor()).run(
        table, dict(definition.keywords)
    )
    book_path = work / "supercloud.book.jsonl"
    result.to_rulebook(trace=definition.name).save(book_path)
    jobs = [
        sorted(item.render() for item in items)
        for items in result.preprocess.database.iter_item_transactions()
    ]
    rng = random.Random(seed)
    return book_path, [jobs[rng.randrange(len(jobs))] for _ in jobs]


def drive(server: Server, expected: Expected, outcome: Outcome, scale: ServeScale,
          n_conn: int, rounds: int, segment_s: float, spin: bool) -> dict:
    """Warm up, then alternate paced and saturated segments *rounds* times."""
    paced = PhaseCounters()
    saturated = PhaseCounters()
    latency: list[float] = []
    late: list[float] = []
    backlog = saturated_answers = 0
    cpu_server = cpu_gen = 0.0
    gen = LoadGenerator(server.port, n_conn, expected, outcome)
    try:
        gen.closed_loop(scale.window, n_requests=scale.warmup_requests)
        before = server.metrics()
        for _ in range(rounds):
            result = gen.open_loop(scale.paced_rate, segment_s, spin)
            latency += result["latency_s"]
            late += result["late_s"]
            backlog = max(backlog, result["backlog"])
            after = server.metrics()
            paced.add(before, after, segment_s)
            before = after

            cpu_s, cpu_g = cpu_seconds(server.proc.pid), time.process_time()
            answers = gen.closed_loop(scale.window, seconds=segment_s)
            if not answers:
                raise RuntimeError("no answer within a saturated segment")
            cpu_server += cpu_seconds(server.proc.pid) - cpu_s
            cpu_gen += time.process_time() - cpu_g
            saturated_answers += len(answers)
            after = server.metrics()
            saturated.add(before, after, answers[-1])
            before = after
    finally:
        gen.close()
    return {
        "paced": paced, "saturated": saturated, "latency_s": latency, "late_s": late,
        "backlog": backlog, "saturated_answers": saturated_answers,
        "server_cpu_share": cpu_server / saturated.wall_s,
        "gen_cpu_share": cpu_gen / saturated.wall_s,
        "response_bytes": gen.response_bytes / max(gen.n_responses, 1),
        "peak_rss_mb": peak_rss_kb(server.proc.pid) / 1024,
    }


def run_serve(seed: int, seconds: float, trace: bool, work: Path,
              scale: ServeScale) -> tuple[dict, Outcome, dict]:
    book_path, transactions = prepare(work, seed, scale.supercloud_jobs)
    expected = Expected(book_path, transactions)
    outcome = Outcome()
    n_conn = max(1, min(len(os.sched_getaffinity(0)), 4))
    # paced and saturated segments alternate, so each phase samples the
    # whole run rather than one half of it
    rounds = max(1, round(seconds / (2 * scale.segment_s)))
    segment_s = seconds / (2 * rounds)
    log = work / "server.log"
    setups: list[float] = []
    # the server gets a core of its own and the generator the rest: left
    # to the scheduler, both often share one core for the first seconds
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = set(cpus[:1])
    generator_cpus = set(cpus[1:]) or server_cpus

    def launch() -> Server:
        server = Server(book_path, log, server_cpus)
        setups.append(server.setup_s)
        return server

    def launch_and_stop() -> None:
        if launch().stop() != 0:
            outcome.fail("repro serve did not drain cleanly")
        else:
            outcome.ok()

    os.sched_setaffinity(0, generator_cpus)
    try:
        launch_and_stop()
        server = launch()
        try:
            run = drive(server, expected, outcome, scale, n_conn, rounds, segment_s,
                        spin=generator_cpus.isdisjoint(server_cpus))
        finally:
            code = server.stop()
        if code != 0:
            outcome.fail(f"repro serve exited with {code} after SIGTERM")
        launch_and_stop()
    finally:
        os.sched_setaffinity(0, set(cpus))
    paced, saturated = run["paced"], run["saturated"]
    latency, late = run["latency_s"], run["late_s"]
    backlog = run["backlog"]
    saturated_answers = run["saturated_answers"]

    late_p50 = quantile(late, 0.5)
    fell_behind = late_p50 > GEN_LATE_LIMIT_S
    backlog_grew = backlog > BACKLOG_LIMIT
    if fell_behind or backlog_grew:
        # the latencies of a schedule not kept measure the generator
        outcome.fail("paced generator fell behind" if fell_behind
                     else "paced backlog grew", len(late))
        say(f"  paced phase invalid: late p50 {late_p50 * 1e3:.3f} ms, "
            f"{backlog} in flight when a segment's last request was sent")
    saturated_rps = saturated_answers / saturated.wall_s
    paced_server = paced.summary()
    saturated_server = saturated.summary()
    details = {
        "n_rules": expected.n_rules, "n_jobs": len(expected),
        "jobs_firing_nothing": expected.n_empty / len(expected),
        "connections": n_conn, "rounds": rounds, "setup_samples": len(setups),
        "setup_s": setups,
        "paced_latency_ms": summarize([1e3 * x for x in latency]),
        "saturated_requests": saturated_answers, "saturated_rps": saturated_rps,
        "paced_server": paced_server, "saturated_server": saturated_server,
    }
    if not trace:
        return {
            "setup_s": metric(statistics.fmean(setups), "s"),
            "jobs_per_s": metric(saturated_rps, "jobs/s"),
            "latency_ms": metric(1e3 * quantile(latency, 0.5), "ms"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }, outcome, details

    layers = offline_layers(book_path, transactions,
                            saturated_server["jobs_per_batch"])
    metrics = {
        "serve.rulebook_load_s": metric(layers["load_s"], "s"),
        "serve.index_compile_s": metric(layers["compile_s"], "s"),
        "serve.n_rules": metric(expected.n_rules, "count"),
        "residual_s": metric(
            statistics.fmean(setups) - layers["load_s"] - layers["compile_s"], "s"),
        "trace_overhead_s": metric(layers["overhead_s"], "s"),
        "serve.paced.n_requests": metric(len(late), "count"),
        "serve.paced.jobs_per_batch": metric(paced_server["jobs_per_batch"], "jobs"),
        "serve.paced.kernel_job_share": metric(paced_server["kernel_job_share"], "ratio"),
        "serve.paced.server_p50_ms": metric(paced_server["server_p50_ms"], "ms"),
        "serve.paced.client_p90_ms": metric(1e3 * quantile(latency, 0.9), "ms"),
        "serve.paced.client_p99_ms": metric(1e3 * quantile(latency, 0.99), "ms"),
        "serve.paced.gen_late_p50_ms": metric(1e3 * late_p50, "ms"),
        "serve.paced.gen_late_p99_ms": metric(1e3 * quantile(late, 0.99), "ms"),
        "serve.paced.backlog": metric(backlog, "count"),
        "serve.saturated.n_requests": metric(saturated_answers, "count"),
        "serve.saturated.jobs_per_batch": metric(
            saturated_server["jobs_per_batch"], "jobs"),
        "serve.saturated.kernel_busy_share": metric(
            saturated_server["kernel_busy_share"], "ratio"),
        "serve.saturated.rejected": metric(saturated_server["rejected"], "count"),
        "serve.saturated.server_cpu_share": metric(run["server_cpu_share"], "ratio"),
        "serve.saturated.gen_cpu_share": metric(run["gen_cpu_share"], "ratio"),
        "serve.index.match_wire_us": metric(layers["match_wire_us"], "us"),
        "serve.index.match_wire_batch_us_per_job": metric(
            layers["match_wire_batch_us"], "us"),
        "serve.response_bytes_per_req": metric(run["response_bytes"], "bytes"),
    }
    details["spans"] = layers["spans"]
    return metrics, outcome, details


def offline_layers(book_path: Path, transactions: list[list[str]],
                   batch_size: float, repeats: int = 3) -> dict:
    """Load/compile spans and the two match paths, timed in this process."""
    from repro.serve import RuleBook, RuleIndex

    tracer = Tracer()
    untraced: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        RuleIndex.from_rulebook(RuleBook.load(book_path))
        untraced.append(time.perf_counter() - started)
        with tracer.span("serve.setup"):
            with tracer.span("serve.rulebook_load"):
                book = RuleBook.load(book_path)
            with tracer.span("serve.index_compile"):
                index = RuleIndex.from_rulebook(book)
    roots = [s for s in tracer.spans if s.parent is None]
    loads = [s.seconds for s in tracer.spans if s.name == "serve.rulebook_load"]
    compiles = [s.seconds for s in tracer.spans if s.name == "serve.index_compile"]

    for items in transactions[:256]:  # lazy structures and canonical cache
        index.match_wire(items)
    started = time.perf_counter()
    for items in transactions:
        index.match_wire(items)
    scalar_us = 1e6 * (time.perf_counter() - started) / len(transactions)

    size = max(2, round(batch_size))
    batches = [transactions[i:i + size] for i in range(0, len(transactions), size)]
    index.match_wire_batch(batches[0])
    started = time.perf_counter()
    for batch in batches:
        index.match_wire_batch(batch)
    batch_us = 1e6 * (time.perf_counter() - started) / len(transactions)
    return {
        "load_s": median(loads),
        "compile_s": median(compiles),
        "overhead_s": median([s.seconds for s in roots]) - median(untraced),
        "match_wire_us": scalar_us,
        "match_wire_batch_us": batch_us,
        "spans": tracer.to_json(),
    }
