"""``serve-open``: the serving stack as deployed, under open-loop load.

Topology: ``serve-router`` in front of two ``serve`` replicas, each with
a one-worker pool, all three sharing one fresh cache directory.  One
client process drives them over two pipelined keep-alive connections.

Traffic is the loadgen mix CI serves (``build_request_payload`` at seed
0), cases 0 to N-1 in CI's order, with N sized from ``--seconds``; it
includes the two area-heavy requests (cases 23 and 24) that set the
tail.  The seed picks which requests are sent a second time (a 20%
share, one to three sends after the first copy, so cache reads and
coalesced requests sit beside writes) and jitters the even send schedule
by up to 10%.  The order stays fixed: where the heavy requests land
decides how many light ones queue behind them, and reordering per seed
moved the median latency from 8 ms to over a second between seeds.

A run is an open-loop phase at a fixed offered rate, timing each request
from when it was due, followed by a saturation phase that keeps a fixed
number of requests outstanding over three passes of the mix to measure
capacity.  The rate, 3 requests/s, is about a sixth of the capacity the
saturation passes measure with a warm cache: the open-loop phase starts
cold, at 5-6 requests/s its queue behind the area-heavy requests pushed
the median latency past a second in trials, and at 4 requests/s two
ten-seed sets spread the median by 24% and 55%.  After the window
every ``ok`` payload is byte-compared with
``loadgen.reference_payload_bytes`` computed in-process with the design
cache off.

The traced run instead replays one stream through the router and then
straight at the replicas (alternating between them), reads the serving counters through the
``metrics`` op, and attributes the replicas' compute to layers from the
records ``serve_entry.py`` writes.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import quantile

UNIVERSE_SEED = 0
REPEAT_SHARE = 0.2
JITTER = 0.1
#: Offered rate of the open-loop phase (requests/s).
RATE_RPS = 3.0
#: Requests kept outstanding in the saturation phase.
SATURATION_OUTSTANDING = 4
#: Passes over the mix in the saturation phase.
SATURATION_PASSES = 3
#: Share of ``--seconds`` spent in the open-loop phase; the saturation
#: passes take roughly the rest.
OPEN_SHARE = 0.7
REPLICAS = 2
#: The router's hedge delay, pinned (floor = cap) to its default cap so
#: that whether a request is hedged does not depend on the latencies of
#: earlier phases of the run.
HEDGE_DELAY_S = 2.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
#: A reply not in this long after its request counts as lost.
REPLY_TIMEOUT_S = 60.0

ENV: Dict[str, str] = {}

_HERE = os.path.dirname(os.path.abspath(__file__))


# ----------------------------------------------------------------------
# The stack: two replicas and a router, as subprocesses
# ----------------------------------------------------------------------

class Stack:
    """Spawns, readies and reaps the serving processes."""

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.procs: List[subprocess.Popen] = []
        self.replica_ports: List[int] = []
        self.router_port: Optional[int] = None

    def _spawn(self, name: str, args: List[str]) -> int:
        log = open(self.log_dir / f"{name}.log", "ab")
        try:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(_HERE, "serve_entry.py")] + args,
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        self.procs.append(proc)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.5)
            if ready:
                line = proc.stdout.readline()
                if not line:
                    break
                event = json.loads(line)
                if event.get("event") == "listening":
                    return int(event["port"])
            elif proc.poll() is not None:
                break
        raise RuntimeError(f"{name} did not start; see {name}.log")

    def start(self) -> None:
        self.replica_ports = [
            self._spawn(f"replica{i}", ["serve", "--host", "127.0.0.1",
                                        "--port", "0", "--workers", "1"])
            for i in range(REPLICAS)
        ]
        replicas = ",".join(f"127.0.0.1:{p}" for p in self.replica_ports)
        self.router_port = self._spawn(
            "router", ["serve-router", "--host", "127.0.0.1", "--port", "0",
                       "--replicas", replicas,
                       "--hedge-floor", str(HEDGE_DELAY_S),
                       "--hedge-cap", str(HEDGE_DELAY_S)])
        if not asyncio.run(_wait_ready(self.router_port)):
            raise RuntimeError("router never reported ready")

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs = []


async def _wait_ready(port: int) -> bool:
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            pipe = await Pipe.open(port)
        except OSError:
            await asyncio.sleep(0.05)
            continue
        try:
            envelope, _ = await pipe.send({"op": "healthz", "id": "ready"})
        finally:
            await pipe.close()
        if envelope and envelope.get("ready"):
            return True
        await asyncio.sleep(0.05)
    return False


# ----------------------------------------------------------------------
# A pipelined client: many requests in flight per connection
# ----------------------------------------------------------------------

class Pipe:
    """One keep-alive connection; replies are matched to requests by id."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[str, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int) -> "Pipe":
        from repro.serve.protocol import MAX_LINE_BYTES

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_LINE_BYTES)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                raw = await self.reader.readline()
                if not raw:
                    break
                now = time.monotonic()
                envelope = json.loads(raw)
                future = self.pending.pop(str(envelope.get("id")), None)
                if future is not None and not future.done():
                    future.set_result((envelope, now))
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_result((None, time.monotonic()))
            self.pending.clear()

    def send(self, obj: Dict[str, Any]) -> asyncio.Future:
        from repro.serve.protocol import canonical_json

        future = asyncio.get_running_loop().create_future()
        self.pending[str(obj["id"])] = future
        self.writer.write(canonical_json(obj) + b"\n")
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self.task


# ----------------------------------------------------------------------
# The request stream
# ----------------------------------------------------------------------

def universe_size(seconds: float) -> int:
    """Distinct requests an open-loop phase of ``seconds`` can offer."""
    return max(1, int(RATE_RPS * seconds * OPEN_SHARE / (1 + REPEAT_SHARE)))


def universe(size: int) -> List[Dict[str, Any]]:
    from repro.serve.loadgen import build_request_payload

    return [build_request_payload(UNIVERSE_SEED, i) for i in range(size)]


class Stream:
    """The send sequence and schedule.  The mix goes out in its canonical
    order; the seed picks which requests are sent twice (a
    ``REPEAT_SHARE`` of them, each repeated one to three sends after its
    first copy) and jitters each gap of the even schedule by up to
    ``JITTER``."""

    def __init__(self, seed: int, size: int):
        self.rng = random.Random(f"perfbench:serve-open:{seed}")
        keyed = [(float(index), index) for index in range(size)]
        for index in range(size):
            if self.rng.random() < REPEAT_SHARE:
                keyed.append((index + self.rng.randint(1, 3) + 0.5, index))
        self.sequence = [index for _key, index in sorted(keyed)]

    def gap_s(self, rate: float) -> float:
        return self.rng.uniform(1.0 - JITTER, 1.0 + JITTER) / rate


async def _settle(futures: List[asyncio.Future]) -> None:
    """Wait for replies; one not in by ``REPLY_TIMEOUT_S`` counts as lost."""
    _done, pending = await asyncio.wait(futures, timeout=REPLY_TIMEOUT_S)
    for future in pending:
        future.set_result((None, time.monotonic()))


class Sent:
    """One request sent: its mix index, due time, how late the generator
    sent it, and the future its reply lands in."""

    __slots__ = ("index", "due", "late", "future")

    def __init__(self, index, due, late, future):
        self.index = index
        self.due = due
        self.late = late
        self.future = future


async def open_loop(pipes: List[Pipe], stream: Stream, rate: float,
                    corpus, phase: str) -> List[Sent]:
    """Send the stream on its seeded schedule without waiting for
    replies; returns once every reply is in."""
    sent: List[Sent] = []
    due = time.monotonic() + 0.05
    for index in stream.sequence:
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        late = time.monotonic() - due
        payload = dict(corpus[index], id=f"{phase}-{len(sent)}")
        future = pipes[len(sent) % len(pipes)].send(payload)
        sent.append(Sent(index, due, late, future))
        due += stream.gap_s(rate)
    await _settle([s.future for s in sent])
    return sent


async def saturate(pipes: List[Pipe], corpus) -> Tuple[List[Sent], float]:
    """Send ``SATURATION_PASSES`` passes over the whole mix, in its
    canonical order, keeping ``SATURATION_OUTSTANDING`` requests in
    flight.  Returns the sends and the throughput while the stack was
    saturated: replies received before the last request went out, over
    that time.  The drain after it is left out, because how long the last
    few requests take depends on which replica the slowest one landed on.
    The order is fixed, not seeded, so every run measures capacity on the
    same input."""
    sent: List[Sent] = []
    done: List[float] = []
    queue = list(range(len(corpus))) * SATURATION_PASSES
    start = time.monotonic()
    last_send = start

    async def lane(lane_id: int) -> None:
        nonlocal last_send
        while queue:
            index = queue.pop(0)
            payload = dict(corpus[index], id=f"sat-{len(sent)}")
            future = pipes[lane_id % len(pipes)].send(payload)
            last_send = time.monotonic()
            sent.append(Sent(index, last_send, 0.0, future))
            await _settle([future])
            done.append(future.result()[1])

    await asyncio.gather(*(lane(i) for i in range(SATURATION_OUTSTANDING)))
    saturated = [t for t in done if t <= last_send]
    return sent, len(saturated) / (last_send - start)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def _reference(payload: Dict[str, Any]) -> bytes:
    from repro.serve.loadgen import reference_payload_bytes

    os.environ["REPRO_CACHE"] = "0"
    return reference_payload_bytes(payload)


def check(sent: List[Sent], corpus) -> Tuple[int, List[str]]:
    """Every send must be ``ok`` and byte-identical to the in-process
    batch reference for its request."""
    from repro.serve.protocol import canonical_json

    failures: List[str] = []
    served: Dict[int, List[bytes]] = {}
    for item in sent:
        envelope, _ = item.future.result()
        if envelope is None or envelope.get("status") != "ok":
            status = None if envelope is None else envelope.get("status")
            failures.append(f"case {item.index}: status {status}")
            continue
        served.setdefault(item.index, []).append(
            canonical_json(envelope.get("payload")))
    indices = sorted(served)
    with ProcessPoolExecutor(max_workers=2) as pool:
        references = list(pool.map(_reference,
                                   [corpus[i] for i in indices]))
    for index, want in zip(indices, references):
        for got in served[index]:
            if got != want:
                failures.append(f"case {index}: payload differs from the "
                                "batch reference")
    return len(failures), failures


def _latencies_ms(sent: List[Sent], window_s: float) -> List[float]:
    """Latency from each request's due time; a request that was not
    answered ``ok`` counts as the whole window (a miss at any limit)."""
    values = []
    for item in sent:
        envelope, done_at = item.future.result()
        if envelope is not None and envelope.get("status") == "ok":
            values.append((done_at - item.due) * 1e3)
        else:
            values.append(window_s * 1e3)
    return values


# ----------------------------------------------------------------------
# Serving counters (traced run)
# ----------------------------------------------------------------------

async def _poll_depth(ports: List[int], stop: asyncio.Event,
                      depths: List[int]) -> None:
    pipes = [await Pipe.open(port) for port in ports]
    try:
        n = 0
        while not stop.is_set():
            for pipe in pipes:
                n += 1
                envelope, _ = await pipe.send({"op": "metrics",
                                               "id": f"m{n}"})
                if envelope:
                    depths.append(int(envelope.get("queue_depth", 0)))
            try:
                await asyncio.wait_for(stop.wait(), timeout=0.2)
            except asyncio.TimeoutError:
                pass
    finally:
        for pipe in pipes:
            await pipe.close()


async def _counters(port: int) -> Dict[str, int]:
    pipe = await Pipe.open(port)
    try:
        envelope, _ = await pipe.send({"op": "metrics", "id": "final"})
    finally:
        await pipe.close()
    return dict((envelope or {}).get("counters", {}))


def _serving_metrics(router: Dict[str, int],
                     replicas: List[Dict[str, int]],
                     depths: List[int]) -> Dict[str, float]:
    def total(name: str) -> int:
        return sum(c.get(name, 0) for c in replicas)

    requests = router.get("serve.router.requests", 0)
    sheds = sum(v for k, v in router.items()
                if k.startswith("serve.router.shed_"))
    hedges = router.get("serve.router.hedges", 0)
    wasted = hedges - router.get("serve.router.hedge_wins", 0)
    reads = total("cache.hits") + total("cache.misses")
    return {
        "cache.hit_ratio": total("cache.hits") / reads if reads else 0.0,
        "cache.reads": reads,
        "cache.writes": total("cache.writes"),
        "pool.dispatches": total("serve.dispatches"),
        "pool.redispatches": total("serve.redispatches"),
        "pool.queue_depth_max": max(depths, default=0),
        "router.hedge_waste_ratio": wasted / requests if requests else 0.0,
        "router.coalesced_ratio": (
            router.get("serve.coalesce.hits", 0) / requests
            if requests else 0.0),
        "router.shed_ratio": (
            sheds / (requests + sheds) if requests + sheds else 0.0),
    }


def _worker_records(span_dir: Path) -> List[Dict[str, Any]]:
    records = []
    for path in sorted(span_dir.glob("serve-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

def _run_dir() -> Path:
    return Path(os.environ["REPRO_CACHE_DIR"]).parent


def _wipe_cache() -> None:
    cache = Path(os.environ["REPRO_CACHE_DIR"])
    for child in cache.iterdir():
        if child.is_dir():
            shutil.rmtree(child, ignore_errors=True)
        else:
            child.unlink()


async def _measure(stack: Stack, seed: int, corpus):
    pipes = [await Pipe.open(stack.router_port) for _ in range(2)]
    try:
        started = time.monotonic()
        sent = await open_loop(pipes, Stream(seed, len(corpus)), RATE_RPS,
                               corpus, "open")
        open_window = time.monotonic() - started
        sat_sent, capacity = await saturate(pipes, corpus)
    finally:
        for pipe in pipes:
            await pipe.close()
    return sent, sat_sent, capacity, open_window


async def _measure_traced(stack: Stack, seed: int, corpus):
    stop = asyncio.Event()
    depths: List[int] = []
    poller = asyncio.ensure_future(
        _poll_depth(stack.replica_ports, stop, depths))
    phases = {}
    try:
        for phase, ports in (("router", [stack.router_port] * 2),
                             ("direct", stack.replica_ports)):
            pipes = [await Pipe.open(port) for port in ports]
            try:
                phases[phase] = await open_loop(
                    pipes, Stream(seed, len(corpus)), RATE_RPS, corpus,
                    phase)
            finally:
                for pipe in pipes:
                    await pipe.close()
            if phase == "router":
                _wipe_cache()
    finally:
        stop.set()
        await poller
    router = await _counters(stack.router_port)
    replicas = [await _counters(port) for port in stack.replica_ports]
    return phases, _serving_metrics(router, replicas, depths)


def _traced_layers(phases, serving: Dict[str, float], run_dir: Path):
    import tracer

    records = _worker_records(run_dir)
    self_s: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in records:
        for layer, seconds in record["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
    compute_s = sum(r["compute_s"] for r in records)
    spans = sum(r["spans"] for r in records)
    compute = {r["id"]: r["compute_s"] for r in records if r["id"]}

    def lat_ms(items):
        return [(s.future.result()[1] - s.due) * 1e3 for s in items]

    router_lat = lat_ms(phases["router"])
    direct_lat = lat_ms(phases["direct"])
    # Replica overhead: a direct request's latency minus its compute.
    overhead = [
        lat - compute[f"direct-{i}"] * 1e3
        for i, lat in enumerate(direct_lat) if f"direct-{i}" in compute
    ]
    extra = dict(serving)
    extra["hop.compute_p50_ms"] = (
        quantile([r["compute_s"] for r in records], 0.5) * 1e3
        if records else 0.0)
    extra["hop.overhead_p50_ms"] = quantile(overhead, 0.5) if overhead else 0.0
    extra["hop.router_p50_ms"] = (quantile(router_lat, 0.5)
                                  - quantile(direct_lat, 0.5))
    return {
        "self_s": self_s,
        "counts": counts,
        "wall_s": compute_s,
        "overhead_ratio": (spans * tracer.span_cost_s() / compute_s
                           if compute_s else 0.0),
        "extra": extra,
    }


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    from common import clock

    run_dir = _run_dir()
    corpus = universe(universe_size(seconds))
    setups: List[float] = []
    stack = Stack(run_dir)
    try:
        for attempt in range(1 if traced else 3):
            if attempt:
                stack.stop()
                _wipe_cache()
            began = clock()
            stack.start()
            setups.append(clock() - began)
        if traced:
            phases, serving = asyncio.run(
                _measure_traced(stack, seed, corpus))
            sent = phases["router"] + phases["direct"]
        else:
            open_sent, sat_sent, capacity, open_window = asyncio.run(
                _measure(stack, seed, corpus))
            sent = open_sent + sat_sent
    finally:
        stack.stop()
    failed, failures = check(sent, corpus)
    outcome: Dict[str, Any] = {
        "inputs": {"universe": f"loadgen seed {UNIVERSE_SEED} cases "
                               f"0-{len(corpus) - 1}",
                   "rate_rps": RATE_RPS, "repeat_share": REPEAT_SHARE,
                   "saturation_outstanding": SATURATION_OUTSTANDING},
        "setup_s": sorted(setups)[len(setups) // 2],
        "setup_runs_s": setups,
        "attempted": len(sent),
        "failed": failed,
        "failures": failures[:20],
        "layers": None,
    }
    if traced:
        outcome["layers"] = _traced_layers(phases, serving, run_dir)
        router_ms = _latencies_ms(phases["router"], seconds)
        outcome["op_p50_ms"] = quantile(router_ms, 0.50)
        outcome["op_p95_ms"] = quantile(router_ms, 0.95)
        return outcome
    latencies = _latencies_ms(open_sent, seconds)
    lateness = [s.late * 1e3 for s in open_sent]
    outcome.update({
        "ops_per_s": capacity,
        "op_p50_ms": quantile(latencies, 0.50),
        "op_p95_ms": quantile(latencies, 0.95),
        "serve": {
            "open_requests": len(open_sent),
            "open_window_s": open_window,
            "saturation_requests": len(sat_sent),
            "generator_late_p50_ms": quantile(lateness, 0.5),
            "generator_late_max_ms": max(lateness),
            "open_latencies_ms": sorted(latencies),
        },
    })
    return outcome
