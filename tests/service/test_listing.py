"""Tests of the incremental ``GET /v1/jobs`` listing: whatever the store
went through and however often it was polled, the frontend's listing
equals one built in full, and its counts tally its own states."""

import json
import random
import threading
from collections import Counter

import pytest

from repro.api import Session
from repro.service import JobState, JobStore, ServiceClient, ServiceState
from repro.service import make_server

RUN = {"kind": "run", "experiment": "fig3_radio", "params": {}, "seed": 1,
       "code_version": "v"}
SWEEP = {"kind": "sweep", "sweep": "node_density", "quick": True, "seed": 1,
         "code_version": "v"}
WORKERS = ("w0", "w1", "w2")


def full_listing(store):
    """The listing built in full, from the decoded records."""
    return {"counts": store.counts(),
            "jobs": [record.to_status() for record in store.jobs()]}


def served_listing(state):
    status, text = state.listing()
    assert status == 200
    return json.loads(text)


@pytest.fixture()
def world(tmp_path):
    """A frontend's state and a second store on the same file that
    mutates it; ``now`` drives the second store's clock."""
    now = [1000.0]
    path = tmp_path / "jobs.sqlite"
    state = ServiceState(Session(cache=False), JobStore(path))
    writer = JobStore(path, max_attempts=2, clock=lambda: now[0])
    return state, writer, now


def mutate(writer, now, rng, steps):
    """Run ``steps`` seeded operations through ``writer``; after each,
    yield the tally of the kinds of change that happened so far."""
    seen = Counter()
    submitted = []
    for _ in range(steps):
        operation = rng.choice(("submit", "submit", "resubmit", "claim",
                                "claim", "finish", "fail", "cancel",
                                "retire", "stale", "heartbeat"))
        running = writer.jobs(JobState.RUNNING)
        if operation == "submit" or not submitted:
            job_id = f"job-{len(submitted):03d}"
            spec = dict(rng.choice((RUN, SWEEP)),
                        experiment=f"fig\"{len(submitted)} µ")
            writer.submit(job_id, spec)
            submitted.append(job_id)
            seen["created"] += 1
        elif operation == "resubmit":
            receipt = writer.submit(rng.choice(submitted), dict(RUN))
            seen["requeued" if receipt["requeued"] else "duplicate"] += 1
        elif operation == "claim":
            if writer.claim(rng.choice(WORKERS)) is not None:
                seen["claimed"] += 1
        elif operation == "finish" and running:
            record = rng.choice(running)
            writer.finish(record.job_id, record.worker,
                          result_text="{}", cache_key=f"key-{record.seq}")
            seen["done"] += 1
        elif operation == "fail" and running:
            record = rng.choice(running)
            seen["fail->" + writer.fail(record.job_id, record.worker,
                                        "boom \"quoted\"")] += 1
        elif operation == "cancel":
            if writer.cancel(rng.choice(submitted)):
                seen["cancelled"] += 1
        elif operation == "retire":
            released = writer.retire_worker(rng.choice(WORKERS),
                                            lost=rng.random() < 0.5)
            seen["retired"] += released["requeued"] + released["failed"]
        elif operation == "stale":
            now[0] += rng.choice((1.0, 60.0))
            released = writer.requeue_stale(30.0)
            seen["stale"] += released["requeued"] + released["failed"]
        elif operation == "heartbeat":
            writer.heartbeat(WORKERS)
        yield seen


def _covers_every_change(seen):
    return all(seen[kind] for kind in (
        "created", "duplicate", "requeued", "claimed", "done",
        "fail->queued", "fail->failed", "cancelled", "retired", "stale"))


class TestIncrementalListing:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_the_full_listing_after_every_step(self, world, seed):
        state, writer, now = world
        seen = Counter()
        for seen in mutate(writer, now, random.Random(seed), 160):
            assert served_listing(state) == full_listing(writer)
        assert _covers_every_change(seen), seen

    def test_equals_the_full_listing_when_polled_once_at_the_end(
            self, world):
        state, writer, now = world
        seen = Counter()
        for seen in mutate(writer, now, random.Random(3), 160):
            pass
        assert _covers_every_change(seen), seen
        assert served_listing(state) == full_listing(writer)

    def test_equals_the_full_listing_when_polled_now_and_then(self, world):
        state, writer, now = world
        rng = random.Random(4)
        for _ in mutate(writer, now, rng, 160):
            if rng.random() < 0.2:
                assert served_listing(state) == full_listing(writer)
        assert served_listing(state) == full_listing(writer)

    def test_the_wire_form_is_compact_json_with_sorted_keys(self, world):
        state, writer, _ = world
        writer.submit("a", dict(RUN))
        writer.submit("b", dict(SWEEP))
        writer.claim("w0")
        _, text = state.listing()
        assert text == json.dumps(full_listing(writer), sort_keys=True) + "\n"

    def test_an_empty_store_lists_nothing(self, world):
        state, _, _ = world
        assert served_listing(state) == {
            "counts": {state_name: 0 for state_name in JobState.ALL},
            "jobs": []}


def test_counts_agree_with_the_listed_states_under_concurrent_writes(
        tmp_path):
    """``GET /v1/jobs`` reads counts and jobs from one snapshot: while a
    second store submits, claims and finishes jobs, every listing's
    counts tally exactly the states it lists."""
    path = tmp_path / "jobs.sqlite"
    server = make_server(ServiceState(Session(cache=False), JobStore(path)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    stop = threading.Event()

    def churn():
        writer = JobStore(path)
        index = 0
        while not stop.is_set():
            writer.submit(f"job-{index:04d}", dict(RUN))
            record = writer.claim("w0")
            if index % 2 and record is not None:
                writer.finish(record.job_id, "w0", result_text="{}")
            index += 1

    churner = threading.Thread(target=churn, daemon=True)
    churner.start()
    try:
        inconsistent = 0
        for _ in range(200):
            listing = client.jobs()
            tally = Counter(job["state"] for job in listing["jobs"])
            if any(listing["counts"][name] != tally[name]
                   for name in JobState.ALL):
                inconsistent += 1
    finally:
        stop.set()
        churner.join(timeout=30)
        client.close()
        server.shutdown()
        server.server_close()
    assert not churner.is_alive()
    assert inconsistent == 0
