"""`repro.fsutil` append-only channel semantics under real concurrency.

The harness telemetry channel and the fleet index both lean on one
guarantee: :func:`repro.fsutil.append_line` issues a single ``O_APPEND``
write per record, so records from concurrent writer *processes* never
interleave within a line, and a torn-line-tolerant reader recovers
every complete record while never yielding a partial one.  This file
stress-tests that guarantee with actual processes, not threads.
"""

import json
import multiprocessing as mp

from repro.fsutil import append_line
from repro.obs.telemetry import TelemetryTail, read_events

N_WRITERS = 4
N_RECORDS = 60


def _writer(path, writer_id, n_records, sync):
    # Top-level so the spawn context can pickle it.
    for i in range(n_records):
        record = {
            "schema": 1,
            "kind": "stress.record",
            "t": float(i),
            "writer": writer_id,
            "seq": i,
            # Pad so records span several hundred bytes — long enough
            # that a non-atomic append would visibly shear.
            "pad": "x" * (100 + (writer_id * 31 + i * 7) % 200),
        }
        append_line(path, json.dumps(record, sort_keys=True), sync=sync)


def _run_writers(path, sync):
    ctx = mp.get_context("spawn")
    procs = [
        ctx.Process(target=_writer, args=(path, w, N_RECORDS, sync))
        for w in range(N_WRITERS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
        assert p.exitcode == 0


def test_append_line_basics(tmp_path):
    path = tmp_path / "nested" / "deeper" / "log.jsonl"
    append_line(path, "one")
    append_line(path, "two\n")  # trailing newline not doubled
    assert path.read_text() == "one\ntwo\n"


def test_concurrent_processes_never_tear_records(tmp_path):
    path = tmp_path / "channel.jsonl"
    _run_writers(path, sync=False)
    raw = path.read_text()
    lines = raw.splitlines()
    assert len(lines) == N_WRITERS * N_RECORDS
    assert raw.endswith("\n")
    seen = set()
    for line in lines:
        doc = json.loads(line)  # every line parses whole — no shearing
        seen.add((doc["writer"], doc["seq"]))
    # Every record from every writer arrived exactly once.
    assert seen == {(w, i) for w in range(N_WRITERS) for i in range(N_RECORDS)}


def test_reader_recovers_all_complete_records_despite_torn_tail(tmp_path):
    path = tmp_path / "channel.jsonl"
    _run_writers(path, sync=True)
    # Simulate a writer crashing mid-record: a partial JSON tail with
    # no newline, exactly what an interrupted O_APPEND leaves behind.
    with open(path, "a") as fh:
        fh.write('{"schema": 1, "kind": "stress.record", "t": 9, "wri')
    events = read_events(path)
    assert len(events) == N_WRITERS * N_RECORDS
    assert all(e["kind"] == "stress.record" for e in events)
    # The torn record was skipped, not partially surfaced.
    assert not any(e.get("seq") is None for e in events)


def test_tail_polling_concurrent_writers(tmp_path):
    """A live tail polled *while* writers run sees every record once."""
    path = tmp_path / "channel.jsonl"
    tail = TelemetryTail(path)
    ctx = mp.get_context("spawn")
    procs = [
        ctx.Process(target=_writer, args=(path, w, N_RECORDS, False))
        for w in range(N_WRITERS)
    ]
    for p in procs:
        p.start()
    collected = []
    while any(p.is_alive() for p in procs):
        collected.extend(tail.poll())
    for p in procs:
        p.join(60)
        assert p.exitcode == 0
    collected.extend(tail.poll())  # drain whatever landed after the loop
    seen = [(e["writer"], e["seq"]) for e in collected]
    assert len(seen) == len(set(seen)) == N_WRITERS * N_RECORDS


def test_json_lines_keeps_only_complete_object_lines():
    import io

    from repro.fsutil import json_lines

    data = (
        b'{"a": 1}\n'
        b"\n"  # blank
        b"   \n"
        b"\xff\xfe not utf-8\n"
        b'{"b": "\xff"}\n'  # JSON, but not UTF-8
        b"not json\n"
        b"[1, 2]\n"  # JSON, but not an object
        b'{"c": "\xc3\xa9"}\r\n'
        b'{"d": 4}'  # torn: no newline yet
    )
    assert list(json_lines(io.BytesIO(data))) == [{"a": 1}, {"c": "é"}]
    assert list(json_lines([])) == []


def test_read_json_lines_of_a_missing_file_is_empty(tmp_path):
    from repro.fsutil import read_json_lines

    assert list(read_json_lines(tmp_path / "nope.jsonl")) == []
