#!/usr/bin/env python3
"""Regenerates the committed fuzz corpus seeds under fuzz/corpus/.

Run from the repository root after changing the wire format or the text
formats, then commit the outputs.  The byte layouts below mirror
src/net/binstream.hpp (busytime-wire-v1: little-endian fixed-width
integers, u32-length-prefixed strings and vectors) and src/net/protocol.hpp
(frame = magic u32 + type u8 + length u32 + payload).

Layout:
  corpus/frame_decoder/   selector byte (the slice length) + well-formed
                          frames (fuzz_frame_decoder seeds)
  corpus/wire_payloads/   selector byte + payload (fuzz_wire_payloads seeds)
  corpus/text_readers/    selector byte + document (fuzz_text_readers seeds)
  corpus/regressions/     inputs that once crashed / misbehaved; replayed by
                          tests/fuzz_regression_test.cpp through EVERY
                          decoder — these must keep failing cleanly forever
"""

import struct
from pathlib import Path

ROOT = Path(__file__).resolve().parent
DATA = ROOT.parent / "tests" / "data"

MAGIC = 0x42545731


def u8(v): return struct.pack("<B", v)
def u16(v): return struct.pack("<H", v)
def u32(v): return struct.pack("<I", v)
def u64(v): return struct.pack("<Q", v)
def i32(v): return struct.pack("<i", v)
def i64(v): return struct.pack("<q", v)
def f64(v): return struct.pack("<d", v)
def wstr(s): return u32(len(s)) + s.encode()


def interval(start, completion):
    return i64(start) + i64(completion)


def job(start, completion, weight=1, demand=1):
    return interval(start, completion) + i64(weight) + i64(demand)


def instance(g, jobs):
    return i32(g) + u32(len(jobs)) + b"".join(jobs)


def cancel(job_id, at, preempt=False):
    return i32(job_id) + i64(at) + u8(1 if preempt else 0)


def event_trace(inst, cancels):
    return inst + u32(len(cancels)) + b"".join(cancels)


def schedule(assignment):
    return u32(len(assignment)) + b"".join(i32(m) for m in assignment)


def solver_info(name, kind, optimality, ratio, needs_budget, description):
    return (wstr(name) + wstr(kind) + wstr(optimality) +
            f64(ratio) + u8(1 if needs_budget else 0) +
            wstr(description))


def solver_spec(name, g=0, budget=-1, epoch=1024, max_batch=4096, seed=1,
                improve=False, threads=1, deadline_ms=0.0):
    """A SolverSpec payload: the name, then SolverOptions' field list."""
    return (wstr(name) + i32(g) + i64(budget) + i64(epoch) + i32(max_batch) +
            u64(seed) + u8(1 if improve else 0) + i32(threads) +
            f64(deadline_ms))


def solve_result_up_to_trace():
    """A SolveResult payload up to its component-trace count: solver,
    status, empty schedule, cost, throughput, bounds (g = 1), ratio, valid."""
    return (wstr("auto") + u8(0) + u32(0) + i64(0) + i64(0) +
            i64(0) + i64(0) + i64(0) + i32(1) + f64(0.0) + u8(1))


def frame(msg_type, payload=b""):
    return u32(MAGIC) + u8(msg_type) + u32(len(payload)) + payload


def write(rel, data):
    path = ROOT / "corpus" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    print(f"  {path.relative_to(ROOT.parent)}  ({len(data)} bytes)")


def main():
    inst = instance(2, [job(0, 10), job(5, 12), job(8, 20, weight=3, demand=2)])
    trace = event_trace(inst, [cancel(1, 7), cancel(2, 9, preempt=True)])

    # --- fuzz_frame_decoder seeds: selector byte + well-formed frames -----
    # Selectors 0-6 feed 1-7 bytes at a time, 7-11 feed 4-64 KiB.
    big = instance(8, [job(i, i + 1 + i % 5) for i in range(1000)])
    write("frame_decoder/ping.bin", u8(0) + frame(1))
    write("frame_decoder/load_instance.bin", u8(2) + frame(2, inst))
    write("frame_decoder/load_trace.bin", u8(6) + frame(3, trace))
    write("frame_decoder/error.bin",
          u8(1) + frame(63, u16(5) + wstr("payload failed to decode")))
    write("frame_decoder/two_frames.bin", u8(7) + frame(1) + frame(2, inst))
    # A 32 KB frame that spans 4 KiB slices, then a ping.
    write("frame_decoder/large_then_ping.bin",
          u8(7) + frame(2, big) + frame(1))

    # --- fuzz_wire_payloads seeds: selector byte + payload ----------------
    write("wire_payloads/interval.bin", u8(0) + interval(0, 10))
    write("wire_payloads/job.bin", u8(1) + job(3, 9, weight=2, demand=1))
    write("wire_payloads/instance.bin", u8(2) + inst)
    write("wire_payloads/trace.bin", u8(3) + trace)
    write("wire_payloads/schedule.bin", u8(4) + schedule([0, 1, -1]))
    write("wire_payloads/solver_info.bin",
          u8(9) + solver_info("first_fit", "heuristic", "4-approx", 4.0,
                              False, "arrival-order first fit"))

    # --- fuzz_text_readers seeds: selector byte + document ----------------
    write("text_readers/instance.txt",
          u8(0) + (DATA / "golden_general.txt").read_bytes())
    write("text_readers/trace.txt",
          u8(1) + (DATA / "golden_cancel_trace.txt").read_bytes())
    write("text_readers/schedule.txt",
          u8(2) + b"busytime-schedule v1\nn 3\nassign 0 0\nassign 1 1\n")
    write("text_readers/result.json",
          u8(3) + (DATA / "solve_result_golden.json").read_bytes())

    # --- regression corpus: must keep failing cleanly ---------------------
    # Interval whose signed length overflows Time (was UB in length()
    # before the unsigned-difference guard in net/binstream.cpp).
    write("regressions/interval_length_overflow.bin",
          interval(-(2**63), 2**63 - 1))
    # Forged element count: 4B jobs declared in a 12-byte payload (was a
    # multi-GiB reserve() before obinstream::require_count).
    write("regressions/forged_job_count.bin", i32(1) + u32(0xFFFFFFFF))
    # Reservation-overflow flavor: count * sizeof(Job) wraps std::size_t.
    write("regressions/reserve_overflow_count.bin",
          i32(1) + u32(0x80000001))
    # 300 nested arrays (was unbounded parser recursion before the JSON
    # depth guard in io/json.cpp).
    write("regressions/deep_nesting.json", b"[" * 300)
    # Desync inputs for the frame decoder: wrong magic, absurd length.
    write("regressions/bad_magic_frame.bin", b"\x00" * 9 + b"junk")
    write("regressions/oversized_frame.bin",
          u32(MAGIC) + u8(1) + u32(0xFFFFFFFF))
    # Payload with trailing bytes (from_payload must reject, not ignore).
    write("regressions/trailing_bytes.bin", interval(0, 10) + b"\x00")
    # Cancel record naming a job the instance does not have.
    write("regressions/cancel_bad_job_id.bin",
          event_trace(inst, [cancel(99, 5)]))
    # Zero-length Job as a full 32-byte record, so the length check (not a
    # short read) rejects it.
    write("regressions/zero_length_job.bin", job(10, 10))
    # Job with demand = 0.
    write("regressions/zero_demand_job.bin", job(0, 10, demand=0))
    # Forged component-trace count in a result: 1000 traces in 1000 bytes
    # (reserved 40 bytes per trace before the 12-byte ComponentTrace floor).
    write("regressions/forged_component_trace_count.bin",
          solve_result_up_to_trace() + u32(1000) + b"\x00" * 1000)
    # Spec options outside their domain (reached the solver unchecked before
    # the wire reader ran SolverOptions::check): a NaN deadline was UB in
    # the deadline's integer conversion.
    write("regressions/nan_deadline_spec.bin",
          solver_spec("auto", deadline_ms=float("nan")))
    write("regressions/threads_out_of_range_spec.bin",
          solver_spec("auto", threads=257))
    # Frame-decoder seams that a payload spanning reads crosses: a frame
    # whose first read ends exactly at the header/payload boundary, and
    # two frames arriving in one read.
    write("regressions/split_at_payload_boundary.bin", frame(2, inst))
    write("regressions/two_frames_one_slice.bin", frame(2, inst) + frame(1))
    # 1,000 good jobs but the last of zero length: the block Job decoder
    # must check every record, the last included.
    write("regressions/last_job_zero_length.bin",
          instance(8, [job(i, i + 3) for i in range(999)] + [job(5, 5)]))
    # A schedule naming machine 100,000,000 for one of 8 jobs: the machine
    # count sized per-machine arrays (an out-of-memory abort in `check`)
    # before read_schedule bounded ids by the job count.
    write("regressions/schedule_machine_id_past_job_count.txt",
          b"busytime-schedule v1\nn 8\nassign 0 100000000\n")


if __name__ == "__main__":
    main()
