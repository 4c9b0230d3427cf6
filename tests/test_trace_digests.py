"""Byte-for-byte regression gate on serialized traces.

Each scenario's ``write_trace(run(...))`` output is pinned by its SHA-256
digest. The digests were computed with the per-neuron engine this package
started from, so any change to the order of floating-point operations in the
update rule, or to the CSV formatting, shows up here even where the values
agree to many digits. Non-dyadic inhibitory weights (0.3, 1/3, 0.7) and units
(0.3) are included because they are the cases where summation order changes
the low bits.
"""

import hashlib

import pytest

from nestfire import MODE_FREE_RUN, MODE_SCHEDULED, Schedule, build_linear, run, write_trace

THIRD = 1 / 3

# (depth, size, unit, weight, schedule, steps, mode) -> SHA-256 of the CSV.
# A schedule is an int (staggered interval) or a tuple (explicit steps).
CASES = {
    (5, 5, 0.3, 0.3, 1, 12, MODE_SCHEDULED):
        "b698fc64ade7f43f244b1678228a817cb6e4d9b9384a32dca8c0f9d4d54dba6c",
    (5, 3, 2.0, THIRD, 1, 20, MODE_FREE_RUN):
        "8b0437b925e101077aed48be42686b61152a46a05a8aaaf6363ecbe70c2511ee",
    (6, 2, 0.3, 0.7, 2, 15, MODE_SCHEDULED):
        "3a8f82bed3df1f597718d3f04bfd92d5e5d641094528d286e0755d25ae3aa81c",
    (4, 4, 2.0, 0.7, (3, 1, 4, 2), 12, MODE_FREE_RUN):
        "9289ac96614d57537492e70e867724f691afc029c04911bff5b33607e68639cf",
    (7, 3, 0.3, THIRD, (1, 3, 2, 5, 4, 7, 6), 10, MODE_SCHEDULED):
        "9b47073c95e046d7c90bb7ebee05860feea29a496498ac207a11f12648fb10bf",
    (8, 2, 2.0, 0.3, 1, 25, MODE_FREE_RUN):
        "0a5fbc0e1f8b6fed40ca00abbc5414bdc4ad53ac11cdc075bae060c971a0ee11",
    (5, 5, 0.3, 0.7, 1, 15, MODE_FREE_RUN):
        "16b2ffd81357cf8eb9f8fc39eb0de6f807b8e96fc58d0c937eb64c3c5c416c8f",
    (3, 2, 0.3, 0.3, (2, 2, 1), 10, MODE_FREE_RUN):
        "791779d46511d8f8faa81a78eedf308ac26fb0de0afd91adc71427ede7977d8d",
    (6, 4, 2.0, THIRD, 3, 24, MODE_SCHEDULED):
        "405ba9a86f08e4559eaab9e6ba075ec82a6b6c1c0978f18ce8b075905f643e2c",
    (10, 1, 0.3, 0.3, (2, 1, 4, 3, 6, 5, 8, 7, 10, 9), 14, MODE_FREE_RUN):
        "846cfc65b160b9872a1020d232d22935aa56df4a1353fa47c6578edd00743b31",
    (3, 4000, 2.0, THIRD, 1, 10, MODE_SCHEDULED):
        "209aeb441d1b920fdea95aee97cf50511e6ef912724d9c43a095991d2f48aa84",
    (64, 1, 0.3, 0.7, 1, 40, MODE_SCHEDULED):
        "82874bf6b05535b864e57dd10d9cc2f8a7cfdb5256b9d791e6d587fabb353c58",
}


def _trace_bytes(depth, size, unit, weight, schedule, steps, mode) -> bytes:
    if isinstance(schedule, int):
        activation = Schedule.staggered(depth, schedule)
    else:
        activation = Schedule(schedule)
    trace = run(build_linear(depth, size, unit, weight), activation, steps, mode)
    return write_trace(trace).encode()


@pytest.mark.parametrize("case", list(CASES), ids=lambda case: "-".join(map(str, case)))
def test_trace_bytes_are_frozen(case):
    assert hashlib.sha256(_trace_bytes(*case)).hexdigest() == CASES[case]
