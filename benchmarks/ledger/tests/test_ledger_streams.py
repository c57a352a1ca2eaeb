"""The generator: one seed, one stream; another seed, other literals."""

import itertools

import pytest

from benchmarks.ledger.workloads import WORKLOADS, build


def _stream_bytes(name: str, seed: int, count: int = 300) -> bytes:
    workload = build(name, seed, scale=0.1)
    try:
        ops = [
            (client, op.cls, op.statements, op.kinds, op.prepared, op.args, op.ordered)
            for client, stream in enumerate(workload.streams)
            for op in itertools.islice(stream, count)
        ]
        ops += [(-1, op.cls, op.statements, op.kinds) for op in workload.epilogue]
        return repr(ops).encode()
    finally:
        workload.oracle.close()


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_stream(name):
    assert _stream_bytes(name, 11) == _stream_bytes(name, 11)


@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seed_gives_different_literals(name):
    assert _stream_bytes(name, 11) != _stream_bytes(name, 12)


def test_mix_is_exact_per_block():
    workload = build("oltp_point", 5, scale=0.1)
    try:
        block = list(itertools.islice(workload.streams[0], workload.block))
    finally:
        workload.oracle.close()
    classes = sorted(op.cls for op in block)
    assert classes == sorted(
        ["prepared_point"] * 8 + ["literal_point"] * 6 + ["range"] * 4 + ["join"] * 2
    )


def test_adhoc_statements_never_repeat():
    workload = build("adhoc_optimize", 5, scale=0.1)
    try:
        texts = [op.text for op in itertools.islice(workload.streams[0], 2 * workload.block)]
    finally:
        workload.oracle.close()
    assert len(set(texts)) == len(texts)


def test_every_read_carries_a_sqlite_reference():
    for name in WORKLOADS:
        workload = build(name, 5, scale=0.1)
        try:
            for op in itertools.islice(workload.streams[0], 120):
                assert op.write or op.expect is not None
        finally:
            workload.oracle.close()
