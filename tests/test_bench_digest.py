"""The benchmark's seed-1 output digests, replayed in process.

`perfbench/run.py` hashes cycle 0 of each workload into an output digest.
Replaying that cycle here at full size, with the same bytes fed into the
same sha256, pins every session count, sweep row, root and CLI byte the
benchmark sees, so a change to the outputs or to the random draws fails
in the tier-1 suite. Nothing under `perfbench/` is changed or written.
"""

import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  (perfbench's own module, found through the path above)

SEED = 1
DIGESTS = {
    "rate_study": "b19d70d5c460abe817295ee2a464015f0311acc31037ec664709d72a82e6f094",
    "mc_gated": "668a669f368509feacb850cf48eca00053547c3ef299f4542499b0c19e8fab57",
    "mc_buffered": "d79509c994130ada9cb3a0bb3a68343a648cd73c8096278d80347686786291b0",
}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_cycle_zero_digest(workload, tmp_path):
    ctx = workloads.Ctx(workloads.FULL, tmp_path)
    digest = hashlib.sha256()
    failed = []
    for op in next(workloads.cycles(workload, ctx, SEED, 0)):
        errors, blob, _ = op.finish(op.call())
        failed += [f"{op.kind}: {e}" for e in errors]
        digest.update(op.kind.encode() + b"\0" + blob + b"\0")
    assert failed == []
    assert digest.hexdigest() == DIGESTS[workload]
