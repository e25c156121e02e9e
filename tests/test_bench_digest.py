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
    "rate_study": "a29428c967825242ea818e65972fb398f06344de5fe9db8dbccaf66e134fd629",
    "mc_gated": "668a669f368509feacb850cf48eca00053547c3ef299f4542499b0c19e8fab57",
    "mc_buffered": "7cf06c594f7256dc8b71361d16439b6030bfbd17b5b3c3a67d080bf65122fe13",
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
