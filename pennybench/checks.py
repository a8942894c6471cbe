"""Output checks made apart from the program under test.

Three kinds of check, one per workload:

- kernel outputs against NumPy re-implementations of what each kernel
  computes (written here from the kernels' documented semantics, not
  taken from the simulator) and against the unprotected kernel run on
  the scalar interpreter;
- campaign records against Penny's recovery guarantee (Kim et al.,
  PLDI 2020, Appendix A): no single-bit register-file error becomes an
  SDC;
- figure tables against properties the paper's method must have.

Every check returns its problems as strings (nothing, when it passed)
and none raises on bad data, so a caller can report every failure
instead of stopping at the first.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

# -- NumPy references ------------------------------------------------------------


def _f32(words: Sequence[int]) -> np.ndarray:
    raw = struct.pack(f"<{len(words)}I", *(int(w) & 0xFFFFFFFF for w in words))
    return np.frombuffer(raw, dtype="<f4").astype(np.float32)


def _ref_stc(inputs):
    # three-point Jacobi window, one output per source element
    src = _f32(inputs["src"])
    n = len(src) - 2
    third = np.float32(0.3333333)
    return (src[:n] + src[1 : n + 1] + src[2 : n + 2]) * third


def _ref_sgemm(inputs):
    # one matrix row . vector per thread (64 rows of K=32)
    b = _f32(inputs["b"])
    a = _f32(inputs["a"]).reshape(-1, len(b))
    return (a * b).sum(axis=1, dtype=np.float32)


def _ref_bfs(inputs, degree: int = 4):
    # one level-synchronous step from the frontier {node 0}
    adj = list(inputs["adj"])
    level = [0xFFFFFFFF] * len(inputs["level"])
    level[0] = 0
    for nbr in adj[:degree]:
        if level[nbr] == 0xFFFFFFFF:
            level[nbr] = 1
    return level


def _ref_mt(inputs, dim: int = 8):
    # per-block tiled transpose of dim x dim tiles
    a = np.array(inputs["a"], dtype=np.int64)
    tiles = a.reshape(-1, dim, dim)
    return [int(v) for v in tiles.transpose(0, 2, 1).reshape(-1)]


def _ref_fw(inputs, n: int = 32):
    # Walsh-Hadamard butterflies over each block's n elements
    out = []
    for block in np.array(inputs["data"], dtype=np.int64).reshape(-1, n):
        v = block.copy()
        stride = 1
        while stride < n:
            v = v.reshape(-1, 2, stride)
            v = np.stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1)
            v = v.reshape(-1)
            stride <<= 1
        out.extend(int(x) & 0xFFFFFFFF for x in v)
    return out


def _ref_nw(inputs, cols: int = 16, penalty: int = 1):
    # in-place DP row sweep: best = max(left + ref[j], up + penalty)
    score = np.array(inputs["score"], dtype=np.int64).reshape(-1, cols)
    ref = np.array(inputs["ref"], dtype=np.int64)
    out = np.empty_like(score)
    left = np.zeros(len(score), dtype=np.int64)
    for j in range(cols):
        left = np.maximum(left + ref[j], score[:, j] + penalty)
        out[:, j] = left
    return [int(v) & 0xFFFFFFFF for v in out.reshape(-1)]


#: abbr -> (reference, float tolerance or None for exact words)
REFERENCES = {
    "STC": (_ref_stc, 2e-3),
    "SGEMM": (_ref_sgemm, 2e-3),
    "BFS": (_ref_bfs, None),
    "MT": (_ref_mt, None),
    "FW": (_ref_fw, None),
    "NW": (_ref_nw, None),
}


def check_reference(
    abbr: str, inputs: Mapping[str, Sequence[int]], output: Sequence[int]
) -> List[str]:
    """``output`` (raw 32-bit words) against the NumPy reference for
    ``abbr``; kernels without a reference pass vacuously."""
    if abbr not in REFERENCES:
        return []
    ref, rtol = REFERENCES[abbr]
    expected = ref(inputs)
    if rtol is None:
        got = [int(w) & 0xFFFFFFFF for w in output]
        if got != list(expected):
            bad = sum(1 for g, e in zip(got, expected) if g != e)
            bad += abs(len(got) - len(expected))
            return [f"{abbr}: {bad} output word(s) differ from the NumPy reference"]
        return []
    got = _f32(output)
    if got.shape != expected.shape or not np.allclose(
        got, expected, rtol=rtol, atol=1e-4
    ):
        return [f"{abbr}: output differs from the NumPy reference (rtol {rtol})"]
    return []


def check_oracle(
    abbr: str, protected: Sequence[int], oracle: Sequence[int]
) -> List[str]:
    """A Penny-compiled kernel's fault-free output must equal the
    unprotected kernel's output on the scalar interpreter."""
    if list(protected) != list(oracle):
        bad = sum(1 for p, o in zip(protected, oracle) if p != o)
        bad += abs(len(protected) - len(oracle))
        return [f"{abbr}: {bad} output word(s) differ from the scalar oracle"]
    return []


# -- campaign records --------------------------------------------------------------

#: the DUE causes a single-bit campaign may legitimately end in: a
#: double-bit checkpoint-slot strike escalated by SECDED, or a strike
#: during recovery that exhausts the re-execution budget
ALLOWED_DUE = {
    "ckpt": {"memory_exception", "budget_exhausted"},
    "recovery": {"memory_exception", "budget_exhausted"},
}


def check_record(record: Mapping) -> Optional[str]:
    """One injection record against Appendix A; ``None`` when it holds."""
    where = f"injection {record['index']} ({record['surface']})"
    outcome = record["outcome"]
    if outcome == "sdc":
        return f"{where}: silent data corruption"
    if outcome in ("masked", "recovered"):
        return None
    if outcome == "due":
        cause = record.get("due_cause")
        if cause in ALLOWED_DUE.get(record["surface"], ()):
            return None
        return f"{where}: DUE with cause {cause!r}"
    return f"{where}: outcome {outcome!r}"


def check_records_equal(
    label: str, got: Sequence[Mapping], expected: Sequence[Mapping]
) -> Dict[int, str]:
    """Records of the same indices must be identical field by field.
    Returns index -> problem for every index where they are not."""
    by_index = {r["index"]: r for r in expected}
    return {
        rec["index"]: f"{label}: injection {rec['index']} record differs"
        for rec in got
        if by_index.get(rec["index"]) != rec
    }


# -- figure tables ------------------------------------------------------------------

ORDERING = ("Penny", "Bolt/Auto_storage", "Bolt/Global")


def check_ordering(name: str, table: Mapping[str, Mapping[str, float]]) -> List[str]:
    """Penny < Bolt/Auto_storage < Bolt/Global in gmean (Fig. 9/15)."""
    g = [table[s]["gmean"] for s in ORDERING]
    if not (g[0] < g[1] < g[2]):
        pairs = ", ".join(f"{s}={v:.4f}" for s, v in zip(ORDERING, g))
        return [f"{name}: gmean ordering violated ({pairs})"]
    return []


def check_fig11_matches_fig9(
    fig9: Mapping[str, Mapping[str, float]],
    fig11: Mapping[str, Mapping[str, float]],
) -> Dict[str, str]:
    """fig11's Auto/Auto_select config is Penny under another name, so
    its column must equal fig9's Penny column kernel by kernel.  Returns
    kernel -> problem for every kernel where it does not."""
    penny = fig9["Penny"]
    auto = fig11["Auto/Auto_select"]
    out = {}
    for abbr in sorted(set(penny) | set(auto)):
        if abbr == "gmean":
            continue
        if penny.get(abbr) != auto.get(abbr):
            out[abbr] = (
                f"fig11 Auto/Auto_select {abbr}={auto.get(abbr)} differs "
                f"from fig9 Penny {penny.get(abbr)}"
            )
    return out


def check_finite(name: str, table: Mapping[str, Mapping[str, float]]) -> List[str]:
    problems = []
    for scheme, column in table.items():
        for abbr, v in column.items():
            if not (isinstance(v, float) and np.isfinite(v) and v > 0):
                problems.append(f"{name}: {scheme}/{abbr} = {v!r}")
    return problems
