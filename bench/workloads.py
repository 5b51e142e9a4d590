"""The four `entwit reproduce` workloads and the reference checks on their CSVs.

Each workload builds one CLI command from the benchmark seed and checks
every data row of the CSV it writes against a reference computed by the
benchmark itself or recorded from the seed commit in reference.json. A
row that misses its reference counts as failed; so does every row that is
absent from the CSV.
"""

from __future__ import annotations

import json
import math
import os
import statistics

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# fig56 and example1 take the CLI seed from this many values, so that the
# seed commit's CSV digest is on record for every benchmark seed.
CLI_SEEDS = 16

FIG56_TOL = 1e-9
EXAMPLE1_TOL = 1e-6
EXAMPLE1_CUT_TOL = 1e-8
ISOTROPIC_TOL = 1e-6
HEISENBERG_TOL = 1e-9


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def parse_csv(text: str):
    """(header, rows) of an entwit CSV; comment lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * (1.0 + abs(b))


class Workload:
    """A CLI command plus the check of the rows it writes."""

    name = ""
    why = ""
    header: tuple = ()

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def argv(self) -> list:
        raise NotImplementedError

    def rows_expected(self) -> int:
        raise NotImplementedError

    def prepare(self, reference: dict) -> None:
        """Compute or load what check() compares against; not timed."""

    def check(self, csv_text: str) -> int:
        """Failed rows, out of rows_expected(): rows off reference plus rows missing."""
        expected = self.rows_expected()
        header, rows = parse_csv(csv_text)
        if tuple(header) != self.header:
            return expected
        try:
            bad = len(rows) - int(sum(self.rows_ok(rows)))
        except (ValueError, IndexError):
            return expected
        return min(expected, bad + max(0, expected - len(rows)))

    def rows_ok(self, rows: list) -> list:
        return [self.row_ok(r) for r in rows]


class Fig56(Workload):
    name = "fig56-scatter"
    why = ("closed-form path only: random states, partial transpose, eigh, "
           "the 2-thread pool and CSV output; no SDP")
    header = ("negativity", "rg_ppt")

    @property
    def samples(self) -> int:
        return 300 if self.smoke else 10000

    def argv(self) -> list:
        return ["reproduce", "fig56", "--dim", "2", "--dim2", "3",
                "--samples", str(self.samples), "--seed", str(self.seed % CLI_SEEDS),
                "--workers", "2"]

    def rows_expected(self) -> int:
        return self.samples

    def prepare(self, reference: dict) -> None:
        self.neg, self.rg = fig56_reference(self.seed % CLI_SEEDS, self.samples)

    def rows_ok(self, rows: list) -> list:
        vals = np.array([[float(a), float(b)] for a, b in rows[: self.samples]])
        if vals.size == 0:
            return []
        k = len(vals)
        return list((np.abs(vals[:, 0] - self.neg[:k]) <= FIG56_TOL)
                    & (np.abs(vals[:, 1] - self.rg[:k]) <= FIG56_TOL))


def _pt_first_of_2x3(mats: np.ndarray) -> np.ndarray:
    """Partial transpose on the qubit of a stack of 2x3 operators."""
    return mats.reshape(-1, 2, 3, 2, 3).transpose(0, 3, 2, 1, 4).reshape(-1, 6, 6)


def fig56_reference(cli_seed: int, samples: int):
    """Negativity and N / lambda_max(P^Gamma) recomputed with plain numpy."""
    from entwit.linalg import SystemShape
    from entwit.states import random_density

    shape = SystemShape((2, 3))
    rhos = np.stack([
        random_density(6, np.random.SeedSequence((cli_seed, i)), shape).mat
        for i in range(samples)
    ])
    w, v = np.linalg.eigh(_pt_first_of_2x3(rhos))
    neg_mask = w < -1e-10
    neg = -np.where(neg_mask, w, 0.0).sum(axis=1)
    vn = v * neg_mask[:, None, :]
    proj = vn @ vn.conj().transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(_pt_first_of_2x3(proj))[:, -1]
    rg = np.where(neg == 0.0, 0.0, neg / np.where(neg == 0.0, 1.0, lam))
    return neg, rg


class Example1(Workload):
    name = "example1-sdp-small"
    why = ("99 small E_n:1 SDPs on 8x8 three-qubit states: per-solve "
           "overhead, build and matrix-equality assembly dominate")
    header = ("q", "n", "cut", "value")

    def argv(self) -> list:
        size = ["--q-count", "2"] if self.smoke else []
        return ["reproduce", "example1", *size, "--seed", str(self.seed % CLI_SEEDS)]

    def rows_expected(self) -> int:
        return 3 * 3 * (2 if self.smoke else 11)

    def prepare(self, reference: dict) -> None:
        self.ref = reference["example1"]

    def rows_ok(self, rows: list) -> list:
        groups = {}
        for q, n, _, value in rows:
            groups.setdefault((q, n), []).append(float(value))
        ok = []
        for q, n, cut, value in rows:
            v = float(value)
            ref = self.ref.get(f"{q},{n},{cut}")
            agree = abs(v - statistics.median(groups[(q, n)])) <= EXAMPLE1_CUT_TOL
            ok.append(ref is not None and abs(v - ref) <= EXAMPLE1_TOL and agree)
        return ok


def isotropic_closed(d: int, p: float, n: float) -> float:
    """E_{n:1} of the d x d isotropic state, written out independently."""
    return max(0.0, min(n / (d - 1), 1.0) * (d * p + (1.0 - p) / d - 1.0))


class Isotropic(Workload):
    name = "isotropic-d4-sdp"
    why = ("few large SDPs (m=512 rows, four 64x64 real blocks) checked "
           "against the closed form; solver and Schur assembly dominate")
    header = ("d", "p", "n", "closed", "sdp", "abs_diff")

    @property
    def d(self) -> int:
        return 2 if self.smoke else 4

    def argv(self) -> list:
        return ["reproduce", "isotropic", "--d", str(self.d), "--p-count", "2"]

    def rows_expected(self) -> int:
        return 5 * 2

    def row_ok(self, row: list) -> bool:
        d, p, n, closed, sdp, diff = int(row[0]), *map(float, row[1:])
        mine = isotropic_closed(d, p, n)
        return (d == self.d and abs(closed - mine) <= 1e-12 and abs(mine - sdp) <= ISOTROPIC_TOL
                and abs(diff - abs(closed - sdp)) <= 1e-12)


class Heisenberg(Workload):
    name = "heisenberg-n8"
    why = ("thermal 8-site XXX ring over a beta grid: Hamiltonian build, "
           "thermal state and susceptibility; no SDP")
    header = ("beta", "T", "U", "M", "witness_value", "estimate",
              "chi_exact", "chi_witness_form")

    @property
    def betas(self) -> int:
        return 2 if self.smoke else 9

    def argv(self) -> list:
        return ["reproduce", "heisenberg", "--N", "8", "--periodic",
                "--beta-grid", f"0:20:{self.betas}"]

    def rows_expected(self) -> int:
        return self.betas

    def prepare(self, reference: dict) -> None:
        self.ref = reference["heisenberg"]

    def row_ok(self, row: list) -> bool:
        vals = [float(x) for x in row]
        ref = self.ref.get(row[0])
        wv, est = vals[4], vals[5]
        return (abs(est - wv) <= HEISENBERG_TOL and ref is not None
                and all(_close(a, b, HEISENBERG_TOL) for a, b in zip(vals, ref, strict=True)))


WORKLOADS = {cls.name: cls for cls in (Fig56, Example1, Isotropic, Heisenberg)}
