"""The benchmark's three workloads: inputs made from the seed, ops, checks.

An op is one in-process ``cadlagconvex.cli.main([...])`` call.  Set-up
writes every input file the ops read; the program receives only those files.

The two random workloads draw from the criterion-3 generator
(``rand_passing_instance(rng, max_scenarios=4, max_cells=4,
with_htilde=k % 2 == 0)`` with one ``rand_finite_dual``, dropping draws whose
pointwise conjugate is +inf).  Op cost on that distribution spreads over a
factor of ten, so a plain sample of a hundred files gives medians that move
by 20% from seed to seed.  The pools are therefore stratified samples: a
deterministic cost proxy of each draw picks its stratum, and each stratum of
equal probability under the generator takes a fixed quota out of a fixed
budget of draws from the seeded stream.  The pool keeps the generator's
distribution while the seed changes which instances fill it, and set-up does
about the same work for every seed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from cadlagconvex import cli, duality, generators, serialize
from cadlagconvex.plconvex import RInterval
from cadlagconvex.presets import PRESET_NAMES
from cadlagconvex.rationals import INF, rat

DEFAULT_SEED = 33
DELTA = "1/100"
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class Op(NamedTuple):
    label: str
    argv: tuple
    output: Optional[str] = None  # file the op writes, checked by digest


def strip_timestamp(text: str) -> str:
    """Canonical report text without its timestamp; other output as it is."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return text
    report.pop("timestamp", None)
    return json.dumps(report, sort_keys=True)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest(texts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# -- stratified pools -----------------------------------------------------------

def lattice_work(inst, B, delta) -> int:
    """Cost proxy of one brute-force conjugate search, in lattice evaluations.

    Per (slot, partition cell) of the once-refined instance, the lattice
    points inside the cell's feasible interval times the per-point work of
    its scenarios (one pairing term plus one integrand evaluation for each
    charged measure), plus a fifth of a unit for each lattice point the
    feasibility filter scans.
    """
    r = inst.refine(2)
    n = r.grid.n_slots
    size = int(2 * B / delta) + 1
    work = 0.0
    for i in range(n):
        for cell in r.tree.cells(i):
            feasible = RInterval(-B, B)
            per_point = 0
            for s in cell:
                smap, stmap = r.s_map(s), r.st_map(s)
                v = smap.point_vals[i]
                if i < n - 1:
                    v = v.intersect(smap.open_vals[i]).intersect(stmap.open_vals[i])
                if i + 1 < n:
                    v = v.intersect(stmap.point_vals[i + 1])
                    per_point += r.mutilde.measures[s].atoms[i + 1] > 0
                feasible = feasible.intersect(v)
                per_point += 1 + (r.mu.measures[s].atoms[i] > 0)
            work += size / 5
            if not feasible.is_empty:
                lo = math.ceil((feasible.lo + B) / delta)
                hi = math.floor((feasible.hi + B) / delta)
                work += max(0, hi - lo + 1) * per_point
    return round(work)


def _stratified_pool(seed: int, work_dir: str, prefix: str, edges: Sequence[float],
                     quota: int, draw_bytes: int, with_path: bool, proxy,
                     tick: Callable[[], None]) -> List[Tuple[str, int]]:
    """Fill each stratum of ``edges`` with ``quota`` files out of a budget of draws.

    Draws go on until the files they write hold ``draw_bytes`` bytes.  File
    size tracks the cost of drawing an instance closely (correlation 0.97),
    so set-up does about the same amount of work whatever the seed.  Each
    stratum takes its first ``quota`` candidates in stream order; a stratum
    left short takes the earliest spare candidates of the nearest strata,
    the lower one first.  Files are named in stream order and returned with
    their rank within their stratum.  ``tick()`` runs after each draw.
    """
    rng = random.Random(seed)
    by_stratum: List[List[Tuple[int, str]]] = [[] for _ in range(len(edges) + 1)]
    needed = quota * len(by_stratum)
    written = drawn = k = 0
    while written < draw_bytes or drawn < needed:
        inst = generators.rand_passing_instance(rng, max_scenarios=4, max_cells=4,
                                                with_htilde=k % 2 == 0)
        dual = generators.rand_finite_dual(rng, inst)
        k += 1
        if duality.conj_pointwise(inst, dual) == INF:
            continue
        paths = [generators.rand_feasible_path(rng, inst)] if with_path else []
        path = os.path.join(work_dir, f"{prefix}-draw{k:04d}.json")
        serialize.dump_instance(serialize.InstanceDoc(inst, [dual], paths, None), path)
        written += os.path.getsize(path)
        drawn += 1
        by_stratum[bisect.bisect_right(edges, proxy(inst, path))].append((k, path))
        tick()
    kept = [c[:quota] for c in by_stratum]
    spare = [c[quota:] for c in by_stratum]
    for i, files in enumerate(kept):
        for d in range(1, len(kept)):
            for j in (i - d, i + d):
                while len(files) < quota and 0 <= j < len(spare) and spare[j]:
                    files.append(spare[j].pop(0))
    for _, path in (c for s in spare for c in s):
        os.remove(path)
    out = []
    for _, path, rank in sorted((k, path, rank) for s in kept
                                for rank, (k, path) in enumerate(s)):
        out.append((os.path.join(work_dir, f"{prefix}{len(out):03d}.json"), rank))
        os.replace(path, out[-1][0])
    return out


def _oracle_proxy(inst, path) -> int:
    return lattice_work(inst, 2 * inst.magnitude_bound(), rat(DELTA))


def _file_bytes(inst, path) -> int:
    return os.path.getsize(path)


class Workload:
    name = ""
    warmup_ops = 0   # leading ops of the pool run untimed before timing
    trace_ops = 0    # leading ops of the pool replayed in each traced round

    def setup(self, seed: int, work_dir: str, tick: Callable[[], None] = lambda: None
              ) -> List[Op]:
        """Write the inputs made from ``seed``; ``tick()`` runs after each draw."""
        raise NotImplementedError

    def check(self, op: Op, code, text: str, out_digest: Optional[str]) -> Optional[str]:
        """Why the op's outcome is wrong, or None."""
        raise NotImplementedError


class OracleLattice(Workload):
    """verify --theorem conjugate / support-ds, alternating within each stratum.

    Both checks cross-check a formula against ``conj_bruteforce``, where
    nearly all of the time goes (with ``PLConvex.eval``).  support-ds feeds
    the oracle 0/+inf indicator integrands instead of the instance's own.
    """

    name = "oracle-lattice"
    # 25 strata of equal probability under the generator: quantiles of
    # lattice_work() over 3000 accepted draws of seeds 1000-1059.
    EDGES = (1925, 2810, 3771, 4679, 5556, 6413, 7296, 8191, 9048, 9989, 11087,
             12288, 13370, 14578, 15818, 17111, 18268, 19972, 21711, 23892,
             26447, 29231, 33462, 39363)
    QUOTA = 4
    DRAW_BYTES = 1_400_000  # about 180 draws
    warmup_ops = 4
    trace_ops = 16

    def setup(self, seed, work_dir, tick=lambda: None):
        files = _stratified_pool(seed, work_dir, "o", self.EDGES, self.QUOTA,
                                 self.DRAW_BYTES, False, _oracle_proxy, tick)
        theorems = ("conjugate", "support-ds")
        # Alternating by rank within each stratum gives every stratum both
        # theorems in equal numbers, whatever order the seed draws it in;
        # the ops then alternate between the two theorems.
        by_theorem = {t: [] for t in theorems}
        for f, rank in files:
            t = theorems[rank % 2]
            by_theorem[t].append(Op(f"{os.path.basename(f)} {t}",
                                    ("verify", f, "--theorem", t, "--delta", DELTA)))
        return [op for pair in zip(*by_theorem.values()) for op in pair]

    def check(self, op, code, text, out_digest):
        if code == cli.EXIT_PASS:
            return None
        if code == cli.EXIT_FAIL and op.argv[3] == "support-ds":
            # Known verdict: the support formula is +inf against a finite
            # lattice bound on many passing instances, and the check exits 1.
            duals = json.loads(text)["details"]["duals"]
            if all(e["verified"] or (e["formula"] == "inf" and e["bruteforce"] != "-inf")
                   for e in duals):
                return None
        return f"exit {code}"


class Calculus(Workload):
    """Conjugate-calculus checks that never call the lattice oracle."""

    name = "calculus"
    # 24 strata of equal probability under the generator: quantiles of the
    # instance file size over 3000 accepted draws of seeds 1000-1059.
    EDGES = (2416, 3225, 3986, 4106, 4217, 4771, 4998, 5818, 5947, 6115, 7411,
             7656, 7865, 8330, 8756, 9260, 10696, 11055, 11276, 13137, 13869,
             14574, 17665)
    QUOTA = 4
    DRAW_BYTES = 1_650_000  # about 200 draws
    warmup_ops = 40
    trace_ops = 96
    VARIANTS = (("--theorem", "interchange-stoch", "--form", "F"),
                ("--theorem", "interchange-stoch", "--form", "Fhat"),
                ("--theorem", "subdiff"),
                ("--theorem", "involution", "--count", "0"))

    def setup(self, seed, work_dir, tick=lambda: None):
        files = _stratified_pool(seed, work_dir, "c", self.EDGES, self.QUOTA,
                                 self.DRAW_BYTES, True, _file_bytes, tick)
        return [Op(f"{os.path.basename(f)} {' '.join(v)}", ("verify", f) + v)
                for f, _ in files for v in self.VARIANTS]

    def check(self, op, code, text, out_digest):
        return None if code == cli.EXIT_PASS else f"exit {code}"


class PresetCli(Workload):
    """Every theorem on every bundled preset, plus the model and refine writes.

    Seed-independent.  Outcomes, exit codes and reports are compared with
    ``golden/preset-cli.json``, which also records today's known verdicts:
    exit 2 for theorem/preset mismatches and a ValueError raised by
    interchange-det on the multi-scenario presets.
    """

    name = "preset-cli"
    warmup_ops = 112
    trace_ops = 112

    def __init__(self):
        self.golden: Dict[str, dict] = {}

    def setup(self, seed, work_dir, tick=lambda: None):
        golden_path = os.path.join(GOLDEN_DIR, "preset-cli.json")
        if os.path.exists(golden_path):
            with open(golden_path, encoding="utf-8") as fh:
                self.golden = json.load(fh)
        ops: List[Op] = []
        for name in PRESET_NAMES:
            base = os.path.join(work_dir, f"{name}.json")
            fine = os.path.join(work_dir, f"{name}-x2.json")
            ops.append(Op(f"model {name}", ("model", name, "-o", base), base))
            ops.append(Op(f"refine {name}", ("refine", base, "--factor", "2", "-o", fine), fine))
        for name in PRESET_NAMES:
            base = os.path.join(work_dir, f"{name}.json")
            for theorem in cli.THEOREMS:
                variants = {"interchange-det": [("--side", "cadlag"), ("--side", "caglad")],
                            "interchange-stoch": [("--form", "F"), ("--form", "Fhat")]
                            }.get(theorem, [()])
                for v in variants:
                    tag = ".".join((theorem,) + v[1:])
                    report = os.path.join(work_dir, f"{name}.{tag}.report.json")
                    ops.append(Op(f"verify {name} {tag}",
                                  ("verify", base, "--theorem", theorem) + v +
                                  ("--report", report)))
        return ops

    def outcome(self, op: Op, code, text: str, out_digest: Optional[str]) -> dict:
        if isinstance(code, str):
            return {"raise": code}
        out = {"exit": code}
        if op.output:
            out["file_sha256"] = out_digest
        elif code in (cli.EXIT_PASS, cli.EXIT_FAIL):
            out["report"] = json.loads(text)
            del out["report"]["timestamp"]
        return out

    def check(self, op, code, text, out_digest):
        want = self.golden.get(op.label)
        if want is None:
            return "no golden outcome"
        got = self.outcome(op, code, text, out_digest)
        if got == want:
            return None
        return "differs from golden in " + ", ".join(_differing_keys(got, want))


def _differing_keys(got: dict, want: dict, prefix: str = "") -> List[str]:
    out = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            out += _differing_keys(a, b, f"{prefix}{key}.")
        elif a != b:
            out.append(prefix + key)
    return out


WORKLOADS = {w.name: w for w in (OracleLattice, Calculus, PresetCli)}
