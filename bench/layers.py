"""Traced pass of a prover workload: the per-layer metrics.

Probes call each layer's *public* function from outside, at the shape
the workload uses (rows, LDE size and leaf width are read off the setup
and a proof), min-of-3.  Counts come from ``metrics.counting()`` around
one prove and are exact.  Nothing under ``src/`` is edited: the stage
split uses the spans the provers already emit under
``repro.tracing.trace()``.

Layer order, bottom up: host -> field -> ntt / hashing / merkle ->
fri / pcs / sumcheck -> protocol stages -> protocols -> serialize ->
parallel, with the compiler + simulator prediction beside the measured
mix.  A metric reads 0 on a workload that does not exercise its layer.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Dict, List

import numpy as np

from common import STAGE_CATEGORIES, HostSpeed, Ledger, Recorder, best_of, host_metrics, iqr, metric, stage_bucket
from prover import ProverCase

from repro import parallel, tracing
from repro.compiler import PlonkParams, StarkParams, trace_plonky2, trace_starky
from repro.field import extension as fext, gl64
from repro.fri import PolynomialBatch, fri_prove, fri_verify, open_batches
from repro.hashing import Challenger, hash_batch, permute
from repro.mapping import DEFAULT_MAPPING
from repro.merkle import MerkleTree, prove_multi, verify_multi, verify_proof
from repro.metrics import counting
from repro.ntt import lde
from repro.pcs import FriPCS, MultilinearPCS
from repro.serialize import proof_from_blob, proof_to_blob
from repro.sim import simulate_graph
from repro import sumcheck

#: Calls a probe's minimum is taken over.  The issue sketched 5; at
#: workload shape the tree / commit / FRI probes cost 0.5-0.9 s a call,
#: and five of each made a traced run twice an untraced one.
REPEATS = 3
#: Floor on interleaved rounds (four proves each).  Below the untraced
#: pass's five pairs: per-layer numbers carry no bound, and a traced run
#: must not cost twice an untraced one inside the driver's time cap.
MIN_ROUNDS = 3
FIELD_LEN = 1 << 18
INV_LEN = 1 << 14


def field_probes(rng, rec: Recorder) -> Dict[str, Any]:
    a, b = gl64.random(FIELD_LEN, rng), gl64.random(FIELD_LEN, rng)
    out = np.empty_like(a)
    ea, eb = gl64.random((FIELD_LEN, 2), rng), gl64.random((FIELD_LEN, 2), rng)
    nz = gl64.random(INV_LEN, rng) | np.uint64(1)
    with rec.span("field", "probe"):
        return {
            "field.mul_ns": metric(best_of(lambda: gl64.mul(a, b), REPEATS) / FIELD_LEN * 1e9, "ns"),
            "field.mul_into_ns": metric(best_of(lambda: gl64.mul_into(a, b, out), REPEATS) / FIELD_LEN * 1e9, "ns"),
            "field.ext_mul_ns": metric(best_of(lambda: fext.mul(ea, eb), REPEATS) / FIELD_LEN * 1e9, "ns"),
            "field.inv_fast_ns": metric(best_of(lambda: gl64.inv_fast(nz), REPEATS) / INV_LEN * 1e9, "ns"),
        }


def permute_probes(rng, rec: Recorder) -> Dict[str, Any]:
    """Per-permutation cost of ``hashing.permute`` by batch size: 1 is
    the challenger's use, 16 the verifiers', 256 / 4096 Merkle levels."""
    out = {}
    with rec.span("hashing.permute", "probe"):
        for batch in (1, 16, 256, 4096):
            states = gl64.random((batch, 12), rng)
            out[f"hashing.permute_us_b{batch}"] = metric(
                best_of(lambda: permute(states), REPEATS) / batch * 1e6, "us"
            )
    return out


def workload_shape(case: ProverCase) -> Dict[str, int]:
    """Rows, committed leaves and the widest leaf of this workload."""
    cfg, proof = case.config, case.proof
    if case.system.uses_ntt:
        widths = [len(leaf) for leaf in proof.fri_proof.query_rounds[0].initial.leaves]
        rate_bits = cfg.rate_bits
    else:
        widths = [proof.wires_opening.rows.shape[1]]
        rate_bits = 0
    rows = case.setup.rows
    return {
        "rows": rows,
        "log_rows": rows.bit_length() - 1,
        "rate_bits": rate_bits,
        "leaves": rows << rate_bits,
        "width": max(widths),
        "cap_height": cfg.cap_height,
        "num_queries": cfg.num_queries,
    }


def kernel_probes(case: ProverCase, shape: Dict[str, int], rng, rec: Recorder) -> Dict[str, Any]:
    """ntt / hashing / merkle / fri / pcs / sumcheck at workload shape."""
    m: Dict[str, Any] = {}
    rows, leaves_n, width = shape["rows"], shape["leaves"], shape["width"]
    cap_height, cfg = shape["cap_height"], case.config
    fri_family = case.system.uses_ntt
    values = gl64.random((width, rows), rng)  # one committed batch, row-major

    if fri_family:
        with rec.span("ntt.lde", "probe"):
            with counting() as c:
                lde(values, shape["rate_bits"])
                butterflies = c.ntt_butterflies
            lde_s = best_of(lambda: lde(values, shape["rate_bits"]), REPEATS)
        m["ntt.lde_s"] = metric(lde_s, "s")
        m["ntt.ns_per_butterfly"] = metric(lde_s / butterflies * 1e9, "ns")

    leaves = gl64.random((leaves_n, width), rng)
    with rec.span("hashing.hash_batch", "probe"):
        m["hashing.leaf_us"] = metric(best_of(lambda: hash_batch(leaves), REPEATS) / leaves_n * 1e6, "us")
    with rec.span("merkle", "probe"):
        with counting() as c:
            tree = MerkleTree(leaves, cap_height)
            build_perms = c.sponge_permutations
        build_s = best_of(lambda: MerkleTree(leaves, cap_height), REPEATS)
        m["merkle.build_s"] = metric(build_s, "s")
        # Per-permutation cost the way a commit runs them: leaf sponge
        # plus every compression level of one tree at workload shape.
        m["hashing.sponge_us"] = metric(build_s / build_perms * 1e6, "us")
        picks = [int(i) for i in rng.integers(0, leaves_n, size=16)]
        paths = [tree.prove(i) for i in picks]
        m["merkle.open_us"] = metric(best_of(lambda: [tree.prove(i) for i in picks], REPEATS) / len(picks) * 1e6, "us")
        m["merkle.verify_us"] = metric(
            best_of(lambda: [verify_proof(leaves[i], i, p, tree.cap) for i, p in zip(picks, paths)], REPEATS)
            / len(picks) * 1e6,
            "us",
        )
        queried = sorted({int(i) for i in rng.integers(0, leaves_n, size=shape["num_queries"])})
        multi = prove_multi(tree, queried)
        opened = {i: leaves[i] for i in queried}
        depth = leaves_n.bit_length() - 1
        m["merkle.multi_verify_us"] = metric(
            best_of(lambda: verify_multi(opened, multi, tree.cap, depth, cap_height), REPEATS) * 1e6, "us"
        )

    if fri_family:
        with rec.span("pcs.commit", "probe"):
            m["pcs.commit_s"] = metric(best_of(lambda: FriPCS(cfg).commit_values(values, "probe"), REPEATS), "s")
        with rec.span("fri", "probe"):
            batch = PolynomialBatch.from_values(values, cfg.rate_bits, cfg.cap_height)
            point = gl64.random(2, rng)
            openings = open_batches([batch], [point], [[(0, c) for c in range(width)]])
            proof = fri_prove([batch], openings, Challenger(), cfg)
            m["fri.prove_s"] = metric(best_of(lambda: fri_prove([batch], openings, Challenger(), cfg), REPEATS), "s")
            m["fri.verify_s"] = metric(
                best_of(lambda: fri_verify([batch.cap], openings, proof, Challenger(), cfg, rows), REPEATS), "s"
            )
            m["fri.proof_bytes"] = metric(proof.size_bytes(), "B")
    else:
        with rec.span("pcs.commit", "probe"):
            m["pcs.commit_s"] = metric(
                best_of(lambda: MultilinearPCS(cap_height).commit(leaves, "probe"), REPEATS), "s"
            )
        with rec.span("sumcheck", "probe"):
            table = gl64.random(rows, rng)
            sc_proof = sumcheck.prove(table)
            m["sumcheck.prove_s"] = metric(best_of(lambda: sumcheck.prove(table), REPEATS), "s")
            m["sumcheck.verify_s"] = metric(
                best_of(lambda: sumcheck.verify(sc_proof, shape["log_rows"]), REPEATS), "s"
            )
    return m


def serialize_probes(case: ProverCase, rec: Recorder) -> Dict[str, Any]:
    tag, proof = case.system.name, case.proof
    blob = proof_to_blob(tag, proof)
    with rec.span("serialize", "probe"):
        return {
            "serialize.to_blob_ms": metric(best_of(lambda: proof_to_blob(tag, proof), REPEATS) * 1e3, "ms"),
            "serialize.from_blob_ms": metric(best_of(lambda: proof_from_blob(blob), REPEATS) * 1e3, "ms"),
            "serialize.digest_ms": metric(best_of(lambda: case.system.digest(proof), REPEATS) * 1e3, "ms"),
        }


def stage_split(roots: List[tracing.Span]) -> Dict[str, float]:
    """Mean seconds per prove of each depth-1 stage category, plus
    ``self`` (root minus children) and the top-level commit count.

    A category this bench does not know is summed under ``other``
    rather than dropped or raised on.
    """
    out = {f"stage.{c}_s": 0.0 for c in (*STAGE_CATEGORIES, "other", "self")}
    commits = 0

    def count_commits(span: tracing.Span) -> int:
        if span.category == "commit":
            return 1
        return sum(count_commits(child) for child in span.children)

    for root in roots:
        out["stage.self_s"] += root.elapsed_s
        for child in root.children:
            out[f"stage.{stage_bucket(child.category)}_s"] += child.elapsed_s
            out["stage.self_s"] -= child.elapsed_s
        commits += count_commits(root)
    n = max(1, len(roots))
    # A category no span carried is left out (it reads 0 downstream).
    out = {k: v / n for k, v in out.items() if v or k == "stage.self_s"}
    out["pcs.commits"] = commits / n
    return out


def prove_rounds(case: ProverCase, seconds: float, smoke: bool, rec: Recorder, ledger: Ledger) -> Dict[str, Any]:
    """Interleaved (untraced, traced, 2-shard, inline-pool) proves.

    Interleaving puts all four under the same machine drift, so their
    ratios -- tracing overhead, shard speed-up, inline-executor overhead
    -- are ratios of like with like.
    """
    system, setup = case.system, case.setup
    inline_pool = parallel.ShardPool(1, **case.gates)
    plain, traced, sharded, inline, roots = [], [], [], [], []
    before = dict(case.pool.stats)
    t_start, rounds = time.perf_counter(), 0
    try:
        with rec.span("prove-rounds", "phase"):
            while rounds < (2 if smoke else MIN_ROUNDS) or time.perf_counter() - t_start < seconds:
                rounds += 1
                with rec.span(f"round#{rounds}", "iteration"), ledger.guard("prove round"):
                    t0 = time.perf_counter()
                    system.prove(setup)
                    plain.append(time.perf_counter() - t0)
                    with tracing.trace() as session:
                        t0 = time.perf_counter()
                        system.prove(setup)
                        traced.append(time.perf_counter() - t0)
                    roots.extend(session.spans)
                    t0 = time.perf_counter()
                    proof = system.prove(setup, pool=case.pool)
                    sharded.append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    system.prove(setup, pool=inline_pool)
                    inline.append(time.perf_counter() - t0)
                    if system.digest(proof) != case.digest:
                        raise ValueError("sharded digest != serial digest")
        per_prove = {k: (case.pool.stats[k] - before[k]) / rounds for k in before}
        inline_shards = inline_pool.stats["inline_shards"] / rounds
    finally:
        inline_pool.close()
        case.close()
    uids = (case.pool.uid, inline_pool.uid)
    try:
        leaked = sum(any(uid in name for uid in uids) for name in os.listdir("/dev/shm"))
    except OSError:
        leaked = 0
    prove_s = statistics.median(plain)
    m = {
        "protocols.prove_s": metric(prove_s, "s", plain),
        "protocols.prove_iqr_s": metric(iqr(plain), "s"),
        "protocols.prove_traced_s": metric(statistics.median(traced), "s", traced),
        "tracing.overhead_frac": metric(statistics.median(traced) / prove_s - 1.0, "ratio"),
        "parallel.speedup_w2": metric(prove_s / statistics.median(sharded), "ratio"),
        "parallel.inline_overhead_frac": metric(statistics.median(inline) / prove_s - 1.0, "ratio"),
        "parallel.pool_start_s": metric(case.pool_start_s, "s"),
        "parallel.graphs": metric(per_prove["graphs"], "count"),
        "parallel.shards": metric(per_prove["shards"], "count"),
        "parallel.inline_shards": metric(inline_shards, "count"),
        "parallel.shm_leaked": metric(leaked, "count"),
    }
    for name, value in stage_split(roots).items():
        m[name] = metric(value, "count" if name == "pcs.commits" else "s")
    return m


def sim_prediction(case: ProverCase, shape: Dict[str, int], m: Dict[str, Any]) -> Dict[str, Any]:
    """The compiler + simulator's kernel mix for this shape, beside ours.

    Simulated time (cycles of the modelled chip) is exact and repeats;
    ``sim.host_s`` is host time.  The model has no reference hardware
    run in this repo, so it is unvalidated: ``sim.mix_l1`` is a distance
    between two mixes, not an error against truth.
    """
    cfg = case.config
    common = dict(
        degree_bits=shape["log_rows"], rate_bits=cfg.rate_bits,
        num_queries=cfg.num_queries, pow_bits=cfg.proof_of_work_bits,
    )
    t0 = time.perf_counter()
    if case.system.name == "stark":
        width = case.setup.data[1].shape[1]
        graph = trace_starky(StarkParams(case.name, width=width, **common))
    else:
        width = case.setup.data[0].circuit.wire_vars.shape[0]
        graph = trace_plonky2(PlonkParams(case.name, width=width, **common))
    # Pinned default mapping: a tuning cache in the user's home must not
    # change a benchmark number.
    report = simulate_graph(graph, mapping=DEFAULT_MAPPING)
    host_s = time.perf_counter() - t0
    frac = report.fraction_by_kind()
    predicted = {
        "ntt": frac.get("ntt", 0.0) + frac.get("transform", 0.0),
        "hash": frac.get("hash", 0.0),
        "poly": frac.get("poly", 0.0),
    }
    prove_s = m["protocols.prove_s"]["value"]
    measured = {"ntt": m["ntt.est_s"]["value"] / prove_s, "hash": m["hashing.est_s"]["value"] / prove_s}
    measured["poly"] = 1.0 - measured["ntt"] - measured["hash"]
    return {
        "sim.total_cycles": metric(report.total_cycles, "cycles"),
        "sim.ntt_frac": metric(predicted["ntt"], "ratio"),
        "sim.hash_frac": metric(predicted["hash"], "ratio"),
        "sim.poly_frac": metric(predicted["poly"], "ratio"),
        "sim.host_s": metric(host_s, "s"),
        "sim.mix_l1": metric(sum(abs(predicted[k] - measured[k]) for k in predicted), "ratio"),
    }


def run_traced(name: str, seed: int, seconds: float, smoke: bool, import_s: float, rec: Recorder, ledger: Ledger):
    """One traced run of a prover workload; returns ``(metrics, extras)``."""
    rng = np.random.default_rng(seed)
    speed = HostSpeed()
    m: Dict[str, Any] = host_metrics(import_s, speed)
    with rec.span("setup", "setup"):
        case = ProverCase(name, smoke, speed)
    shape = workload_shape(case)
    m.update(prove_rounds(case, seconds, smoke, rec, ledger))  # closes the case's pool
    m.update(field_probes(rng, rec))
    m.update(permute_probes(rng, rec))
    m.update(kernel_probes(case, shape, rng, rec))
    m.update(serialize_probes(case, rec))

    counts = case.counts
    m["hashing.sponge_perms"] = metric(counts["sponge_permutations"], "count")
    m["hashing.challenger_perms"] = metric(counts["challenger_permutations"], "count")
    m["ntt.butterflies"] = metric(counts["ntt_butterflies"], "count")
    m["ntt.transforms"] = metric(counts["ntt_transforms"], "count")
    ns_per_butterfly = m.get("ntt.ns_per_butterfly", {"value": 0.0})["value"]
    m["ntt.est_s"] = metric(counts["ntt_butterflies"] * ns_per_butterfly * 1e-9, "s")
    m["hashing.est_s"] = metric(
        counts["sponge_permutations"] * m["hashing.sponge_us"]["value"] * 1e-6
        + counts["challenger_permutations"] * m["hashing.permute_us_b1"]["value"] * 1e-6,
        "s",
    )
    prove_s = m["protocols.prove_s"]["value"]
    attributed = m["hashing.est_s"]["value"] + m["ntt.est_s"]["value"]
    m["protocols.attributed_frac"] = metric(attributed / prove_s, "ratio")
    m["protocols.unattributed_s"] = metric(prove_s - attributed, "s")

    unmodelled = []
    if case.system.uses_ntt:
        with rec.span("sim", "probe"):
            m.update(sim_prediction(case, shape, m))
    else:
        # compiler/frontend.py cannot trace a sumcheck-native proof yet.
        unmodelled.append("sim")
    extras = {
        "config": dict(case.system.default_config()),
        "rows": case.setup.rows,
        "shape": shape,
        "counts": dict(counts),
        "unmodelled": unmodelled,
    }
    return m, extras
