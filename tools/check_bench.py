#!/usr/bin/env python3
"""Perf-regression gate for the BENCH_*.json hot-path results.

Compares freshly produced benchmark JSONs against the checked-in baselines
and fails (exit 1) on a regression:

  * ``bit_exact`` present in the baseline must be true in the fresh run —
    a wrong result is a hard failure regardless of speed;
  * every numeric baseline key is gated by the kind GATES declares for it
    in that file (see below). A numeric baseline key with no declared kind
    fails the check, and so does a declared key the baseline lacks: a
    renamed metric must be re-declared, never silently un-gated;
  * every numeric baseline key must exist in the fresh output (schema drift
    is a failure: a silently dropped metric would un-gate it).

Gate kinds:

  exact           fresh == baseline: workload constants and deterministic
                  plan shapes (steps, slots, slab bytes) and zero-drop
                  counters.
  ratio_floor     fresh >= baseline * (1 - --ratio-tol): machine-relative
                  speedups measured inside one run, the primary gates.
  overhead_floor  fresh >= OVERHEAD_FLOOR, absolute: robust-vs-plain ratios
                  whose ideal is 1.0 by construction.
  ms_ceiling      fresh <= baseline * (1 + --ms-tol): best-of-reps compute
                  wall times. Baselines come from the reference container,
                  so the default tolerance leaves headroom for other CI
                  hardware.
  info            presence-checked only: command-line parameters, host
                  width, throughput and queueing metrics of short
                  oversubscribed runs, and mid-sweep points.

Usage:
  check_bench.py --baseline-dir . --fresh-dir bench-out [names...]
  check_bench.py --baseline-dir . --fresh-dir bench-out --ms-tol -1 ...
      (inverted tolerance: forces a failure — used to verify the gate fires)

With no names, every BENCH_*.json found in the baseline dir is checked.
"""

import argparse
import json
import pathlib
import sys

# overhead_floor keys (robust-vs-plain ratios measured inside one bench run,
# ideal 1.0) are gated against this absolute floor instead of the
# baseline-relative one: the serving deadline machinery may cost at most 2%.
OVERHEAD_FLOOR = 0.98

# ``--require-scaling``: the replicated serving pool must reach this many
# times the single-replica throughput, and the bench itself must have judged
# the host wide enough to enforce it (``scaling_enforced``). Used by the CI
# multicore leg; meaningless on narrow hosts, hence opt-in.
REPLICA_SCALING_FLOOR = 2.0


def _sweep_gates():
    """apmm_sparsity_sweep: the 0% and 90% acceptance points carry ceilings;
    the mid-sweep times and per-point ratios are informational."""
    gates = {"m": "info", "n": "info", "k": "info", "reps": "info",
             "hardware_threads": "info",
             "sparsity_speedup_90": "ratio_floor",
             "dense_parity_speedup_0": "ratio_floor"}
    for scheme in ("w1a2", "w2a2"):
        for point in (0, 25, 50, 75, 90, 95):
            gated = point in (0, 90)
            suffix = "ms" if gated else "millis"
            kind = "ms_ceiling" if gated else "info"
            gates[f"{scheme}_dense_{point}_{suffix}"] = kind
            gates[f"{scheme}_sparse_{point}_{suffix}"] = kind
            gates[f"{scheme}_ratio_{point}"] = "info"
    return gates


GATES = {
    "BENCH_apconv_hotpath.json": {
        "batch": "exact", "in_c": "exact", "hw": "exact", "out_c": "exact",
        "kernel": "exact", "gemm_m": "exact", "gemm_n": "exact",
        "gemm_k": "exact", "tile_bm": "exact", "tile_bn": "exact",
        "reps": "info", "hardware_threads": "info",
        "materialized_ms": "ms_ceiling", "fused_ms": "ms_ceiling",
        "materialized_gops": "info", "fused_gops": "info",
        "speedup": "ratio_floor",
    },
    "BENCH_apmm_hotpath.json": {
        "m": "info", "n": "info", "k": "info",
        "tile_bm": "info", "tile_bn": "info", "reps": "info",
        "hardware_threads": "info",
        "seed_ms": "ms_ceiling", "microkernel_ms": "ms_ceiling",
        "seed_gops": "info", "microkernel_gops": "info",
        "speedup": "ratio_floor",
        "scores_w2a2_seq512_millis": "ms_ceiling",
        "proj_w1a2_quant_seq512_millis": "ms_ceiling",
    },
    "BENCH_apmm_sparsity.json": _sweep_gates(),
    "BENCH_apnn_forward_hotpath.json": {
        "batch": "exact", "hw": "exact", "in_c": "exact", "classes": "exact",
        "reps": "info", "hardware_threads": "info",
        "interpreter_ms": "ms_ceiling", "session_ms": "ms_ceiling",
        "compile_run_ms": "ms_ceiling",
        "interpreter_fps": "info", "session_fps": "info",
        "slab_bytes": "exact", "slots": "exact", "steps": "exact",
        "speedup": "ratio_floor",
    },
    "BENCH_attention_hotpath.json": {
        "buckets": "exact", "reps": "info", "hardware_threads": "info",
        "hand_seq32_millis": "info", "session_seq32_millis": "info",
        "hand_seq512_millis": "info", "session_seq512_millis": "info",
        "speedup_seq32": "ratio_floor", "speedup_seq512": "ratio_floor",
        "speedup": "ratio_floor",
        "plans": "exact", "slots": "exact", "slab_bytes": "exact",
        "serve_requests": "exact", "serve_batches": "info",
        "serve_max_batch": "info", "serve_rps": "info",
    },
    "BENCH_gateway_throughput.json": {
        "requests_per_model": "info", "clients_per_model": "info",
        "hardware_threads": "info",
        "reload_drill_drops": "exact",
        "gateway_rps": "info", "wall_millis": "info",
        "model0_p50_millis": "info", "model0_p99_millis": "info",
        "model1_p50_millis": "info", "model1_p99_millis": "info",
    },
    "BENCH_serving_throughput.json": {
        "requests": "info", "clients": "info", "replicas": "info",
        "slice_threads": "info", "hardware_threads": "info",
        "single_rps": "info", "replicated_rps": "info",
        "replica_scaling_x": "info",
        "single_wall_millis": "info", "replicated_wall_millis": "info",
        "deadline_wall_millis": "info",
        "deadline_overhead_speedup": "overhead_floor",
        "mean_latency_millis": "info",
        "peak_queue_depth": "info", "max_batch_formed": "info",
    },
}

KINDS = {"exact", "ratio_floor", "overhead_floor", "ms_ceiling", "info"}


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load(path: pathlib.Path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL {path}: cannot read ({e})")
        return None


def check_file(name: str, base: dict, fresh: dict, ms_tol: float,
               ratio_tol: float, require_scaling: bool = False) -> list[str]:
    errors = []
    if base.get("bit_exact") is True and fresh.get("bit_exact") is not True:
        errors.append("bit_exact is not true in the fresh run")

    if require_scaling and "replica_scaling_x" in fresh:
        if fresh.get("scaling_enforced") is not True:
            errors.append(
                "--require-scaling: scaling_enforced is not true (host too "
                "narrow, or the bench ran with < 4 replicas)")
        scaling = fresh.get("replica_scaling_x")
        if not is_number(scaling):
            errors.append("--require-scaling: replica_scaling_x not numeric")
        elif scaling < REPLICA_SCALING_FLOOR:
            errors.append(
                f"--require-scaling: replica_scaling_x {scaling:.3f} < "
                f"{REPLICA_SCALING_FLOOR:.1f}")

    gates = GATES.get(name, {})
    for key, kind in gates.items():
        if kind not in KINDS:
            errors.append(f"gate table: '{key}' has unknown kind '{kind}'")
        if key not in base:
            errors.append(f"gate table: '{key}' is not in the baseline")

    for key, bval in base.items():
        if not is_number(bval):
            continue
        kind = gates.get(key)
        if kind is None:
            errors.append(f"metric '{key}' has no gate kind declared")
            continue
        fval = fresh.get(key)
        if not is_number(fval):
            errors.append(f"metric '{key}' missing from fresh output")
            continue
        if kind == "exact":
            if fval != bval:
                errors.append(f"{key}: {fval} != {bval} (exact)")
        elif kind in ("ratio_floor", "overhead_floor"):
            floor = (bval * (1.0 - ratio_tol) if kind == "ratio_floor"
                     else OVERHEAD_FLOOR)
            if fval < floor:
                errors.append(
                    f"{key}: {fval:.3f} < {floor:.3f} "
                    f"(baseline {bval:.3f}, {kind}, "
                    f"ratio-tol {ratio_tol:.2f})")
        elif kind == "ms_ceiling":
            ceiling = bval * (1.0 + ms_tol)
            if fval > ceiling:
                errors.append(
                    f"{key}: {fval:.3f} ms > {ceiling:.3f} ms "
                    f"(baseline {bval:.3f}, ms-tol {ms_tol:.2f})")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=".", type=pathlib.Path)
    ap.add_argument("--fresh-dir", required=True, type=pathlib.Path)
    ap.add_argument("--ms-tol", type=float, default=0.60,
                    help="allowed relative slowdown of ms_ceiling keys "
                         "(default 0.60: cross-machine headroom)")
    ap.add_argument("--ratio-tol", type=float, default=0.10,
                    help="allowed relative drop of ratio_floor keys "
                         "(default 0.10: wall-clock noise)")
    ap.add_argument("--require-scaling", action="store_true",
                    help="additionally require replica_scaling_x >= "
                         f"{REPLICA_SCALING_FLOOR} with scaling_enforced "
                         "true in the fresh serving bench (multicore CI "
                         "hosts only)")
    ap.add_argument("names", nargs="*",
                    help="benchmark file names (default: BENCH_*.json in "
                         "the baseline dir)")
    args = ap.parse_args()

    names = args.names or sorted(
        p.name for p in args.baseline_dir.glob("BENCH_*.json"))
    if not names:
        print(f"FAIL: no BENCH_*.json baselines under {args.baseline_dir}")
        return 1

    failed = False
    for name in names:
        base = load(args.baseline_dir / name)
        fresh = load(args.fresh_dir / name)
        if base is None or fresh is None:
            failed = True
            continue
        errors = check_file(name, base, fresh, args.ms_tol, args.ratio_tol,
                            args.require_scaling)
        if errors:
            failed = True
            print(f"FAIL {name}:")
            for e in errors:
                print(f"  - {e}")
        else:
            print(f"OK   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
