#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs with --offline: the build
# must stay hermetic (path-only workspace dependencies, no registry).
#
#   scripts/ci.sh            # fmt + build + tests + smoke bench
#
# The smoke bench exercises the mpvl-testkit harness end to end and
# leaves a machine-readable timing record in
# target/bench/BENCH_sparse_ldlt.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# smoke_bench <bin> <result names...>: runs one mpvl-bench bin with
# reduced samples, then checks that target/bench/BENCH_<suite>.json
# (suite = bin minus its bench_ prefix) names its suite and holds every
# given result. Env assignments in front of the call reach the bin.
smoke_bench() {
    local bin=$1 suite=${1#bench_}
    shift
    local json=target/bench/BENCH_$suite.json
    echo "==> smoke bench ($bin, reduced samples)"
    MPVL_BENCH_WARMUP=1 MPVL_BENCH_SAMPLES=3 \
        cargo run -q --release --offline -p mpvl-bench --bin "$bin"
    test -s "$json"
    grep -q "\"suite\": *\"$suite\"" "$json" || {
        echo "$json missing suite \"$suite\"" >&2
        exit 1
    }
    for name in "$@"; do
        grep -q "\"$name" "$json" || {
            echo "$json missing result \"$name\"" >&2
            exit 1
        }
    done
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> console-hygiene gate (no println!/eprintln! in library code)"
# Library crates must route console output through mpvl_obs::cprintln!/
# ceprintln! (or a real sink); stray debug prints corrupt the bench
# tables and the MPVL_OBS=json stderr export. Exempt: binaries
# (src/bin/), doc-comment lines, and anything after a #[cfg(test)]
# module starts. cprintln!/ceprintln! themselves don't match — the
# leading `c` fails the word boundary.
violations=$(
    # `|| true`: an empty survivor set exits the grep pipeline nonzero,
    # which is the *passing* case under pipefail.
    { grep -rnE '(^|[^_[:alnum:]])(println|eprintln)!' crates/*/src --include='*.rs' \
        | grep -v '/src/bin/' \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true; } \
        | while IFS=: read -r file line rest; do
            if ! head -n "$line" "$file" | grep -q '#\[cfg(test)\]'; then
                echo "$file:$line:$rest"
            fi
        done
)
if [ -n "$violations" ]; then
    echo "$violations" >&2
    echo "console-hygiene gate failed: use mpvl_obs::cprintln!/ceprintln!" >&2
    exit 1
fi

echo "==> cargo build --release --offline --all-targets"
# --all-targets pulls in the examples and integration tests.
cargo build --release --offline --all-targets

echo "==> rustdoc (every intra-doc link resolves, no private links)"
# A renamed or deleted item leaves its doc links dangling; rustdoc only
# warns, so the gate turns warnings into errors.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "==> cargo test -q --offline (MPVL_THREADS=1: single-thread fallback)"
# The env pin keeps the mpvl-par inline fallback on every env-driven
# entry point; the multi-thread pool is still exercised explicitly by
# crates/sim/tests/par_determinism.rs and the mpvl-par unit tests.
MPVL_THREADS=1 cargo test -q --offline

smoke_bench bench_sparse_ldlt ldlt_numeric_scalar/1360 ldlt_numeric_supernodal/1360 \
    speedup/supernodal_vs_scalar/1360 ldlt_ordering/mindegree_grid/40401 \
    ldlt_ordering/explicit_md_grid/40401

echo "==> golden bit-identity across thread counts (MPVL_THREADS=2,4)"
# The MPVL_THREADS=1 run above already covered the single-thread golden
# fingerprints; the reduction must produce the same bits at any worker
# count (column-chunked fan-out with the identical serial kernel).
MPVL_THREADS=2 cargo test -q --offline -p sympvl --test golden_bitident
MPVL_THREADS=4 cargo test -q --offline -p sympvl --test golden_bitident

smoke_bench bench_lanczos sympvl_order/8 sympvl_order/64 sympvl_size sympvl_reorth/full \
    sympvl_reorth/banded krylov_apply/columns64 krylov_apply/block64 reorth/grid201_p64

smoke_bench bench_engine session_rc/cold session_rc/warm session_rlc/cold \
    session_rlc/warm ac_sweep/cold ac_sweep/warm

echo "==> session determinism across threads (MPVL_THREADS=2)"
# The MPVL_THREADS=1 workspace run above already covered the inline
# path; the engine's batch fan-out must be bit-identical with a pool.
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --test session_determinism
# Exact obs counters need a process without concurrently emitting tests.
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --test eval_plan_counters

echo "==> multi-point determinism across threads (MPVL_THREADS=2)"
# The multi-point driver is sequential over expansion points, so its
# merged models must be bit-identical to the free function at any cache
# state and any worker count (the suite also sweeps eval at 1/2/4
# in-process).
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --test multipoint_determinism

echo "==> backend cross-validation golden (MPVL_THREADS=2,4)"
# Padé and balanced truncation share no approximation machinery; the
# golden suite pins their agreement inside the Hankel bound and every
# cross-validation scalar bit-identical at any worker count (the
# MPVL_THREADS=1 workspace run above covered the inline path).
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --test cross_validate_golden
MPVL_THREADS=4 cargo test -q --offline -p mpvl-engine --test cross_validate_golden

# MPVL_THREADS=2 with the MPVL_OBS=json export on.
rm -f target/obs/ci_smoke.jsonl
MPVL_THREADS=2 MPVL_OBS=json:target/obs/ci_smoke.jsonl \
    smoke_bench bench_par_sweep ac_sweep_large8/threads=1 ac_sweep_large8/threads=4 \
    speedup/large8_t4_vs_t1

echo "==> validate obs export (target/obs/ci_smoke.jsonl)"
cargo run -q --release --offline -p mpvl-bench --bin obs_validate -- \
    target/obs/ci_smoke.jsonl

echo "==> service layer across threads (MPVL_THREADS=2, stress also at 4)"
# The MPVL_THREADS=1 workspace run above covered the inline path. The
# service smoke suite walks ingest -> reduce -> evict -> re-ingest
# (registry hit) end to end; the stress suite replays a multi-client
# workload against shared sessions and asserts byte-identity with a
# serial reference at every worker count.
MPVL_THREADS=2 cargo test -q --offline -p mpvl-service
MPVL_THREADS=4 cargo test -q --offline -p mpvl-service --test service_stress

echo "==> poison + eviction regression (engine session hardening)"
# One crashed request must never brick a session (locks recover from
# poisoning) and the bounded model store must retire ids with a typed
# error, not a silent miss. Re-run the dedicated unit tests with a pool.
MPVL_THREADS=2 cargo test -q --offline -p mpvl-engine --lib -- \
    a_panic_under_a_session_lock_does_not_poison_later_requests \
    model_store_is_bounded_and_retires_ids

smoke_bench bench_service service_submit/cold service_submit/registry_warm \
    service_batch/mixed registry/warm_hit_ratio
smoke_bench bench_eval eval_lu/40x2001 eval_compiled/40x2001 \
    speedup/compiled_vs_lu/40x2001
smoke_bench bench_multipoint multipoint/worst_band_error singlepoint/worst_band_error \
    multipoint/reduce_2pt multipoint_adaptive/worst_band_error
smoke_bench bench_bt bt/worst_band_error pade/worst_band_error \
    bt/hankel_spectrum bt/reduce bt/hankel_bound

echo "==> bench gate (factor kernel, sweep scaling, compiled eval, registry, multi-point, balanced truncation)"
# Fails if the supernodal kernel is slower than the scalar kernel at
# n=1360, if the threads=4 large-case sweep does not beat threads=1
# (strict on multicore; a loud skip + oversubscription bound on 1 core),
# if the compiled pole-residue eval is not faster than per-point LU, or
# if the warm service registry hit ratio drops below 0.5 / a registry
# hit stops being faster than a cold submit, or if the 2-point merged
# model stops beating the equal-order mid-band single-point expansion
# on worst-over-band error, or if balanced truncation stops beating the
# equal-order mid-band Pade expansion on the strongly-coupled PEEC band.
cargo run -q --release --offline -p mpvl-bench --bin bench_gate

echo "==> ci.sh: all green"
